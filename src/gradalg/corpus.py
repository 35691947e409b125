"""Seeded instance generation and batch checking for the decision engine.

Instances are pairs of presentations over small abelian ambient groups (plus
elementary targets), drawn deterministically from a seed.  A run record per
instance captures the decision, the construction certificate and the bounded
identity-inclusion check on true decisions, and a verified separator or an
honest inconclusive mark on false ones.  A separator is verified once, by
the `separate_*` function that builds it (see `SeparatorResult`); the run
record reports it without checking it again.
"""

from __future__ import annotations

import random

from .cocycles import enumerate_cocycle_classes
from .embed import construct, decide, decide_part1, decide_part2
from .errors import (BudgetExceeded, NotFoundWithinBudget, Unsupported,
                     VerificationFailed)
from .galg import GradedPresentation
from .groups import MAX_GROUP_ORDER, FiniteGroup, GTuple
from .identities import (SeparatorResult, inclusion_bounded,
                         separate_bounded, separate_elementary, separate_part1)

MAX_TUPLE_LEN = 3


def ambient_groups(order_bound: int = 6) -> list[FiniteGroup]:
    """The cyclic groups of order 2 up to `order_bound`, and Z2 x Z2 from
    order bound 4 on.  A bound outside 2..MAX_GROUP_ORDER is refused before
    any table is built: below 2 there is no group to draw from, above it
    the tables grow as the square of the order."""
    if not 2 <= order_bound <= MAX_GROUP_ORDER:
        raise ValueError(f"order bound {order_bound} is not from 2 to "
                         f"{MAX_GROUP_ORDER}")
    groups = [FiniteGroup.cyclic(n) for n in range(2, order_bound + 1)]
    if order_bound >= 4:
        groups.append(FiniteGroup.product([FiniteGroup.cyclic(2),
                                           FiniteGroup.cyclic(2)]))
    return groups


class _GroupData:
    def __init__(self, group: FiniteGroup):
        self.group = group
        self.subgroups = group.all_subgroups()
        self.classes = {sub.sorted_members: enumerate_cocycle_classes(sub)
                        for sub in self.subgroups}

    def cocycle_for(self, rng, sub):
        classes = self.classes[sub.sorted_members]
        return rng.choice(classes)


class Instance:
    def __init__(self, name, tag, a: GradedPresentation, b: GradedPresentation):
        self.name = name
        self.tag = tag
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Instance({self.name}, tag={self.tag})"


def _random_tuple(rng, group, members=None):
    length = rng.randrange(1, MAX_TUPLE_LEN + 1)
    pool = sorted(members) if members is not None else list(group.elements())
    return GTuple(group, [rng.choice(pool) for _ in range(length)])


def generate_corpus(seed: int, order_bound: int = 6,
                    count: int = 220) -> list[Instance]:
    rng = random.Random(seed)
    data = [_GroupData(g) for g in ambient_groups(order_bound)]
    instances = []
    shapes = ["rigged", "random", "part1", "part2", "elementary"]
    idx = 0
    while len(instances) < count:
        gd = data[idx % len(data)]
        shape = shapes[idx % len(shapes)]
        idx += 1
        group = gd.group
        subs = gd.subgroups
        n1 = rng.choice(subs)
        alpha = gd.cocycle_for(rng, n1)
        if shape == "part1":
            n2 = group.full_subgroup()
        elif shape == "elementary":
            n2 = group.trivial_subgroup()
        else:
            n2 = rng.choice(subs)
        beta = gd.cocycle_for(rng, n2)
        if shape == "part2":
            s = _random_tuple(rng, group, members=n2.members)
            t = _random_tuple(rng, group, members=n1.members)
        else:
            s = _random_tuple(rng, group)
            t = _random_tuple(rng, group)
        a = GradedPresentation(group, n1, alpha, s)
        if shape == "rigged":
            probe = decide(a, GradedPresentation(group, n2, beta, t))
            pattern = probe.pattern
            if len(pattern) <= MAX_TUPLE_LEN:
                g = rng.randrange(group.order)
                entries = list(pattern.shift(g).entries)
                while len(entries) < MAX_TUPLE_LEN and rng.random() < 0.4:
                    entries.append(rng.randrange(group.order))
                t = GTuple(group, entries)
        b = GradedPresentation(group, n2, beta, t)
        instances.append(Instance(f"i{len(instances):04d}", shape, a, b))
    return instances


def run_instance(inst: Instance, max_len: int = 3,
                 budget: int | None = None) -> dict:
    """Full check of one instance; raises on any soundness violation."""
    a, b = inst.a, inst.b
    rec = {"name": inst.name, "tag": inst.tag, "group": a.group.name,
           "dims": [a.dim, b.dim]}
    decision = decide(a, b)
    rec["verdict"] = decision.verdict
    rec["case"] = decision.case
    rec["trace"] = decision.to_json()

    # each fast path refuses a pair of another shape with Unsupported
    cross = {}
    for name, route in (("part1", decide_part1), ("part2", decide_part2)):
        try:
            cross[name] = route(a, b).verdict
        except Unsupported:
            continue
        if cross[name] != decision.verdict:
            raise VerificationFailed(f"{inst.name}: {name} fast path disagrees")
    rec["cross_checks"] = cross

    if decision.verdict:
        rec["certificate"] = construct(a, b, decision).certificate.to_json()
        report = inclusion_bounded(b, a, max_len, budget)
        if not report.holds:
            raise VerificationFailed(
                f"{inst.name}: identity inclusion violated on a true decision")
        rec["inclusion_holds"] = True
        rec["inclusion_multidegrees"] = len(report.checked)
    else:
        try:
            sep = separate(a, b, max_len, budget)
        except (NotFoundWithinBudget, BudgetExceeded) as exc:
            rec["separator"] = {"status": "inconclusive-witness",
                                "reason": str(exc)}
        else:
            rec["separator"] = {"status": "verified", "kind": sep.kind,
                                "multidegree": [int(g) for g in sep.degrees]}
    return rec


def separate(a: GradedPresentation, b: GradedPresentation, max_len: int = 3,
             budget: int | None = None) -> SeparatorResult:
    """A verified separator for a false decision: that of the first
    structured route, `separate_part1` then `separate_elementary`, that
    does not refuse the pair's shape with Unsupported, else the bounded scan
    up to `max_len`."""
    for route in (separate_part1, separate_elementary):
        try:
            return route(a, b, budget)
        except Unsupported:
            pass
    return separate_bounded(a, b, max_len, budget)


_WORKER_CACHE: dict = {}


def _run_indexed(task) -> dict:
    """Worker entry: regenerate the corpus deterministically, run one index.

    Instances are rebuilt per process instead of shipped across it; records
    are plain JSON data, so pool results merge cleanly in input order.
    """
    seed, order_bound, count, index, max_len, budget = task
    key = (seed, order_bound, count)
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = generate_corpus(seed, order_bound, count)
    return run_instance(_WORKER_CACHE[key][index], max_len, budget)


def run_corpus(seed: int, order_bound: int = 6, count: int = 220,
               max_len: int = 3, budget: int | None = None,
               workers: int = 1) -> dict:
    instances = generate_corpus(seed, order_bound, count)
    if workers > 1:
        import multiprocessing
        tasks = [(seed, order_bound, count, i, max_len, budget)
                 for i in range(len(instances))]
        with multiprocessing.Pool(workers) as pool:
            records = pool.map(_run_indexed, tasks)
    else:
        records = [run_instance(inst, max_len, budget) for inst in instances]
    trues = sum(1 for r in records if r["verdict"])
    separators = sum(1 for r in records
                     if r.get("separator", {}).get("status") == "verified")
    inconclusive = sum(1 for r in records
                       if r.get("separator", {}).get("status")
                       == "inconclusive-witness")
    return {"seed": seed, "order_bound": order_bound,
            "count": len(records), "true_decisions": trues,
            "false_decisions": len(records) - trues,
            "separators_verified": separators,
            "separators_inconclusive": inconclusive,
            "records": records}
