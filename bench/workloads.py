"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload draws a pool of instances from `generate_corpus(seed)` and
issues them in `mix_order`.  The cost of one operation is heavy-tailed and is
set mostly by one size class of the instance (its "stratum"); how many
instances of each class a seed's pool holds varies from seed to seed by
10-30% for the rare, expensive classes.  `mix_order` therefore issues the
classes in fixed shares, measured once over many seeds and stored in
`mix.json`, and the seed picks which instances of each class run.  Positions
are visited in bit-reversed order, so every block of 16 consecutive
operations holds one instance from each sixteenth of the mix, and
`mix_weights` weighs a run stopped anywhere by the share each position
stands for.

An operation's machine output is kept and checked after the timed loop:
exit codes, certificates, the brute-force shift oracle, the fast-path
cross-checks, and, on the seed the reference was recorded for, a digest of
the output bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter, defaultdict

# engine calls go through module attributes, so that the tracer's wrappers
# (installed on the modules) see the benchmark's own calls too
from gradalg import cli, corpus, embed
from gradalg.corpus import Instance
from gradalg.embed import decide_part1, decide_part2
from gradalg.galg import GradedPresentation
from gradalg.groups import GTuple, group_to_json
from gradalg.tuples import exists_shift_bruteforce


def _bitrev(k: int, bits: int) -> int:
    return int(format(k, f"0{bits}b")[::-1], 2) if bits else 0


def mix_order(items, stratum, key, shares, bits):
    """One pass of 2^bits (position, item) pairs, in the order the benchmark
    issues them.

    Position k stands for the quantile u = (bitrev(k) + 1/2) / 2^bits of the
    mix `shares` (stratum label -> share).  It takes the stratum whose share
    interval holds u and, inside it, the item at the same relative rank by
    `key`.  A stratum missing from `items` lends its positions to the nearest
    label that is present.
    """
    groups = defaultdict(list)
    for item in items:
        groups[stratum(item)].append(item)
    for group in groups.values():
        group.sort(key=key)
    labels = sorted(set(shares) | set(groups))
    present = [labels.index(label) for label in sorted(groups)]
    bounds, acc = [], 0.0
    for label in sorted(shares):
        bounds.append((acc, acc + shares[label], label))
        acc += shares[label]
    order = []
    for k in range(1 << bits):
        u = (_bitrev(k, bits) + 0.5) / (1 << bits)
        lo, hi, label = next((b for b in bounds if u * acc < b[1]),
                             bounds[-1])
        if label not in groups:
            at = labels.index(label)
            label = labels[min(present, key=lambda p: abs(p - at))]
        group = groups[label]
        rank = int((u * acc - lo) / (hi - lo) * len(group))
        order.append((u, group[min(rank, len(group) - 1)]))
    return order


def mix_weights(positions) -> list[float]:
    """Share of the mix each operation stands for: the part of [0, 1) that
    lies nearer its position than any other position run.  Operations run
    at the same position split it.  Any prefix of the bit-reversed order
    thus weighs each stratum by its share, whether or not the run stopped
    on a block boundary."""
    distinct = sorted(set(positions))
    cell = {}
    for i, u in enumerate(distinct):
        lo = (distinct[i - 1] + u) / 2 if i else 0.0
        hi = (u + distinct[i + 1]) / 2 if i + 1 < len(distinct) else 1.0
        cell[u] = hi - lo
    repeats = Counter(positions)
    return [cell[u] / repeats[u] for u in positions]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _shift_oracle(b, decision_json) -> list[str]:
    """Re-run the shift search of a decision by whole-group scan."""
    group = b.group
    modulo = (group.trivial_subgroup()
              if decision_json["case"] == "elementary_nonabelian" else b.H)
    pattern = GTuple(group, decision_json["pattern"])
    found = exists_shift_bruteforce(b.s, pattern, modulo) is not None
    if found != decision_json["verdict"]:
        return ["verdict disagrees with exists_shift_bruteforce"]
    return []


def _certificate_errors(cert, what: str) -> list[str]:
    if cert and cert["graded"] and cert["multiplicative"] and cert["injective"]:
        return []
    return [f"{what} certificate is not an embedding: {cert}"]


def _fresh_copy(inst):
    """The same instance on new presentation objects, which share no cache."""
    group = inst.a.group
    return Instance(inst.name, inst.tag,
                    GradedPresentation.from_json(group, inst.a.to_json()),
                    GradedPresentation.from_json(group, inst.b.to_json()))


class CorpusL3:
    """`run_instance(inst, max_len=3)` over the order-6 corpus."""

    name = "corpus-l3"
    order_bound = 6
    pool = 1024
    # positions per pass; a run at the baseline covers 60 to 90 of them,
    # so each sixteenth of the mix gets about four operations
    bits = 10
    # run_instance caches identity spaces on the presentations, so a second
    # pass over the same objects would measure cache hits: start afresh
    fresh_inputs_per_pass = True
    # pools set up per run; one pool's set-up time spreads by 0.2 over seeds
    setup_pools = 5

    def setup(self, seed, workdir):
        return corpus.generate_corpus(seed, self.order_bound, self.pool)

    def strata(self, pool):
        """Verdict and target dimension: a true verdict runs the identity
        sweep, whose size grows with the target's graded components."""
        return {inst.name: f"{int(embed.decide(inst.a, inst.b).verdict)}:"
                           f"{inst.b.dim:03d}" for inst in pool}

    def schedule(self, pool, shares):
        strata = self.strata(pool)
        order = mix_order(pool, lambda i: strata[i.name],
                          lambda i: (i.a.dim, i.a.H.order), shares, self.bits)
        seen = set()
        for k, (u, inst) in enumerate(order):
            if id(inst) in seen:
                order[k] = (u, _fresh_copy(inst))
            seen.add(id(order[k][1]))
        return order

    def op_id(self, inst):
        return inst.name

    def run(self, inst):
        return corpus.run_instance(inst, max_len=3)

    def finish(self, inst, rec):
        sep = rec.get("separator", {}).get("status")
        return _dumps(rec), {"inconclusive": sep == "inconclusive-witness"}

    def check(self, inst, output, info) -> list[str]:
        rec = json.loads(output)
        errors = _shift_oracle(inst.b, rec["trace"])
        if rec["verdict"]:
            errors += _certificate_errors(rec.get("certificate"),
                                          "run_instance")
        return errors


class DecideWide:
    """`decide(a, b)` over the order-12 corpus: a catalog query."""

    name = "decide-wide"
    order_bound = 12
    pool = 512
    # a run at the baseline makes two passes or more
    bits = 9
    fresh_inputs_per_pass = False
    # one pool's set-up time spreads by 0.3 over seeds
    setup_pools = 5

    def setup(self, seed, workdir):
        return corpus.generate_corpus(seed, self.order_bound, self.pool)

    def strata(self, pool):
        """Order of the subgroup intersection: cocycle validation on it
        takes |H|^3 products."""
        return {inst.name: f"{inst.a.H.intersection(inst.b.H).order:02d}"
                for inst in pool}

    def schedule(self, pool, shares):
        strata = self.strata(pool)
        return mix_order(pool, lambda i: strata[i.name],
                         lambda i: (i.a.group.order, i.b.dim), shares,
                         self.bits)

    def op_id(self, inst):
        return inst.name

    def run(self, inst):
        return embed.decide(inst.a, inst.b)

    def finish(self, inst, decision):
        return _dumps(decision.to_json()), {}

    def check(self, inst, output, info) -> list[str]:
        dec = json.loads(output)
        errors = _shift_oracle(inst.b, dec)
        a, b, group = inst.a, inst.b, inst.a.group
        if group.abelian and b.H.order == group.order:
            if decide_part1(a, b).verdict != dec["verdict"]:
                errors.append("decide_part1 disagrees")
        if (group.abelian and all(x in b.H.members for x in a.s)
                and all(x in a.H.members for x in b.s)):
            if decide_part2(a, b).verdict != dec["verdict"]:
                errors.append("decide_part2 disagrees")
        return errors


class CertifyRequest:
    """One user-level request through `gradalg.cli.main`, in-process."""

    __slots__ = ("op_id", "argv", "verify", "inst")

    def __init__(self, op_id, argv, verify, inst=None):
        self.op_id = op_id
        self.argv = argv        # construct or semisimple-embed arguments
        self.verify = verify    # follow with `verify REPORT`
        self.inst = inst        # corpus instance behind the document, if any


def _cli(argv, out_path) -> int:
    with open(out_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Certify:
    """`construct DOC > REPORT`, then `verify REPORT`, per true instance,
    plus the construct and semisimple-embed jobs of the fixtures."""

    name = "certify"
    order_bound = 6
    pool = 512
    # a run at the baseline makes at least one pass, so it always reaches
    # the rare heavy strata at the top of the mix
    bits = 7
    # three fixture jobs for the 109 documents of the default 220-instance
    # corpus; in a pass of 128 positions they are operations 63, 95, 127
    FIXTURE_SHARE = 3 / 112
    fresh_inputs_per_pass = False
    # one pool's set-up time spreads by only 0.08 over seeds, and costs the
    # most: two pools suffice
    setup_pools = 2

    def __init__(self, root):
        fixtures = os.path.join(root, "fixtures")
        self.fixture_requests = [
            CertifyRequest(f"fixture:{doc}:{argv[0]}",
                           [argv[0], os.path.join(fixtures, f"{doc}.json"),
                            *argv[1:]], argv[0] == "construct")
            for doc, argv in [
                ("dihedral_regular", ["construct", "--a", "A", "--b", "Breg"]),
                ("klein_twisted", ["construct", "--a", "A", "--b", "B2"]),
                ("zmod10_block_sum", ["semisimple-embed", "--a", "A1,A2",
                                      "--b", "B"]),
            ]]
        self.workdir = None
        self.reports = 0

    def setup(self, seed, workdir):
        self.workdir = workdir
        docs = os.path.join(workdir, "docs")
        os.makedirs(docs, exist_ok=True)
        requests = list(self.fixture_requests)
        for inst in corpus.generate_corpus(seed, self.order_bound, self.pool):
            if not embed.decide(inst.a, inst.b).verdict:
                continue
            path = os.path.join(docs, f"{inst.name}.json")
            doc = {"version": 1, "group": group_to_json(inst.a.group),
                   "presentations": {"A": inst.a.to_json(),
                                     "B": inst.b.to_json()}}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            requests.append(CertifyRequest(inst.name, ["construct", path],
                                           True, inst))
        return requests

    def strata(self, requests):
        """Source dimension and target subgroup order of each document:
        verify_hom sweeps all pairs of source basis elements and multiplies
        their images in the target."""
        return {r.op_id: f"{r.inst.a.dim:03d}:{r.inst.b.H.order:02d}"
                for r in requests if r.inst is not None}

    def schedule(self, requests, shares):
        """The fixture jobs form one more stratum, of share FIXTURE_SHARE."""
        strata = self.strata(requests)
        shares = {label: share * (1 - self.FIXTURE_SHARE)
                  for label, share in shares.items()}
        shares["fixture"] = self.FIXTURE_SHARE
        return mix_order(requests, lambda r: strata.get(r.op_id, "fixture"),
                         lambda r: (r.inst.b.r, r.inst.a.H.order)
                         if r.inst else (r.op_id,), shares, self.bits)

    def op_id(self, req):
        return req.op_id

    def run(self, req):
        self.reports += 1
        base = os.path.join(self.workdir, f"report-{self.reports}")
        codes = [_cli(req.argv, base + ".json")]
        if req.verify:
            codes.append(_cli(["verify", base + ".json"], base + ".verify"))
        return base, codes

    def finish(self, req, ran):
        base, codes = ran
        parts = []
        for suffix in (".json", ".verify")[:len(codes)]:
            with open(base + suffix, "rb") as fh:
                parts.append(fh.read())
            os.remove(base + suffix)
        return b"\0".join(parts), {"codes": codes}

    def check(self, req, output, info) -> list[str]:
        if info["codes"] != [0] * len(info["codes"]):
            return [f"unexpected exit codes {info['codes']}"]
        reports = [json.loads(part) for part in output.split(b"\0")]
        errors = []
        for report in reports:
            errors += _certificate_errors(report.get("certificate"),
                                          report["command"])
        if req.inst is not None:
            errors += _shift_oracle(req.inst.b, reports[0]["decision"])
        return errors


WORKLOADS = {"corpus-l3": CorpusL3, "certify": Certify,
             "decide-wide": DecideWide}


def make(name, root):
    cls = WORKLOADS[name]
    return cls(root) if cls is Certify else cls()
