"""Acceptance suite: one test per criterion, each printing a verdict line.

All checks are exact; the stated wall-clock bounds are asserted where the
criterion carries one.
"""

import time

import pytest

from gradalg.cocycles import (Cocycle, enumerate_cocycle_classes,
                              smallest_irrep)
from gradalg.corpus import generate_corpus, run_instance
from gradalg.embed import construct, decide
from gradalg.envelope import alpha_envelope, round_trip_iso
from gradalg.galg import GradedPresentation, verify_hom
from gradalg.groups import FiniteGroup, GTuple, build_group, dihedral_table
from gradalg.identities import (is_identity, separate_elementary,
                                standard_poly)
from gradalg.semisimple import (SemisimplePresentation, embed_into_power,
                                minimal_set, pair_inclusion)
from gradalg.tuples import exists_shift, exists_shift_bruteforce, subsume_mod

CORPUS_SEED = 20250809
CORPUS_COUNT = 220


def _report(number, label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_standard_polynomial_thresholds():
    z1 = FiniteGroup.cyclic(1)
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        m = GradedPresentation.elementary(z1, GTuple(z1, [0] * n))
        below = standard_poly(2 * n - 1, [0] * (2 * n - 1), z1)
        exact = standard_poly(2 * n, [0] * (2 * n), z1)
        ok = ok and not is_identity(below, m).is_identity
        ok = ok and is_identity(exact, m).is_identity
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(1, "standard polynomial vanishing thresholds on 1x1..3x3 matrices",
            ok, elapsed)


def test_criterion_2_twisted_algebra_structure():
    start = time.time()
    klein = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    _, nt = enumerate_cocycle_classes(klein.full_subgroup())
    data = smallest_irrep(nt)   # construction verifies the span certificate
    ok = data.dim == 2
    for factors in ([2, 2], [2, 4], [3, 3]):
        group = FiniteGroup.product([FiniteGroup.cyclic(k) for k in factors])
        sub = group.full_subgroup()
        for alpha in enumerate_cocycle_classes(sub):
            rep = smallest_irrep(alpha)
            radical = alpha.bicharacter().radical
            ok = ok and rep.dim ** 2 * radical.order == sub.order
    _report(2, "minimal representation dimensions and radical indices",
            ok, time.time() - start)


def _twist_fixture_set():
    klein = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    triv, nt = enumerate_cocycle_classes(klein.full_subgroup())
    z4 = FiniteGroup.cyclic(4)
    h4 = z4.subgroup([0, 2])
    full4 = z4.full_subgroup()
    fixtures = []
    for cocycle in (triv, nt):
        for s in ([0], [0, 2], [1, 3]):
            fixtures.append((GradedPresentation(klein, klein.full_subgroup(),
                                                cocycle, GTuple(klein, s)), nt))
    small = klein.subgroup([0, 1])
    fixtures.append((GradedPresentation(klein, small, Cocycle.trivial(small),
                                        GTuple(klein, [0, 2])), nt))
    fixtures.append((GradedPresentation(z4, h4, Cocycle.trivial(h4),
                                        GTuple(z4, [0, 1])),
                     Cocycle.trivial(full4)))
    fixtures.append((GradedPresentation(z4, full4, Cocycle.trivial(full4),
                                        GTuple(z4, [0, 3])),
                     Cocycle.trivial(full4)))
    return fixtures


def test_criterion_3_envelope_round_trips():
    start = time.time()
    ok = True
    for b, alpha in _twist_fixture_set():
        carrier, rt = round_trip_iso(b, alpha)
        cert = verify_hom(rt)
        ok = ok and cert.graded and cert.multiplicative and cert.injective
        ok = ok and carrier.dim == b.dim
        env = alpha_envelope(b, alpha)
        ok = ok and verify_hom(env.iso).is_embedding
    _report(3, "double-twist round trips and twist isomorphisms certified",
            ok, time.time() - start)


@pytest.fixture(scope="module")
def corpus_records():
    instances = generate_corpus(CORPUS_SEED, order_bound=6, count=CORPUS_COUNT)
    start = time.time()
    records = [run_instance(inst, max_len=3) for inst in instances]
    return records, time.time() - start


def test_criterion_4_soundness_corpus(corpus_records):
    records, elapsed = corpus_records
    ok = len(records) >= 200
    trues = [r for r in records if r["verdict"]]
    # run_instance raises on any certification or inclusion failure, so
    # reaching this point with records present is the core of the check
    ok = ok and all(r.get("certificate", {}).get("injective") for r in trues)
    ok = ok and all(r.get("inclusion_holds") for r in trues)
    ok = ok and elapsed < 1800
    print(f"      corpus: {len(records)} instances, {len(trues)} true")
    _report(4, "every true decision constructs, certifies and respects "
               "bounded identity inclusion", ok, elapsed)


def test_criterion_5_separation_consistency(corpus_records):
    records, elapsed = corpus_records
    falses = [r for r in records if not r["verdict"]]
    ok = len(falses) > 0
    verified = 0
    inconclusive = 0
    for r in falses:
        sep = r.get("separator", {})
        if sep.get("status") == "verified":
            verified += 1
        elif sep.get("status") == "inconclusive-witness":
            inconclusive += 1
        else:
            ok = False
    print(f"      separators: {verified} verified, {inconclusive} inconclusive "
          f"of {len(falses)} false decisions")
    _report(5, "false decisions carry verified separators or honest "
               "inconclusive marks", ok, elapsed)


def test_criterion_6_elementary_regular_case():
    start = time.time()
    ok = True
    d4 = build_group({"kind": "table", "table": dihedral_table(4),
                      "name": "D4"})
    klein_in_d4 = d4.subgroup([0, 2, 4, 6])
    klein = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    settings = [(d4, klein_in_d4), (klein, klein.full_subgroup())]
    for group, h_sub in settings:
        h_sorted = sorted(h_sub.members)
        idx = {h: k for k, h in enumerate(h_sorted)}
        for alpha in enumerate_cocycle_classes(h_sub):
            a = GradedPresentation(group, h_sub, alpha, GTuple.const(group, 1))
            b = GradedPresentation.elementary(group, GTuple(group, h_sorted))
            decision = decide(a, b)
            ok = ok and decision.verdict
            hom = construct(a, b, decision)
            ok = ok and verify_hom(hom).is_embedding
            # the map is the right regular representation on basis lines
            e = group.identity
            for h in h_sub:
                expected = {(e, idx[x], idx[group.mul(x, h)]):
                            alpha.value(x, h) for x in h_sorted}
                img = hom.images[(h, 0, 0)]
                ok = ok and img.terms == expected \
                    and all(img.terms[k] == v for k, v in expected.items())
            # a short tuple flips the decision and yields a verified separator
            b_short = GradedPresentation.elementary(
                group, GTuple(group, h_sorted[: len(h_sorted) - 1]))
            short_decision = decide(a, b_short)
            ok = ok and not short_decision.verdict
            sep = separate_elementary(a, b_short)
            ok = ok and sep.poly.is_identity_on(b_short)
            val = sep.poly.evaluate([a.basis_element(k)
                                     for k in sep.witness_a])
            ok = ok and not val.is_zero()
    _report(6, "regular-tuple elementary targets embed by the regular "
               "representation; short tuples separate", ok, time.time() - start)


def test_criterion_7_block_sum_example():
    start = time.time()
    z10 = FiniteGroup.cyclic(10)
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1, 3]))
    a1 = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1]))
    a2 = GradedPresentation.elementary(z10, GTuple(z10, [1, 1, 1, 3]))
    ok = a1.support() == {0, 1, 9}
    ok = ok and a2.support() == {0, 2, 8}
    ok = ok and pair_inclusion(a1, b) and pair_inclusion(a2, b)
    kept, removed = minimal_set([a1, a2])
    ok = ok and kept == [a1, a2] and not removed
    copies, hom, cert = embed_into_power(SemisimplePresentation([a1, a2]),
                                         SemisimplePresentation([b]))
    ok = ok and copies == 2 and cert.is_embedding
    ok = ok and a1.dim + a2.dim == 32 and b.dim == 25 and 32 > 25
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report(7, "two-block sum embeds into the doubled target, never the "
               "single one", ok, elapsed)


def test_criterion_8_cross_route_consistency(corpus_records):
    records, _ = corpus_records
    start = time.time()
    ok = True
    part1_checked = part2_checked = 0
    for r in records:
        cross = r.get("cross_checks", {})
        if "part1" in cross:
            part1_checked += 1
            ok = ok and cross["part1"] == r["verdict"]
        if "part2" in cross:
            part2_checked += 1
            ok = ok and cross["part2"] == r["verdict"]
    ok = ok and part1_checked > 0 and part2_checked > 0
    # shift search against whole-group enumeration, ambient order <= 12
    import random
    rng = random.Random(CORPUS_SEED)
    groups = [FiniteGroup.cyclic(n) for n in (5, 8, 12)]
    groups.append(build_group({"kind": "table", "table": dihedral_table(6),
                               "name": "D6"}))
    for group in groups:
        subs = group.all_subgroups()
        for _ in range(30):
            h = rng.choice(subs)
            t = GTuple(group, [rng.randrange(group.order)
                               for _ in range(rng.randrange(1, 5))])
            p = GTuple(group, [rng.randrange(group.order)
                               for _ in range(rng.randrange(1, 4))])
            fast = exists_shift(t, p, h)
            brute = exists_shift_bruteforce(t, p, h)
            ok = ok and (fast is None) == (brute is None)
            if fast is not None:
                ok = ok and subsume_mod(t.shift(fast), p, h)
    print(f"      fast paths exercised: {part1_checked} full-subgroup, "
          f"{part2_checked} crossed-tuple instances")
    _report(8, "fast paths agree with the unified route; shift search matches "
               "brute force", ok, time.time() - start)
