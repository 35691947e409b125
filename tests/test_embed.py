"""Embedding decisions, certified constructions and route consistency."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from gradalg import embed
from gradalg.cli import parse_doc
from gradalg.cocycles import (Bicharacter, Cocycle, abelian_basis,
                              coboundary_solve, enumerate_cocycle_classes,
                              smallest_irrep)
from gradalg.corpus import generate_corpus, separate
from gradalg.embed import construct, decide, decide_part1, decide_part2
from gradalg.errors import (DecisionFalse, MismatchedParent,
                            NotFoundWithinBudget, Unsupported)
from gradalg.galg import GradedHom, GradedPresentation, verify_hom
from gradalg.groups import FiniteGroup, GTuple, build_group, dihedral_table
from gradalg.identities import separate_elementary, separate_part1
from gradalg.scalars import CyclotomicScalar as C
from gradalg.tuples import exists_shift, exists_shift_bruteforce, subsume_mod

from conftest import (class_key, class_representatives, random_coboundary,
                      small_presentations)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_self_embedding(klein, klein_classes):
    _, nt = klein_classes
    a = GradedPresentation.twisted_group_algebra(nt)
    decision = decide(a, a)
    assert decision.verdict
    assert decision.shift == klein.identity
    hom = construct(a, a, decision)
    assert verify_hom(hom).is_embedding


def test_construct_certifies_once(sweeps):
    """A twisted construction sweeps only the map it returns, and attaches
    that sweep's certificate to it."""
    doc = parse_doc((FIXTURES / "klein_twisted.json").read_text())
    a, b = doc.presentations["A"], doc.presentations["B2"]
    decision = decide(a, b)
    hom = construct(a, b, decision)
    assert sweeps == [hom]
    assert hom.certificate.is_embedding
    assert hom.certificate.to_json() == verify_hom(hom).to_json()


def test_part1_threshold(klein, klein_classes):
    triv, nt = klein_classes
    a = GradedPresentation.twisted_group_algebra(nt)
    for r, expected in [(1, False), (2, True), (3, True)]:
        b = GradedPresentation(klein, klein.full_subgroup(), triv,
                               GTuple.const(klein, r))
        decision = decide(a, b)
        assert decision.verdict is expected
        assert decision.d == 2
        assert decide_part1(a, b).verdict is expected
        if expected:
            hom = construct(a, b, decision)
            cert = verify_hom(hom)
            assert cert.is_embedding


def test_part2_transversal_construction(z4):
    n1 = z4.full_subgroup()
    n2 = z4.subgroup([0, 2])
    a = GradedPresentation(z4, n1, Cocycle.trivial(n1), GTuple(z4, [0]))
    b = GradedPresentation(z4, n2, Cocycle.trivial(n2), GTuple(z4, [0, 1]))
    decision = decide(a, b)
    assert decision.verdict
    hom = construct(a, b, decision)
    assert verify_hom(hom).is_embedding
    assert decide_part2(a, b).verdict


def test_rho_map_certifies_on_every_subgroup_pair(klein, z4):
    """The direct map (h,0,0) -> sum_{u,v} rho(h)[u][v] (h,u,v) from
    (H, alpha, (e)) into (N, beta, (e)^d), over Z2xZ2 and Z4, for every
    subgroup H of every subgroup N and every cocycle class on each."""
    checked = 0
    for group in (klein, z4):
        subgroups = group.all_subgroups()
        for n in subgroups:
            for h in subgroups:
                if not n.contains_subgroup(h):
                    continue
                for alpha in enumerate_cocycle_classes(h):
                    x = GradedPresentation(group, h, alpha,
                                           GTuple.const(group, 1))
                    for beta in enumerate_cocycle_classes(n):
                        d = smallest_irrep(alpha.ratio(beta.restrict(h))).dim
                        y = GradedPresentation(group, n, beta,
                                               GTuple.const(group, d))
                        assert decide(x, y).verdict
                        terms = embed._rho_terms(alpha.ratio(beta.restrict(h)),
                                                 beta, d)
                        images = {(g, 0, 0): y.element(
                            {(g, u, v): c for u, v, c in terms[g]})
                            for g in h}
                        hom = GradedHom(x, y, images)
                        assert verify_hom(hom).is_embedding
                        checked += 1
    assert checked == 25


def test_factors_of_higher_order_are_divided_out(z4):
    """Over Z4, a source cocycle whose transversal rescaling c takes a value
    of order 8, into a target with N2 = {0, 2} whose cocycle takes a value
    of order 4 and whose two tuple entries are both replaced: the map
    certifies only if c(n) and the replacement factors are divided out,
    since neither squares to 1."""
    zeta8 = C.zeta(8)
    full, half = z4.full_subgroup(), z4.subgroup([0, 2])
    alpha = Cocycle.trivial(full).twist_by_coboundary(
        {0: C.one(), 1: zeta8, 2: C.one(), 3: C.one()})
    beta = Cocycle.trivial(half).twist_by_coboundary({0: C.one(), 2: zeta8})
    assert alpha.values[(2, 1)] == zeta8 and beta.values[(2, 2)] == C.zeta(4)
    a = GradedPresentation(z4, full, alpha, GTuple(z4, [0]))
    b = GradedPresentation(z4, half, beta, GTuple(z4, [2, 3]))
    decision = decide(a, b)
    assert decision.pattern.entries == (0, 1)
    assert construct(a, b, decision).certificate.is_embedding


def _split_action(split, t, g):
    """{w: (h, w')} with w * g = h * w', read from the split of N1."""
    return {w: split[t.group.mul(w, g)] for w in t}


def test_transversal_split_examples(z4):
    n1 = z4.full_subgroup()
    h = z4.subgroup([0, 2])
    t = GTuple(z4, [0, 1])
    split, _ = embed._transversal_split(Cocycle.trivial(n1), h, t)
    assert _split_action(split, t, 0) == {0: (0, 0), 1: (0, 1)}
    # an element of the subgroup fixes representatives
    assert _split_action(split, t, 2) == {0: (2, 0), 1: (2, 1)}
    assert _split_action(split, t, 1) == {0: (0, 1), 1: (2, 0)}


def test_transversal_split_composition(z4):
    n1 = z4.full_subgroup()
    h = z4.subgroup([0, 2])
    t = GTuple(z4, [0, 1])
    split, _ = embed._transversal_split(Cocycle.trivial(n1), h, t)
    for g1 in z4.elements():
        act1 = _split_action(split, t, g1)
        for g2 in z4.elements():
            act2 = _split_action(split, t, g2)
            combined = _split_action(split, t, z4.mul(g1, g2))
            for w in t:
                h1, w1 = act1[w]
                h2, w2 = act2[w1]
                assert combined[w] == (z4.mul(h1, h2), w2)


def test_transversal_split_normalizes_the_cocycle(klein, klein_classes):
    """Twisting by the rescaling c makes alpha_t(h, w) = 1 on H x T, and an
    already normalized cocycle gets the identity rescaling."""
    alpha = klein_classes[1]
    h = klein.subgroup([0, 2])
    tr = GTuple(klein, [0, 1])
    _, c = embed._transversal_split(alpha, h, tr)
    normalized = alpha.twist_by_coboundary(c)
    for x in h:
        for w in tr:
            assert normalized.value(x, w).is_one()
    _, again = embed._transversal_split(normalized, h, tr)
    assert all(v.is_one() for v in again.values())


def test_elementary_route_regular_tuple(d4):
    kl = d4.subgroup([0, 2, 4, 6])
    for alpha in enumerate_cocycle_classes(kl):
        a = GradedPresentation(d4, kl, alpha, GTuple.const(d4, 1))
        b = GradedPresentation.elementary(d4, GTuple(d4, [0, 2, 4, 6]))
        decision = decide(a, b)
        assert decision.case == "elementary_nonabelian"
        assert decision.verdict
        hom = construct(a, b, decision)
        cert = verify_hom(hom)
        assert cert.is_embedding
        # the image of a twisted basis line is the expected permutation shape
        img = hom.images[(2, 0, 0)]
        assert len(img.terms) == kl.order


def test_elementary_route_short_tuple(d4):
    kl = d4.subgroup([0, 2, 4, 6])
    alpha = enumerate_cocycle_classes(kl)[1]
    a = GradedPresentation(d4, kl, alpha, GTuple.const(d4, 1))
    b = GradedPresentation.elementary(d4, GTuple(d4, [0, 2, 4]))
    decision = decide(a, b)
    assert not decision.verdict
    with pytest.raises(DecisionFalse):
        construct(a, b, decision)


def test_nonabelian_twisted_target_rejected(d4):
    kl = d4.subgroup([0, 2, 4, 6])
    a = GradedPresentation(d4, kl, Cocycle.trivial(kl), GTuple.const(d4, 1))
    b = GradedPresentation(d4, kl, Cocycle.trivial(kl), GTuple.const(d4, 2))
    with pytest.raises(Unsupported, match="non-abelian ambient groups"):
        decide(a, b)


_Z4 = FiniteGroup.cyclic(4)
_KLEIN = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
_D4 = build_group({"kind": "table", "table": dihedral_table(4)})


def _pres(group, elements, s, alpha=None):
    """(N, alpha, s) with N the subgroup on `elements`, alpha trivial
    unless given."""
    sub = group.subgroup(elements)
    return GradedPresentation(group, sub, alpha or Cocycle.trivial(sub),
                              GTuple(group, s))


_KLEIN_TWISTED = _pres(_KLEIN, range(4), [0],
                       enumerate_cocycle_classes(_KLEIN.full_subgroup())[1])


# decide's own guard, the symmetry guard of coboundary_solve and rebase's
# conductor guard are tested beside their modules' other behaviour
@pytest.mark.parametrize("call, message", [
    (lambda: decide_part1(_pres(_D4, [0], [0]), _pres(_D4, range(8), [0])),
     "requires an abelian group"),
    (lambda: decide_part1(_pres(_Z4, [0], [0]), _pres(_Z4, [0, 2], [0])),
     "requires the full subgroup target"),
    (lambda: decide_part2(_pres(_D4, [0], [0]), _pres(_D4, [0], [0])),
     "requires an abelian group"),
    (lambda: decide_part2(_pres(_Z4, [0], [1]), _pres(_Z4, [0, 2], [0])),
     "requires the source tuple in N2"),
    (lambda: decide_part2(_pres(_Z4, [0], [0]), _pres(_Z4, [0, 2], [1])),
     "requires the target tuple in N1"),
    (lambda: separate_part1(_pres(_KLEIN, [0], [0]), _KLEIN_TWISTED),
     "trivially twisted full-subgroup target"),
    (lambda: separate_part1(_pres(_Z4, [0], [0]), _pres(_Z4, [0, 2], [0])),
     "requires the full subgroup target"),
    (lambda: separate_elementary(_pres(_Z4, [0], [0]),
                                 _pres(_Z4, [0, 2], [0])),
     "must carry an elementary grading"),
    (lambda: Bicharacter.from_cocycle(Cocycle.trivial(_D4.full_subgroup())),
     "bicharacter requires an abelian subgroup"),
    (lambda: coboundary_solve(Cocycle.trivial(_D4.full_subgroup())),
     "coboundary solving requires an abelian subgroup"),
    (lambda: abelian_basis(_D4.full_subgroup()),
     "basis decomposition requires abelian subgroup"),
], ids=["part1-nonabelian", "part1-proper-target", "part2-nonabelian",
        "part2-source-outside-n2", "part2-target-outside-n1",
        "separator-part1-twisted", "separator-part1-proper-target",
        "separator-elementary", "bicharacter-nonabelian",
        "coboundary-nonabelian", "basis-nonabelian"])
def test_shape_guards_raise_unsupported(call, message):
    """Each route refuses a pair of another shape with Unsupported, which
    the corpus's cross-checks and separator choice skip.  The guards on
    proper-subgroup, crossed-tuple, twisted and non-elementary targets once
    raised VerificationFailed, which now means a failed engine check."""
    with pytest.raises(Unsupported, match=message):
        call()


def test_mismatched_ambient_rejected(z4, z10):
    a = GradedPresentation.elementary(z4, GTuple(z4, [0]))
    b = GradedPresentation.elementary(z10, GTuple(z10, [0]))
    with pytest.raises(MismatchedParent):
        decide(a, b)


def test_monotonicity_under_concatenation():
    rng = random.Random(31)
    z6 = FiniteGroup.cyclic(6)
    subs = z6.all_subgroups()
    for _ in range(25):
        n1, n2 = rng.choice(subs), rng.choice(subs)
        a = GradedPresentation(z6, n1, Cocycle.trivial(n1),
                               GTuple(z6, [rng.randrange(6)
                                           for _ in range(rng.randrange(1, 3))]))
        t = GTuple(z6, [rng.randrange(6) for _ in range(rng.randrange(1, 3))])
        b = GradedPresentation(z6, n2, Cocycle.trivial(n2), t)
        if decide(a, b).verdict:
            bigger = GradedPresentation(
                z6, n2, Cocycle.trivial(n2),
                GTuple(z6, t.entries + (rng.randrange(6),)))
            assert decide(a, bigger).verdict


def test_part3_reduces_to_part2(klein, z4):
    """On crossed-shape instances the unified route and the no-shift route
    agree."""
    rng = random.Random(17)
    for group in (z4, klein, FiniteGroup.cyclic(6)):
        subs = group.all_subgroups()
        hits = 0
        for _ in range(60):
            n1, n2 = rng.choice(subs), rng.choice(subs)
            s = GTuple(group, [rng.choice(n2.sorted_members)
                               for _ in range(rng.randrange(1, 3))])
            t = GTuple(group, [rng.choice(n1.sorted_members)
                               for _ in range(rng.randrange(1, 4))])
            a = GradedPresentation(group, n1, Cocycle.trivial(n1), s)
            b = GradedPresentation(group, n2, Cocycle.trivial(n2), t)
            assert decide(a, b).verdict == decide_part2(a, b).verdict
            hits += 1
        assert hits == 60


def test_pattern_canonicalization_matches_brute_force(klein, z4):
    """The no-enumeration pattern agrees with trying every equivalent source
    tuple explicitly."""
    from itertools import product as iproduct
    rng = random.Random(23)
    for group in (z4, klein, FiniteGroup.cyclic(6)):
        subs = group.all_subgroups()
        for _ in range(30):
            n1, n2 = rng.choice(subs), rng.choice(subs)
            classes1 = enumerate_cocycle_classes(n1)
            classes2 = enumerate_cocycle_classes(n2)
            a = GradedPresentation(group, n1, rng.choice(classes1),
                                   GTuple(group, [rng.randrange(group.order)
                                                  for _ in range(rng.randrange(1, 3))]))
            b = GradedPresentation(group, n2, rng.choice(classes2),
                                   GTuple(group, [rng.randrange(group.order)
                                                  for _ in range(rng.randrange(1, 4))]))
            decision = decide(a, b)
            d = decision.d
            transversal = decision.transversal
            # brute force over all tuples equivalent to the source tuple
            found = False
            members = n1.sorted_members
            for mults in iproduct(members, repeat=a.r):
                s_var = GTuple(group, [group.mul(m, x)
                                       for m, x in zip(mults, a.s)])
                pattern = GTuple.const(group, d).product(transversal)\
                    .product(s_var)
                for g in group.elements():
                    if subsume_mod(b.s.shift(g), pattern, n2):
                        found = True
                        break
                if found:
                    break
            assert decision.verdict == found


def test_soundness_on_small_corpus():
    """True decisions always construct and certify over a random sample."""
    rng = random.Random(4)
    for n in (2, 3, 4, 5, 6):
        group = FiniteGroup.cyclic(n)
        subs = group.all_subgroups()
        for _ in range(12):
            n1, n2 = rng.choice(subs), rng.choice(subs)
            a = GradedPresentation(group, n1, Cocycle.trivial(n1),
                                   GTuple(group, [rng.randrange(n)
                                                  for _ in range(rng.randrange(1, 3))]))
            b = GradedPresentation(group, n2, Cocycle.trivial(n2),
                                   GTuple(group, [rng.randrange(n)
                                                  for _ in range(rng.randrange(1, 4))]))
            decision = decide(a, b)
            if decision.verdict:
                hom = construct(a, b, decision)
                assert verify_hom(hom).is_embedding


def _monomial_embedding_search(a, b):
    """Degree-preserving basis-to-basis injections with unit scalars.

    For trivially twisted presentations all structure constants are 1, so a
    structure-compatible injection is already an embedding; verify_hom makes
    the final call.  Independent of the decision criterion.
    """
    a_keys = list(a.basis_keys())
    b_keys = list(b.basis_keys())
    by_degree = {}
    for k in b_keys:
        by_degree.setdefault(b.basis_degree(k), []).append(k)

    def products_compatible(mapping, k_new):
        for k_old in mapping:
            for k1, k2 in ((k_old, k_new), (k_new, k_old), (k_new, k_new)):
                if k1 not in mapping or k2 not in mapping:
                    continue
                src = a.mul_basis(k1, k2)
                tgt = b.mul_basis(mapping[k1], mapping[k2])
                if bool(src) != bool(tgt):
                    return False
                if src:
                    (sk, _), = src.items()
                    (tk, _), = tgt.items()
                    if sk in mapping and mapping[sk] != tk:
                        return False
        return True

    def rec(i, mapping, used):
        if i == len(a_keys):
            hom_images = {k: b.basis_element(v) for k, v in mapping.items()}
            from gradalg.galg import GradedHom
            cert = verify_hom(GradedHom(a, b, hom_images))
            return cert.is_embedding
        k = a_keys[i]
        for cand in by_degree.get(a.basis_degree(k), []):
            if cand in used:
                continue
            mapping[k] = cand
            if products_compatible(mapping, k):
                used.add(cand)
                if rec(i + 1, mapping, used):
                    return True
                used.discard(cand)
            del mapping[k]
        return False


def test_false_decisions_resist_monomial_oracle():
    """A brute embedding search on tiny trivially-twisted instances never
    contradicts a false decision."""
    rng = random.Random(77)
    checked = 0
    for n in (2, 3, 4):
        group = FiniteGroup.cyclic(n)
        subs = group.all_subgroups()
        for _ in range(20):
            n1, n2 = rng.choice(subs), rng.choice(subs)
            a = GradedPresentation(group, n1, Cocycle.trivial(n1),
                                   GTuple(group, [rng.randrange(n)
                                                  for _ in range(rng.randrange(1, 3))]))
            b = GradedPresentation(group, n2, Cocycle.trivial(n2),
                                   GTuple(group, [rng.randrange(n)
                                                  for _ in range(rng.randrange(1, 3))]))
            if a.dim > 9 or b.dim > 9 or decide(a, b).verdict:
                continue
            checked += 1
            assert not _monomial_embedding_search(a, b)
    assert checked > 5


def test_decision_trace_reproduces_verdict(klein, klein_classes):
    """The recorded trace re-evaluates to the stored verdict."""
    triv, nt = klein_classes
    a = GradedPresentation.twisted_group_algebra(nt)
    for r in (1, 2, 3):
        b = GradedPresentation(klein, klein.full_subgroup(), triv,
                               GTuple.const(klein, r))
        decision = decide(a, b)
        if decision.verdict:
            assert subsume_mod(b.s.shift(decision.shift), decision.pattern,
                               b.H)
        else:
            assert exists_shift(b.s, decision.pattern, b.H) is None


def test_decisions_share_their_subgroups():
    """A decision holds the group's interned subgroups, not fresh copies, so
    what a kept decision costs does not grow with the subgroups it names."""
    doc = parse_doc((FIXTURES / "klein_twisted.json").read_text())
    a, b = doc.presentations["A"], doc.presentations["B2"]
    first, second = decide(a, b), decide(a, b)
    assert first.h_sub is second.h_sub
    assert first.g_prime is second.g_prime
    assert first.h_sub is a.group.closure(first.h_sub.members)
    assert not hasattr(first, "__dict__")
    assert first.to_json() == second.to_json()


def test_constructed_maps_are_byte_identical():
    """The JSON of every constructed map is pinned by one digest: the true
    instances of a fixed corpus in corpus order, then two fixture maps.
    Coefficient conductors are part of that JSON, so this also pins them."""
    pairs = [(inst.a, inst.b)
             for inst in generate_corpus(20250809, 6, 220)]
    for fixture, target in [("dihedral_regular", "Breg"),
                            ("klein_twisted", "B2")]:
        doc = parse_doc((FIXTURES / f"{fixture}.json").read_text())
        pairs.append((doc.presentations["A"], doc.presentations[target]))
    maps = []
    for a, b in pairs:
        decision = decide(a, b)
        if decision.verdict:
            maps.append(construct(a, b, decision).to_json())
    assert len(maps) == 111
    text = json.dumps(maps, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2039933af05ffdf9e0d381027fb68031ba5f0a74c88fe5d0dc9903a15ca886cc"


def test_decisions_on_the_order_12_corpus_are_byte_identical():
    """The JSON of every decision on a fixed order-12 corpus, each followed
    by the JSON of its constructed map where the verdict is true, is pinned
    by one digest."""
    docs = []
    maps = 0
    for inst in generate_corpus(20250809, 12, 512):
        decision = decide(inst.a, inst.b)
        docs.append(decision.to_json())
        if decision.verdict:
            docs.append(construct(inst.a, inst.b, decision).to_json())
            maps += 1
    assert maps == 233
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3cb3af874309413b7e73544fa29b5e62cc252b6d960e9edd84573d591f734da2"


def _twisted_presentation(rng, group, classes):
    """A random presentation whose cocycle is a class representative times a
    random coboundary, with about half its values restated at a multiple of
    their conductor; `classes` maps each subgroup to its class
    representatives."""
    h = rng.choice(list(classes))
    alpha = rng.choice(classes[h])
    alpha = alpha.twist_by_coboundary(random_coboundary(h, rng))
    m = rng.choice([1, 2])
    alpha = Cocycle(h, {k: v.rebase(v.conductor * m) if rng.random() < 0.5
                        else v for k, v in alpha.values.items()})
    s = GTuple(group, [rng.randrange(group.order)
                       for _ in range(rng.randrange(1, 5))])
    return GradedPresentation(group, h, alpha, s)


def test_twisted_cocycle_maps_are_byte_identical():
    """As above, on presentations over Z4, Z6 and Z2xZ2 whose cocycle values
    are not all +-1 and carry assorted conductors: there the replacement
    factors, c(n)^-1 and the order in which cocycle entries are multiplied
    all show in the coefficients or their conductors."""
    rng = random.Random(20250809)
    groups = [FiniteGroup.cyclic(4), FiniteGroup.cyclic(6),
              FiniteGroup.product([FiniteGroup.cyclic(2)] * 2)]
    classes = [{h: enumerate_cocycle_classes(h) for h in g.all_subgroups()}
               for g in groups]
    maps = []
    for k in range(120):
        group, cls = groups[k % 3], classes[k % 3]
        a = _twisted_presentation(rng, group, cls)
        b = _twisted_presentation(rng, group, cls)
        decision = decide(a, b)
        if decision.verdict:
            maps.append(construct(a, b, decision).to_json())
    text = json.dumps(maps, sort_keys=True, separators=(",", ":"))
    assert len(maps) == 39
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e587799e69fdbf297096f2dd734364f14f0f09b01ac35479bf56ea9f1eaa3a8d"


def test_decisions_share_their_tuples():
    """A decision keeps the transversal remembered on the target subgroup
    and the source presentation's own tuple; its JSON lists are the tuples
    those objects hold."""
    doc = parse_doc((FIXTURES / "klein_twisted.json").read_text())
    a, b = doc.presentations["A"], doc.presentations["B2"]
    first, second = decide(a, b), decide(a, b)
    assert first.transversal is second.transversal
    assert first.transversal is b.H.transversal(within=first.g_prime)
    assert first.source is a.s
    data = first.to_json()
    assert data["H"] is first.h_sub.sorted_members
    assert data["transversal"] is first.transversal.entries
    assert json.dumps(data) == json.dumps(
        {k: list(v) if isinstance(v, tuple) else v for k, v in data.items()})



@pytest.mark.parametrize("group, expected", [
    ("z4", (42, 800, 608)),
    pytest.param("klein", (84, 2588, 1424), marks=pytest.mark.slow),
    pytest.param("z6", (108, 4365, 3123), marks=pytest.mark.slow),
], ids=["Z4", "Z2xZ2", "Z6"])
def test_theorem_oracle_on_small_groups(request, group, expected):
    """Over every ordered pair of small presentations: decide agrees with
    decide_part1 and decide_part2 where they apply and with the whole-group
    shift scan on its pattern; every true decision constructs a certified
    map; and every false one with a trivially twisted full or elementary
    target gets a separator, which checks itself before it returns.
    Expected: (presentations, certified maps, separators)."""
    group = request.getfixturevalue(group)
    presentations = small_presentations(group)
    certified = separated = 0
    for a in presentations:
        for b in presentations:
            decision = decide(a, b)
            verdict = decision.verdict
            assert (exists_shift_bruteforce(b.s, decision.pattern, b.H)
                    is not None) is verdict
            if b.H.order == group.order:
                assert decide_part1(a, b).verdict is verdict
            if set(a.s) <= b.H.members and set(b.s) <= a.H.members:
                assert decide_part2(a, b).verdict is verdict
            if verdict:
                assert construct(a, b, decision).certificate.is_embedding
                certified += 1
            elif b.H.order == group.order and b.alpha.is_trivial():
                assert separate_part1(a, b).kind == "part1"
                separated += 1
            elif b.H.is_trivial():
                separate_elementary(a, b)
                separated += 1
    assert (len(presentations), certified, separated) == expected


@pytest.mark.parametrize("group, expected", [
    ("z4", (42, 9, 1092)),
    pytest.param("klein", (84, 18, 4284), marks=pytest.mark.slow),
    pytest.param("z6", (108, 13, 4212), marks=pytest.mark.slow),
], ids=["Z4", "Z2xZ2", "Z6"])
def test_decide_is_invariant_on_isomorphism_classes(request, group, expected):
    """decide gives every member of an isomorphism class (see class_key)
    against each of up to three members of every class the verdict it gives
    the two classes' first members.  Expected: (presentations, classes,
    pairs decided)."""
    group = request.getfixturevalue(group)
    presentations = small_presentations(group)
    classes = {}
    for p in presentations:
        classes.setdefault(class_key(p), []).append(p)
    pairs = 0
    for members_a in classes.values():
        for members_b in classes.values():
            verdict = decide(members_a[0], members_b[0]).verdict
            for a in members_a:
                for b in members_b[:3]:
                    assert decide(a, b).verdict is verdict
                    pairs += 1
    assert (len(presentations), len(classes), pairs) == expected


@pytest.mark.slow
@pytest.mark.parametrize("orders, expected", [
    ((8,), (15, 68, 89, 0)),
    ((2, 4), (36, 296, 267, 5)),
    ((2, 2, 2), (102, 1850, 1001, 161)),
], ids=["Z8", "Z2xZ4", "Z2xZ2xZ2"])
def test_theorem_on_isomorphism_classes(orders, expected):
    """Over every ordered pair of class representatives (see class_key)
    of the small presentations: decide agrees with each fast path that
    takes the pair's shape; every true decision constructs a certified
    map; every false one gets a separator from corpus.separate, the route
    choice of a corpus run, at length 3.  The counts were first taken with
    the corpus's own shape tests, which picked the same routes.  Expected:
    (classes, certified maps, structured separators, false pairs with no
    separator at length 3)."""
    group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in orders])
    classes = class_representatives(group)
    certified = structured = unseparated = 0
    for a in classes:
        for b in classes:
            decision = decide(a, b)
            for fast_path in (decide_part1, decide_part2):
                try:
                    assert fast_path(a, b).verdict is decision.verdict
                except Unsupported:
                    pass
            if decision.verdict:
                assert construct(a, b, decision).certificate.is_embedding
                certified += 1
                continue
            try:
                structured += separate(a, b, 3).kind != "bounded_fallback"
            except NotFoundWithinBudget:
                unseparated += 1
    assert (len(classes), certified, structured, unseparated) == expected
