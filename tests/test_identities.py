"""Identity testing, kernels, inclusion and separator construction."""

import gc
import hashlib
import json
import random
import sys
import time
from itertools import combinations_with_replacement
from itertools import product as iproduct

import pytest

from gradalg import corpus, linalg
from gradalg.cocycles import Cocycle
from gradalg.errors import (BudgetExceeded, DecisionWasTrue, LengthMismatch,
                            NotFoundWithinBudget, ValidationError)
from gradalg.galg import DirectSumAlgebra, GradedPresentation, verify_hom
from gradalg.groups import FiniteGroup, GTuple
from gradalg.identities import (MAX_MULTIDEGREE_LEN, MultilinearPoly,
                                ProductPoly, evaluate, identity_space,
                                inclusion_bounded, is_identity,
                                separate_bounded, separate_elementary,
                                separate_part1, standard_poly)
from gradalg.scalars import CyclotomicScalar as C

from conftest import class_key, small_presentations

Z1 = FiniteGroup.cyclic(1)


def mat(n):
    return GradedPresentation.elementary(Z1, GTuple(Z1, [0] * n))


def test_single_variable_evaluates_to_argument():
    m2 = mat(2)
    f = MultilinearPoly.variable(Z1, 0)
    a = m2.basis_element((0, 0, 1))
    assert evaluate(f, [a]) == a


def test_commutator_vanishes_on_commuting_elements():
    m2 = mat(2)
    f = MultilinearPoly(Z1, (0, 0), {(0, 1): C.one(), (1, 0): C.from_rational(-1)})
    a = m2.basis_element((0, 0, 0))
    b = m2.one()
    assert evaluate(f, [a, b]).is_zero()


def test_standard_poly_small():
    st1 = standard_poly(1, [0], Z1)
    assert st1.coeffs == {(0,): C.one()}
    st2 = standard_poly(2, [0, 0], Z1)
    assert st2.coeffs[(0, 1)].is_one()
    assert st2.coeffs[(1, 0)] == C.from_rational(-1)


def test_st3_on_matrix_units():
    m2 = mat(2)
    st3 = standard_poly(3, [0] * 3, Z1)
    units = [m2.basis_element(k) for k in [(0, 0, 0), (0, 0, 1), (0, 1, 1)]]
    value = evaluate(st3, units)
    assert not value.is_zero()


def test_degree_mismatch_rejected(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    f = MultilinearPoly.variable(klein, 2)
    with pytest.raises(LengthMismatch, match="!= variable degree"):
        evaluate(f, [ka.basis_element((1, 0, 0))])


def test_zero_poly_is_identity():
    assert is_identity(MultilinearPoly(Z1, (0,), {}), mat(2)).is_identity


def test_amitsur_levitzki_boundary():
    for n in (1, 2):
        m = mat(n)
        below = standard_poly(2 * n - 1, [0] * (2 * n - 1), Z1)
        exact = standard_poly(2 * n, [0] * (2 * n), Z1)
        check = is_identity(below, m)
        assert not check.is_identity and check.witness is not None
        assert is_identity(exact, m).is_identity


def test_identity_space_commutative():
    sp = identity_space(mat(1), (0, 0))
    assert sp.dim == 1
    f = sp.polys()[0]
    # the kernel is spanned by the commutator
    assert set(f.coeffs) == {(0, 1), (1, 0)}
    assert (f.coeffs[(0, 1)] + f.coeffs[(1, 0)]).is_zero()


def test_identity_space_excludes_st3():
    sp = identity_space(mat(2), (0, 0, 0))
    st3 = standard_poly(3, [0] * 3, Z1)
    ech = linalg.Echelon(len(sp.words))
    for vec in sp.vectors:
        ech.add_row(vec)
    zero = C.zero()
    row = [zero] * len(sp.words)
    for i, w in enumerate(sp.words):
        if w in st3.coeffs:
            row[i] = st3.coeffs[w]
    assert not ech.contains(row)


def test_identity_space_twisted_anticommutator(klein, klein_classes):
    # the only relation in two variables of degrees (a, b):
    # c1*x1x2 + c2*x2x1 with c1*alpha(a,b) + c2*alpha(b,a) = 0
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    sp = identity_space(ka, (2, 1))
    assert sp.dim == 1
    f = sp.polys()[0]
    ratio = f.coeffs[(0, 1)] / f.coeffs[(1, 0)]
    assert ratio == C.from_rational(-1) * nt.value(1, 2) / nt.value(2, 1)
    # for the sign table this is the anticommutator x1x2 + x2x1
    assert ratio.is_one()


def test_empty_component_gives_full_space(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    sp = identity_space(a, (5, 5))
    assert sp.dim == 2  # every coefficient vector is an identity
    # no assignments at all, however large the nonempty pools
    assert identity_space(a, (0, 0, 5), budget=1).dim == 6


def test_budget_guard():
    m3 = mat(3)
    f = MultilinearPoly(Z1, (0,) * 4, {(0, 1, 2, 3): C.one()})
    with pytest.raises(BudgetExceeded):
        is_identity(f, m3, budget=10)
    with pytest.raises(BudgetExceeded):
        identity_space(m3, (0, 0, 0), budget=10)


def test_sweeps_past_the_length_bound_are_refused_before_any_word():
    """The one-dimensional elementary presentation of Z2 sweeps one
    assignment at each length; at length 8 that once built 8! words and ran
    out of memory after 11 s at 2.9 GB.  The length bound refuses it, and an
    inclusion check reaching it, before any word is built."""
    z2 = FiniteGroup.cyclic(2)
    a = GradedPresentation.elementary(z2, GTuple(z2, [0]))
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="length 8 exceeds"):
        identity_space(a, (0,) * 8)
    with pytest.raises(BudgetExceeded,
                       match=f"length {MAX_MULTIDEGREE_LEN + 1} exceeds"):
        inclusion_bounded(a, a, MAX_MULTIDEGREE_LEN + 1)
    assert time.perf_counter() - started < 1


def test_inclusion_reflexive_and_subtuple(z10):
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1, 3]))
    assert inclusion_bounded(b, b, 2).holds
    a1 = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1]))
    assert inclusion_bounded(b, a1, 3).holds


def test_inclusion_violation_returns_separator():
    report = inclusion_bounded(mat(1), mat(2), 4)
    assert not report.holds
    degrees, poly, witness = report.violation
    assert degrees == (0, 0)
    assert is_identity(poly, mat(1)).is_identity
    assert not is_identity(poly, mat(2)).is_identity


def test_direct_sum_identities_are_intersection(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 2]))
    ds = DirectSumAlgebra([a, b])
    for degrees in [(1, 9), (0, 0), (1, 9, 0)]:
        sp_sum = identity_space(ds, degrees)
        sp_a = identity_space(a, degrees)
        sp_b = identity_space(b, degrees)
        ech_a = linalg.Echelon(len(sp_a.words))
        for v in sp_a.vectors:
            ech_a.add_row(v)
        ech_b = linalg.Echelon(len(sp_b.words))
        for v in sp_b.vectors:
            ech_b.add_row(v)
        # sum-space vectors lie in both components' spaces ...
        for v in sp_sum.vectors:
            assert ech_a.contains(v) and ech_b.contains(v)
        # ... and every vector in the intersection lies in the sum's space
        ech_sum = linalg.Echelon(len(sp_sum.words))
        for v in sp_sum.vectors:
            ech_sum.add_row(v)
        for v in sp_a.vectors:
            if ech_b.contains(v):
                assert ech_sum.contains(v)


def test_separate_part1_klein(klein, klein_classes):
    triv, nt = klein_classes
    a = GradedPresentation.twisted_group_algebra(nt)
    b = GradedPresentation(klein, klein.full_subgroup(), triv,
                           GTuple.const(klein, 1))
    sep = separate_part1(a, b)
    assert sep.kind == "part1"
    assert is_identity(sep.poly, b).is_identity
    assert not is_identity(sep.poly, a).is_identity


def test_separate_part1_requires_false_decision(klein, klein_classes):
    triv, nt = klein_classes
    a = GradedPresentation.twisted_group_algebra(nt)
    b = GradedPresentation(klein, klein.full_subgroup(), triv,
                           GTuple.const(klein, 2))
    with pytest.raises(DecisionWasTrue):
        separate_part1(a, b)


def test_separate_elementary_two_block_shape(z4):
    h2 = z4.subgroup([0, 2])
    a = GradedPresentation(z4, h2, Cocycle.trivial(h2), GTuple(z4, [0, 1]))
    b = GradedPresentation.elementary(z4, GTuple(z4, [0]))
    sep = separate_elementary(a, b)
    assert isinstance(sep.poly, ProductPoly)
    assert sep.poly.is_identity_on(b)
    val = sep.poly.evaluate([a.basis_element(k) for k in sep.witness_a])
    assert not val.is_zero()


def test_separate_bounded_commutator():
    sep = separate_bounded(mat(2), mat(1), max_len=2)
    assert sep.kind == "bounded_fallback"
    assert is_identity(sep.poly, mat(1)).is_identity
    assert not is_identity(sep.poly, mat(2)).is_identity


def test_separate_bounded_not_found():
    with pytest.raises(NotFoundWithinBudget):
        separate_bounded(mat(1), mat(1), max_len=2)


def test_homomorphic_image_monotonicity(z10):
    from gradalg.galg import sub_presentation
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 6]))
    a, incl = sub_presentation(b, [0, 1])
    assert verify_hom(incl).is_embedding
    for degrees in [(1, 9), (0, 0), (1, 5, 4)]:
        sp_b = identity_space(b, degrees)
        sp_a = identity_space(a, degrees)
        ech = linalg.Echelon(len(sp_a.words))
        for v in sp_a.vectors:
            ech.add_row(v)
        for v in sp_b.vectors:
            assert ech.contains(v)


def test_budget_env_override(monkeypatch):
    from gradalg.identities import get_budget
    monkeypatch.setenv("GRADALG_BUDGET", "123")
    assert get_budget() == 123
    assert get_budget(77) == 77
    monkeypatch.delenv("GRADALG_BUDGET")
    assert get_budget() == 10_000_000


@pytest.mark.parametrize("raw", ["abc", "", "1.5", "0", "-3"])
def test_budget_env_rejects_malformed(monkeypatch, raw):
    from gradalg.identities import get_budget
    monkeypatch.setenv("GRADALG_BUDGET", raw)
    with pytest.raises(ValidationError) as err:
        get_budget()
    assert err.value.path == "GRADALG_BUDGET"
    assert get_budget(77) == 77


# -- oracles: the kernel and its shortcuts against element-level evaluate -----

def _small_algebras(klein, klein_classes, z4):
    """Small presentations over Z2xZ2 and Z4 (twisted, trivially twisted
    with a matrix part, elementary) and one direct sum."""
    _, nt = klein_classes
    kz = klein.subgroup([0, 1])
    h2 = z4.subgroup([0, 2])
    twisted = GradedPresentation.twisted_group_algebra(nt)
    return [
        twisted,
        GradedPresentation(klein, kz, Cocycle.trivial(kz),
                           GTuple(klein, [0, 2])),
        GradedPresentation(z4, h2, Cocycle.trivial(h2), GTuple(z4, [0, 1])),
        GradedPresentation.elementary(z4, GTuple(z4, [0, 1, 3])),
        DirectSumAlgebra([twisted, GradedPresentation.elementary(
            klein, GTuple(klein, [0, 3]))]),
    ]


def _assignments(algebra, degrees):
    pools = [algebra.component(g) for g in degrees]
    return list(iproduct(*pools))


def _value(poly, algebra, keys):
    return evaluate(poly, [algebra.basis_element(k) for k in keys])


def _evaluation_rows(algebra, degrees, words):
    """The full evaluation matrix built with evaluate: one row per graded
    basis assignment and output key, one column per word."""
    monomials = [MultilinearPoly(algebra.group, degrees, {w: C.one()})
                 for w in words]
    rows = []
    for keys in _assignments(algebra, degrees):
        values = [_value(m, algebra, keys) for m in monomials]
        for out in {k for v in values for k in v.terms}:
            rows.append([v.terms.get(out, C.zero()) for v in values])
    return rows


def test_identity_spaces_match_full_evaluation(klein, klein_classes, z4):
    """At lengths <= 3, every kernel vector vanishes on every graded basis
    assignment, and the kernel has the dimension of the null space of the
    evaluation matrix built with evaluate."""
    for algebra in _small_algebras(klein, klein_classes, z4):
        supp = sorted(algebra.support())
        for length in (1, 2, 3):
            for degrees in combinations_with_replacement(supp, length):
                sp = identity_space(algebra, degrees)
                assignments = _assignments(algebra, degrees)
                for poly in sp.polys():
                    assert all(_value(poly, algebra, keys).is_zero()
                               for keys in assignments)
                rows = _evaluation_rows(algebra, degrees, sp.words)
                rank = linalg.rank(rows, len(sp.words))
                assert sp.dim == len(sp.words) - rank


def test_identity_space_early_exit_matches_full_sweep(monkeypatch, klein,
                                                      klein_classes):
    """The sweep that stops at full column rank returns, entry for entry,
    the kernel of the full evaluation matrix; the exit fires exactly where
    that kernel is {0}."""
    _, nt = klein_classes
    twisted_m2 = GradedPresentation(klein, klein.full_subgroup(), nt,
                                    GTuple(klein, [0, 0]))
    cases = [(mat(2), (0, 0, 0)), (mat(3), (0, 0, 0)),
             (mat(1), (0, 0)), (mat(1), (0, 0, 0)),
             (twisted_m2, (0, 0, 0)), (twisted_m2, (1, 2)),
             (twisted_m2, (1, 2, 3))]
    added = []
    add_row = linalg.Echelon.add_row

    def counted(ech, row):
        added.append(row)
        return add_row(ech, row)

    exits = 0
    for algebra, degrees in cases:
        sp = identity_space(algebra, degrees)
        rows = _evaluation_rows(algebra, degrees, sp.words)
        ech = linalg.Echelon(len(sp.words))
        for row in rows:
            ech.add_row(row)
        full = ech.kernel_basis()
        assert [[(c, c.conductor) for c in vec] for vec in sp.vectors] == \
            [[(c, c.conductor) for c in vec] for vec in full]
        added.clear()
        with monkeypatch.context() as m:
            m.setattr(linalg.Echelon, "add_row", counted)
            identity_space(algebra, degrees)
        if full:
            assert len(added) == len(rows)
        else:
            assert len(added) < len(rows)
            exits += 1
    assert 0 < exits < len(cases)


def test_is_identity_shortcuts_match_full_enumeration(klein, klein_classes,
                                                      z4):
    """Antisymmetric polynomials take the subset shortcut (equal degrees) or
    the matrix-unit shortcut (mixed degrees on a trivially twisted
    presentation over an abelian group); each verdict agrees with
    evaluation on every assignment, and each witness evaluates nonzero."""
    from gradalg.identities import _matrix_reduction_pools
    seen = set()
    zeta = C.zeta(4)
    for algebra in _small_algebras(klein, klein_classes, z4):
        supp = sorted(algebra.support())
        for length in (1, 2, 3, 4):
            for degrees in combinations_with_replacement(supp, length):
                st = standard_poly(length, degrees, algebra.group)
                if len(set(degrees)) == 1:
                    path = "subset"
                elif _matrix_reduction_pools(st, algebra) is not None:
                    path = "matrix-unit"
                elif length > 3:
                    continue
                else:
                    path = "full"
                # a unit other than 1 too, except at length 4 (for time)
                polys = [st] if length > 3 else [st, st.scale(zeta)]
                for poly in polys:
                    check = is_identity(poly, algebra)
                    vanishes = all(_value(poly, algebra, keys).is_zero()
                                   for keys in _assignments(algebra, degrees))
                    assert check.is_identity == vanishes
                    if not vanishes:
                        keys = check.witness
                        assert tuple(algebra.basis_degree(k)
                                     for k in keys) == degrees
                        assert not _value(poly, algebra, keys).is_zero()
                    seen.add((path, vanishes))
    assert seen == {(p, v) for p in ("subset", "matrix-unit", "full")
                    for v in (True, False)}


def test_product_value_sets_match_full_enumeration(z4):
    """ProductPoly.is_identity_on, which folds per-atom value sets from the
    same enumeration, agrees with evaluating every assignment."""
    h2 = z4.subgroup([0, 2])
    algebras = [GradedPresentation(z4, h2, Cocycle.trivial(h2),
                                   GTuple(z4, [0, 1])),
                GradedPresentation.elementary(z4, GTuple(z4, [0, 1, 3]))]
    verdicts = set()
    for algebra in algebras:
        for d1, d2, d3 in combinations_with_replacement(range(4), 3):
            atoms = [standard_poly(2, [d1, d2], z4),
                     MultilinearPoly.variable(z4, d3),
                     standard_poly(2, [d2, d2], z4)]
            product = ProductPoly(z4, atoms)
            degrees = product.degrees
            vanishes = all(
                product.evaluate([algebra.basis_element(k)
                                  for k in keys]).is_zero()
                for keys in _assignments(algebra, degrees))
            assert product.is_identity_on(algebra) == vanishes
            verdicts.add(vanishes)
    assert verdicts == {True, False}


def _value_at(poly, elements):
    if isinstance(poly, ProductPoly):
        return poly.evaluate(elements)
    return evaluate(poly, elements)


def test_corpus_separators_hold_at_element_level(monkeypatch):
    """The corpus reports each separator without checking it again; here
    every separator of a false decision among the first 110 corpus
    instances is checked with the element-level product.

    It is nonzero on A at its witness.  It vanishes on B at two assignments
    of elements with random integer coordinates in the components: the value
    there is multilinear in the coordinates, with the values at graded basis
    assignments as coefficients, so it is 0 when the separator vanishes on
    B, and otherwise a nonzero polynomial of degree n in coordinates drawn
    from 2^31 integers, which vanishes with probability at most n / 2^31
    (Schwartz-Zippel)."""
    built = []
    for name in ("separate_part1", "separate_elementary", "separate_bounded"):
        def capture(a, b, *rest, _f=getattr(corpus, name)):
            sep = _f(a, b, *rest)
            built.append((a, b, sep))
            return sep
        monkeypatch.setattr(corpus, name, capture)
    rng = random.Random(29)
    kinds, inconclusive = set(), []
    for inst in corpus.generate_corpus(20250809, 6, 220)[:110]:
        before = len(built)
        rec = corpus.run_instance(inst)
        if rec["verdict"]:
            continue
        if rec["separator"]["status"] != "verified":
            inconclusive.append(inst.name)
            continue
        assert len(built) == before + 1
        a, b, sep = built[-1]
        assert a is inst.a and b is inst.b
        kinds.add(sep.kind)
        witness = [a.basis_element(k) for k in sep.witness_a]
        assert not _value_at(sep.poly, witness).is_zero()
        for _ in range(2):
            point = [b.element({k: C.from_rational(rng.randrange(1, 2 ** 31))
                                for k in b.component(g)})
                     for g in sep.poly.degrees]
            assert _value_at(sep.poly, point).is_zero()
    assert inconclusive == ["i0035"]
    assert kinds == {"part1", "elementary_nonabelian", "bounded_fallback"}


def test_corpus_checks_a_part1_separator_on_b_once(monkeypatch, klein,
                                                   klein_classes):
    """A false part1-shape instance sweeps B with is_identity once, inside
    separate_part1."""
    triv, nt = klein_classes
    a = GradedPresentation.twisted_group_algebra(nt)
    b = GradedPresentation(klein, klein.full_subgroup(), triv,
                           GTuple.const(klein, 1))
    on_b = []
    original = is_identity

    def counted(poly, algebra, budget=None):
        if algebra is b:
            on_b.append(poly)
        return original(poly, algebra, budget)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gradalg" \
                and getattr(module, "is_identity", None) is original:
            monkeypatch.setattr(module, "is_identity", counted)
    rec = corpus.run_instance(corpus.Instance("p1", "part1", a, b))
    assert not rec["verdict"]
    assert rec["separator"]["kind"] == "part1"
    assert len(on_b) == 1


def test_identity_sweeps_leave_no_reference_cycles():
    """The trie is built and walked by module-level functions, so a sweep
    frees everything it made by reference counting alone; self-calling
    closures once left thousands of objects for the cycle collector."""
    instances = corpus.generate_corpus(20250809, 6, 40)[:20]
    gc.collect()
    gc.disable()
    try:
        for inst in instances:
            identity_space(inst.b, (0, 0, 0))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identity_space_kernels_are_byte_identical():
    """The kernel of every identity space of both presentations, at every
    sorted multidegree of length <= 3 over their union support, across a
    fixed corpus, is pinned by one digest.  Coefficients are written with
    their conductors, so this pins those as well."""
    spaces = []
    for inst in corpus.generate_corpus(20250809, 6, 220):
        supp = sorted(inst.a.support() | inst.b.support())
        for length in range(1, 4):
            for degrees in combinations_with_replacement(supp, length):
                for algebra in (inst.a, inst.b):
                    space = identity_space(algebra, degrees)
                    spaces.append([[c.to_json() for c in vec]
                                   for vec in space.vectors])
    assert len(spaces) == 13532
    text = json.dumps(spaces, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6a6e8a7764bb32f1a75283efae8fac09f56345b70315e90eb2ed46cc99e9887c"


@pytest.mark.slow
def test_identity_space_kernels_at_length_4_are_byte_identical():
    """As above, at every sorted multidegree of length <= 4, over the first
    30 instances of the corpus.  Length 4 holds most of the repeated rows
    that `Echelon.add_row` skips and most of the fused elimination steps."""
    spaces = []
    for inst in corpus.generate_corpus(20250809, 6, 220)[:30]:
        supp = sorted(inst.a.support() | inst.b.support())
        for length in range(1, 5):
            for degrees in combinations_with_replacement(supp, length):
                for algebra in (inst.a, inst.b):
                    space = identity_space(algebra, degrees)
                    spaces.append([[c.to_json() for c in vec]
                                   for vec in space.vectors])
    assert len(spaces) == 4018
    text = json.dumps(spaces, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "af33aefdb1905a4ecf4b3bbf19b4c468a856d77b1b032195798e12d0418fcfa0"


@pytest.mark.parametrize("orders, expected", [
    ((4,), 1122),
    ((2, 2), 2244),
    ((6,), 7885),
    pytest.param((8,), 26404, marks=pytest.mark.slow),
    pytest.param((2, 4), 66256, marks=pytest.mark.slow),
], ids=["Z4", "Z2xZ2", "Z6", "Z8", "Z2xZ4"])
def test_identity_spaces_agree_across_isomorphism_classes(orders, expected):
    """Graded-isomorphic presentations have the same graded identities, so
    every member of a class (see class_key) has its class representative's
    identity space, vector for vector, at every sorted multidegree of
    length <= 3.  Values are compared, not printed forms: a kernel
    coefficient keeps the conductor of the arithmetic that produced it,
    which can differ across a class.  Expected: the number of
    member-representative space pairs."""
    group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in orders])
    degrees = [d for length in (1, 2, 3) for d in
               combinations_with_replacement(group.elements(), length)]
    reps, members = {}, []
    for p in small_presentations(group):
        rep = reps.setdefault(class_key(p), p)
        if p is not rep:
            members.append((p, rep))
    spaces = {}
    pairs = 0
    for p, rep in members:
        for d in degrees:
            if (id(rep), d) not in spaces:
                spaces[id(rep), d] = identity_space(rep, d).vectors
            want, got = spaces[id(rep), d], identity_space(p, d).vectors
            assert len(got) == len(want)
            assert all(x == y for u, v in zip(got, want)
                       for x, y in zip(u, v))
            pairs += 1
    assert pairs == expected
