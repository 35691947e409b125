"""Cocycle validation, bicharacters, splittings and minimal representations."""

import hashlib
import json
import random
from math import gcd, lcm

import pytest

from gradalg.cocycles import (Bicharacter, Cocycle, abelian_basis,
                              coboundary_solve, element_coordinates,
                              enumerate_cocycle_classes, smallest_irrep)
from gradalg.errors import CocycleIdentityViolated, Unsupported
from gradalg.groups import FiniteGroup, GTuple, Subgroup
from gradalg.linalg import rank
from gradalg.scalars import CyclotomicScalar as C

from conftest import random_coboundary

ONE = C.one()
MINUS = C.from_rational(-1)


def klein_alpha(klein):
    """(-1)^(x2*y1) over coordinates in two independent generators."""
    sub = klein.full_subgroup()
    basis = abelian_basis(sub)
    coords = element_coordinates(sub, basis)
    values = {}
    for a in sub:
        for b in sub:
            values[(a, b)] = MINUS if (coords[a][1] * coords[b][0]) % 2 else ONE
    return Cocycle.verify_and_normalize(sub, values)


def test_trivial_cocycle_valid():
    z3 = FiniteGroup.cyclic(3)
    alpha = Cocycle.trivial(z3.full_subgroup())
    assert alpha.is_trivial()


def test_klein_alpha_satisfies_identity(klein):
    alpha = klein_alpha(klein)
    # the full 4^3 sweep runs inside verification; spot-check one triple
    t = klein.table
    for (u, v, w) in [(1, 2, 3), (2, 2, 1), (3, 1, 2)]:
        lhs = alpha.value(u, v) * alpha.value(t[u][v], w)
        rhs = alpha.value(u, t[v][w]) * alpha.value(v, w)
        assert lhs == rhs


def test_perturbed_table_rejected():
    z2 = FiniteGroup.cyclic(2)
    sub = z2.full_subgroup()
    values = {(a, b): ONE for a in sub for b in sub}
    values[(0, 1)] = MINUS
    with pytest.raises(CocycleIdentityViolated) as err:
        Cocycle.verify_and_normalize(sub, values)
    assert len(err.value.triple) == 3


def test_constructor_normalizes_a_valid_table():
    """A constant table is a cocycle; the constructor stores it normalized,
    as verify_and_normalize does, instead of rejecting it."""
    sub = FiniteGroup.cyclic(2).full_subgroup()
    values = {(a, b): C.zeta(4, 1) for a in sub for b in sub}
    alpha = Cocycle(sub, values)
    assert alpha.values == Cocycle.verify_and_normalize(sub, values).values
    assert alpha.is_trivial()


def test_constructor_reports_the_failing_triple():
    sub = FiniteGroup.cyclic(4).full_subgroup()
    values = {(a, b): ONE for a in sub for b in sub}
    values[(1, 2)] = C.zeta(4, 1)
    with pytest.raises(CocycleIdentityViolated) as err:
        Cocycle(sub, values)
    assert err.value.triple == (1, 1, 1)


def test_ratio_and_product(klein):
    alpha = klein_alpha(klein)
    assert alpha.ratio(alpha).is_trivial()
    # pointwise squaring of a sign table is trivial
    assert alpha.product(alpha).is_trivial()


def test_restrict(z4):
    alpha = Cocycle.trivial(z4.full_subgroup())
    sub = z4.subgroup([0, 2])
    assert alpha.restrict(sub).is_trivial()


def test_bicharacter_radicals(klein):
    alpha = klein_alpha(klein)
    assert alpha.bicharacter().radical.order == 1
    triv = Cocycle.trivial(klein.full_subgroup())
    assert triv.bicharacter().radical.order == 4


def test_bicharacter_is_alternating_and_bilinear():
    """Bicharacter.from_cocycle checks no triple: every class on Z2xZ2, Z4,
    Z6 and Z2xZ4, restricted to every subgroup and rescaled by a random
    coboundary, gives beta(a,a) = 1, beta(a,b) beta(b,a) = 1 and
    multiplicativity in each argument."""
    rng = random.Random(23)
    checked = 0
    for group in (FiniteGroup.product([FiniteGroup.cyclic(2)] * 2),
                  FiniteGroup.cyclic(4), FiniteGroup.cyclic(6),
                  FiniteGroup.product([FiniteGroup.cyclic(2),
                                       FiniteGroup.cyclic(4)])):
        t = group.table
        for cls in enumerate_cocycle_classes(group.full_subgroup()):
            for sub in group.all_subgroups():
                alpha = cls.restrict(sub).twist_by_coboundary(
                    random_coboundary(sub, rng))
                beta = alpha.bicharacter().values
                for a in sub:
                    assert beta[(a, a)].is_one()
                    for b in sub:
                        assert (beta[(a, b)] * beta[(b, a)]).is_one()
                        for c in sub:
                            assert beta[(a, t[b][c])] == \
                                beta[(a, b)] * beta[(a, c)]
                            assert beta[(t[a][b], c)] == \
                                beta[(a, c)] * beta[(b, c)]
                checked += 1
    # classes x subgroups: Z2xZ2 2 x 5, Z4 1 x 3, Z6 1 x 4, Z2xZ4 2 x 8
    assert checked == 10 + 3 + 4 + 16


def test_smallest_irrep_builds_one_bicharacter(monkeypatch, klein,
                                               klein_classes):
    """The dimension check reads the radical smallest_irrep already has."""
    built = []
    original = Bicharacter.from_cocycle.__func__

    def counted(cls, alpha):
        built.append(alpha)
        return original(cls, alpha)

    monkeypatch.setattr(Bicharacter, "from_cocycle", classmethod(counted))
    z6 = FiniteGroup.cyclic(6)
    for gamma in (*klein_classes, klein_alpha(klein),
                  *enumerate_cocycle_classes(z6.full_subgroup())):
        built.clear()
        assert smallest_irrep(gamma).dim in (1, 2)
        assert len(built) == 1


def test_cyclic_cocycles_have_full_radical():
    # any valid cocycle on a cyclic group splits, so the bicharacter is flat
    z6 = FiniteGroup.cyclic(6)
    sub = z6.full_subgroup()
    rng = random.Random(3)
    alpha = Cocycle.trivial(sub).twist_by_coboundary(
        random_coboundary(sub, rng))
    mu = coboundary_solve(alpha)
    assert all(
        alpha.value(a, b) * mu[z6.mul(a, b)] == mu[a] * mu[b]
        for a in sub for b in sub)
    assert alpha.bicharacter().radical.order == 6


def test_coboundary_solve_z2():
    z2 = FiniteGroup.cyclic(2)
    sub = z2.full_subgroup()
    values = {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (1, 1): MINUS}
    alpha = Cocycle.verify_and_normalize(sub, values)
    mu = coboundary_solve(alpha)
    assert mu[0].is_one()
    assert mu[1] * mu[1] == MINUS  # alpha(1,1) = mu(1)mu(1)/mu(0)


def test_coboundary_solve_requires_symmetry(klein):
    alpha = klein_alpha(klein)
    with pytest.raises(Unsupported, match=r"alpha\(\d,\d\) != alpha"):
        coboundary_solve(alpha)


def test_coboundary_solve_on_isotropic_restriction(klein):
    alpha = klein_alpha(klein)
    sub = Subgroup(klein, [0, 1])
    mu = coboundary_solve(alpha.restrict(sub))
    t = klein.table
    for a in sub:
        for b in sub:
            assert alpha.value(a, b) * mu[t[a][b]] == mu[a] * mu[b]


def _root_order(value):
    n, k = value.as_root_of_unity()
    return n // gcd(n, k)


def test_coboundary_solve_single_modulus(klein, z4):
    """Every class on Z2xZ2, Z4 and Z6, restricted to each isotropic
    subgroup L and rescaled by random coboundaries, splits at the one
    modulus M*|L|: d(mu) equals the cocycle and mu takes values in the
    (M*|L|)-th roots of unity, M the exponent of the cocycle's values."""
    rng = random.Random(11)
    solved = 0
    for group in (klein, z4, FiniteGroup.cyclic(6)):
        for cls in enumerate_cocycle_classes(group.full_subgroup()):
            beta = cls.bicharacter()
            for sub in group.all_subgroups():
                if not all(beta.values[(x, y)].is_one()
                           for x in sub for y in sub):
                    continue
                for _ in range(3):
                    alpha = cls.restrict(sub).twist_by_coboundary(
                        random_coboundary(sub, rng))
                    mu = coboundary_solve(alpha)
                    modulus = sub.order * lcm(*map(_root_order,
                                                   alpha.values.values()))
                    t = group.table
                    assert all(alpha.value(a, b) * mu[t[a][b]] == mu[a] * mu[b]
                               for a in sub for b in sub)
                    assert all(modulus % _root_order(v) == 0
                               for v in mu.values())
                    solved += 1
    # Z2xZ2: 5 subgroups under the trivial class, 4 under the other; Z4: 3;
    # Z6: 4
    assert solved == 3 * (5 + 4 + 3 + 4)


def _dense(rep, h):
    """rho(h) as a d x d matrix: column j holds coeffs[j] in row rows[j],
    zeros elsewhere.  A dense matrix is its own expansion."""
    m = rep.rho[h]
    if isinstance(m, list):
        return m
    rows, coeffs = m
    mat = [[C.zero()] * rep.dim for _ in range(rep.dim)]
    for j, (i, c) in enumerate(zip(rows, coeffs)):
        mat[i][j] = c
    return mat


def _mat_mul(a, b):
    n = len(b)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), C.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def _dense_checks(rep):
    """The four facts IrrepData certifies, checked on dense matrices: rho(e)
    is the identity, rho is alpha-multiplicative, its images span the d x d
    matrices, and d^2 |Rad| = |H|."""
    alpha, d = rep.cocycle, rep.dim
    sub = alpha.subgroup
    group = sub.parent
    assert _dense(rep, group.identity) == \
        [[C.one() if i == j else C.zero() for j in range(d)] for i in range(d)]
    for g in sub:
        for h in sub:
            scale = alpha.values[(g, h)]
            assert _mat_mul(_dense(rep, g), _dense(rep, h)) == \
                [[scale * c for c in row]
                 for row in _dense(rep, group.table[g][h])]
    vectors = [[c for row in _dense(rep, h) for c in row] for h in sub]
    assert rank(vectors, d * d) == d * d
    assert d * d * alpha.bicharacter().radical.order == sub.order


def _restricted_irreps():
    """(factors, subgroup, IrrepData) for every class on Z2xZ2, Z4, Z6,
    Z2xZ4 and Z3xZ3, restricted to every subgroup; Z3xZ3 gives rho a
    3-cycle."""
    for factors in ([2, 2], [4], [6], [2, 4], [3, 3]):
        group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in factors])
        for alpha in enumerate_cocycle_classes(group.full_subgroup()):
            for sub in group.all_subgroups():
                yield factors, sub, smallest_irrep(alpha.restrict(sub))


def test_smallest_irrep_matches_dense_oracle():
    dims = []
    for _, _, rep in _restricted_irreps():
        _dense_checks(rep)
        dims.append(rep.dim)
    assert len(dims) == 51 and dims.count(2) == 2 and dims.count(3) == 2


def test_smallest_irrep_expansion_is_pinned():
    """The expanded matrices, conductors included, as smallest_irrep built
    them when it still stored rho densely."""
    doc = [[factors, sub.sorted_members, rep.dim,
            [[[c.to_json() for c in row] for row in _dense(rep, h)]
             for h in sub.sorted_members]]
           for factors, sub, rep in _restricted_irreps()]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == \
        "26943ff1a513842f75a29f5700b0a8cd6d9c5c3a3aca3e5e7955e288ba331460"


def test_smallest_irrep_trivial(z4):
    data = smallest_irrep(Cocycle.trivial(z4.full_subgroup()))
    assert data.dim == 1


def test_smallest_irrep_klein(klein):
    data = smallest_irrep(klein_alpha(klein))
    assert data.dim == 2
    # anticommuting generator images
    a_el, b_el = 2, 1
    ab = _mat_mul(_dense(data, a_el), _dense(data, b_el))
    ba = _mat_mul(_dense(data, b_el), _dense(data, a_el))
    assert ab == [[c * MINUS for c in row] for row in ba]


def test_smallest_irrep_z6():
    z6 = FiniteGroup.cyclic(6)
    sub = z6.full_subgroup()
    rng = random.Random(11)
    alpha = Cocycle.trivial(sub).twist_by_coboundary(
        random_coboundary(sub, rng))
    assert smallest_irrep(alpha).dim == 1


def test_dim_squared_equals_radical_index():
    specs = [
        [2, 2],
        [2, 4],
        [3, 3],
    ]
    for factors in specs:
        group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in factors])
        sub = group.full_subgroup()
        for alpha in enumerate_cocycle_classes(sub):
            data = smallest_irrep(alpha)
            radical = alpha.bicharacter().radical
            assert data.dim ** 2 * radical.order == sub.order


def test_cohomologous_invariance(klein):
    alpha = klein_alpha(klein)
    rng = random.Random(5)
    for _ in range(3):
        twisted = alpha.twist_by_coboundary(
            random_coboundary(klein.full_subgroup(), rng))
        assert twisted.bicharacter().radical.members == \
            alpha.bicharacter().radical.members
        assert smallest_irrep(twisted).dim == 2


def test_iterated_values(klein):
    alpha = klein_alpha(klein)
    g = 2
    assert alpha.iterated(GTuple(klein, [g])).is_one()
    assert alpha.iterated(GTuple(klein, [2, 1])) == alpha.value(2, 1)
    tup = GTuple(klein, [2, 1, 2])
    expected = alpha.value(2, 1) * alpha.value(klein.mul(2, 1), 2)
    assert alpha.iterated(tup) == expected


def test_class_enumeration_counts(klein):
    assert len(enumerate_cocycle_classes(klein.full_subgroup())) == 2
    z2z4 = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)])
    assert len(enumerate_cocycle_classes(z2z4.full_subgroup())) == 2
    z3z3 = FiniteGroup.product([FiniteGroup.cyclic(3), FiniteGroup.cyclic(3)])
    assert len(enumerate_cocycle_classes(z3z3.full_subgroup())) == 3
    z5 = FiniteGroup.cyclic(5)
    assert len(enumerate_cocycle_classes(z5.full_subgroup())) == 1


def test_cocycle_json_round_trip(klein):
    alpha = klein_alpha(klein)
    data = alpha.to_json()
    rebuilt = Cocycle.from_json(klein, data)
    assert rebuilt == alpha
