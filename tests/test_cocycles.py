"""Cocycle validation, bicharacters, splittings and minimal representations."""

import random
from math import gcd, lcm

import pytest

from gradalg.cocycles import (Cocycle, abelian_basis, coboundary_solve,
                              element_coordinates, enumerate_cocycle_classes,
                              random_coboundary, smallest_irrep,
                              transversal_normalize)
from gradalg.errors import CocycleIdentityViolated, NotSymmetric
from gradalg.groups import FiniteGroup, GTuple, Subgroup
from gradalg.scalars import CyclotomicScalar as C

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
    with pytest.raises(NotSymmetric):
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


def test_smallest_irrep_trivial(z4):
    data = smallest_irrep(Cocycle.trivial(z4.full_subgroup()))
    assert data.dim == 1


def test_smallest_irrep_klein(klein):
    data = smallest_irrep(klein_alpha(klein))
    assert data.dim == 2
    # anticommuting generator images
    a_el, b_el = 2, 1
    import gradalg.linalg as linalg
    ab = linalg.mat_mul(data.rho[a_el], data.rho[b_el])
    ba = linalg.mat_mul(data.rho[b_el], data.rho[a_el])
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


def test_transversal_normalize(klein):
    alpha = klein_alpha(klein)
    h = Subgroup(klein, [0, 2])
    tr = GTuple(klein, [0, 1])
    normalized, rescale = transversal_normalize(alpha, h, tr)
    for x in h:
        for w in tr:
            assert normalized.value(x, w).is_one()
    # already-normalized input gets the identity rescaling
    again, rescale2 = transversal_normalize(normalized, h, tr)
    assert all(v.is_one() for v in rescale2.values())


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
