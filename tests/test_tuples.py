"""Tuple equivalence, subsumption and shift search."""

import random

from hypothesis import given, settings, strategies as st

from gradalg.groups import FiniteGroup, GTuple, build_group, dihedral_table
from gradalg.tuples import (CosetMultiset, exists_shift,
                            exists_shift_bruteforce, subsume_mod)


def equiv_mod(s, t, subgroup):
    """s ~ t mod H: equal multisets of right cosets."""
    return CosetMultiset.of(s, subgroup) == CosetMultiset.of(t, subgroup)


def test_permutation_equivalence(z10):
    e = z10.trivial_subgroup()
    assert equiv_mod(GTuple(z10, [0, 3]), GTuple(z10, [3, 0]), e)


def test_left_multiplication_equivalence(z10):
    h = z10.subgroup([0, 5])
    s = GTuple(z10, [3, 7])
    shifted = GTuple(z10, [z10.mul(5, 3), 7])
    assert equiv_mod(shifted, s, h)


def test_subsume_via_coset(z10):
    h = z10.subgroup([0, 5])
    assert subsume_mod(GTuple(z10, [1, 2]), GTuple(z10, [6]), h)
    assert not subsume_mod(GTuple(z10, [1, 2]), GTuple(z10, [3]), h)


def test_equiv_is_equivalence_and_subsume_preorder(z10):
    h = z10.subgroup([0, 2, 4, 6, 8])
    rng = random.Random(1)
    tuples = [GTuple(z10, [rng.randrange(10) for _ in range(3)])
              for _ in range(8)]
    for s in tuples:
        assert equiv_mod(s, s, h)
        assert subsume_mod(s, s, h)
    for s in tuples:
        for t in tuples:
            if equiv_mod(s, t, h):
                assert equiv_mod(t, s, h)
                assert subsume_mod(s, t, h) and subsume_mod(t, s, h)
            for u in tuples:
                if subsume_mod(s, t, h) and subsume_mod(t, u, h):
                    assert subsume_mod(s, u, h)


def test_product_respects_equivalence(z10):
    h = z10.subgroup([0, 5])
    s = GTuple(z10, [1, 2])
    s2 = GTuple(z10, [7, 1])  # 7 = 5+2, so s2 ~ (2,1) ~ s mod H
    t = GTuple(z10, [3, 9])
    assert equiv_mod(s, s2, h)
    assert equiv_mod(s.product(t), s2.product(t), h)
    # and on the right for abelian ambient groups
    t2 = GTuple(z10, [z10.mul(5, 3), 9])
    assert equiv_mod(s.product(t), s.product(t2), h)


def test_concat_distributes_over_product(z10):
    h = z10.trivial_subgroup()
    u, v, t = GTuple(z10, [1]), GTuple(z10, [2, 3]), GTuple(z10, [4, 5])
    lhs = u.concat(v).product(t)
    rhs = u.product(t).concat(v.product(t))
    assert equiv_mod(lhs, rhs, h)


def test_exists_shift_prefers_identity(z10):
    t = GTuple(z10, [0, 1, 1])
    assert exists_shift(t, t, z10.trivial_subgroup()) == 0


def test_exists_shift_constructed(z10):
    e = z10.trivial_subgroup()
    pattern = GTuple(z10, [0, 1, 1, 1])
    t = pattern.shift(3)
    g = exists_shift(t, pattern, e)
    assert g is not None
    assert subsume_mod(t.shift(g), pattern, e)


def test_exists_shift_documented_case(z10):
    e = z10.trivial_subgroup()
    t = GTuple(z10, [3, 4, 4, 4, 6])
    pattern = GTuple(z10, [0, 1, 1, 1])
    g = exists_shift(t, pattern, e)
    assert g == 7
    assert t.shift(7).entries == (0, 1, 1, 1, 3)


def test_exists_shift_matches_bruteforce(d4):
    groups = [FiniteGroup.cyclic(n) for n in (6, 9, 12)] + [d4]
    rng = random.Random(9)
    for group in groups:
        subgroups = group.all_subgroups()
        for _ in range(40):
            h = rng.choice(subgroups)
            t = GTuple(group, [rng.randrange(group.order)
                               for _ in range(rng.randrange(1, 5))])
            pattern = GTuple(group, [rng.randrange(group.order)
                                     for _ in range(rng.randrange(1, 4))])
            fast = exists_shift(t, pattern, h)
            brute = exists_shift_bruteforce(t, pattern, h)
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert subsume_mod(t.shift(fast), pattern, h)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 9), st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_shift_invariance_abelian(g, t_entries, p_entries):
    z10 = FiniteGroup.cyclic(10)
    h = z10.subgroup([0, 5])
    t = GTuple(z10, t_entries)
    p = GTuple(z10, p_entries)
    assert subsume_mod(t, p, h) == subsume_mod(t.shift(g), p.shift(g), h)
