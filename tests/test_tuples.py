"""Tuple equivalence, subsumption and shift search."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from gradalg.errors import MismatchedParent
from gradalg.groups import FiniteGroup, GTuple
from gradalg.tuples import (bipartite_match, cosets, exists_shift,
                            exists_shift_bruteforce, match_positions,
                            subsume_mod)


def equiv_mod(s, t, subgroup):
    """s ~ t mod H: equal multisets of right cosets."""
    return cosets(s, subgroup) == cosets(t, subgroup)


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
    lhs = GTuple(z10, u.entries + v.entries).product(t)
    rhs = GTuple(z10, u.product(t).entries + v.product(t).entries)
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


def test_tuples_from_another_group_are_rejected(z4, z10):
    t, foreign = GTuple(z10, [1, 2]), GTuple(z4, [3])
    h = z10.trivial_subgroup()
    for fn in (subsume_mod, exists_shift, exists_shift_bruteforce):
        with pytest.raises(MismatchedParent):
            fn(t, foreign, h)
        with pytest.raises(MismatchedParent):
            fn(foreign, t, h)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 9), st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_shift_invariance_abelian(g, t_entries, p_entries):
    z10 = FiniteGroup.cyclic(10)
    h = z10.subgroup([0, 5])
    t = GTuple(z10, t_entries)
    p = GTuple(z10, p_entries)
    assert subsume_mod(t, p, h) == subsume_mod(t.shift(g), p.shift(g), h)


def test_match_positions_realises_subsumption(z10):
    """A positional match exists exactly when the cosets contain the
    pattern's; it is injective and keeps each entry's coset."""
    rng = random.Random(3)
    for h in z10.all_subgroups():
        for _ in range(30):
            t = GTuple(z10, [rng.randrange(10)
                             for _ in range(rng.randrange(1, 6))])
            p = GTuple(z10, [rng.randrange(10)
                             for _ in range(rng.randrange(1, 4))])
            positions = match_positions(t, p, h)
            assert (positions is not None) == subsume_mod(t, p, h)
            if positions is not None:
                assert len(set(positions)) == len(p)
                assert all(h.coset_rep(t[j]) == h.coset_rep(x)
                           for j, x in zip(positions, p))


def test_bipartite_match_against_permutations():
    """The matcher finds an assignment exactly when some injection of
    positions into items respects the pools."""
    rng = random.Random(5)
    for _ in range(200):
        items = list(range(rng.randrange(1, 5)))
        pools = [{i for i in items if rng.random() < 0.5}
                 for _ in range(rng.randrange(1, len(items) + 1))]
        brute = any(all(perm[pos] in pools[pos] for pos in range(len(pools)))
                    for perm in permutations(items, len(pools)))
        match = bipartite_match(items, pools)
        assert (match is not None) == brute
        if match is not None:
            assert len(set(match)) == len(pools)
            assert all(items[k] in pools[pos] for pos, k in enumerate(match))
