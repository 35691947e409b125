"""Group construction, validation, subgroup services and tuples."""

import random

import pytest

from gradalg.cocycles import Cocycle
from gradalg.errors import MismatchedParent, NotAGroup, NotSubgroup
from gradalg.galg import GradedPresentation
from gradalg.groups import (MAX_GROUP_ORDER, FiniteGroup, GTuple, Subgroup,
                            build_group, group_to_json)


def s3_table():
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    return [[index[compose(p, q)] for q in perms] for p in perms]


def test_cyclic_inverse():
    z4 = FiniteGroup.cyclic(4)
    assert z4.inv(1) == 3
    assert z4.identity == 0


def test_klein_product(klein):
    assert klein.abelian
    assert klein.order == 4
    assert all(klein.mul(x, x) == 0 for x in klein.elements())


def test_s3_not_abelian():
    s3 = build_group({"kind": "table", "table": s3_table()})
    assert not s3.abelian
    # find a non-commuting pair by table lookup
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in s3.elements() for b in s3.elements())


def test_bad_latin_square_rejected():
    with pytest.raises(NotAGroup, match="is not a permutation"):
        build_group({"kind": "table", "table": [[0, 0], [1, 1]]})


def test_non_associative_rejected():
    # a Latin square that is not associative
    table = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    with pytest.raises(NotAGroup, match=r"\(\d+\*\d+\)\*\d+ != "):
        build_group({"kind": "table", "table": table})


def test_large_non_associative_table_rejected():
    # Z256 with the symbols of one intercalate (rows 1, 129, columns 2, 130)
    # swapped: still a Latin square with identity 0, but not associative.
    n, h = 256, 128
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    for x in (1, 1 + h):
        for y in (2, 2 + h):
            table[x][y] = (table[x][y] + h) % n
    # 4096 seeded random triples, as a sampled check would draw them, all
    # associate: only an exact test rejects this table
    rng = random.Random(0)
    for _ in range(4096):
        a, b, c = (rng.randrange(n) for _ in range(3))
        assert table[table[a][b]][c] == table[a][table[b][c]]
    with pytest.raises(NotAGroup, match=r"\(\d+\*\d+\)\*\d+ != "):
        build_group({"kind": "table", "table": table})


def test_group_order_is_bounded(monkeypatch):
    assert MAX_GROUP_ORDER == 256
    assert build_group({"kind": "cyclic", "n": 256}).order == 256

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    # refused from the specification alone, before any table is built
    monkeypatch.setattr(FiniteGroup, "cyclic", no_table)
    monkeypatch.setattr(FiniteGroup, "product", no_table)
    monkeypatch.setattr(FiniteGroup, "from_table", no_table)
    cyclic = {"kind": "cyclic", "n": 16}
    for spec in ({"kind": "cyclic", "n": 257},
                 {"kind": "product",
                  "factors": [cyclic, {"kind": "product",
                                       "factors": [cyclic, cyclic]}]},
                 {"kind": "table", "table": [[0]] * 257}):
        with pytest.raises(ValueError, match="exceeds 256"):
            build_group(spec)


def test_cosets_and_transversal(z4):
    h = z4.subgroup([0, 2])
    assert [h.coset_rep(x) for x in range(4)] == [0, 1, 0, 1]
    assert h.transversal().entries == (0, 1)


def test_product_subgroup_generates(z10):
    a = z10.subgroup([0, 2, 4, 6, 8])
    b = z10.subgroup([0, 5])
    prod = a.product_subgroup(b)
    assert prod.sorted_members == tuple(range(10))
    assert a.intersection(b).sorted_members == (0,)


def test_product_subgroup_is_literal_product_when_abelian(z10):
    a = z10.subgroup([0, 5])
    b = z10.subgroup([0, 2, 4, 6, 8])
    literal = {z10.mul(x, y) for x in a for y in b}
    assert a.product_subgroup(b).members == literal


def test_lagrange_for_all_subgroups(klein, d4):
    for group in (klein, d4, FiniteGroup.cyclic(6)):
        for sub in group.all_subgroups():
            assert group.order % sub.order == 0


def test_transversal_length(d4):
    klein_sub = d4.subgroup([0, 2, 4, 6])
    inner = d4.subgroup([0, 2])
    tr = inner.transversal(within=klein_sub)
    assert len(tr) * inner.order == klein_sub.order


def test_subgroup_validation(z4):
    with pytest.raises(NotSubgroup):
        Subgroup(z4, [0, 1])  # not closed
    with pytest.raises(NotSubgroup):
        Subgroup(z4, [1, 3])  # missing identity


def test_one_checked_subgroup_per_member_set(z4):
    """Equal member sets give the group's one object; a set that fails the
    check is refused each time it is given, not kept."""
    assert Subgroup(z4, [0, 2]) is Subgroup(z4, [2, 0]) is z4.closure([2])
    for _ in range(2):
        with pytest.raises(NotSubgroup, match="missing inverse of 1"):
            Subgroup(z4, [0, 1])
    with pytest.raises(NotAGroup, match="no two-sided identity"):
        FiniteGroup.from_table([])


def test_mismatched_parents(z4, z10):
    a = z4.subgroup([0, 2])
    b = z10.subgroup([0, 5])
    with pytest.raises(MismatchedParent):
        a.intersection(b)


def test_tuple_product_row_major(z10):
    two = GTuple.const(z10, 2)
    ab = GTuple(z10, [3, 4])
    assert two.product(ab).entries == (3, 4, 3, 4)
    assert GTuple(z10, [1, 2]).product(GTuple(z10, [0, 5])).entries == (1, 6, 2, 7)


def test_tuple_shift(z10):
    u = GTuple(z10, [1])
    assert u.shift(5).entries == (6,)


def test_group_json_round_trip(klein):
    spec = group_to_json(klein)
    rebuilt = build_group(spec)
    assert rebuilt.table == klein.table


def test_dihedral_table_is_group(d4):
    assert d4.order == 8
    assert not d4.abelian
    # the rotation subgroup is cyclic of order 4
    rot = d4.subgroup([0, 1, 2, 3])
    assert rot.is_abelian()


def test_derived_subgroups_are_interned(klein, d4):
    a, b = klein.subgroup([0, 1]), klein.subgroup([0, 2])
    assert a.intersection(b) is b.intersection(a) is klein.trivial_subgroup()
    assert klein.closure([1]) is klein.closure([0, 1])
    assert klein.closure([1, 2]) is klein.full_subgroup()
    assert a.product_subgroup(b) is klein.full_subgroup()
    assert klein.trivial_subgroup() is klein.closure([])
    for group in (klein, d4):
        for sub in group.all_subgroups():
            assert group.closure(sub.members) is sub
            assert sub.intersection(group.full_subgroup()) is sub


def test_public_subgroups_keep_value_semantics(klein):
    """Subgroup(...), the JSON readers and the derivations all hand out the
    group's one object per member set."""
    p = GradedPresentation(klein, klein.closure([1]), Cocycle.trivial(
        klein.closure([1])), GTuple(klein, [0, 2]))
    q = GradedPresentation.from_json(klein, p.to_json())
    fresh = Subgroup(klein, [1, 0])
    assert q.H is p.H is fresh is klein.closure([1])
    assert q.H == p.H == fresh and hash(q.H) == hash(p.H) == hash(fresh)
    assert len({q.H, p.H, fresh, klein.closure([1])}) == 1
    assert q.alpha.subgroup == p.H
    assert fresh != klein.subgroup([0, 2])
    assert fresh.intersection(q.H) is klein.closure([1])
