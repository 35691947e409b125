"""Direct sums: minimal sets, component matching, power embeddings."""

from itertools import combinations

import pytest

from gradalg.embed import decide
from gradalg.errors import NoMatch
from gradalg.galg import GradedPresentation
from gradalg.groups import FiniteGroup, GTuple
from gradalg.identities import inclusion_bounded
from gradalg.semisimple import (SemisimplePresentation, embed_into_power,
                                match_components, minimal_set, pair_inclusion)

from conftest import class_representatives

Z1 = FiniteGroup.cyclic(1)


def mat(n):
    return GradedPresentation.elementary(Z1, GTuple(Z1, [0] * n))


@pytest.fixture(scope="module")
def block_example():
    z10 = FiniteGroup.cyclic(10)
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1, 3]))
    a1 = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1]))
    a2 = GradedPresentation.elementary(z10, GTuple(z10, [1, 1, 1, 3]))
    return z10, a1, a2, b


def test_pair_inclusion_examples(block_example):
    _, a1, a2, b = block_example
    assert pair_inclusion(a1, a1)
    assert pair_inclusion(a1, b) and pair_inclusion(a2, b)
    assert not pair_inclusion(a1, a2) and not pair_inclusion(a2, a1)


def test_minimal_set_keeps_distinct(block_example):
    _, a1, a2, _ = block_example
    kept, log = minimal_set([a1, a2])
    assert kept == [a1, a2] and log == []


def test_minimal_set_removes_duplicates_and_dominated(block_example):
    _, a1, _, _ = block_example
    kept, log = minimal_set([a1, a1])
    assert len(kept) == 1 and len(log) == 1
    kept2, _ = minimal_set([mat(1), mat(2)])
    assert len(kept2) == 1 and kept2[0].r == 2


def test_minimal_set_idempotent(block_example):
    _, a1, a2, b = block_example
    once, _ = minimal_set([a1, a2, b])
    twice, log = minimal_set(once)
    assert twice == once and log == []


def test_minimal_set_keeps_the_earliest_of_equivalent_components():
    z4 = FiniteGroup.cyclic(4)
    x = GradedPresentation.elementary(z4, GTuple(z4, [0]))
    y = GradedPresentation.elementary(z4, GTuple(z4, [1]))
    assert pair_inclusion(x, y) and pair_inclusion(y, x)
    kept, log = minimal_set([x, y])
    assert len(kept) == 1 and kept[0] is x and log == [(1, 0)]


def test_match_components(block_example):
    _, a1, a2, b = block_example
    a = SemisimplePresentation([a1, a2])
    bb = SemisimplePresentation([b])
    assert match_components(a, bb) == [0, 0]
    # a component with no admissible target is reported as unmatched
    other = SemisimplePresentation([a2])
    assert match_components(SemisimplePresentation([b]), other) == [None]


def test_embed_into_power_block_example(block_example):
    _, a1, a2, b = block_example
    a = SemisimplePresentation([a1, a2])
    bb = SemisimplePresentation([b])
    copies, hom, cert = embed_into_power(a, bb)
    assert copies == 2
    assert cert.is_embedding
    assert a.dim == 32 and bb.dim == 25   # N = 1 impossible by dimension
    # block orthogonality between distinct component images
    x = hom.images[(0, (0, 0, 0))]
    y = hom.images[(1, (0, 0, 0))]
    assert (x * y).is_zero()


def test_simple_source_gets_single_copy(block_example):
    _, a1, _, b = block_example
    copies, hom, cert = embed_into_power(SemisimplePresentation([a1]),
                                         SemisimplePresentation([b]))
    assert copies == 1 and cert.is_embedding


def test_double_target_needs_two_copies():
    m2 = mat(2)
    a = SemisimplePresentation([m2, m2])
    b = SemisimplePresentation([m2])
    copies, hom, cert = embed_into_power(a, b)
    assert copies == 2 and cert.is_embedding


def test_unmatchable_component_raises(block_example):
    _, a1, a2, b = block_example
    with pytest.raises(NoMatch):
        embed_into_power(SemisimplePresentation([b]),
                         SemisimplePresentation([a1]))


def test_multi_component_target_spreads_load(block_example):
    _, a1, a2, b = block_example
    a = SemisimplePresentation([a1, a2])
    bb = SemisimplePresentation([b, b])
    copies, hom, cert = embed_into_power(a, bb)
    assert copies == 1 and cert.is_embedding


def test_power_embedding_certifies_once(block_example, sweeps):
    """Only the whole block-diagonal map is certified, not each block."""
    _, a1, a2, b = block_example
    copies, hom, cert = embed_into_power(SemisimplePresentation([a1, a2]),
                                         SemisimplePresentation([b]))
    assert sweeps == [hom] and cert.is_embedding


# Pairs (A, B_j) of class representatives, as indices into
# class_representatives, that neither decides true and no graded identity
# of length at most 3 separates.  On Z2xZ2 they are the two 16-dimensional
# classes over the whole group with s = (e, e), untwisted (15) and twisted
# (17): neither embeds into the other, yet their identities agree up to
# length 3.
_UNSEPARATED = {"Z2xZ2": {(15, 17), (17, 15)}}


@pytest.mark.parametrize("name, orders, expected", [
    ("Z4", (4,), (36, 133, 0)),
    pytest.param("Z2xZ2", (2, 2), (153, 1382, 32), marks=pytest.mark.slow),
    pytest.param("Z6", (6,), (78, 518, 0), marks=pytest.mark.slow),
], ids=["Z4", "Z2xZ2", "Z6"])
def test_power_embedding_over_sums_of_two_classes(name, orders, expected):
    """A simple A embeds into a power of B = B1 (+) B2 exactly when some B_j
    decides A true: the projection of an embedding onto a component has a
    graded ideal of A as kernel, so it is injective or zero.  So
    embed_into_power certifies a one-copy map then and raises NoMatch
    otherwise.  Where no component takes A, inclusion_bounded finds a
    graded identity of B that is not one of A at length 3, unless A and a
    component of B are a pinned pair.  Expected: (sums, pairs with no
    component taking A, such pairs left unseparated).  match_components
    names the first B_j that decides A true, so it is None exactly when
    embed_into_power raises NoMatch."""
    group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in orders])
    classes = class_representatives(group)
    pinned = _UNSEPARATED.get(name, set())
    sums = list(combinations(range(len(classes)), 2))
    refused = unseparated = 0
    for i, a in enumerate(classes):
        source = SemisimplePresentation([a])
        for pair in sums:
            b = SemisimplePresentation([classes[j] for j in pair])
            assert match_components(source, b) == [next(
                (k for k, j in enumerate(pair)
                 if decide(a, classes[j]).verdict), None)]
            if any(decide(a, classes[j]).verdict for j in pair):
                copies, _, cert = embed_into_power(source, b)
                assert copies == 1 and cert.is_embedding
                continue
            with pytest.raises(NoMatch):
                embed_into_power(source, b)
            refused += 1
            if inclusion_bounded(b, a, 3).holds:
                assert any((i, j) in pinned for j in pair), (i, pair)
                unseparated += 1
    assert (len(sums), refused, unseparated) == expected


@pytest.mark.parametrize("orders, expected_drops", [
    ((4,), 23),
    pytest.param((2, 2), 86, marks=pytest.mark.slow),
    pytest.param((6,), 40, marks=pytest.mark.slow),
], ids=["Z4", "Z2xZ2", "Z6"])
def test_minimal_set_over_pairs_of_classes(orders, expected_drops):
    """When minimal_set drops one of two classes for the other, the graded
    identities of the kept one are identities of the dropped one up to
    length 3.  Expected: the drops over all pairs of classes."""
    group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in orders])
    drops = 0
    for pair in combinations(class_representatives(group), 2):
        _, log = minimal_set(list(pair))
        for dropped, kept in log:
            assert inclusion_bounded(pair[kept], pair[dropped], 3).holds
        drops += len(log)
    assert drops == expected_drops
