"""Direct sums: minimal sets, component matching, power embeddings."""

import pytest

from gradalg.errors import NoMatch
from gradalg.galg import GradedPresentation
from gradalg.groups import FiniteGroup, GTuple
from gradalg.semisimple import (SemisimplePresentation, embed_into_power,
                                match_components, minimal_set, pair_inclusion)

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
