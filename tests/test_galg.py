"""Presentations, elements, homomorphism certificates and transforms."""

from pathlib import Path

import pytest

from gradalg.cli import parse_doc
from gradalg.cocycles import Cocycle
from gradalg.errors import MismatchedParent, NotSameCoset
from gradalg.galg import (DirectSumAlgebra, GradedHom, GradedPresentation,
                          block_decompose, conjugate_presentation,
                          permute_tuple, replace_representative,
                          sub_presentation, to_structure_algebra, verify_hom)
from gradalg.groups import FiniteGroup, GTuple, Subgroup
from gradalg.identities import identity_space
from gradalg.scalars import CyclotomicScalar as C

from test_cocycles import klein_alpha

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_idempotent_unit(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    e11 = a.basis_element((0, 0, 0))
    assert e11 * e11 == e11


def test_delta_mismatch_kills_product(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    e12 = a.basis_element((0, 0, 1))
    assert (e12 * e12).is_zero()


def test_twisted_anticommutation(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    x = ka.basis_element((2, 0, 0))
    y = ka.basis_element((1, 0, 0))
    beta = nt.value(2, 1) / nt.value(1, 2)
    assert x * y == (y * x).scale(beta)
    assert beta == C.from_rational(-1)


def test_support_examples(z10):
    a1 = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1]))
    assert a1.support() == {0, 1, 9}
    a2 = GradedPresentation.elementary(z10, GTuple(z10, [1, 1, 1, 3]))
    assert a2.support() == {0, 2, 8}
    full = GradedPresentation(z10, z10.full_subgroup(),
                              Cocycle.trivial(z10.full_subgroup()),
                              GTuple(z10, [0, 7]))
    assert full.support() == set(range(10))


def test_dimension_formula(klein, klein_classes):
    _, nt = klein_classes
    p = GradedPresentation(klein, klein.full_subgroup(), nt,
                           GTuple.const(klein, 3))
    assert p.dim == 4 * 9
    comps = [len(p.component(g)) for g in klein.elements()]
    assert sum(comps) == p.dim


def test_identity_certificate(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    cert = verify_hom(GradedHom.identity(ka))
    assert cert.graded and cert.multiplicative and cert.injective
    assert cert.unital


def test_zero_map_certificate(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    hom = GradedHom(ka, ka, {k: ka.zero() for k in ka.basis_keys()})
    cert = verify_hom(hom)
    assert cert.graded and cert.multiplicative and not cert.injective


def test_permute_identity_is_identity(z4):
    h = z4.subgroup([0, 2])
    p = GradedPresentation(z4, h, Cocycle.trivial(h), GTuple(z4, [0, 2]))
    q, hom = permute_tuple(p, [0, 1])
    assert q.s == p.s
    assert all(hom.images[k] == q.basis_element(k) for k in p.basis_keys())


def test_replace_representative(z4):
    h = z4.subgroup([0, 2])
    p = GradedPresentation(z4, h, Cocycle.trivial(h), GTuple(z4, [0, 2]))
    q, hom = replace_representative(p, 1, 0)
    assert q.s.entries == (0, 0)
    assert verify_hom(hom).is_embedding


def test_replace_representative_requires_same_coset(z4):
    h = z4.subgroup([0, 2])
    p = GradedPresentation(z4, h, Cocycle.trivial(h), GTuple(z4, [0, 2]))
    with pytest.raises(NotSameCoset):
        replace_representative(p, 1, 1)


def test_replace_representative_twisted(klein, klein_classes):
    _, nt = klein_classes
    full = klein.full_subgroup()
    p = GradedPresentation(klein, full, nt, GTuple(klein, [0, 3]))
    q, hom = replace_representative(p, 1, 0)
    assert q.s.entries == (0, 0)
    assert verify_hom(hom).is_embedding


def test_conjugate_presentation(z4):
    h = z4.subgroup([0, 2])
    p = GradedPresentation(z4, h, Cocycle.trivial(h), GTuple(z4, [0, 2]))
    q, hom = conjugate_presentation(p, 1)
    assert q.s.entries == (1, 3)
    assert verify_hom(hom).is_embedding


def test_conjugate_nonabelian(d4):
    sub = d4.subgroup([0, 2])
    p = GradedPresentation(d4, sub, Cocycle.trivial(sub), GTuple(d4, [0, 4]))
    q, hom = conjugate_presentation(p, 5)
    assert verify_hom(hom).is_embedding


def test_block_decompose(z10):
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    blocks = block_decompose(b, z10.subgroup([0, 5]))
    assert len(blocks) == 2
    assert all(block.dim == 1 for _, _, block in blocks)


def test_block_decompose_full_group(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 6]))
    blocks = block_decompose(a, z10.full_subgroup())
    assert len(blocks) == 1
    assert blocks[0][2].dim == a.dim


def test_homogeneous_invertibility(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    e = klein.identity
    one = ka.one()
    for h in klein.elements():
        uh = ka.basis_element((h, 0, 0))
        uinv = ka.basis_element((klein.inv(h), 0, 0))
        prod = uh * uinv
        scal = prod.terms[(e, 0, 0)]
        assert uh * uinv.scale(scal.inverse()) == one


def test_structure_algebra_preserves_identity_spaces(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    sa = to_structure_algebra(ka)
    assert sa.dim == ka.dim
    for degrees in [(2, 1), (2, 2), (1, 2, 3)]:
        sp = identity_space(ka, degrees)
        sq = identity_space(sa, degrees)
        assert len(sp.vectors) == len(sq.vectors)
        for v, w in zip(sp.vectors, sq.vectors):
            assert v == w


def test_direct_sum_products_are_componentwise(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 2]))
    ds = DirectSumAlgebra([a, b])
    x = ds.basis_element((0, (0, 0, 0)))
    y = ds.basis_element((1, (0, 0, 0)))
    assert (x * y).is_zero()
    assert ds.dim == a.dim + b.dim


def test_sub_presentation_inclusion(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1, 1, 1]))
    sub, incl = sub_presentation(a, [1, 2])
    assert sub.s.entries == (1, 1)
    assert verify_hom(incl).is_embedding


def test_mixed_parent_elements_rejected(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    with pytest.raises(MismatchedParent):
        a.basis_element((0, 0, 0)) * b.basis_element((0, 0, 0))


def test_presentation_json_round_trip(klein, klein_classes):
    _, nt = klein_classes
    p = GradedPresentation(klein, klein.full_subgroup(), nt,
                           GTuple(klein, [0, 3]))
    q = GradedPresentation.from_json(klein, p.to_json())
    assert p.same_data(q)


def _components_by_filter(p):
    return {g: tuple(k for k in p.basis_keys() if p.basis_degree(k) == g)
            for g in p.group.elements()}


def test_components_match_basis_filter(klein, klein_classes, z4):
    """component(g) is computed from s_i g s_j^-1; it must list exactly the
    basis keys of degree g, in basis_keys order."""
    presentations = [GradedPresentation(klein, klein.full_subgroup(), alpha,
                                        GTuple(klein, s))
                     for alpha in klein_classes
                     for s in ([0], [0, 3], [1, 2, 1], [3, 0, 0, 2])]
    sub = klein.closure([2])
    presentations.append(GradedPresentation(
        klein, sub, klein_alpha(klein).restrict(sub), GTuple(klein, [1, 0, 3])))
    for h in ([0], [0, 2], [0, 1, 2, 3]):
        z4h = z4.closure(h)
        presentations += [GradedPresentation(z4, z4h, Cocycle.trivial(z4h),
                                             GTuple(z4, s))
                          for s in ([0], [3, 1], [2, 0, 1, 1])]
    doc = parse_doc((FIXTURES / "dihedral_regular.json").read_text())
    presentations += list(doc.presentations.values())
    d4 = doc.group
    rot = d4.subgroup([0, 1, 2, 3])
    presentations.append(GradedPresentation(d4, rot, Cocycle.trivial(rot),
                                            GTuple(d4, [5, 0, 2, 7])))
    for p in presentations:
        expected = _components_by_filter(p)
        for g, keys in expected.items():
            assert p.component(g) == keys
        assert sum(len(keys) for keys in expected.values()) == p.dim
