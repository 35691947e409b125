"""Degreewise envelopes, cocycle twists, and polynomial transfer."""

from itertools import product

import pytest

from gradalg.cocycles import Cocycle, enumerate_cocycle_classes
from gradalg.envelope import alpha_envelope, falpha, genvelope, round_trip_iso
from gradalg.errors import MismatchedGroup
from gradalg.galg import GradedHom, GradedPresentation, verify_hom
from gradalg.groups import FiniteGroup, GTuple
from gradalg.identities import MultilinearPoly, identity_space, is_identity
from gradalg.scalars import CyclotomicScalar as C

from test_cocycles import klein_alpha


def test_envelope_component_dims(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    b = GradedPresentation(klein, klein.full_subgroup(),
                           Cocycle.trivial(klein.full_subgroup()),
                           GTuple(klein, [0, 2]))
    res = genvelope(ka, b)
    for g in klein.elements():
        assert len(res.carrier.component(g)) == \
            len(ka.component(g)) * len(b.component(g))


def test_envelope_requires_same_group(klein, z4, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    other = GradedPresentation.elementary(z4, GTuple(z4, [0]))
    with pytest.raises(MismatchedGroup):
        genvelope(ka, other)


def test_twist_against_inverse_is_commutative(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    kb = GradedPresentation.twisted_group_algebra(nt.inverse())
    res = genvelope(kb, ka)
    keys = res.carrier.basis_keys()
    for k1 in keys:
        for k2 in keys:
            a = res.carrier.basis_element(k1)
            b = res.carrier.basis_element(k2)
            assert a * b == b * a


def test_alpha_envelope_trivial_keeps_presentation(klein, klein_classes):
    triv, nt = klein_classes
    b = GradedPresentation(klein, klein.full_subgroup(), triv,
                           GTuple(klein, [0, 2]))
    env = alpha_envelope(b, triv)
    assert env.presentation.same_data(b)
    cert = verify_hom(env.iso)
    assert cert.is_embedding
    for img in env.iso.images.values():
        assert all(v.is_one() for v in img.terms.values())


def test_alpha_envelope_twists_cocycle(klein, klein_classes):
    triv, nt = klein_classes
    b = GradedPresentation(klein, klein.full_subgroup(), triv,
                           GTuple(klein, [0, 3]))
    env = alpha_envelope(b, nt)
    assert env.presentation.alpha == nt
    assert verify_hom(env.iso).is_embedding


def test_alpha_envelope_pure_group_algebra(klein, klein_classes):
    # a twisted subgroup algebra on a proper subgroup, any ambient cocycle
    triv, nt = klein_classes
    h = klein.subgroup([0, 1])
    b = GradedPresentation(klein, h, Cocycle.trivial(h), GTuple.const(klein, 1))
    env = alpha_envelope(b, nt)
    assert env.presentation.alpha == nt.restrict(h)
    assert verify_hom(env.iso).is_embedding


def test_every_small_twist_certifies(klein, z4):
    """Oracle for the sign-free twist: over Z2xZ2 and Z4, every subgroup,
    every cocycle class on it and on the whole group, and every tuple of
    length 1 or 2 (300 twists), the canonical iso certifies, and so does
    the iso with the sign of index 1 flipped."""
    minus = C.from_rational(-1)
    twists = 0
    for group in (klein, z4):
        alphas = enumerate_cocycle_classes(group.full_subgroup())
        tuples = [GTuple(group, entries) for n in (1, 2)
                  for entries in product(group.elements(), repeat=n)]
        for h in group.all_subgroups():
            for beta in enumerate_cocycle_classes(h):
                for alpha in alphas:
                    for s in tuples:
                        b = GradedPresentation(group, h, beta, s)
                        iso = alpha_envelope(b, alpha).iso
                        assert verify_hom(iso).is_embedding
                        twists += 1
                        if b.r == 2:
                            flipped = {key: img.scale(minus)
                                       if (key[1][1] == 1) != (key[1][2] == 1)
                                       else img
                                       for key, img in iso.images.items()}
                            assert verify_hom(GradedHom(
                                iso.source, iso.target, flipped)).is_embedding
    assert twists == 300


def test_round_trip_fixture_set(klein, z4, klein_classes):
    triv, nt = klein_classes
    fixtures = []
    for s in ([0], [0, 2], [1, 3]):
        fixtures.append((GradedPresentation(klein, klein.full_subgroup(), triv,
                                            GTuple(klein, s)), nt))
        fixtures.append((GradedPresentation(klein, klein.full_subgroup(), nt,
                                            GTuple(klein, s)), nt))
    h4 = z4.subgroup([0, 2])
    fixtures.append((GradedPresentation(z4, h4, Cocycle.trivial(h4),
                                        GTuple(z4, [0, 1])),
                     Cocycle.trivial(z4.full_subgroup())))
    for b, alpha in fixtures:
        carrier, rt = round_trip_iso(b, alpha)
        cert = verify_hom(rt)
        assert cert.graded and cert.multiplicative and cert.injective
        assert carrier.dim == b.dim


def test_falpha_trivial_and_single_variable(klein, klein_classes):
    triv, nt = klein_classes
    f = MultilinearPoly(klein, (2, 1),
                        {(0, 1): C.one(), (1, 0): C.from_rational(-1)})
    assert falpha(f, triv).coeffs == f.coeffs
    g = MultilinearPoly.variable(klein, 2)
    assert falpha(g, nt).coeffs == g.coeffs


def test_falpha_two_terms(klein, klein_classes):
    _, nt = klein_classes
    f = MultilinearPoly(klein, (2, 1),
                        {(0, 1): C.one(), (1, 0): C.from_rational(-1)})
    fa = falpha(f, nt)
    assert fa.coeffs[(0, 1)] == nt.value(2, 1)
    assert fa.coeffs[(1, 0)] == C.from_rational(-1) * nt.value(1, 2)
    beta = nt.value(2, 1) / nt.value(1, 2)
    assert beta == C.from_rational(-1)


def test_falpha_involution(klein, klein_classes):
    _, nt = klein_classes
    f = MultilinearPoly(klein, (2, 1, 3),
                        {(0, 1, 2): C.one(), (2, 0, 1): C.zeta(4)})
    back = falpha(falpha(f, nt), nt.inverse())
    assert back.coeffs == f.coeffs


def test_identity_transfer(klein, klein_classes):
    """Identities of the twist correspond to rescaled identities below."""
    triv, nt = klein_classes
    cases = [
        GradedPresentation.twisted_group_algebra(nt),
        GradedPresentation.twisted_group_algebra(triv),
        GradedPresentation(klein, klein.subgroup([0, 1]),
                           Cocycle.trivial(klein.subgroup([0, 1])),
                           GTuple(klein, [0, 2])),
    ]
    degree_lists = [(2,), (2, 1), (1, 1), (2, 1, 3), (1, 2, 2)]
    for b in cases:
        env = alpha_envelope(b, nt)
        for degrees in degree_lists:
            upstairs = identity_space(env.presentation, degrees)
            downstairs = identity_space(b, degrees)
            assert len(upstairs.vectors) == len(downstairs.vectors)
            for poly in upstairs.polys():
                moved = falpha(poly, nt)
                assert is_identity(moved, b).is_identity
            for poly in downstairs.polys():
                moved = falpha(poly, nt.inverse())
                assert is_identity(moved, env.presentation).is_identity


def _transported(hom, alpha):
    """hom conjugated by the alpha-twist of both sides: the twist iso of the
    target after hom, after the inverse twist iso of the source.  Both isos
    send each carrier key (u, x) to a nonzero multiple of x."""
    src, tgt = alpha_envelope(hom.source, alpha), alpha_envelope(hom.target, alpha)
    images = {}
    for (ukey, xkey), img in src.iso.images.items():
        (key, c), = img.terms.items()
        terms = {}
        for kk, v in hom.images[xkey].terms.items():
            (k2, c2), = tgt.iso.images[(ukey, kk)].terms.items()
            terms[k2] = v * c2 / c
        images[key] = tgt.presentation.element(terms)
    return GradedHom(src.presentation, tgt.presentation, images)


def test_embedding_transfer(klein, klein_classes):
    """A lifted embedding between twists stays a certified embedding."""
    from gradalg.galg import sub_presentation
    triv, nt = klein_classes
    b2 = GradedPresentation(klein, klein.full_subgroup(), triv,
                            GTuple(klein, [0, 2]))
    b1, incl = sub_presentation(b2, [0])
    lifted = _transported(incl, nt)
    assert verify_hom(lifted).is_embedding


def test_falpha_requires_degrees_in_domain(klein, klein_classes):
    _, nt = klein_classes
    from gradalg.errors import DegreeOutsideGroup
    sub_cocycle = nt.restrict(klein.subgroup([0, 1]))
    f = MultilinearPoly.variable(klein, 2)
    with pytest.raises(DegreeOutsideGroup):
        falpha(f, sub_cocycle)
