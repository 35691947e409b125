"""Presentations, elements, homomorphism certificates and transforms."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg import galg, linalg
from gradalg.cli import parse_doc
from gradalg.cocycles import Cocycle, enumerate_cocycle_classes
from gradalg.corpus import generate_corpus
from gradalg.embed import construct, decide
from gradalg.envelope import alpha_envelope
from gradalg.errors import MismatchedParent
from gradalg.galg import (DirectSumAlgebra, GradedHom, GradedPresentation,
                          HomCertificate, StructureAlgebra, sub_presentation,
                          verify_hom)
from gradalg.groups import FiniteGroup, GTuple
from gradalg.identities import identity_space
from gradalg.scalars import CyclotomicScalar as C
from gradalg.semisimple import SemisimplePresentation, embed_into_power

from conftest import random_coboundary
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
    cert = verify_hom(GradedHom(ka, ka, {k: ka.basis_element(k)
                                         for k in ka.basis_keys()}))
    assert cert.graded and cert.multiplicative and cert.injective
    assert cert.unital


def test_zero_map_certificate(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    hom = GradedHom(ka, ka, {k: ka.zero() for k in ka.basis_keys()})
    cert = verify_hom(hom)
    assert cert.graded and cert.multiplicative and not cert.injective


def _replaced_pair_certifies(p, q, h_1):
    """p and q differ only in tuple entry 1, s_1(q) = h_1 * s_1(p) in the
    same coset: construct maps each into the other, and the map from p moves
    (e,0,1) onto (h_1^-1,0,1)."""
    hom = construct(p, q, decide(p, q))
    assert hom.certificate.is_embedding
    e = p.group.identity
    assert set(hom.images[(e, 0, 1)].terms) == {(p.group.inverses[h_1], 0, 1)}
    assert construct(q, p, decide(q, p)).certificate.is_embedding


def test_replace_representative(z4):
    h = z4.subgroup([0, 2])
    p = GradedPresentation(z4, h, Cocycle.trivial(h), GTuple(z4, [0, 0]))
    q = GradedPresentation(z4, h, Cocycle.trivial(h), GTuple(z4, [0, 2]))
    _replaced_pair_certifies(p, q, 2)


def test_replace_representative_twisted(klein, klein_classes):
    _, nt = klein_classes
    full = klein.full_subgroup()
    p = GradedPresentation(klein, full, nt, GTuple(klein, [0, 0]))
    q = GradedPresentation(klein, full, nt, GTuple(klein, [0, 3]))
    _replaced_pair_certifies(p, q, 3)


def test_homogeneous_invertibility(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    e = klein.identity
    one = ka.one()
    for h in klein.elements():
        uh = ka.basis_element((h, 0, 0))
        uinv = ka.basis_element((klein.inverses[h], 0, 0))
        prod = uh * uinv
        scal = prod.terms[(e, 0, 0)]
        assert uh * uinv.scale(scal.inverse()) == one


def test_structure_algebra_preserves_identity_spaces(klein, klein_classes):
    _, nt = klein_classes
    ka = GradedPresentation.twisted_group_algebra(nt)
    sa = StructureAlgebra.from_algebra(ka)
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


def test_hom_refuses_an_image_in_another_algebra(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    b = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    images = {k: a.basis_element(k) for k in a.basis_keys()}
    images[(0, 1, 0)] = b.basis_element((0, 1, 0))
    with pytest.raises(MismatchedParent):
        GradedHom(a, a, images)


def test_hom_refuses_an_image_key_outside_the_source(z10):
    a = GradedPresentation.elementary(z10, GTuple(z10, [0, 1]))
    images = {k: a.basis_element(k) for k in a.basis_keys()}
    with pytest.raises(ValueError, match="not a source basis key"):
        GradedHom(a, a, {**images, (0, 2, 0): a.zero()})
    del images[(0, 1, 1)]
    with pytest.raises(ValueError, match="missing image"):
        GradedHom(a, a, images)


_ROUND_TRIP_GROUPS = [FiniteGroup.product([FiniteGroup.cyclic(2)] * 2),
                      FiniteGroup.cyclic(4), FiniteGroup.cyclic(6)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_presentation_json_round_trip(data):
    """A presentation (N, alpha, s) over Z2xZ2, Z4 or Z6, its cocycle a
    class on N twisted by a random coboundary: from_json(to_json(p)) has
    p's data, and writing it again gives the same bytes."""
    group = data.draw(st.sampled_from(_ROUND_TRIP_GROUPS))
    sub = data.draw(st.sampled_from(group.all_subgroups()))
    alpha = data.draw(st.sampled_from(enumerate_cocycle_classes(sub)))
    alpha = alpha.twist_by_coboundary(random_coboundary(
        sub, data.draw(st.randoms(use_true_random=False))))
    s = data.draw(st.lists(st.sampled_from(list(group.elements())),
                           min_size=1, max_size=4))
    p = GradedPresentation(group, sub, alpha, GTuple(group, s))
    q = GradedPresentation.from_json(group, p.to_json())
    assert p.same_data(q)
    assert json.dumps(q.to_json()) == json.dumps(p.to_json())


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


# -- verify_hom against the all-pairs sweep -------------------------------------


def _all_pairs_certificate(hom):
    """The certificate by the unshortened route: every pair of basis keys,
    with phi(xy) computed by applying the map to the product element, and
    one rank of the whole image matrix."""
    src, tgt = hom.source, hom.target
    keys = list(src.basis_keys())
    failures = [("graded", k) for k in keys
                if not hom.images[k].is_zero()
                and hom.images[k].degree() != src.basis_degree(k)]
    graded = not failures
    products = [("multiplicative", k1, k2) for k1 in keys for k2 in keys
                if hom.apply(src.basis_element(k1) * src.basis_element(k2))
                != hom.images[k1] * hom.images[k2]]
    index = {k: i for i, k in enumerate(tgt.basis_keys())}
    rows = [hom.images[k].coordinates(index) for k in keys]
    injective = linalg.rank(rows, len(index)) == len(keys)
    failures += products + ([] if injective else [("injective",)])
    unital = None
    if src.one() is not None and tgt.one() is not None:
        unital = hom.apply(src.one()) == tgt.one()
    return HomCertificate(graded, not products, injective, unital, failures)


def _fields(cert):
    return (cert.graded, cert.multiplicative, cert.injective, cert.unital,
            cert.failures)


def _perturbed(hom):
    """The map with one image scaled by zeta_4, zeroed, swapped with another
    or added to another, for a few choices of the key."""
    keys = list(hom.source.basis_keys())
    picks = sorted({0, len(keys) // 2, len(keys) - 1})
    zeta4 = C.zeta(4, 1)
    for p in picks:
        k, other = keys[p], keys[(p + 1) % len(keys)]
        for change in ("scale", "zero", "swap", "add"):
            images = dict(hom.images)
            if change == "scale":
                images[k] = images[k].scale(zeta4)
            elif change == "zero":
                images[k] = hom.target.zero()
            elif change == "swap":
                images[k], images[other] = images[other], images[k]
            else:
                images[k] = images[k] + images[other]
            yield GradedHom(hom.source, hom.target, images)


def _constructed_maps():
    doc = parse_doc((FIXTURES / "klein_twisted.json").read_text())
    pres = doc.presentations
    maps = [construct(pres["A"], pres["B2"], decide(pres["A"], pres["B2"]))]
    doc = parse_doc((FIXTURES / "dihedral_regular.json").read_text())
    a, b = doc.presentations["A"], doc.presentations["Breg"]
    maps.append(construct(a, b, decide(a, b)))
    taken = {}
    for inst in generate_corpus(7, 6, 80):
        name = inst.a.group.name
        if name not in ("Z4", "Z6", "Z2xZ2") or inst.a.dim > 18 \
                or taken.get(name, 0) == 3:
            continue
        decision = decide(inst.a, inst.b)
        if decision.verdict:
            maps.append(construct(inst.a, inst.b, decision))
            taken[name] = taken.get(name, 0) + 1
    assert taken == {"Z4": 3, "Z6": 3, "Z2xZ2": 3}
    return maps


def test_generator_route_matches_all_pairs_sweep():
    """Constructed maps over Z2xZ2, Z4, Z6 and D4, a direct-sum map and
    twist isomorphisms from envelope carriers, each also perturbed: every
    certificate field, failures included, equals the all-pairs sweep."""
    maps = _constructed_maps()
    doc = parse_doc((FIXTURES / "zmod10_block_sum.json").read_text())
    pres = doc.presentations
    maps.append(embed_into_power(SemisimplePresentation([pres["A1"], pres["A2"]]),
                                 SemisimplePresentation([pres["B"]]))[1])
    doc = parse_doc((FIXTURES / "klein_twisted.json").read_text())
    maps += [alpha_envelope(doc.presentations[name], doc.cocycles[c]).iso
             for name in ("A", "B2") for c in ("twist", "untwist")]
    seen = set()
    for hom in maps:
        seen.add(type(hom.source).__name__)
        for variant in [hom, *_perturbed(hom)]:
            assert _fields(verify_hom(variant)) == \
                _fields(_all_pairs_certificate(variant))
    assert seen == {"GradedPresentation", "DirectSumAlgebra",
                    "EnvelopeCarrier"}


def test_generating_keys_reach_every_key(klein, klein_classes, z4):
    """Products of generating keys reach every basis key with a nonzero
    coefficient: the property verify_hom's shortcut rests on."""
    algebras = [GradedPresentation(klein, klein.full_subgroup(), alpha,
                                   GTuple(klein, s))
                for alpha in klein_classes for s in ([0], [1, 2, 1])]
    algebras += [GradedPresentation.elementary(z4, GTuple(z4, s))
                 for s in ([0], [3, 1, 1])]
    algebras.append(GradedPresentation(z4, z4.closure([2]),
                                       Cocycle.trivial(z4.closure([2])),
                                       GTuple(z4, [1, 0])))
    doc = parse_doc((FIXTURES / "dihedral_regular.json").read_text())
    algebras += list(doc.presentations.values())
    algebras.append(DirectSumAlgebra(algebras[:3]))
    for alg in algebras:
        gens = alg.generating_keys()
        reached = set(gens)
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for k in alg.mul_basis(g, x):
                    if k not in reached:
                        reached.add(k)
                        frontier.append(k)
        assert reached == set(alg.basis_keys())


def test_passing_map_sweeps_generators_times_basis(monkeypatch):
    doc = parse_doc((FIXTURES / "klein_twisted.json").read_text())
    a, b = doc.presentations["A"], doc.presentations["B2"]
    hom = construct(a, b, decide(a, b))
    calls = []
    original = a.mul_basis

    def counted(k1, k2):
        calls.append((k1, k2))
        return original(k1, k2)

    monkeypatch.setattr(a, "mul_basis", counted)
    assert verify_hom(hom).is_embedding
    assert len(calls) == len(a.generating_keys()) * a.dim < a.dim ** 2


# -- the term-dict product kernel against AlgebraElement arithmetic -------------


def _element_route_failures(hom, left, right):
    """The pairs at which phi(x y) != phi(x) phi(y), through AlgebraElement
    `scale`, `+`, `*` and `!=`: the slow route of galg._product_failures."""
    src, images = hom.source, hom.images
    failures = []
    for k1 in left:
        for k2 in right:
            lhs = hom.target.zero()
            for k, v in src.mul_basis(k1, k2).items():
                lhs = lhs + images[k].scale(v)
            if lhs != images[k1] * images[k2]:
                failures.append(("multiplicative", k1, k2))
    return failures


def _with(hom, changes):
    return GradedHom(hom.source, hom.target, {**hom.images, **changes})


def _kernel_stress(hom):
    """Perturbations aimed at the kernel's shortcuts: a zeta_3 coefficient
    in a map at conductor 4; with matrix units E_ij, a pair whose source
    product is zero and whose target product (E00 - E01)(E00 + E10) cancels
    as it accumulates, and a source product E01 E01 = 0 sent to the nonzero
    E00 E00."""
    keys, images = list(hom.source.basis_keys()), hom.images
    zeta3 = C.zeta(3, 1)
    first, last = keys[0], keys[-1]
    yield _with(hom, {last: images[last].scale(zeta3)})
    yield _with(hom, {first: images[first] + images[last].scale(zeta3)})
    if getattr(hom.source, "r", 1) > 1:
        e = hom.source.group.identity
        unit = {(i, j): (e, i, j) for i in range(2) for j in range(2)}
        img = {ij: images[k] for ij, k in unit.items()}
        yield _with(hom, {unit[0, 0]: img[0, 0] - img[0, 1],
                          unit[1, 0]: img[1, 0] + img[0, 0]})
        yield _with(hom, {unit[0, 1]: img[0, 0]})


def _cancelling_map():
    """A map out of a structure algebra with several terms per basis
    product, into M_2: phi(x0 x0) = phi(x0) - phi(x1) + zeta_3 phi(x2)
    cancels at E00 and then adds to it again, phi(x1 x2) cancels to 0, and
    phi(x0) phi(x1) = (E00 - E01)(E00 + E10) cancels against the zero
    source product x0 x1; coefficients at conductors 3, 4 and 12."""
    z2 = FiniteGroup.cyclic(2)
    tgt = GradedPresentation.elementary(z2, GTuple(z2, [0, 0]))
    one, zeta3, zeta4 = C.one(), C.zeta(3, 1), C.zeta(4, 1)
    src = StructureAlgebra(z2, [0, 0, 0], {
        (0, 0): {0: one, 1: -one, 2: zeta3},
        (1, 2): {0: zeta4, 1: -zeta4},
        (2, 2): {2: zeta4}})
    unit = {(i, j): tgt.basis_element((0, i, j))
            for i in range(2) for j in range(2)}
    images = {0: unit[0, 0] - unit[0, 1], 1: unit[0, 0] + unit[1, 0],
              2: unit[0, 0].scale(zeta4)}
    return GradedHom(src, tgt, images)


def _element_apply(hom, element):
    out = hom.target.zero()
    for k, v in element.terms.items():
        out = out + hom.images[k].scale(v)
    return out


def test_term_kernel_matches_element_route(monkeypatch):
    """The oracle of the term-dict kernel: over every pair of basis keys
    its failures equal the AlgebraElement route's, on the constructed maps,
    their perturbations and perturbations aimed at its shortcuts; sums that
    cancel are met on the way.  GradedHom.apply builds the same terms, at
    the same conductors and in the same order, as the sum of scaled
    images."""
    dropped = []

    def watched(out, terms, c):
        before = set(out)
        add_scaled(out, terms, c)
        dropped.extend(before - out.keys())

    add_scaled = galg._add_scaled
    monkeypatch.setattr(galg, "_add_scaled", watched)
    verdicts = set()
    for hom in [*_constructed_maps(), _cancelling_map()]:
        for variant in [hom, *_perturbed(hom), *_kernel_stress(hom)]:
            keys = list(variant.source.basis_keys())
            failures = galg._product_failures(variant, keys, keys)
            assert failures == _element_route_failures(variant, keys, keys)
            verdicts.add(not failures)
            src = variant.source
            element = src.element({k: C.zeta(12, n)
                                   for n, k in enumerate(keys)})
            for x in (element, src.one() or element):
                got, want = variant.apply(x), _element_apply(variant, x)
                assert [(k, v.conductor) for k, v in got.terms.items()] == \
                    [(k, v.conductor) for k, v in want.terms.items()]
                assert got == want
    assert verdicts == {True, False} and dropped
