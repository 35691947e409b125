"""Degreewise tensor envelopes and the cocycle-twist of a presentation.

The degreewise envelope of two graded algebras keeps only the matching-degree
part of the tensor product; `genvelope` returns its carrier, whose component
dimensions hold by construction and are not counted again.  Twisting by a
2-cocycle has an explicit presentation-level normal form for presentations
of graded-simple algebras, realized here together with the isomorphism onto
it.
"""

from __future__ import annotations

from .cocycles import Cocycle
from .errors import DegreeOutsideGroup, MismatchedGroup
from .galg import GradedHom, GradedPresentation, _AlgebraBase
from .groups import GTuple
from .identities import MultilinearPoly


class EnvelopeCarrier(_AlgebraBase):
    """Basis pairs of equal degree with componentwise products."""

    def __init__(self, left, right):
        if left.group is not right.group:
            raise MismatchedGroup("envelope operands graded by different groups")
        self.group = left.group
        self.left = left
        self.right = right
        self._keys = [(ka, kb) for ka in left.basis_keys()
                      for kb in right.basis_keys()
                      if left.basis_degree(ka) == right.basis_degree(kb)]
        self.dim = len(self._keys)

    def basis_keys(self):
        return list(self._keys)

    def basis_degree(self, key) -> int:
        return self.left.basis_degree(key[0])

    def mul_basis(self, k1, k2) -> dict:
        la = self.left.mul_basis(k1[0], k2[0])
        if not la:
            return {}
        rb = self.right.mul_basis(k1[1], k2[1])
        out = {}
        for ka, va in la.items():
            for kb, vb in rb.items():
                out[(ka, kb)] = va * vb
        return out


def genvelope(left, right) -> EnvelopeCarrier:
    """The graded algebra with components A_g tensor B_g, as its carrier.

    Its component of degree g has dimension dim A_g * dim B_g by
    construction: its keys are exactly the pairs of a degree-g key of each
    operand.
    """
    return EnvelopeCarrier(left, right)


class AlphaEnvelope:
    """Cocycle twist of a presentation: carrier, normal form, iso onto it."""

    def __init__(self, carrier, presentation, iso):
        self.carrier = carrier
        self.presentation = presentation
        self.iso = iso


def alpha_envelope(b: GradedPresentation, alpha: Cocycle) -> AlphaEnvelope:
    """Twist a presentation by a cocycle defined around its support.

    The result presentation keeps the subgroup and tuple and multiplies the
    cocycle; the isomorphism from the envelope carrier sends the line of
    (h, i, j) to root_i * root_j / alpha(s_i^-1, h, s_j) times (h, i, j),
    where root_i is the canonical square root of alpha(s_i^-1, s_i).

    The iso is built, not certified: the `envelope` command certifies it
    where it leaves the API, and any other caller certifies it with
    verify_hom.

    No other choice of roots can certify where this one fails.  For the
    product of the lines (h, i, j) and (h', j, l), the factors carry
    root_i root_j and root_j root_l and the product line (hh', i, l) carries
    root_i root_l, so the roots enter the multiplicativity check only as
    root_j^2 = alpha(s_j^-1, s_j), and a sign flip of root_j only as
    (-1)^2 = 1.  Gradedness and injectivity do not depend on nonzero
    scalars.  So every choice of signs or of square-root branches certifies
    exactly when the canonical one does.
    """
    group = b.group
    domain = alpha.subgroup
    if not domain.contains_subgroup(b.H):
        raise MismatchedGroup("cocycle domain must contain the subgroup")
    for x in b.s:
        if x not in domain.members:
            raise MismatchedGroup("cocycle domain must contain the tuple entries")

    twist = GradedPresentation.twisted_group_algebra(alpha)
    carrier = EnvelopeCarrier(twist, b)
    new_alpha = b.alpha.product(alpha.restrict(b.H))
    target = GradedPresentation(group, b.H, new_alpha, b.s)

    inv = group.inverses
    roots = [alpha.values[(inv[si], si)].sqrt_root_of_unity() for si in b.s]

    images = {}
    for key in carrier.basis_keys():
        (_, _, _), (h, i, j) = key
        denom = alpha.iterated(GTuple(group, (inv[b.s[i]], h, b.s[j])))
        images[key] = target.element({(h, i, j): roots[i] * roots[j] / denom})
    return AlphaEnvelope(carrier, target, GradedHom(carrier, target, images))


def round_trip_iso(b: GradedPresentation, alpha: Cocycle):
    """The map (V_g ox U_g ox b) -> b from the double twist back onto b.

    Returns (outer carrier, hom onto b); the hom is certified by the caller's
    tests, construction itself is scalar-free.
    """
    forward = genvelope(GradedPresentation.twisted_group_algebra(alpha), b)
    carrier = genvelope(
        GradedPresentation.twisted_group_algebra(alpha.inverse()), forward)
    images = {}
    for key in carrier.basis_keys():
        _, (_, bkey) = key
        images[key] = b.basis_element(bkey)
    return carrier, GradedHom(carrier, b, images)


def falpha(poly, alpha: Cocycle):
    """Rescale a multilinear polynomial's coefficients by iterated cocycle
    values of its permuted multidegree."""
    group = poly.group
    for g in poly.degrees:
        if g not in alpha.subgroup.members:
            raise DegreeOutsideGroup("multidegree leaves the cocycle domain")
    coeffs = {}
    for word, c in poly.coeffs.items():
        permuted = GTuple(group, [poly.degrees[v] for v in word])
        coeffs[word] = c * alpha.iterated(permuted)
    return MultilinearPoly(group, poly.degrees, coeffs)
