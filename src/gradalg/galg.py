"""Graded algebra presentations, elements, homomorphisms and certificates.

The central object is a presentation of a graded-simple algebra: a twisted
group algebra tensored with a matrix algebra carrying an elementary grading.
Raw structure-constant algebras and direct sums implement the same small
protocol (dim, basis_keys, basis_degree, mul_basis, component) so that
envelopes, identity sweeps and homomorphism checks work uniformly.
"""

from __future__ import annotations

from . import linalg
from .cocycles import Cocycle
from .errors import (MismatchedParent, NotSameCoset, NotSubgroup,
                     VerificationFailed)
from .groups import FiniteGroup, GTuple, Subgroup
from .scalars import CyclotomicScalar
from .tuples import coset_decompose

ONE = CyclotomicScalar.one()


class AlgebraElement:
    """A sparse element of any algebra implementing the basis protocol."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms: dict):
        self.parent = parent
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: AlgebraElement):
        if self.parent is not other.parent:
            raise MismatchedParent("elements of different algebras")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] + v if k in terms else v
        return AlgebraElement(self.parent, terms)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.parent, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scale(self, c: CyclotomicScalar) -> AlgebraElement:
        if c.is_zero():
            return AlgebraElement(self.parent, {})
        return AlgebraElement(self.parent, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        self._check(other)
        out: dict = {}
        mul_basis = self.parent.mul_basis
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                c = v1 * v2
                for k, w in mul_basis(k1, k2).items():
                    acc = c * w
                    out[k] = out[k] + acc if k in out else acc
        return AlgebraElement(self.parent, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement) or self.parent is not other.parent:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def degree(self) -> int | None:
        """The common degree of all terms, or None if zero or mixed."""
        degs = {self.parent.basis_degree(k) for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def coordinates(self, key_index: dict) -> list[CyclotomicScalar]:
        zero = CyclotomicScalar.zero()
        row = [zero] * len(key_index)
        for k, v in self.terms.items():
            row[key_index[k]] = v
        return row

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v!r}*{k}" for k, v in self.terms.items())


class _AlgebraBase:
    """Shared element plumbing for the algebra protocol."""

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def element(self, terms: dict) -> AlgebraElement:
        return AlgebraElement(self, terms)

    def basis_element(self, key) -> AlgebraElement:
        return AlgebraElement(self, {key: ONE})

    def component(self, g: int) -> tuple:
        cache = getattr(self, "_component_cache", None)
        if cache is None:
            cache = {}
            for k in self.basis_keys():
                cache.setdefault(self.basis_degree(k), []).append(k)
            cache = {d: tuple(ks) for d, ks in cache.items()}
            self._component_cache = cache
        return cache.get(g, ())

    def support(self) -> set:
        return {self.basis_degree(k) for k in self.basis_keys()}

    def one_terms(self) -> dict | None:
        return None

    def one(self) -> AlgebraElement | None:
        terms = self.one_terms()
        return None if terms is None else AlgebraElement(self, terms)


class GradedPresentation(_AlgebraBase):
    """The graded-simple presentation: twisted subgroup algebra tensor an
    elementarily graded matrix algebra.

    Basis keys are triples (h, i, j) with h a subgroup element and i, j
    0-based matrix indices; deg(h, i, j) = s_i^-1 * h * s_j.

    The product is associative exactly when alpha satisfies the 2-cocycle
    identity: both bracketings of (g,i,j)(h,j,k)(m,k,l) land on
    (ghm, i, l), with coefficients alpha(g,h) alpha(gh,m) and
    alpha(h,m) alpha(g,hm).  Every Cocycle other than the constant trivial
    one has passed Cocycle.verify_and_normalize (from_json included), which
    checks that identity on all |H|^3 triples, so the presentation needs no
    associativity check of its own.
    """

    def __init__(self, group: FiniteGroup, h_sub: Subgroup, alpha: Cocycle,
                 s: GTuple):
        if h_sub.parent is not group or s.group is not group:
            raise MismatchedParent("presentation parts over different groups")
        if alpha.subgroup != h_sub:
            raise MismatchedParent("cocycle not defined on the subgroup")
        self.group = group
        self.H = h_sub
        self.alpha = alpha
        self.s = s
        self.r = len(s)
        self.dim = h_sub.order * self.r * self.r

    @classmethod
    def twisted_group_algebra(cls, alpha: Cocycle) -> GradedPresentation:
        group = alpha.subgroup.parent
        return cls(group, alpha.subgroup, alpha,
                   GTuple.const(group, 1))

    @classmethod
    def elementary(cls, group: FiniteGroup, s: GTuple) -> GradedPresentation:
        triv = group.trivial_subgroup()
        return cls(group, triv, Cocycle.trivial(triv), s)

    def basis_keys(self):
        return [(h, i, j) for h in self.H
                for i in range(self.r) for j in range(self.r)]

    def basis_degree(self, key) -> int:
        h, i, j = key
        t = self.group.table
        return t[t[self.group.inverses[self.s[i]]][h]][self.s[j]]

    def component(self, g: int) -> tuple:
        """The basis keys of degree g, in basis_keys order, computed directly
        rather than cached: deg(h, i, j) = g exactly when h = s_i g s_j^-1,
        so each (i, j) contributes one key when that element lies in H."""
        if not 0 <= g < self.group.order:
            return ()
        t, inv, members = self.group.table, self.group.inverses, self.H.members
        keys = []
        for i, si in enumerate(self.s):
            row = t[t[si][g]]
            for j, sj in enumerate(self.s):
                h = row[inv[sj]]
                if h in members:
                    keys.append((h, i, j))
        keys.sort()
        return tuple(keys)

    def mul_basis(self, k1, k2) -> dict:
        g, i, j = k1
        h, k, l = k2
        if j != k:
            return {}
        return {(self.group.table[g][h], i, l): self.alpha.values[(g, h)]}

    def one_terms(self) -> dict:
        e = self.group.identity
        return {(e, i, i): ONE for i in range(self.r)}

    def same_data(self, other: GradedPresentation) -> bool:
        return (isinstance(other, GradedPresentation)
                and self.group is other.group and self.H == other.H
                and self.alpha == other.alpha and self.s == other.s)

    def __repr__(self):
        return (f"GradedPresentation(|H|={self.H.order}, s={self.s.entries}, "
                f"dim={self.dim})")

    def to_json(self):
        return {"H": {"elements": list(self.H.sorted_members)},
                "alpha": self.alpha.to_json(),
                "s": {"entries": list(self.s.entries)}}

    @classmethod
    def from_json(cls, group: FiniteGroup, data) -> GradedPresentation:
        h_sub = Subgroup(group, data["H"]["elements"])
        alpha = Cocycle.from_json(group, data["alpha"])
        s = GTuple(group, data["s"]["entries"])
        return cls(group, h_sub, alpha, s)


class StructureAlgebra(_AlgebraBase):
    """A graded algebra given by structure constants over an integer basis.

    Built by from_algebra, which tabulates an algebra whose products are
    already graded and associative, so the constants carry no check of
    their own.
    """

    def __init__(self, group: FiniteGroup, grading, constants: dict):
        self.group = group
        self.grading = tuple(grading)
        self.dim = len(self.grading)
        self.constants = {k: {kk: vv for kk, vv in v.items() if not vv.is_zero()}
                          for k, v in constants.items()}
        self.constants = {k: v for k, v in self.constants.items() if v}

    def basis_keys(self):
        return list(range(self.dim))

    def basis_degree(self, key) -> int:
        return self.grading[key]

    def mul_basis(self, k1, k2) -> dict:
        return self.constants.get((k1, k2), {})

    @classmethod
    def from_algebra(cls, algebra) -> StructureAlgebra:
        """Tabulate any protocol algebra into flat structure constants."""
        keys = list(algebra.basis_keys())
        index = {k: i for i, k in enumerate(keys)}
        grading = [algebra.basis_degree(k) for k in keys]
        constants = {}
        for i, k1 in enumerate(keys):
            for j, k2 in enumerate(keys):
                prod = algebra.mul_basis(k1, k2)
                if prod:
                    constants[(i, j)] = {index[k]: v for k, v in prod.items()}
        return cls(algebra.group, grading, constants)

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim})"


class DirectSumAlgebra(_AlgebraBase):
    """Direct sum of protocol algebras; keys are (component, inner key)."""

    def __init__(self, components: list):
        if not components:
            raise ValueError("direct sum needs at least one component")
        group = components[0].group
        for c in components:
            if c.group is not group:
                raise MismatchedParent("components over different groups")
        self.group = group
        self.components = list(components)
        self.dim = sum(c.dim for c in components)

    def basis_keys(self):
        return [(ci, k) for ci, comp in enumerate(self.components)
                for k in comp.basis_keys()]

    def basis_degree(self, key) -> int:
        ci, k = key
        return self.components[ci].basis_degree(k)

    def mul_basis(self, k1, k2) -> dict:
        c1, a = k1
        c2, b = k2
        if c1 != c2:
            return {}
        return {(c1, k): v
                for k, v in self.components[c1].mul_basis(a, b).items()}

    def one_terms(self) -> dict | None:
        terms = {}
        for ci, comp in enumerate(self.components):
            part = comp.one_terms()
            if part is None:
                return None
            terms.update({(ci, k): v for k, v in part.items()})
        return terms

    def inject(self, ci: int, element: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self, {(ci, k): v
                                     for k, v in element.terms.items()})


def to_structure_algebra(algebra) -> StructureAlgebra:
    if isinstance(algebra, StructureAlgebra):
        return algebra
    return StructureAlgebra.from_algebra(algebra)


# -- homomorphisms -------------------------------------------------------------


class HomCertificate:
    """Outcome of a full basis sweep over a graded linear map."""

    def __init__(self, graded, multiplicative, injective, unital, failures):
        self.graded = graded
        self.multiplicative = multiplicative
        self.injective = injective
        self.unital = unital
        self.failures = failures

    @property
    def is_embedding(self) -> bool:
        return self.graded and self.multiplicative and self.injective

    def to_json(self):
        return {"graded": self.graded, "multiplicative": self.multiplicative,
                "injective": self.injective, "unital": self.unital,
                "failures": [str(f) for f in self.failures[:5]]}

    def __repr__(self):
        return (f"HomCertificate(graded={self.graded}, "
                f"multiplicative={self.multiplicative}, "
                f"injective={self.injective}, unital={self.unital})")


class GradedHom:
    """A linear map defined by images of the source basis.

    `certificate` is the HomCertificate of the map's full sweep when the
    function that returned the map made one (embed.construct), else None.
    """

    def __init__(self, source, target, images: dict):
        self.source = source
        self.target = target
        self.images = images
        self.certificate = None
        missing = [k for k in source.basis_keys() if k not in images]
        if missing:
            raise ValueError(f"missing image for basis key {missing[0]}")

    def apply(self, element: AlgebraElement) -> AlgebraElement:
        if element.parent is not self.source:
            raise MismatchedParent("element not in the source algebra")
        out = self.target.zero()
        for k, v in element.terms.items():
            out = out + self.images[k].scale(v)
        return out

    def compose(self, inner: GradedHom) -> GradedHom:
        """self after inner."""
        if inner.target is not self.source:
            raise MismatchedParent("composition mismatch")
        images = {k: self.apply(img) for k, img in inner.images.items()}
        return GradedHom(inner.source, self.target, images)

    def inverse(self) -> GradedHom:
        """Inverse of a bijective map, by exact matrix inversion."""
        src_keys = list(self.source.basis_keys())
        tgt_keys = list(self.target.basis_keys())
        if len(src_keys) != len(tgt_keys):
            raise VerificationFailed("inverse requires equal dimensions")
        tgt_index = {k: i for i, k in enumerate(tgt_keys)}
        mat = [[CyclotomicScalar.zero()] * len(src_keys)
               for _ in range(len(tgt_keys))]
        for col, k in enumerate(src_keys):
            for kk, v in self.images[k].terms.items():
                mat[tgt_index[kk]][col] = v
        inv = linalg.invert_matrix(mat)
        images = {}
        for col, tk in enumerate(tgt_keys):
            terms = {}
            for row, sk in enumerate(src_keys):
                c = inv[row][col]
                if not c.is_zero():
                    terms[sk] = c
            images[tk] = AlgebraElement(self.source, terms)
        return GradedHom(self.target, self.source, images)

    def rebind(self, source=None, target=None) -> GradedHom:
        """The same map with source/target swapped for equal presentations."""
        new_src = source if source is not None else self.source
        new_tgt = target if target is not None else self.target
        if source is not None and not _same_algebra(self.source, source):
            raise VerificationFailed("rebind onto a different source algebra")
        if target is not None and not _same_algebra(self.target, target):
            raise VerificationFailed("rebind onto a different target algebra")
        images = {k: AlgebraElement(new_tgt, dict(img.terms))
                  for k, img in self.images.items()}
        return GradedHom(new_src, new_tgt, images)

    @classmethod
    def identity(cls, algebra) -> GradedHom:
        return cls(algebra, algebra,
                   {k: algebra.basis_element(k) for k in algebra.basis_keys()})

    def to_json(self):
        return {"images": [{"key": list(k) if isinstance(k, tuple) else k,
                            "terms": [{"key": list(kk) if isinstance(kk, tuple) else kk,
                                       "coeff": v.to_json()}
                                      for kk, v in sorted(img.terms.items(),
                                                          key=lambda t: str(t[0]))]}
                           for k, img in sorted(self.images.items(),
                                                key=lambda t: str(t[0]))]}


def _same_algebra(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, GradedPresentation) and isinstance(b, GradedPresentation):
        return a.same_data(b)
    return False


def verify_hom(hom: GradedHom) -> HomCertificate:
    """Certify gradedness, multiplicativity and injectivity by full sweeps."""
    failures = []
    src, tgt = hom.source, hom.target
    graded = True
    for k in src.basis_keys():
        img = hom.images[k]
        if img.is_zero():
            continue
        deg = img.degree()
        if deg is None or deg != src.basis_degree(k):
            graded = False
            failures.append(("graded", k))
    multiplicative = True
    keys = list(src.basis_keys())
    for k1 in keys:
        img1 = hom.images[k1]
        for k2 in keys:
            lhs = tgt.zero()
            for k, v in src.mul_basis(k1, k2).items():
                lhs = lhs + hom.images[k].scale(v)
            rhs = img1 * hom.images[k2]
            if lhs != rhs:
                multiplicative = False
                failures.append(("multiplicative", k1, k2))
    tgt_index = {k: i for i, k in enumerate(tgt.basis_keys())}
    rows = [hom.images[k].coordinates(tgt_index) for k in keys]
    injective = linalg.rank(rows, len(tgt_index)) == len(keys)
    if not injective:
        failures.append(("injective",))
    unital = None
    one_src, one_tgt = src.one(), tgt.one()
    if one_src is not None and one_tgt is not None:
        unital = hom.apply(one_src) == one_tgt
    return HomCertificate(graded, multiplicative, injective, unital, failures)


# -- presentation transforms ---------------------------------------------------


def sub_presentation(a: GradedPresentation, indices) -> tuple[GradedPresentation, GradedHom]:
    """The corner subalgebra on a subset of tuple positions, with inclusion."""
    indices = list(indices)
    sub = GradedPresentation(a.group, a.H, a.alpha, a.s.sub(indices))
    images = {(h, i, j): a.basis_element((h, indices[i], indices[j]))
              for h in a.H for i in range(len(indices))
              for j in range(len(indices))}
    return sub, GradedHom(sub, a, images)


def permute_tuple(a: GradedPresentation, sigma) -> tuple[GradedPresentation, GradedHom]:
    """Reorder the defining tuple; the matrix indices move inversely.

    Builds the permuted presentation and the basis-relabelling isomorphism
    onto it without certifying it; a caller that hands the map out
    certifies it with verify_hom.
    """
    r = a.r
    inv = [0] * r
    for i in range(r):
        inv[sigma[i]] = i
    target = GradedPresentation(a.group, a.H, a.alpha, a.s.permute(sigma))
    images = {(h, i, j): target.basis_element((h, inv[i], inv[j]))
              for h in a.H for i in range(r) for j in range(r)}
    return target, GradedHom(a, target, images)


def replace_representative(a: GradedPresentation, i: int, t: int) \
        -> tuple[GradedPresentation, GradedHom]:
    """Swap tuple entry i for another representative of the same right coset.

    Builds the new presentation and the isomorphism onto it, which rescales
    the lines of row and column i by cocycle values; the map is not
    certified here.  embed.construct composes it into the embeddings it
    returns and certifies the composite once.
    """
    group = a.group
    s_i = a.s[i]
    if a.H.coset_rep(s_i) != a.H.coset_rep(t):
        raise NotSameCoset(f"{s_i} and {t} lie in different cosets")
    h_tilde = group.table[s_i][group.inverses[t]]  # s_i = h_tilde * t
    entries = list(a.s.entries)
    entries[i] = t
    target = GradedPresentation(group, a.H, a.alpha, GTuple(group, entries))
    alpha = a.alpha
    ht_inv = group.inverses[h_tilde]
    norm = alpha.values[(h_tilde, ht_inv)].inverse()
    images = {}
    for h in a.H:
        for j in range(a.r):
            for k in range(a.r):
                if j != i and k != i:
                    images[(h, j, k)] = target.basis_element((h, j, k))
                elif j == i and k != i:
                    coeff = norm * alpha.values[(ht_inv, h)]
                    images[(h, j, k)] = target.element(
                        {(group.table[ht_inv][h], i, k): coeff})
                elif j != i and k == i:
                    coeff = alpha.values[(h, h_tilde)]
                    images[(h, j, k)] = target.element(
                        {(group.table[h][h_tilde], j, i): coeff})
                else:
                    hh = group.table[ht_inv][h]
                    coeff = (norm * alpha.values[(ht_inv, h)]
                             * alpha.values[(hh, h_tilde)])
                    images[(h, j, k)] = target.element(
                        {(group.table[hh][h_tilde], i, i): coeff})
    return target, GradedHom(a, target, images)


def conjugate_presentation(a: GradedPresentation, g: int) \
        -> tuple[GradedPresentation, GradedHom]:
    """Conjugate the subgroup and left-shift the tuple by g.

    Builds the conjugated presentation and the basis-relabelling isomorphism
    onto it without certifying it; a caller that hands the map out
    certifies it with verify_hom.
    """
    group = a.group
    group.check_element(g)
    new_alpha = a.alpha.conjugate(g)
    target = GradedPresentation(group, new_alpha.subgroup, new_alpha,
                                a.s.shift(g))
    images = {(h, i, j): target.basis_element((group.conjugate(g, h), i, j))
              for h in a.H for i in range(a.r) for j in range(a.r)}
    return target, GradedHom(a, target, images)


def block_decompose(a: GradedPresentation, big: Subgroup):
    """Diagonal blocks of the presentation along right cosets of `big`.

    Returns a list of (coset representative, positions, block presentation).
    Verifies that the degree part lying in `big` is exactly the span of the
    diagonal blocks.
    """
    if not big.contains_subgroup(a.H):
        raise NotSubgroup("block subgroup must contain the twisted subgroup")
    parts = coset_decompose(a.s, big)
    blocks = []
    diag_keys = set()
    for rep, sub_tuple, positions in parts:
        block = GradedPresentation(a.group, a.H, a.alpha, sub_tuple)
        blocks.append((rep, positions, block))
        diag_keys.update((h, i, j) for h in a.H
                         for i in positions for j in positions)
    for key in a.basis_keys():
        inside = a.basis_degree(key) in big.members
        if inside != (key in diag_keys):
            raise VerificationFailed(
                "degree part over the subgroup is not the block diagonal")
    return blocks
