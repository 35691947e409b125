"""Graded algebra presentations, elements, homomorphisms and certificates.

The central object is a presentation of a graded-simple algebra: a twisted
group algebra tensored with a matrix algebra carrying an elementary grading.
Structure-constant algebras and direct sums (DirectSumAlgebra, the one
direct-sum type) implement the same small protocol (dim, basis_keys,
basis_degree, mul_basis, component, generating_keys) so that envelopes,
identity sweeps and homomorphism checks work uniformly; mul_basis gives
nonzero coefficients.
"""

from __future__ import annotations

from . import linalg
from .cocycles import Cocycle
from .errors import MismatchedParent
from .groups import FiniteGroup, GTuple, Subgroup, json_ints
from .scalars import CyclotomicScalar

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

    def generating_keys(self) -> list:
        """Basis keys such that every basis key is a nonzero multiple of a
        product of them (verify_hom relies on this); by default all keys."""
        return list(self.basis_keys())

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
    alpha(h,m) alpha(g,hm).  Every Cocycle meets that identity (see
    cocycles._cocycle), so the presentation needs no associativity check
    of its own.
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

    def generating_keys(self) -> list:
        """(e,0,0), (h,0,0) for h in a generating set of H, and the matrix
        units (e,i,i+1), (e,i+1,i).

        Every product below carries a cocycle value as its coefficient,
        which is a root of unity and so nonzero.  Each h in H is a product
        of the chosen generators (H is finite), so (h,0,0) is a multiple of
        a product of keys (g,0,0); (e,i,0) and (e,0,j) are multiples of
        products of neighbouring units, and (h,i,j) is a multiple of
        (e,i,0)(h,0,0)(e,0,j).  (e,0,0) covers e itself and the case r = 1.
        """
        e = self.group.identity
        keys, gens = [(e, 0, 0)], []
        reached = {e}
        for h in self.H.sorted_members:
            if h not in reached:
                gens.append(h)
                keys.append((h, 0, 0))
                reached = self.group.closure(gens).members
        for i in range(self.r - 1):
            keys += [(e, i, i + 1), (e, i + 1, i)]
        return keys

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
        """Read the to_json form; every group element must be a JSON
        integer (see json_ints), checked here rather than in Subgroup and
        GTuple, which the engine builds on its hot path."""
        h_sub = Subgroup(group, json_ints(data["H"]["elements"], "H.elements"))
        alpha = Cocycle.from_json(group, data["alpha"])
        s = GTuple(group, json_ints(data["s"]["entries"], "s.entries"))
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

    def generating_keys(self) -> list:
        """The union of the components' generating keys: a product of keys
        of one component stays inside that component."""
        return [(ci, k) for ci, comp in enumerate(self.components)
                for k in comp.generating_keys()]

    def one_terms(self) -> dict | None:
        terms = {}
        for ci, comp in enumerate(self.components):
            part = comp.one_terms()
            if part is None:
                return None
            terms.update({(ci, k): v for k, v in part.items()})
        return terms


# -- homomorphisms -------------------------------------------------------------


class HomCertificate:
    """Outcome of verify_hom on a linear map: gradedness of every image,
    multiplicativity (decided from generators times basis, with every
    failing pair listed when it fails), injectivity by exact rank, and
    whether the map sends one to one when both algebras have a unit."""

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

    `certificate` is the HomCertificate of the map's verify_hom run when
    the function that returned the map made one (embed.construct), else
    None.
    """

    def __init__(self, source, target, images: dict):
        self.source = source
        self.target = target
        self.images = images
        self.certificate = None
        keys = source.basis_keys()
        missing = [k for k in keys if k not in images]
        if missing:
            raise ValueError(f"missing image for basis key {missing[0]}")
        if len(images) != len(keys):
            extra = next(k for k in images if k not in keys)
            raise ValueError(f"image for {extra}, not a source basis key")
        if any(img.parent is not target for img in images.values()):
            raise MismatchedParent("image not in the target algebra")

    def apply(self, element: AlgebraElement) -> AlgebraElement:
        if element.parent is not self.source:
            raise MismatchedParent("element not in the source algebra")
        out: dict = {}
        for k, v in element.terms.items():
            _add_scaled(out, self.images[k].terms, v)
        return AlgebraElement(self.target, out)

    def to_json(self):
        return {"images": [{"key": list(k) if isinstance(k, tuple) else k,
                            "terms": [{"key": list(kk) if isinstance(kk, tuple) else kk,
                                       "coeff": v.to_json()}
                                      for kk, v in sorted(img.terms.items(),
                                                          key=lambda t: str(t[0]))]}
                           for k, img in sorted(self.images.items(),
                                                key=lambda t: str(t[0]))]}


def _add_scaled(out: dict, terms: dict, c) -> None:
    """out += c * terms (c != 0), the steps of AlgebraElement's `scale` and
    `+`: a sum that cancels is dropped."""
    for k, v in terms.items():
        acc = c * v
        if k in out:
            acc = out[k] + acc
            if acc.is_zero():
                del out[k]
                continue
        out[k] = acc


def _product_failures(hom: GradedHom, left, right) -> list:
    """The pairs (x, y), x in `left` and y in `right`, at which
    hom(x y) != hom(x) hom(y)."""
    images, src_mul, tgt_mul = (hom.images, hom.source.mul_basis,
                                hom.target.mul_basis)
    failures = []
    for k1 in left:
        t1 = images[k1].terms.items()
        for k2 in right:
            lhs, rhs = {}, {}
            for k, v in src_mul(k1, k2).items():
                _add_scaled(lhs, images[k].terms, v)
            for a, x in t1:
                for b, y in images[k2].terms.items():
                    if prod := tgt_mul(a, b):
                        _add_scaled(rhs, prod, x * y)
            if lhs != rhs:
                failures.append(("multiplicative", k1, k2))
    return failures


def verify_hom(hom: GradedHom) -> HomCertificate:
    """Certify gradedness, multiplicativity and injectivity exactly.

    Gradedness is checked image by image.  Multiplicativity is checked on
    the pairs (g, y) with g in src.generating_keys() and y any basis key.
    This decides it for all pairs.  Write a basis key x as c g_1 ... g_m
    with c != 0 and each g_i a generating key, as the protocol promises.
    By linearity in y, phi(g z) = phi(g) phi(z) holds for every generating
    key g and every element z.  By associativity of the source, x y =
    c g_1 (g_2 (... (g_m y))), so, peeling one generator at a time,
    phi(x y) = c phi(g_1) phi(g_2) ... phi(g_m) phi(y).  The same peeling
    with y left out gives phi(x) = c phi(g_1) ... phi(g_m), so by
    associativity of the target phi(x y) = phi(x) phi(y).  If any
    generator pair fails, every pair is swept, so `failures` lists every
    failing pair of basis keys, in basis order.

    Each pair is compared on term dicts, taking AlgebraElement's scalar
    products in its order but x*y only for a nonzero target product.  Terms
    and mul_basis values are nonzero and sums that cancel are dropped, so
    the dicts are equal (exact scalar `==`) exactly when the elements are.
    These are a subset of the element route's operations, so the kernel
    raises ConductorTooLarge only where that route would.

    Injectivity is the rank of the image rows.  When the map is graded, the
    images of degree-g keys lie in tgt.component(g), so the rows form
    blocks on disjoint columns and the rank is the sum of the ranks of the
    blocks, each taken over its own component; otherwise the whole matrix
    is ranked.
    """
    failures = []
    src, tgt = hom.source, hom.target
    graded = True
    keys = list(src.basis_keys())
    for k in keys:
        img = hom.images[k]
        if img.is_zero():
            continue
        deg = img.degree()
        if deg is None or deg != src.basis_degree(k):
            graded = False
            failures.append(("graded", k))
    gens = list(src.generating_keys())
    products = _product_failures(hom, gens, keys)
    if products and gens != keys:
        products = _product_failures(hom, keys, keys)
    multiplicative = not products
    failures += products
    if graded:
        by_degree = {}
        for k in keys:
            by_degree.setdefault(src.basis_degree(k), []).append(k)
        blocks = [(tgt.component(g), ks) for g, ks in by_degree.items()]
    else:
        blocks = [(tgt.basis_keys(), keys)]
    rank = 0
    for columns, rows in blocks:
        index = {k: i for i, k in enumerate(columns)}
        rank += linalg.rank([hom.images[k].coordinates(index) for k in rows],
                            len(index))
    injective = rank == len(keys)
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
