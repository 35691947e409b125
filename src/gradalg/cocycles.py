"""Two-cocycles with root-of-unity values on finite groups.

Covers validation and normalization, pointwise combinations, the alternating
bicharacter and its radical, multiplicative coboundary solving through integer
exponent systems, and the minimal irreducible representation of an abelian
twisted group algebra, whose matrices are monomial and stored as such.

Each fact is checked once: a table becomes a `Cocycle` through
`verify_and_normalize` (or is the constant table of `Cocycle.trivial`), so
its bicharacter is built unchecked, and `smallest_irrep` builds just one.
"""

from __future__ import annotations

from math import gcd

from . import linalg
from .errors import (CocycleIdentityViolated, ElementOutsideGroup,
                     MismatchedParent, NotRootOfUnity, NotSubgroup,
                     Unsupported, VerificationFailed)
from .groups import FiniteGroup, GTuple, Subgroup, json_ints
from .scalars import CyclotomicScalar, common_conductor

ONE = CyclotomicScalar.one()
ZERO = CyclotomicScalar.zero()


class Cocycle:
    """A normalized 2-cocycle on a subgroup, as a full value table.

    The public constructor validates the table and stores it normalized,
    as `verify_and_normalize` returns it."""

    def __init__(self, subgroup: Subgroup, values: dict, _validate: bool = True):
        self.subgroup = subgroup
        self.values = (Cocycle.verify_and_normalize(subgroup, values).values
                       if _validate else dict(values))

    @classmethod
    def trivial(cls, subgroup: Subgroup) -> Cocycle:
        values = {(a, b): ONE for a in subgroup for b in subgroup}
        return cls(subgroup, values, _validate=False)

    @classmethod
    def verify_and_normalize(cls, subgroup: Subgroup, values: dict) -> Cocycle:
        """Validate a raw table and rescale so alpha(e, .) = alpha(., e) = 1."""
        table = subgroup.parent.table
        members = subgroup.sorted_members
        vals = {}
        for a in members:
            for b in members:
                v = values[(a, b)]
                if not v.is_root_of_unity():
                    raise NotRootOfUnity(f"value at ({a},{b}) is not a root of unity")
                vals[(a, b)] = v
        for u in members:
            for v in members:
                uv = table[u][v]
                for w in members:
                    lhs = vals[(u, v)] * vals[(uv, w)]
                    rhs = vals[(u, table[v][w])] * vals[(v, w)]
                    if lhs != rhs:
                        raise CocycleIdentityViolated(u, v, w)
        e = subgroup.parent.identity
        scale = vals[(e, e)]
        if not scale.is_one():
            inv = scale.inverse()
            vals = {k: v * inv for k, v in vals.items()}
        return cls(subgroup, vals, _validate=False)

    def value(self, a: int, b: int) -> CyclotomicScalar:
        try:
            return self.values[(a, b)]
        except KeyError:
            raise ElementOutsideGroup(f"({a},{b}) outside cocycle domain") from None

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values.values())

    def __eq__(self, other):
        return (isinstance(other, Cocycle) and self.subgroup == other.subgroup
                and all(self.values[k] == other.values[k] for k in self.values))

    def __repr__(self):
        return f"Cocycle(on {sorted(self.subgroup.members)})"

    # -- pointwise combinations ---------------------------------------------

    def _check_same_group(self, other: Cocycle):
        if self.subgroup != other.subgroup:
            raise MismatchedParent("cocycles live on different subgroups")

    def ratio(self, other: Cocycle) -> Cocycle:
        self._check_same_group(other)
        vals = {k: v / other.values[k] for k, v in self.values.items()}
        return Cocycle.verify_and_normalize(self.subgroup, vals)

    def product(self, other: Cocycle) -> Cocycle:
        self._check_same_group(other)
        vals = {k: v * other.values[k] for k, v in self.values.items()}
        return Cocycle.verify_and_normalize(self.subgroup, vals)

    def inverse(self) -> Cocycle:
        vals = {k: v.inverse() for k, v in self.values.items()}
        return Cocycle.verify_and_normalize(self.subgroup, vals)

    def restrict(self, sub: Subgroup) -> Cocycle:
        if not self.subgroup.contains_subgroup(sub):
            raise NotSubgroup("restriction target is not contained")
        vals = {(a, b): self.values[(a, b)] for a in sub for b in sub}
        return Cocycle.verify_and_normalize(sub, vals)

    def iterated(self, tup: GTuple) -> CyclotomicScalar:
        """The scalar relating the basis product over a tuple to a single basis
        element: U_{g1}...U_{gn} = alpha(g1,...,gn) U_{g1...gn}."""
        group = self.subgroup.parent
        acc = ONE
        cur = None
        for g in tup:
            if g not in self.subgroup:
                raise ElementOutsideGroup(f"{g} outside cocycle subgroup")
            if cur is None:
                cur = g
            else:
                acc = acc * self.values[(cur, g)]
                cur = group.table[cur][g]
        return acc

    def bicharacter(self) -> Bicharacter:
        return Bicharacter.from_cocycle(self)

    def twist_by_coboundary(self, mu: dict) -> Cocycle:
        """The cohomologous cocycle alpha * d(mu) for a rescaling mu."""
        t = self.subgroup.parent.table
        vals = {(a, b): v * mu[a] * mu[b] / mu[t[a][b]]
                for (a, b), v in self.values.items()}
        return Cocycle.verify_and_normalize(self.subgroup, vals)

    def to_json(self):
        members = self.subgroup.sorted_members
        return {"subgroup": {"elements": list(members)},
                "values": [[self.values[(a, b)].to_json() for b in members]
                           for a in members]}

    @classmethod
    def from_json(cls, group: FiniteGroup, data) -> Cocycle:
        """Read the to_json form: the subgroup's elements JSON integers
        (see json_ints) in strictly increasing order, and `values` exactly
        |H| rows of |H| scalars, rows and columns in that order."""
        elements = json_ints(data["subgroup"]["elements"], "subgroup.elements")
        if any(x >= y for x, y in zip(elements, elements[1:])):
            raise ValueError("subgroup.elements must be strictly increasing")
        sub = Subgroup(group, elements)
        members = sub.sorted_members
        rows, n = data["values"], len(members)
        if not isinstance(rows, list) or len(rows) != n or any(
                not isinstance(row, list) or len(row) != n for row in rows):
            raise ValueError(f"values must be {n} lists of {n} entries")
        values = {}
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                values[(a, b)] = CyclotomicScalar.from_json(rows[i][j])
        return cls.verify_and_normalize(sub, values)


class Bicharacter:
    """The alternating form beta(g,h) = alpha(g,h)/alpha(h,g) with its radical."""

    def __init__(self, subgroup: Subgroup, values: dict, radical: Subgroup):
        self.subgroup = subgroup
        self.values = values
        self.radical = radical

    @classmethod
    def from_cocycle(cls, alpha: Cocycle) -> Bicharacter:
        """The form of a cocycle on an abelian subgroup, built unchecked.

        For a 2-cocycle alpha on an abelian group, beta is an alternating
        bicharacter.  beta(a,a) = 1 and beta(a,b) beta(b,a) = 1 by its
        definition.  The twisted group algebra, U_a U_b = alpha(a,b) U_ab, is
        associative because alpha meets the cocycle identity, and since
        ab = ba, U_a U_b = beta(a,b) U_b U_a.  So U_a (U_b U_c) =
        beta(a,b) beta(a,c) U_b U_c U_a, that is beta(a,bc) =
        beta(a,b) beta(a,c), and the first argument follows by alternation.
        Every `Cocycle` but the constant one of `Cocycle.trivial` has passed
        `verify_and_normalize`, which checks the identity at every triple
        (normalizing by a constant keeps it and beta), so none is checked
        here.
        """
        sub = alpha.subgroup
        if not sub.is_abelian():
            raise Unsupported("bicharacter requires an abelian subgroup")
        vals = {(a, b): alpha.values[(a, b)] / alpha.values[(b, a)]
                for a in sub for b in sub}
        rad = [g for g in sub if all(vals[(g, h)].is_one() for h in sub)]
        radical = sub.parent._interned(rad)
        return cls(sub, vals, radical)


def coboundary_solve(alpha: Cocycle) -> dict:
    """A splitting mu with alpha(a,b) = mu(a) mu(b) / mu(ab), on abelian domain.

    Works multiplicatively through discrete exponents: all values of alpha
    lie in the M-th roots of unity mu_M, and the additive system
    mu(a) + mu(b) - mu(ab) = alpha(a,b), with mu(e) = 0, is solved once over
    Z/M' with M' = M*|L|, L the domain.  For a symmetric cocycle that
    system always has a solution:

    - a splitting exists, because a symmetric 2-cocycle on a finite abelian
      group L with values in C^x classifies an abelian extension of L by
      C^x, and that extension splits since C^x is divisible (Ext(L, C^x) = 0);
    - any splitting mu takes values in mu_M': taking the product of
      alpha(a,b) = mu(a) mu(b) / mu(ab) over b in L, where b -> ab permutes
      L, gives mu(a)^|L| = prod_b alpha(a,b), which lies in mu_M;
    - mu(e) = alpha(e,e) = 1 for the normalized cocycles gradalg holds.

    So the exponents of that splitting solve the system over Z/M'.
    """
    sub = alpha.subgroup
    if not sub.is_abelian():
        raise Unsupported("coboundary solving requires an abelian subgroup")
    for a in sub:
        for b in sub:
            if alpha.values[(a, b)] != alpha.values[(b, a)]:
                raise Unsupported(f"alpha({a},{b}) != alpha({b},{a})")
    members = sub.sorted_members
    index = {g: i for i, g in enumerate(members)}
    logs = {}
    conductor = 1
    for key, v in alpha.values.items():
        root = v.as_root_of_unity()
        if root is None:
            raise NotRootOfUnity("cocycle value is not a root of unity")
        logs[key] = root
        conductor = common_conductor(conductor, v.conductor)
    # each root[0] is lcm(2, v.conductor), so M = lcm(2, conductor) is theirs
    M = conductor if conductor % 2 == 0 else 2 * conductor

    e = sub.parent.identity
    t = sub.parent.table
    Mp = M * len(members)
    rows, rhs = [], []
    for a in members:
        for b in members:
            row = [0] * len(members)
            row[index[a]] += 1
            row[index[b]] += 1
            row[index[t[a][b]]] -= 1
            base, k = logs[(a, b)]
            rows.append(row)
            rhs.append(k * (Mp // base))
    # pin mu(e) = 0
    pin = [0] * len(members)
    pin[index[e]] = 1
    rows.append(pin)
    rhs.append(0)
    sol = linalg.solve_mod(rows, rhs, Mp)
    if sol is None:
        raise VerificationFailed("exponent system inconsistent")
    mu = {g: CyclotomicScalar.zeta(Mp, sol[index[g]]) for g in members}
    for a in members:
        for b in members:
            if alpha.values[(a, b)] * mu[t[a][b]] != mu[a] * mu[b]:
                raise VerificationFailed("splitting failed substitution check")
    return mu


class IrrepData:
    """A verified minimal irreducible representation of a twisted group
    algebra; `radical` is that of the bicharacter of `cocycle`.

    rho(h) is monomial, stored as two d-tuples (rows, coeffs) with
    rho(h) e_j = coeffs[j] e_{rows[j]}: induced from a character of a
    maximal isotropic subgroup L, it sends the basis vector of each coset
    of L to a multiple of that of another (Karpilovsky, Projective
    Representations of Finite Groups, 1985)."""

    def __init__(self, cocycle: Cocycle, dim: int, rho: dict,
                 radical: Subgroup):
        self.cocycle = cocycle
        self.dim = dim
        self.rho = rho
        self.radical = radical
        self._verify()

    def _verify(self):
        """rho(U_e) = 1, rho is alpha-multiplicative, its images span the
        d x d matrices (ranked on the expanded rows), and d^2 |Rad| = |H|.
        A product of monomials is monomial: (p1, c1)(p2, c2) sends e_j to
        c1[p2[j]] c2[j] e_{p1[p2[j]]}."""
        sub = self.cocycle.subgroup
        group = sub.parent
        d = self.dim
        if self.rho[group.identity] != (tuple(range(d)), (ONE,) * d):
            raise VerificationFailed("rho(U_e) is not the identity matrix")
        for g in sub:
            p1, c1 = self.rho[g]
            for h in sub:
                p2, c2 = self.rho[h]
                p3, c3 = self.rho[group.table[g][h]]
                scale = self.cocycle.values[(g, h)]
                if any(p1[p2[j]] != p3[j] or c1[p2[j]] * c2[j] != scale * c3[j]
                       for j in range(d)):
                    raise VerificationFailed(
                        f"rho is not alpha-multiplicative at ({g},{h})")
        vectors = [[coeffs[j] if rows[j] == i else ZERO
                    for i in range(d) for j in range(d)]
                   for rows, coeffs in self.rho.values()]
        if linalg.rank(vectors, d * d) != d * d:
            raise VerificationFailed(
                "matrix images do not span a full matrix algebra")
        if d * d * self.radical.order != sub.order:
            raise VerificationFailed("dimension does not match the radical index")


def smallest_irrep(gamma: Cocycle) -> IrrepData:
    """The minimal irreducible representation of an abelian twisted group algebra.

    A maximal isotropic subgroup L for the bicharacter is grown greedily from
    the radical; the splitting on L induces the representation on the coset
    basis of L in H, as monomial matrices.  `IrrepData` checks d against the
    radical of the one bicharacter built here.
    """
    sub = gamma.subgroup
    group = sub.parent
    beta = gamma.bicharacter()
    iso = set(beta.radical.members)
    for x in sub:
        if x in iso:
            continue
        if all(beta.values[(x, l)].is_one() for l in iso):
            iso = set(group.closure(iso | {x}).members)
    isotropic = group._interned(iso)
    mu = coboundary_solve(gamma.restrict(isotropic))

    reps = isotropic.transversal(within=sub).entries
    pos = {w: i for i, w in enumerate(reps)}
    rho = {}
    for h in sub:
        rows, coeffs = [], []
        for w in reps:
            hw = group.table[h][w]
            wp = isotropic.coset_rep(hw)
            # hw = wp * l with l in L; the splitting absorbs the L part
            l = group.table[group.inverses[wp]][hw]
            rows.append(pos[wp])
            coeffs.append(gamma.values[(h, w)]
                          * gamma.values[(wp, l)].inverse() * mu[l])
        rho[h] = (tuple(rows), tuple(coeffs))
    return IrrepData(gamma, len(reps), rho, beta.radical)


# -- class enumeration on abelian subgroups ------------------------------------

def abelian_basis(sub: Subgroup) -> list[int]:
    """Independent generators g_1,...,g_k with |<g_1>| * ... * |<g_k>| = |H|.

    Verified by checking that exponent tuples enumerate the subgroup without
    collisions.
    """
    if not sub.is_abelian():
        raise Unsupported("basis decomposition requires abelian subgroup")
    group = sub.parent
    basis: list[int] = []
    span = {group.identity}
    remaining = sorted(sub.members - span,
                       key=lambda x: (-group.element_order(x), x))
    while len(span) < sub.order:
        chosen = None
        for x in remaining:
            if x in span:
                continue
            candidate = group.closure(set(span) | {x}).members
            if len(candidate) == len(span) * group.element_order(x):
                chosen = x
                span = set(candidate)
                break
        if chosen is None:
            raise VerificationFailed("no independent generator found")
        basis.append(chosen)
    # verify coordinates cover the subgroup bijectively
    coords = element_coordinates(sub, basis)
    if len(coords) != sub.order:
        raise VerificationFailed("basis coordinates do not cover the subgroup")
    return basis


def element_coordinates(sub: Subgroup, basis: list[int]) -> dict:
    """Map each subgroup element to its exponent tuple over the basis."""
    group = sub.parent
    orders = [group.element_order(g) for g in basis]
    coords = {}

    def rec(i, current, exps):
        if i == len(basis):
            coords[current] = tuple(exps)
            return
        x = current
        for k in range(orders[i]):
            rec(i + 1, x, exps + [k])
            x = group.table[x][basis[i]]

    rec(0, group.identity, [])
    return coords


def enumerate_cocycle_classes(sub: Subgroup) -> list[Cocycle]:
    """One bilinear representative per cohomology class on an abelian subgroup.

    Classes correspond to the alternating pairings, parametrized by one root
    of unity of order dividing gcd(|g_i|, |g_j|) per basis pair i < j.
    """
    basis = abelian_basis(sub)
    group = sub.parent
    orders = [group.element_order(g) for g in basis]
    coords = element_coordinates(sub, basis)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    choice_ranges = [gcd(orders[i], orders[j]) for i, j in pairs]

    def build(choices) -> Cocycle:
        values = {}
        for a in sub:
            ca = coords[a]
            for b in sub:
                cb = coords[b]
                v = ONE
                for (i, j), m, k in zip(pairs, choice_ranges, choices):
                    if k == 0:
                        continue
                    expo = (k * ca[j] * cb[i]) % m
                    if expo:
                        v = v * CyclotomicScalar.zeta(m, expo)
                values[(a, b)] = v
        return Cocycle.verify_and_normalize(sub, values)

    results = []

    def rec(i, choices):
        if i == len(pairs):
            results.append(build(choices))
            return
        for k in range(choice_ranges[i]):
            rec(i + 1, choices + [k])

    rec(0, [])
    return results

