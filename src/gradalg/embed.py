"""Decide graded embeddability between presentations and build certified maps.

The decision reduces to a tuple-subsumption test: intersect the subgroups,
take the minimal irreducible dimension d of the mixed cocycle on the
intersection H, and ask whether some shift of the target tuple dominates the
pattern tuple coset-wise.

The construction follows the proof and writes each image straight into the
target B = (N2, beta, t).  The source cocycle is normalized along a
transversal T of H in N1; the intersection part u_h -> u_h (x) rho(h), with
rho the minimal projective representation of gamma = alpha_t|H / beta|H, is
spread over T by the right regular action; and each key of the resulting
pattern-shaped block goes into B through one monomial table, set by the
matched tuple positions and the representative-replacement factors.  For an
elementary target over a non-abelian group the block is the right regular
representation of the twisted subgroup algebra, placed the same way.  Each
returned map is certified once, by verify_hom.
"""

from __future__ import annotations

from math import lcm

from .cocycles import smallest_irrep, transversal_normalize
from .errors import (DecisionFalse, ElementOutsideGroup, MismatchedParent,
                     NonAbelianUnsupported, NotSameCoset, NotTransversal,
                     VerificationFailed)
from .galg import GradedHom, GradedPresentation, verify_hom
from .groups import GTuple, Subgroup
from .scalars import CyclotomicScalar
from .tuples import exists_shift, subsume_mod

ONE = CyclotomicScalar.one()


class EmbedDecision:
    """Verdict plus the data that reproduces it."""

    __slots__ = ("verdict", "case", "h_sub", "d", "g_prime", "transversal",
                 "pattern", "shift")

    def __init__(self, verdict: bool, case: str, h_sub: Subgroup, d: int,
                 g_prime: Subgroup, transversal: GTuple, pattern: GTuple,
                 shift: int | None):
        self.verdict = verdict
        self.case = case
        self.h_sub = h_sub
        self.d = d
        self.g_prime = g_prime
        self.transversal = transversal
        self.pattern = pattern
        self.shift = shift

    def to_json(self):
        return {"verdict": self.verdict, "case": self.case,
                "H": sorted(self.h_sub.members), "d": self.d,
                "G_prime": sorted(self.g_prime.members),
                "transversal": list(self.transversal.entries),
                "pattern": list(self.pattern.entries),
                "shift": self.shift}

    def __repr__(self):
        return (f"EmbedDecision({self.verdict}, case={self.case}, d={self.d}, "
                f"shift={self.shift})")


def _check_same_ambient(a: GradedPresentation, b: GradedPresentation):
    if a.group is not b.group:
        raise MismatchedParent("presentations over different ambient groups")


def decide(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    """Decide whether a graded embedding of a into b exists."""
    _check_same_ambient(a, b)
    group = a.group
    if group.abelian:
        return _decide_abelian(a, b)
    if b.H.is_trivial() and b.alpha.is_trivial():
        return _decide_elementary(a, b)
    raise NonAbelianUnsupported(
        "non-abelian ambient groups are supported only for elementary targets")


def _decide_abelian(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    group = a.group
    h_sub = a.H.intersection(b.H)
    gamma = a.alpha.restrict(h_sub).ratio(b.alpha.restrict(h_sub))
    d = smallest_irrep(gamma).dim
    g_prime = a.H.product_subgroup(b.H)
    transversal = b.H.transversal(within=g_prime)
    pattern = GTuple.const(group, d).product(transversal).product(a.s)
    shift = exists_shift(b.s, pattern, b.H)
    return EmbedDecision(shift is not None, "part23", h_sub, d, g_prime,
                         transversal, pattern, shift)


def _decide_elementary(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    group = a.group
    h_bar = GTuple(group, sorted(a.H.members))
    pattern = h_bar.product(a.s)
    trivial = group.trivial_subgroup()
    shift = exists_shift(b.s, pattern, trivial)
    return EmbedDecision(shift is not None, "elementary_nonabelian", a.H,
                         a.H.order, a.H, h_bar, pattern, shift)


def decide_part1(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    """Fast path for a full-subgroup target: compare tuple lengths against
    the minimal representation dimension."""
    _check_same_ambient(a, b)
    group = a.group
    if not group.abelian:
        raise NonAbelianUnsupported("fast path requires an abelian group")
    if b.H.order != group.order:
        raise VerificationFailed("fast path requires the full subgroup target")
    gamma = a.alpha.ratio(b.alpha.restrict(a.H))
    d = smallest_irrep(gamma).dim
    verdict = b.r >= d * a.r
    full = group.full_subgroup()
    pattern = GTuple.const(group, d).product(a.s)
    return EmbedDecision(verdict, "part1", a.H, d, full,
                         GTuple(group, [group.identity]), pattern,
                         group.identity if verdict else None)


def decide_part2(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    """Fast path for crossed tuples: target tuple must dominate the pattern
    without any shift."""
    _check_same_ambient(a, b)
    group = a.group
    if not group.abelian:
        raise NonAbelianUnsupported("fast path requires an abelian group")
    if not all(x in b.H.members for x in a.s):
        raise VerificationFailed("fast path requires the source tuple in N2")
    if not all(x in a.H.members for x in b.s):
        raise VerificationFailed("fast path requires the target tuple in N1")
    h_sub = a.H.intersection(b.H)
    gamma = a.alpha.restrict(h_sub).ratio(b.alpha.restrict(h_sub))
    d = smallest_irrep(gamma).dim
    g_prime = a.H.product_subgroup(b.H)
    transversal = b.H.transversal(within=g_prime)
    pattern = GTuple.const(group, d).product(a.s).product(transversal)
    verdict = subsume_mod(b.s, pattern, b.H)
    return EmbedDecision(verdict, "part2", h_sub, d, g_prime, transversal,
                         pattern, group.identity if verdict else None)


# -- construction ----------------------------------------------------------------

def transversal_action(n1: Subgroup, h_sub: Subgroup, transversal: GTuple,
                       g: int):
    """Factor w*g = h * w' per transversal element; returns {w: (h, w')}."""
    group = n1.parent
    if g not in n1.members:
        raise ElementOutsideGroup(f"{g} outside the acting subgroup")
    rep_to_w = {}
    for w in transversal:
        rep = h_sub.coset_rep(w)
        if rep in rep_to_w:
            raise NotTransversal("duplicate coset representative")
        rep_to_w[rep] = w
    out = {}
    for w in transversal:
        wg = group.table[w][g]
        w2 = rep_to_w[h_sub.coset_rep(wg)]
        h = group.table[wg][group.inverses[w2]]
        if h not in h_sub.members:
            raise NotTransversal("factorization left the subgroup")
        out[w] = (h, w2)
    return out


def _match_pattern_positions(target: GTuple, pattern: GTuple,
                             modulo: Subgroup) -> list[int]:
    """Greedy injection of pattern positions into target positions with
    matching cosets, in pattern order."""
    used = [False] * len(target)
    positions = []
    for p in pattern:
        rep = modulo.coset_rep(p)
        for j, t in enumerate(target):
            if not used[j] and modulo.coset_rep(t) == rep:
                used[j] = True
                positions.append(j)
                break
        else:
            raise DecisionFalse("pattern does not inject into the target tuple")
    return positions


def _placement(b: GradedPresentation, shift: int, pattern: GTuple,
               modulo: Subgroup):
    """The monomial table from the pattern-shaped block into b.

    The pattern is matched into the shifted tuple s = shift * t of b
    (positions, coset-wise mod `modulo`).  A shift moves no key: over an
    abelian group, or for a trivial subgroup, deg(h, i, j) is the same for t
    and s.  Where the matched entry s_k differs from pattern[k], the two lie
    in one coset, s_k = h_k * pattern[k] with h_k in the subgroup, and the
    block key (m, p, q) stands for u_{h_p} u_m u_{h_q}^-1 = A^-1 u_h on
    positions p, q of b, where h = h_p m h_q^-1 and u_{h_p}^-1 u_h u_{h_q} =
    A u_m: the key (h, pos[p], pos[q]), of the same degree, divided by A.
    Conjugating by the u_{h_k} respects products (the inner
    u_{h_q}^-1 u_{h_q} cancel in E_pq E_qr), so the table is an isomorphism
    of the pattern-shaped presentation onto the corner of b on the matched
    positions.

    Returns place(m, p, q, coeff) -> (key of b, coeff / A).
    """
    group = b.group
    t, inv, e = group.table, group.inverses, group.identity
    beta = b.alpha.values
    entries = b.s.shift(shift)
    positions = _match_pattern_positions(entries, pattern, modulo)
    h_of = {}
    for k, p in enumerate(pattern):
        s_k = entries[positions[k]]
        if s_k != p:
            if modulo.coset_rep(s_k) != modulo.coset_rep(p):
                raise NotSameCoset(f"{s_k} and {p} lie in different cosets")
            h_of[k] = t[s_k][inv[p]]

    def place(m, p, q, coeff):
        h = t[t[h_of.get(p, e)][m]][inv[h_of.get(q, e)]]
        key = (h, positions[p], positions[q])
        if p not in h_of and q not in h_of:
            return key, coeff
        # A is built one position at a time, in ascending order, row before
        # column on the diagonal.  Its value is the same in any order (the
        # cocycle identity), but its conductor, the lcm of the conductors
        # of the cocycle entries multiplied in, is not, and to_json prints
        # the conductor unreduced; this order keeps reports byte-identical.
        a = ONE
        for k in sorted({p, q}):
            if k not in h_of:
                continue
            hk = h_of[k]
            if k == p:
                a = a * beta[(hk, inv[hk])].inverse() * beta[(inv[hk], h)]
                h = t[inv[hk]][h]
            if k == q:
                a = a * beta[(h, hk)]
                h = t[h][hk]
        return key, coeff * a.inverse()

    return place


def _rho_map(x: GradedPresentation, y: GradedPresentation) -> GradedHom:
    """(h,0,0) -> sum_{u,v} rho(h)[u][v] (h,u,v), from x = (H, alpha, (e))
    into y = (N, beta, (e)^d), with rho the minimal projective
    representation of gamma = alpha / beta|H.

    In y, (h,u,v)(h',v,w) = beta(h,h') (hh',u,w), and a product whose inner
    indices differ is 0.  So the images multiply to
    beta(h,h') sum_{u,w} (rho(h) rho(h'))[u][w] (hh',u,w)
    = beta(h,h') gamma(h,h') phi(hh') = alpha(h,h') phi(hh'),
    which is the image of (h,0,0)(h',0,0) = alpha(h,h') (hh',0,0).  Each
    (h,u,v) has degree h in y, as (h,0,0) has in x, and rho(h) is
    invertible, so the images are nonzero and lie in distinct components:
    the map is an injective graded homomorphism.
    """
    e = x.group.identity
    beta = y.alpha.values
    rep = smallest_irrep(x.alpha.ratio(y.alpha.restrict(x.H)))
    if rep.dim != y.r:
        raise VerificationFailed("matrix block does not match the minimal "
                                 "representation dimension")
    # Each coefficient carries the conductor of root^2 / (beta(e,h) beta(h,e))
    # with root = beta(e,e).sqrt_root_of_unity(), the unit by which the
    # cocycle twist of both sides scales this map.  The unit is 1 for a
    # normalized cocycle, but root comes back at conductor 4 or more
    # (zeta_4^0 when beta(e,e) has conductor 1), and to_json prints the
    # conductor unreduced; keeping it keeps reports byte-identical.
    root = beta[(e, e)].sqrt_root_of_unity().conductor
    images = {}
    for h in x.H:
        pad = CyclotomicScalar.one(lcm(root, beta[(e, h)].conductor,
                                       beta[(h, e)].conductor))
        mat = rep.rho[h]
        images[(h, 0, 0)] = y.element({
            (h, u, v): mat[u][v] * pad
            for u in range(rep.dim) for v in range(rep.dim)
            if not mat[u][v].is_zero()})
    return GradedHom(x, y, images)


def _construct_abelian(a: GradedPresentation, b: GradedPresentation,
                       decision: EmbedDecision) -> GradedHom:
    group = a.group
    n1, n2 = a.H, b.H
    h_sub = decision.h_sub
    d = decision.d

    # transversal of H in N1, identity representing its own coset; it is
    # simultaneously a transversal of N2 in N1*N2
    t1_raw = h_sub.transversal(within=n1)
    t1 = GTuple(group, [group.identity if w in h_sub.members else w
                        for w in t1_raw])
    pattern = GTuple.const(group, d).product(t1).product(a.s)
    place = _placement(b, decision.shift, pattern, n2)

    # normalize the source cocycle along the transversal: the basis
    # v_n = c(n) u_n multiplies by alpha_t, so u_n goes to c(n)^-1 times the
    # image of v_n
    alpha_t, c = transversal_normalize(a.alpha, h_sub, t1)

    # minimal-representation embedding of the intersection part
    x = GradedPresentation(group, h_sub, alpha_t.restrict(h_sub),
                           GTuple.const(group, 1))
    y = GradedPresentation(group, n2, b.alpha, GTuple.const(group, d))
    rho = _rho_map(x, y).images

    # spread over the transversal by the right regular action, extend over
    # the matrix part, and place each key into b
    t1_len = len(t1)
    w_index = {w: wi for wi, w in enumerate(t1)}
    r = a.r

    def flat(u, wi, i):
        return (u * t1_len + wi) * r + i

    images = {}
    for n in n1:
        action = transversal_action(n1, h_sub, t1, n)
        c_inv = c[n].inverse()
        for i in range(r):
            for j in range(r):
                terms = {}
                for w in t1:
                    h_w, w2 = action[w]
                    coeff0 = c_inv * alpha_t.values[(w, n)]
                    for (m, u, v), sc in rho[(h_w, 0, 0)].terms.items():
                        key, val = place(m, flat(u, w_index[w], i),
                                         flat(v, w_index[w2], j), coeff0 * sc)
                        terms[key] = val
                images[(n, i, j)] = b.element(terms)
    return GradedHom(a, b, images)


def _construct_elementary(a: GradedPresentation, b: GradedPresentation,
                          decision: EmbedDecision) -> GradedHom:
    group = a.group
    h_members = sorted(a.H.members)
    h_index = {h: k for k, h in enumerate(h_members)}
    place = _placement(b, decision.shift, decision.pattern,
                       group.trivial_subgroup())

    # right regular representation of the twisted subgroup algebra
    e = group.identity
    r = a.r

    def flat(hk, i):
        return hk * r + i

    images = {}
    for h in a.H:
        for i in range(r):
            for j in range(r):
                terms = {}
                for x in h_members:
                    xh = group.table[x][h]
                    key, val = place(e, flat(h_index[x], i),
                                     flat(h_index[xh], j),
                                     a.alpha.values[(x, h)])
                    terms[key] = val
                images[(h, i, j)] = b.element(terms)
    return GradedHom(a, b, images)


def construct(a: GradedPresentation, b: GradedPresentation,
              decision: EmbedDecision) -> GradedHom:
    """Build and certify the embedding promised by a true decision.

    Each image is written straight into b.  The returned map is certified
    here, once, by verify_hom, and the HomCertificate is stored on it as
    `hom.certificate`.  Raises VerificationFailed if the certificate fails.
    """
    if not decision.verdict:
        raise DecisionFalse("construction requires a true decision")
    if a.same_data(b):
        hom = GradedHom(a, b, {k: b.basis_element(k) for k in a.basis_keys()})
    elif decision.case == "elementary_nonabelian":
        hom = _construct_elementary(a, b, decision)
    else:
        hom = _construct_abelian(a, b, decision)
    cert = verify_hom(hom)
    if not cert.is_embedding:
        raise VerificationFailed(f"constructed map failed certification: {cert!r}")
    hom.certificate = cert
    return hom
