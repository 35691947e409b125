"""Decide graded embeddability between presentations and build certified maps.

The decision reduces to a tuple-subsumption test: intersect the subgroups,
take the minimal irreducible dimension d of the mixed cocycle on the
intersection H, and ask whether some shift of the target tuple dominates the
pattern tuple coset-wise.  By the paper's theorem this also decides
Id_G(B) <= Id_G(A); only this module knows the criterion, and the
separators of `identities` read their verdicts from it.

The construction follows the proof and writes each image straight into the
target B = (N2, beta, t).  The source cocycle is normalized along a
transversal T of H in N1; the intersection part u_h -> u_h (x) rho(h), with
rho the minimal projective representation of gamma = alpha_t|H / beta|H, is
spread over T by the right regular action (one factorization n = h * w of N1
gives both the rescaling and that action); and each key of the resulting
pattern-shaped block goes into B through one monomial table, set by the
matched tuple positions and the representative-replacement factors.  For an
elementary target over a non-abelian group the block is the right regular
representation of the twisted subgroup algebra.  Each route only computes
its table and its blocks; one builder, _images, tensors every block with
M_r and places it.  Each returned map is certified once, by verify_hom.
"""

from __future__ import annotations

from math import lcm

from .cocycles import Cocycle, smallest_irrep
from .errors import (DecisionFalse, MismatchedParent, Unsupported,
                     VerificationFailed)
from .galg import GradedHom, GradedPresentation, verify_hom
from .groups import GTuple, Subgroup
from .scalars import CyclotomicScalar
from .tuples import exists_shift, match_positions, subsume_mod

ONE = CyclotomicScalar.one()


class EmbedDecision:
    """Verdict plus the data that reproduces it.

    The pattern tuple is rebuilt by _pattern on each read, not kept: a
    decision then holds only objects its inputs already hold (the group's
    subgroups, the transversal remembered on their group, the source
    presentation's tuple) besides its verdict and numbers.
    """

    __slots__ = ("verdict", "case", "h_sub", "d", "g_prime", "transversal",
                 "source", "shift")

    def __init__(self, verdict: bool, case: str, h_sub: Subgroup, d: int,
                 g_prime: Subgroup, transversal: GTuple, source: GTuple,
                 shift: int | None):
        self.verdict = verdict
        self.case = case
        self.h_sub = h_sub
        self.d = d
        self.g_prime = g_prime
        self.transversal = transversal
        self.source = source
        self.shift = shift

    @property
    def pattern(self) -> GTuple:
        return _pattern(self.case, self.d, self.transversal, self.source)

    def to_json(self):
        # tuples the decision's objects already hold, where they exist;
        # json writes them as lists
        return {"verdict": self.verdict, "case": self.case,
                "H": self.h_sub.sorted_members, "d": self.d,
                "G_prime": self.g_prime.sorted_members,
                "transversal": self.transversal.entries,
                "pattern": self.pattern.entries,
                "shift": self.shift}

    def __repr__(self):
        return (f"EmbedDecision({self.verdict}, case={self.case}, d={self.d}, "
                f"shift={self.shift})")


def _pattern(case: str, d: int, transversal: GTuple, source: GTuple) -> GTuple:
    """The tuple that a shift of the target tuple must dominate coset-wise:
    d copies of the transversal times the source tuple (part2 takes the
    source before the transversal), or, for an elementary target, the
    listed subgroup times the source tuple."""
    if case == "elementary_nonabelian":
        return transversal.product(source)
    block = GTuple.const(source.group, d)
    if case == "part2":
        return block.product(source).product(transversal)
    return block.product(transversal).product(source)


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
        return decide_elementary(a, b)
    raise Unsupported(
        "non-abelian ambient groups are supported only for elementary targets")


def _criterion(a: GradedPresentation, b: GradedPresentation):
    """(H, d, G', transversal): H = N1 & N2, d the minimal representation
    dimension of alpha|H / beta|H, G' = N1 N2, and the transversal of N2
    in G'."""
    h_sub = a.H.intersection(b.H)
    gamma = a.alpha.restrict(h_sub).ratio(b.alpha.restrict(h_sub))
    d = smallest_irrep(gamma).dim
    g_prime = a.H.product_subgroup(b.H)
    return h_sub, d, g_prime, b.H.transversal(within=g_prime)


def _decide_abelian(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    h_sub, d, g_prime, transversal = _criterion(a, b)
    shift = exists_shift(b.s, _pattern("part23", d, transversal, a.s), b.H)
    return EmbedDecision(shift is not None, "part23", h_sub, d, g_prime,
                         transversal, a.s, shift)


def decide_elementary(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    """For an elementary target b = ({e}, 1, t) over any group: does some
    shift of t dominate the listed N1 times the source tuple?  The caller
    checks that b is elementary and shares a's ambient group."""
    group = a.group
    h_bar = GTuple(group, sorted(a.H.members))
    pattern = _pattern("elementary_nonabelian", a.H.order, h_bar, a.s)
    shift = exists_shift(b.s, pattern, group.trivial_subgroup())
    return EmbedDecision(shift is not None, "elementary_nonabelian", a.H,
                         a.H.order, a.H, h_bar, a.s, shift)


def decide_part1(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    """Fast path for a full-subgroup target over an abelian group (any
    other pair is Unsupported): r2 >= d * r1, with d the minimal
    representation dimension."""
    _check_same_ambient(a, b)
    group = a.group
    if not group.abelian:
        raise Unsupported("fast path requires an abelian group")
    if b.H.order != group.order:
        raise Unsupported("fast path requires the full subgroup target")
    gamma = a.alpha.ratio(b.alpha.restrict(a.H))
    d = smallest_irrep(gamma).dim
    verdict = b.r >= d * a.r
    full = group.full_subgroup()
    return EmbedDecision(verdict, "part1", a.H, d, full,
                         GTuple(group, [group.identity]), a.s,
                         group.identity if verdict else None)


def decide_part2(a: GradedPresentation, b: GradedPresentation) -> EmbedDecision:
    """Fast path for crossed tuples over an abelian group, the source tuple
    in N2 and the target tuple in N1 (any other pair is Unsupported): the
    target tuple must dominate the pattern without any shift."""
    _check_same_ambient(a, b)
    group = a.group
    if not group.abelian:
        raise Unsupported("fast path requires an abelian group")
    if not all(x in b.H.members for x in a.s):
        raise Unsupported("fast path requires the source tuple in N2")
    if not all(x in a.H.members for x in b.s):
        raise Unsupported("fast path requires the target tuple in N1")
    h_sub, d, g_prime, transversal = _criterion(a, b)
    verdict = subsume_mod(b.s, _pattern("part2", d, transversal, a.s), b.H)
    return EmbedDecision(verdict, "part2", h_sub, d, g_prime, transversal,
                         a.s, group.identity if verdict else None)


# -- construction ----------------------------------------------------------------

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
    positions = match_positions(entries, pattern, modulo)
    if positions is None:
        raise DecisionFalse("pattern does not inject into the target tuple")
    h_of = {}
    for k, p in enumerate(pattern):
        s_k = entries[positions[k]]
        if s_k != p:
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


def _rho_terms(gamma: Cocycle, beta: Cocycle, d: int) -> dict:
    """For each h in H, the triples (u, v, rho(h)[u][v]) of the nonzero
    entries of rho(h), row by row, with rho the minimal projective
    representation of gamma = alpha / beta|H.

    They are the images of the map (h,0,0) -> sum_{u,v} rho(h)[u][v] (h,u,v)
    from x = (H, alpha, (e)) into y = (N, beta, (e)^d).  In y,
    (h,u,v)(h',v,w) = beta(h,h') (hh',u,w), and a product whose inner
    indices differ is 0.  So the images multiply to
    beta(h,h') sum_{u,w} (rho(h) rho(h'))[u][w] (hh',u,w)
    = beta(h,h') gamma(h,h') phi(hh') = alpha(h,h') phi(hh'),
    which is the image of (h,0,0)(h',0,0) = alpha(h,h') (hh',0,0).  Each
    (h,u,v) has degree h in y, as (h,0,0) has in x, and rho(h) is
    invertible, so the images are nonzero and lie in distinct components:
    the map is an injective graded homomorphism.
    """
    beta = beta.values
    rep = smallest_irrep(gamma)
    if rep.dim != d:
        raise VerificationFailed("matrix block does not match the minimal "
                                 "representation dimension")
    e = gamma.subgroup.parent.identity
    # Each coefficient carries the conductor of root^2 / (beta(e,h) beta(h,e))
    # with root the canonical square root of beta(e,e), the unit by which the
    # cocycle twist of both sides scales this map.  The unit is 1 for a
    # normalized cocycle, but the root zeta_2M^0 of beta(e,e) = 1 at
    # conductor m has conductor 2M, M = lcm(2, m), and to_json prints the
    # conductor unreduced; keeping it keeps reports byte-identical.
    root = 2 * lcm(2, beta[(e, e)].conductor)
    terms = {}
    for h in gamma.subgroup:
        pad = CyclotomicScalar.one(lcm(root, beta[(e, h)].conductor,
                                       beta[(h, e)].conductor))
        rows, coeffs = rep.rho[h]
        terms[h] = [(rows[v], v, coeffs[v] * pad)
                    for v in sorted(range(d), key=rows.__getitem__)]
    return terms


def _transversal_split(alpha: Cocycle, h_sub: Subgroup, t1: GTuple):
    """split[n] = (h, w) with n = h * w, h in H and w in t1, for each n in
    N1, and the rescaling c(h * w) = alpha(h, w)."""
    table = h_sub.parent.table
    split = {table[h][w]: (h, w) for h in h_sub for w in t1}
    return split, {n: alpha.values[hw] for n, hw in split.items()}


def _images(a: GradedPresentation, b: GradedPresentation, place,
            blocks: dict) -> GradedHom:
    """The map that sends u_g (x) E_ij to the sum of place(m, p * r + i,
    q * r + j, coeff) over the block terms (m, p, q, coeff) of g, r = a.r:
    the block of g tensored with the identity of M_r, placed key by key into
    b.  blocks maps each g in N1 to its terms; images are written in the
    order of blocks, then i, then j."""
    r = a.r
    images = {}
    for g, block in blocks.items():
        for i in range(r):
            for j in range(r):
                images[(g, i, j)] = b.element(dict(
                    place(m, p * r + i, q * r + j, coeff)
                    for m, p, q, coeff in block))
    return GradedHom(a, b, images)


def _construct_abelian(a: GradedPresentation, b: GradedPresentation,
                       decision: EmbedDecision) -> GradedHom:
    """The basis v_n = c(n) u_n, c(h * w) = alpha(h, w), multiplies by
    alpha_t = alpha * dc, and alpha_t(h, w) = alpha(h, w) c(h) c(w) / c(hw)
    = 1 for h in H, w in t1: c(h) = alpha(h, e) = 1 and c(w) = alpha(e, w)
    = 1, as alpha is normalized and e represents its own coset.  With
    w * n = h * w', v_n moves block w to block w' through rho(h), and u_n
    goes to c(n)^-1 times the image of v_n."""
    group = a.group
    n1, n2 = a.H, b.H
    h_sub = decision.h_sub
    d = decision.d

    # transversal of H in N1, identity representing its own coset; it is
    # simultaneously a transversal of N2 in N1*N2
    t1_raw = h_sub.transversal(within=n1)
    t1 = GTuple(group, [group.identity if w in h_sub.members else w
                        for w in t1_raw])
    place = _placement(b, decision.shift, _pattern("part23", d, t1, a.s), n2)
    split, c = _transversal_split(a.alpha, h_sub, t1)
    alpha_t = a.alpha.twist_by_coboundary(c)

    # minimal-representation embedding of the intersection part
    rho = _rho_terms(alpha_t.restrict(h_sub).ratio(b.alpha.restrict(h_sub)),
                     b.alpha, d)

    # spread over the transversal by the right regular action: with
    # w * n = h_w * w2, row u of the copy at w meets column v of the copy
    # at w2 at block position (u * |t1| + idx(w), v * |t1| + idx(w2))
    t1_len = len(t1)
    w_index = {w: wi for wi, w in enumerate(t1)}
    blocks = {}
    for n in n1:
        c_inv = c[n].inverse()
        block = blocks[n] = []
        for wi, w in enumerate(t1):
            h_w, w2 = split[group.table[w][n]]
            coeff0 = c_inv * alpha_t.values[(w, n)]
            block += [(h_w, u * t1_len + wi, v * t1_len + w_index[w2],
                       coeff0 * sc) for u, v, sc in rho[h_w]]
    return _images(a, b, place, blocks)


def _construct_elementary(a: GradedPresentation, b: GradedPresentation,
                          decision: EmbedDecision) -> GradedHom:
    """The right regular representation of the twisted subgroup algebra:
    u_h moves position x to position xh with coefficient alpha(x, h)."""
    group = a.group
    h_members = sorted(a.H.members)
    h_index = {h: k for k, h in enumerate(h_members)}
    place = _placement(b, decision.shift, decision.pattern,
                       group.trivial_subgroup())
    e = group.identity
    blocks = {h: [(e, h_index[x], h_index[group.table[x][h]],
                   a.alpha.values[(x, h)]) for x in h_members]
              for h in a.H}
    return _images(a, b, place, blocks)


def _build(a: GradedPresentation, b: GradedPresentation,
           decision: EmbedDecision) -> GradedHom:
    """The embedding promised by a true decision, each image written
    straight into b, not yet certified."""
    if not decision.verdict:
        raise DecisionFalse("construction requires a true decision")
    if a.same_data(b):
        return GradedHom(a, b, {k: b.basis_element(k) for k in a.basis_keys()})
    if decision.case == "elementary_nonabelian":
        return _construct_elementary(a, b, decision)
    return _construct_abelian(a, b, decision)


def construct(a: GradedPresentation, b: GradedPresentation,
              decision: EmbedDecision) -> GradedHom:
    """Build and certify the embedding promised by a true decision.

    The map comes from _build.  It is certified here, once, by verify_hom,
    and the HomCertificate is stored on it as `hom.certificate`.  Raises
    VerificationFailed if the certificate fails.
    """
    hom = _build(a, b, decision)
    cert = verify_hom(hom)
    if not cert.is_embedding:
        raise VerificationFailed(f"constructed map failed certification: {cert!r}")
    hom.certificate = cert
    return hom
