"""Decide graded embeddability between presentations and build certified maps.

The decision reduces to a tuple-subsumption test: intersect the subgroups,
take the minimal irreducible dimension of the mixed cocycle, and ask whether
some shift of the target tuple dominates the pattern tuple coset-wise.  The
construction mirrors the decision: trivialize the target's cocycle by a twist,
embed the twisted subgroup algebra through its minimal representation, spread
it over a transversal by the right regular action, and undo the twist.
"""

from __future__ import annotations

from .cocycles import Cocycle, smallest_irrep, transversal_normalize
from .envelope import alpha_envelope, envelope_lift
from .errors import (DecisionFalse, ElementOutsideGroup, MismatchedParent,
                     NonAbelianUnsupported, NotTransversal, VerificationFailed)
from .galg import (GradedHom, GradedPresentation, replace_representative,
                   sub_presentation, verify_hom)
from .groups import GTuple, Subgroup
from .scalars import CyclotomicScalar
from .tuples import CosetMultiset, exists_shift, subsume_mod

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


def _shifted_copy(b: GradedPresentation, g: int) -> tuple[GradedPresentation, GradedHom]:
    """The presentation on the shifted tuple; over an abelian group (or a
    trivial subgroup) the degree map is unchanged, so the identity on basis
    keys is a graded isomorphism onto the original."""
    shifted = GradedPresentation(b.group, b.H, b.alpha, b.s.shift(g))
    images = {k: b.basis_element(k) for k in shifted.basis_keys()}
    return shifted, GradedHom(shifted, b, images)


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


def _part1_core(x: GradedPresentation, y: GradedPresentation,
                beta: Cocycle) -> GradedHom:
    """Embed a twisted subgroup algebra into the target twisted algebra
    tensored with a trivially graded matrix block, through the minimal
    representation of the mixed cocycle.

    Both sides are twisted by the inverse target cocycle, the representation
    map is built there, and the twist is undone; the route is taken even when
    the target cocycle is trivial so that one code path serves all cases.
    """
    delta = beta.inverse()
    env_x = alpha_envelope(x, delta)
    env_y = alpha_envelope(y, delta)
    gamma = env_x.presentation.alpha
    rep = smallest_irrep(gamma)
    if rep.dim != y.r:
        raise VerificationFailed("matrix block does not match the minimal "
                                 "representation dimension")
    xp, yp = env_x.presentation, env_y.presentation
    images = {}
    for h in xp.H:
        mat = rep.rho[h]
        terms = {}
        for u in range(rep.dim):
            for v in range(rep.dim):
                if not mat[u][v].is_zero():
                    terms[(h, u, v)] = mat[u][v]
        images[(h, 0, 0)] = yp.element(terms)
    kappa = GradedHom(xp, yp, images)

    env_x2 = alpha_envelope(xp, beta)
    env_y2 = alpha_envelope(yp, beta)
    lifted = envelope_lift(kappa, env_x2, env_y2)
    phi = env_y2.iso.compose(lifted).compose(env_x2.iso.inverse())
    return phi.rebind(source=x, target=y)


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

    shifted, shift_back = _shifted_copy(b, decision.shift)
    positions = _match_pattern_positions(shifted.s, pattern, n2)
    b1, include = sub_presentation(shifted, positions)

    # align representatives: b1's tuple agrees with the pattern coset-wise
    # per position, so entrywise replacements reach the pattern tuple
    align = GradedHom.identity(b1)
    current = b1
    for k in range(len(pattern)):
        if current.s[k] != pattern[k]:
            current, step = replace_representative(current, k, pattern[k])
            align = step.compose(align)
    b2 = current

    # normalize the source cocycle along the transversal and rescale
    alpha_t, c = transversal_normalize(a.alpha, h_sub, t1)
    a_t = GradedPresentation(group, n1, alpha_t, a.s)
    eta = GradedHom(a, a_t, {
        (n, i, j): a_t.element({(n, i, j): c[n].inverse()})
        for n in n1 for i in range(a.r) for j in range(a.r)})

    # minimal-representation embedding of the intersection part
    x = GradedPresentation(group, h_sub, alpha_t.restrict(h_sub),
                           GTuple.const(group, 1))
    y = GradedPresentation(group, n2, b.alpha, GTuple.const(group, d))
    phi_h = _part1_core(x, y, b.alpha)

    # spread over the transversal by the right regular action and extend
    # over the matrix part
    t1_len = len(t1)
    w_index = {w: wi for wi, w in enumerate(t1)}
    r = a.r

    def flat(u, wi, i):
        return (u * t1_len + wi) * r + i

    images = {}
    for n in n1:
        action = transversal_action(n1, h_sub, t1, n)
        for i in range(r):
            for j in range(r):
                terms = {}
                for w in t1:
                    h_w, w2 = action[w]
                    coeff0 = alpha_t.values[(w, n)]
                    base = phi_h.images[(h_w, 0, 0)]
                    for (m, u, v), sc in base.terms.items():
                        key = (m, flat(u, w_index[w], i),
                               flat(v, w_index[w2], j))
                        val = coeff0 * sc
                        terms[key] = terms[key] + val if key in terms else val
                images[(n, i, j)] = b2.element(terms)
    phi = GradedHom(a_t, b2, images)

    total = shift_back.compose(include.compose(
        align.inverse().compose(phi.compose(eta))))
    return total


def _construct_elementary(a: GradedPresentation, b: GradedPresentation,
                          decision: EmbedDecision) -> GradedHom:
    group = a.group
    h_members = sorted(a.H.members)
    h_index = {h: k for k, h in enumerate(h_members)}
    pattern = decision.pattern

    shifted, shift_back = _shifted_copy(b, decision.shift)
    positions = _match_pattern_positions(shifted.s, pattern,
                                         group.trivial_subgroup())
    b1, include = sub_presentation(shifted, positions)

    # right regular representation of the twisted subgroup algebra
    e = group.identity
    r = a.r
    order = len(h_members)

    def flat(hk, i):
        return hk * r + i

    images = {}
    for h in a.H:
        for i in range(r):
            for j in range(r):
                terms = {}
                for x in h_members:
                    xh = group.table[x][h]
                    terms[(e, flat(h_index[x], i), flat(h_index[xh], j))] = \
                        a.alpha.values[(x, h)]
                images[(h, i, j)] = b1.element(terms)
    psi = GradedHom(a, b1, images)
    return shift_back.compose(include.compose(psi))


def construct(a: GradedPresentation, b: GradedPresentation,
              decision: EmbedDecision) -> GradedHom:
    """Build and certify the embedding promised by a true decision.

    The intermediate maps (twist isomorphisms, representative replacements,
    inclusions) are plain builders; the returned map is certified here, once,
    by verify_hom, and the HomCertificate is stored on it as
    `hom.certificate`.  Raises VerificationFailed if the certificate fails.
    """
    if not decision.verdict:
        raise DecisionFalse("construction requires a true decision")
    if a.same_data(b):
        hom = GradedHom.identity(a).rebind(target=b)
    elif decision.case == "elementary_nonabelian":
        hom = _construct_elementary(a, b, decision)
    else:
        hom = _construct_abelian(a, b, decision)
    cert = verify_hom(hom)
    if not cert.is_embedding:
        raise VerificationFailed(f"constructed map failed certification: {cert!r}")
    hom.certificate = cert
    return hom
