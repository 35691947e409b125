"""Direct sums of graded-simple presentations and embeddings into powers.

Identity-ideal inclusion between simple components is decided by the
embedding criterion; a minimal set drops components whose identities are
implied by another's; the power embedding assigns each source component a
(copy, component) slot of the replicated target via capacitated matching.
"""

from __future__ import annotations

from .embed import construct, decide
from .errors import MismatchedParent, NoMatch, VerificationFailed
from .galg import (DirectSumAlgebra, GradedHom, GradedPresentation,
                   verify_hom)


class SemisimplePresentation:
    """A direct sum of graded-simple presentations over one ambient group."""

    def __init__(self, components: list[GradedPresentation]):
        if not components:
            raise ValueError("at least one component required")
        group = components[0].group
        for c in components:
            if c.group is not group:
                raise MismatchedParent("components over different groups")
        self.group = group
        self.components = list(components)

    @property
    def dim(self) -> int:
        return sum(c.dim for c in self.components)

    def support(self) -> set:
        out = set()
        for c in self.components:
            out |= c.support()
        return out

    def algebra(self) -> DirectSumAlgebra:
        return DirectSumAlgebra(self.components)

    def to_json(self):
        return {"components": [c.to_json() for c in self.components]}


def pair_inclusion(a_i: GradedPresentation, b_j: GradedPresentation) -> bool:
    """Whether the identities of b_j are contained in those of a_i, decided
    through the embedding criterion for simple presentations."""
    return decide(a_i, b_j).verdict


def minimal_set(components: list[GradedPresentation]):
    """Drop components whose identity ideal contains a retained one's.

    Keeps the earliest component of each equivalence chain: component j is
    removed when some retained i != j embeds nothing more, i.e. the identity
    ideal of i sits inside that of j.  Returns (kept, removal log).
    """
    kept = list(range(len(components)))
    log = []
    changed = True
    while changed:
        changed = False
        for j in list(kept):
            for i in kept:
                if i == j:
                    continue
                # Id(A_i) <= Id(A_j) means A_j embeds into A_i
                if pair_inclusion(components[j], components[i]):
                    kept.remove(j)
                    log.append((j, i))
                    changed = True
                    break
            if changed:
                break
    return [components[i] for i in kept], log


def match_components(a: SemisimplePresentation, b: SemisimplePresentation):
    """For each source component the least target component whose identities
    it absorbs; None marks an unmatched component."""
    tau = []
    for a_i in a.components:
        found = None
        for j, b_j in enumerate(b.components):
            if pair_inclusion(a_i, b_j):
                found = j
                break
        tau.append(found)
    return tau


def _feasible_assignment(candidates: list[list[int]], m: int, copies: int):
    """Match each source index to a (copy, target) slot, at most one source
    per slot; None when infeasible."""
    slots = [(c, j) for c in range(copies) for j in range(m)]
    slot_index = {s: k for k, s in enumerate(slots)}
    match = [None] * len(slots)

    def augment(i, seen):
        for j in candidates[i]:
            for c in range(copies):
                k = slot_index[(c, j)]
                if k in seen:
                    continue
                seen.add(k)
                if match[k] is None or augment(match[k], seen):
                    match[k] = i
                    return True
        return False

    for i in range(len(candidates)):
        if not augment(i, set()):
            return None
    out = [None] * len(candidates)
    for k, i in enumerate(match):
        if i is not None:
            out[i] = slots[k]
    return out


def embed_into_power(a: SemisimplePresentation, b: SemisimplePresentation):
    """A certified block-diagonal embedding of a into the N-fold sum of b.

    N is the smallest copy count for which every source component gets its
    own (copy, component) slot among admissible targets; the per-pair maps
    come from the simple construction.
    """
    decisions = []
    candidates = []
    for i, a_i in enumerate(a.components):
        row = []
        drow = {}
        for j, b_j in enumerate(b.components):
            d = decide(a_i, b_j)
            if d.verdict:
                row.append(j)
                drow[j] = d
        if not row:
            raise NoMatch(i)
        candidates.append(row)
        decisions.append(drow)

    m = len(b.components)
    assignment = None
    copies = 0
    for n_copies in range(1, len(a.components) + 1):
        assignment = _feasible_assignment(candidates, m, n_copies)
        if assignment is not None:
            copies = n_copies
            break
    if assignment is None:
        raise NoMatch(-1)

    source = a.algebra()
    target_components = [b.components[j] for _ in range(copies)
                         for j in range(m)]
    target = DirectSumAlgebra(target_components)

    images = {}
    for i, a_i in enumerate(a.components):
        copy_idx, j = assignment[i]
        slot = copy_idx * m + j
        hom = construct(a_i, b.components[j], decisions[i][j])
        for key, img in hom.images.items():
            images[(i, key)] = target.element(
                {(slot, kk): v for kk, v in img.terms.items()})
    total = GradedHom(source, target, images)
    cert = verify_hom(total)
    if not cert.is_embedding:
        raise VerificationFailed("power embedding failed certification")
    return copies, total, cert
