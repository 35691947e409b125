"""Direct sums of graded-simple presentations and embeddings into powers.

A direct sum has one type, galg.DirectSumAlgebra, which
SemisimplePresentation names.  Identity-ideal inclusion between simple
components is decided by the embedding criterion; a minimal set drops
components whose identities are implied by another's; the power embedding
assigns each source component a (copy, component) slot of the replicated
target through tuples.bipartite_match.
"""

from __future__ import annotations

from .embed import _build, decide
from .errors import NoMatch, VerificationFailed
from .galg import (DirectSumAlgebra, GradedHom, GradedPresentation,
                   verify_hom)
from .tuples import bipartite_match


SemisimplePresentation = DirectSumAlgebra


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


def match_components(a: DirectSumAlgebra, b: DirectSumAlgebra):
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


def embed_into_power(a: DirectSumAlgebra, b: DirectSumAlgebra):
    """A certified block-diagonal embedding of a into the N-fold sum of b.

    N is the smallest copy count for which every source component gets its
    own (copy, component) slot among admissible targets; the per-pair maps
    come from the simple construction, uncertified, and only the whole map
    is certified.  That loses nothing: the blocks sit on disjoint source
    and target components, so a block-diagonal map that is graded,
    multiplicative and injective is all three on each block.
    """
    decisions = []  # per source component: target index -> true decision
    for i, a_i in enumerate(a.components):
        row = {}
        for j, b_j in enumerate(b.components):
            d = decide(a_i, b_j)
            if d.verdict:
                row[j] = d
        if not row:
            raise NoMatch(i)
        decisions.append(row)

    m = len(b.components)
    for copies in range(1, len(a.components) + 1):
        # slots ordered by component, then copy: each source component
        # tries its candidates in that order
        slots = [(c, j) for j in range(m) for c in range(copies)]
        match = bipartite_match(slots, [
            {(c, j) for j in row for c in range(copies)} for row in decisions])
        if match is not None:
            break
    else:
        raise NoMatch(-1)

    target_components = [b.components[j] for _ in range(copies)
                         for j in range(m)]
    target = DirectSumAlgebra(target_components)

    images = {}
    for i, a_i in enumerate(a.components):
        copy_idx, j = slots[match[i]]
        slot = copy_idx * m + j
        hom = _build(a_i, b.components[j], decisions[i][j])
        for key, img in hom.images.items():
            images[(i, key)] = target.element(
                {(slot, kk): v for kk, v in img.terms.items()})
    total = GradedHom(a, target, images)
    cert = verify_hom(total)
    if not cert.is_embedding:
        raise VerificationFailed("power embedding failed certification")
    return copies, total, cert
