"""Tuple calculus: how tuples meet the right cosets of a subgroup.

Two tuples are equivalent mod H exactly when their multisets of right cosets
H*x agree, and one subsumes the other exactly when its multiset contains the
other's: `cosets` counts them, and Counter's `>=` is the containment test.
This replaces any search over permutations and left multiplications.
`coset_positions` groups a tuple's positions by coset, `match_positions`
realises a containment position by position, and `bipartite_match` is the
package's one augmenting-path matcher.
"""

from __future__ import annotations

from collections import Counter

from .errors import MismatchedParent
from .groups import GTuple, Subgroup


def cosets(entries, subgroup: Subgroup) -> Counter:
    """How many entries lie in each right coset H*x, keyed by the coset's
    minimal-index representative."""
    return Counter(subgroup.coset_rep(x) for x in entries)


def _check_same_group(t: GTuple, pattern: GTuple, subgroup: Subgroup):
    if t.group is not subgroup.parent or pattern.group is not subgroup.parent:
        raise MismatchedParent("tuples and subgroup from different groups")


def subsume_mod(s: GTuple, pattern: GTuple, subgroup: Subgroup) -> bool:
    """s >= pattern mod H: s has a sub-tuple equivalent to the pattern."""
    _check_same_group(s, pattern, subgroup)
    return cosets(s, subgroup) >= cosets(pattern, subgroup)


def _first_shift(t: GTuple, pattern: GTuple, subgroup: Subgroup, candidates):
    """The first candidate g with g*t >= pattern mod H, or None."""
    table = t.group.table
    pat = cosets(pattern, subgroup)
    for g in candidates:
        row = table[g]
        if cosets([row[x] for x in t], subgroup) >= pat:
            return g
    return None


def exists_shift(t: GTuple, pattern: GTuple, subgroup: Subgroup) -> int | None:
    """Some g with g*t >= pattern mod H, or None.

    Candidates g = p * t_j^-1 over pattern entries p and tuple entries t_j
    are complete: if any g works, the coset of the first pattern entry is
    covered by some g*t_j, so a candidate from that entry works too.  The
    identity is tried first so aligned instances report g = e.
    """
    _check_same_group(t, pattern, subgroup)
    group = t.group
    table, inv = group.table, group.inverses
    candidates = dict.fromkeys(
        [group.identity] + [table[p][inv[x]] for p in pattern for x in t])
    return _first_shift(t, pattern, subgroup, candidates)


def exists_shift_bruteforce(t: GTuple, pattern: GTuple,
                            subgroup: Subgroup) -> int | None:
    """Whole-group scan; oracle for exists_shift on small groups."""
    _check_same_group(t, pattern, subgroup)
    return _first_shift(t, pattern, subgroup, t.group.elements())


def coset_positions(entries, subgroup: Subgroup) -> dict[int, list[int]]:
    """The positions of the entries in each right coset H*x, keyed by the
    coset's minimal-index representative, in order of first occurrence."""
    blocks: dict[int, list[int]] = {}
    for j, x in enumerate(entries):
        blocks.setdefault(subgroup.coset_rep(x), []).append(j)
    return blocks


def match_positions(target, pattern, subgroup: Subgroup) -> list[int] | None:
    """Greedy injection of pattern positions into target positions of the
    same right coset: in pattern order, each takes the first unused target
    position of its coset.  None when the pattern does not inject, that is
    when the target's cosets do not contain the pattern's."""
    free = coset_positions(target, subgroup)
    positions = []
    for p in pattern:
        queue = free.get(subgroup.coset_rep(p))
        if not queue:
            return None
        positions.append(queue.pop(0))
    return positions


def bipartite_match(items, pools) -> list[int] | None:
    """A distinct item for each position, as indices into items: position
    pos may take items[k] when it is in the set pools[pos].  Augmenting
    paths try items in list order; None when no such assignment exists."""
    owner = [None] * len(items)
    for pos in range(len(pools)):
        if not _augment(items, pools, owner, pos, set()):
            return None
    out = [None] * len(pools)
    for idx, pos in enumerate(owner):
        if pos is not None:
            out[pos] = idx
    return out


def _augment(items, pools, owner, pos, seen) -> bool:
    for idx, item in enumerate(items):
        if idx in seen or item not in pools[pos]:
            continue
        seen.add(idx)
        if owner[idx] is None or _augment(items, pools, owner, owner[idx],
                                          seen):
            owner[idx] = pos
            return True
    return False
