"""Tuple calculus: equivalence and subsumption modulo a subgroup.

Two tuples are equivalent mod H exactly when their multisets of right cosets
H*x agree; subsumption is multiset containment.  This replaces any search
over permutations and left multiplications.
"""

from __future__ import annotations

from collections import Counter

from .errors import MismatchedParent
from .groups import GTuple, Subgroup


class CosetMultiset:
    """Multiset of right cosets, keyed by the minimal-index representative."""

    def __init__(self, subgroup: Subgroup, counts: Counter):
        self.subgroup = subgroup
        self.counts = counts

    @classmethod
    def of(cls, tup: GTuple, subgroup: Subgroup) -> CosetMultiset:
        if tup.group is not subgroup.parent:
            raise MismatchedParent("tuple and subgroup from different groups")
        counts = Counter(subgroup.coset_rep(x) for x in tup)
        return cls(subgroup, counts)

    def __eq__(self, other):
        return (isinstance(other, CosetMultiset)
                and self.subgroup == other.subgroup
                and self.counts == other.counts)

    def contains(self, other: CosetMultiset) -> bool:
        return all(self.counts.get(rep, 0) >= mult
                   for rep, mult in other.counts.items())

    def __repr__(self):
        return f"CosetMultiset({dict(self.counts)})"


def subsume_mod(s: GTuple, pattern: GTuple, subgroup: Subgroup) -> bool:
    """s >= pattern mod H: s has a sub-tuple equivalent to the pattern."""
    return CosetMultiset.of(s, subgroup).contains(
        CosetMultiset.of(pattern, subgroup))


def exists_shift(t: GTuple, pattern: GTuple, subgroup: Subgroup) -> int | None:
    """Some g with g*t >= pattern mod H, or None.

    Candidates g = p * t_j^-1 over pattern entries p and tuple entries t_j
    are complete: if any g works, the coset of the first pattern entry is
    covered by some g*t_j, so a candidate from that entry works too.  The
    identity is tried first so aligned instances report g = e.
    """
    group = t.group
    if group is not pattern.group or group is not subgroup.parent:
        raise MismatchedParent("mismatched ambient group")
    pat = CosetMultiset.of(pattern, subgroup)
    candidates = [group.identity]
    seen = {group.identity}
    for p in pattern:
        for x in t:
            g = group.table[p][group.inverses[x]]
            if g not in seen:
                seen.add(g)
                candidates.append(g)
    for g in candidates:
        if CosetMultiset.of(t.shift(g), subgroup).contains(pat):
            return g
    return None


def exists_shift_bruteforce(t: GTuple, pattern: GTuple,
                            subgroup: Subgroup) -> int | None:
    """Whole-group scan; oracle for exists_shift on small groups."""
    group = t.group
    pat = CosetMultiset.of(pattern, subgroup)
    for g in group.elements():
        if CosetMultiset.of(t.shift(g), subgroup).contains(pat):
            return g
    return None
