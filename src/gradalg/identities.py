"""Multilinear graded polynomials and exact bounded-degree identity spaces.

A multilinear polynomial is stored as a sparse map from words (orderings of
its variables) to coefficients.  Identity testing evaluates on graded basis
elements only, which is complete by multilinearity; kernels are computed by
exact elimination over the cyclotomic field.

One kernel, `_word_values`, multiplies basis keys along words: for one
assignment of basis keys it walks a prefix tree of the requested words depth
first, computes each prefix product once, and drops a prefix whose product
is zero with every word that extends it.  `identity_space` (one row per
output key, one column per word), `is_identity`, the atom value sets of
`ProductPoly` and the witness search of `separate_part1` all go through it.
`evaluate`, the element-level product, stays as the independent route that
witnesses and tests are checked with.

`identity_space` stops its sweep once the evaluation rows reach full column
rank, which is exact: more rows only enlarge the row space, so the kernel
stays {0}.  Identity spaces are not memoised; no caller asks twice for one.
What a sweep shares with other sweeps depends on its length n alone: the
n! words and their trie are built once per n (n <= MAX_MULTIDEGREE_LEN, so
at most six are kept; about 2,000 trie nodes at n = 6).  Many assignments
give an evaluation row equal, entry for entry in value and conductor, to one
already given to the same space's `linalg.Echelon`; such a row lies in the
span, so `Echelon.add_row` returns False for it without reducing it, and
the rank, the full-rank exit and every kernel entry, down to its printed
conductor, are what reducing it would leave.

Two shortcuts narrow the assignments visited for an antisymmetric
polynomial u * (signed sum over all words); every assignment left out has
the value 0 or +-(the value of one that is visited):

- Equal degrees: only subsets of distinct basis keys are visited.  Swapping
  two equal arguments negates the value, so a repeated key gives 0 (the
  field has characteristic 0), and reordering a subset only changes a sign.
- Matrix units: on a presentation with trivial cocycle over an abelian
  group, (g, i, j)(h, j, l) = (gh, i, l) with coefficient 1.  At keys
  (h_p, i_p, j_p) the value is u times the group element prod h_p times the
  signed ordering sum of the units (i_p, j_p), and prod h_p =
  prod deg_p * prod s_i s_j^-1 is the same for every way of giving the same
  units to the positions (the key at a position is fixed by its unit and
  degree).  So a repeated unit gives 0 as above, and the keys of one
  bipartite matching per subset of distinct units, evaluated directly,
  decide every assignment of that subset.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from itertools import product as iproduct
from math import comb, factorial, prod

from . import linalg
from .embed import decide_elementary, decide_part1
from .errors import (BudgetExceeded, DecisionWasTrue, LengthMismatch,
                     NotFoundWithinBudget, Unsupported, ValidationError,
                     VerificationFailed)
from .galg import AlgebraElement, GradedPresentation
from .groups import FiniteGroup
from .scalars import CyclotomicScalar
from .tuples import bipartite_match, coset_positions

ONE = CyclotomicScalar.one()
DEFAULT_BUDGET = 10_000_000

# The longest multidegree a sweep accepts.  A sweep of length n builds n!
# words and their trie, and its kernel up to n! vectors of n! entries: on a
# one-dimensional algebra, with one assignment, length 7 takes 214 MB and
# length 8 more than 2.9 GB.  The budget counts assignments and cannot see
# this.  The corpus sweeps to length 3 or 4, and separate_bounded has found
# separators at length 5.
MAX_MULTIDEGREE_LEN = 6


def get_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get("GRADALG_BUDGET", str(DEFAULT_BUDGET))
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValidationError("GRADALG_BUDGET",
                              f"must be a positive integer, got {raw!r}")
    return budget


def _check_length(n: int):
    """Refuse a sweep past MAX_MULTIDEGREE_LEN before any word is built."""
    if n > MAX_MULTIDEGREE_LEN:
        raise BudgetExceeded(f"multidegree length {n} exceeds "
                             f"{MAX_MULTIDEGREE_LEN}")


def perm_sign(word) -> int:
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    return -1 if inv % 2 else 1


class MultilinearPoly:
    """Sum of coefficient-weighted words over degree-labeled variables."""

    def __init__(self, group: FiniteGroup, degrees, coeffs: dict):
        self.group = group
        self.degrees = tuple(degrees)
        self.coeffs = {tuple(w): c for w, c in coeffs.items() if not c.is_zero()}
        self.n = len(self.degrees)

    @classmethod
    def variable(cls, group: FiniteGroup, degree: int) -> MultilinearPoly:
        return cls(group, (degree,), {(0,): ONE})

    def word_target(self, word) -> int:
        t = self.group.table
        acc = self.group.identity
        for v in word:
            acc = t[acc][self.degrees[v]]
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"MultilinearPoly(n={self.n}, terms={len(self.coeffs)})"

    def to_json(self):
        return {"multidegree": list(self.degrees),
                "terms": [{"perm": list(w), "coeff": c.to_json()}
                          for w, c in sorted(self.coeffs.items())]}


def standard_poly(r: int, degrees, group: FiniteGroup) -> MultilinearPoly:
    """The alternating signed sum over the orderings whose degree product
    is that of the identity ordering."""
    degrees = tuple(degrees)
    if len(degrees) != r:
        raise LengthMismatch("degree list length must match the arity")
    probe = MultilinearPoly(group, degrees, {})
    goal = probe.word_target(tuple(range(r)))
    coeffs = {}
    for word in permutations(range(r)):
        if probe.word_target(word) == goal:
            sign = perm_sign(word)
            coeffs[word] = ONE if sign == 1 else -ONE
    return MultilinearPoly(group, degrees, coeffs)


# -- evaluation -----------------------------------------------------------------

def evaluate(poly: MultilinearPoly, assignment) -> AlgebraElement:
    """Evaluate at homogeneous elements matching the multidegree."""
    if len(assignment) != poly.n:
        raise LengthMismatch("assignment length mismatch")
    algebra = assignment[0].parent
    for el, g in zip(assignment, poly.degrees):
        deg = el.degree()
        if deg is not None and deg != g:
            raise LengthMismatch(f"element degree {deg} != variable degree {g}")
    out = algebra.zero()
    for word, c in poly.coeffs.items():
        acc = assignment[word[0]]
        for v in word[1:]:
            if acc.is_zero():
                break
            acc = acc * assignment[v]
        out = out + acc.scale(c)
    return out


def _word_trie(words) -> tuple:
    """Prefix tree of `words`.  A node is a tuple of (letter, index of the
    word that ends there or None, child node); letters keep first-seen
    order, so a depth-first walk of lexicographically sorted words visits
    them in list order."""
    root: dict = {}
    for widx, word in enumerate(words):
        node = root
        for v in word[:-1]:
            node = node.setdefault(v, [None, {}])[1]
        node.setdefault(word[-1], [None, {}])[0] = widx
    return _freeze(root)


def _freeze(node) -> tuple:
    return tuple((v, widx, _freeze(child)) for v, (widx, child) in node.items())


def _word_values(algebra, keys, trie) -> list:
    """The evaluation kernel: nonzero values of the trie's words at one
    assignment of basis keys (variable v takes keys[v]).

    Walks the trie depth first, so each prefix product is computed once and
    a prefix whose product is zero is dropped with every word extending it.
    Returns (word index, {key: scalar}) pairs in walk order.  A prefix of
    one letter is stored with the coefficient ONE itself, and ONE * c is
    skipped as c: both have the same value and the same conductor.
    """
    mul = algebra.mul_basis
    out = []
    for v, widx, child in trie:
        cur = {keys[v]: ONE}
        if widx is not None:
            out.append((widx, cur))
        if child:
            _walk(child, cur, keys, mul, out)
    return out


def _walk(node, cur, keys, mul, out):
    """One level of _word_values' walk; not a closure, so a sweep leaves
    no reference cycle behind."""
    for v, widx, child in node:
        k2 = keys[v]
        nxt: dict = {}
        for k, s in cur.items():
            for kk, vv in mul(k, k2).items():
                acc = vv if s is ONE else s * vv
                nxt[kk] = nxt[kk] + acc if kk in nxt else acc
        nxt = {k: s for k, s in nxt.items() if not s.is_zero()}
        if nxt:
            if widx is not None:
                out.append((widx, nxt))
            if child:
                _walk(child, nxt, keys, mul, out)


def _poly_trie(poly: MultilinearPoly):
    """The prefix tree of poly's words and their coefficients, aligned."""
    words = tuple(poly.coeffs)
    return _word_trie(words), [poly.coeffs[w] for w in words]


def _poly_value(algebra, keys, trie, coeffs) -> dict:
    """Nonzero terms of sum_w coeffs[w] * value_w at one key assignment."""
    out: dict = {}
    for widx, terms in _word_values(algebra, keys, trie):
        c = coeffs[widx]
        for k, s in terms.items():
            acc = c * s
            out[k] = out[k] + acc if k in out else acc
    return {k: v for k, v in out.items() if not v.is_zero()}


def _assignments(pools, budget: int):
    """All graded basis assignments, once their number fits the budget."""
    if prod(len(p) for p in pools) > budget:
        raise BudgetExceeded(f"assignment enumeration exceeds {budget}")
    return iproduct(*pools)


def _antisym_unit(poly: MultilinearPoly) -> CyclotomicScalar | None:
    """The scalar u when poly = u * (signed sum over all words), else None."""
    ident = tuple(range(poly.n))
    unit = poly.coeffs.get(ident)
    if unit is None or len(poly.coeffs) != factorial(poly.n):
        return None
    for word, c in poly.coeffs.items():
        expected = unit if perm_sign(word) == 1 else -unit
        if c != expected:
            return None
    return unit


class IdentityCheck:
    def __init__(self, is_identity: bool, witness=None):
        self.is_identity = is_identity
        self.witness = witness


def _matrix_reduction_pools(poly: MultilinearPoly, algebra):
    """Per-position matrix units compatible with the variable degrees, for
    trivial-cocycle presentations over an abelian group."""
    if not isinstance(algebra, GradedPresentation):
        return None
    if not algebra.group.abelian or not algebra.alpha.is_trivial():
        return None
    pools = []
    lookup = []
    for g in poly.degrees:
        keys = algebra.component(g)
        units = {(i, j): (h, i, j) for (h, i, j) in keys}
        pools.append(set(units))
        lookup.append(units)
    return pools, lookup


def _nonzero_values(poly: MultilinearPoly, algebra, budget: int):
    """Yield (keys, value terms) for graded basis assignments on which poly
    does not vanish, in enumeration order.  By multilinearity, poly is an
    identity exactly when nothing is yielded; with an antisymmetric poly
    the assignments are narrowed by the shortcuts of the module docstring,
    and every assignment left out has the value 0 or +-(one that is kept).
    """
    pools = [algebra.component(g) for g in poly.degrees]
    if poly.is_zero() or any(not p for p in pools):
        return
    unit = _antisym_unit(poly)
    if unit is not None and len(set(poly.degrees)) == 1:
        if comb(len(pools[0]), poly.n) > budget:
            raise BudgetExceeded("too many basis subsets")
        candidates = combinations(pools[0], poly.n)
    elif unit is not None and (
            reduction := _matrix_reduction_pools(poly, algebra)) is not None:
        unit_pools, lookup = reduction
        all_units = sorted(set().union(*unit_pools))
        if comb(len(all_units), poly.n) > budget:
            raise BudgetExceeded("too many unit subsets")

        def matched():
            for subset in combinations(all_units, poly.n):
                assign = bipartite_match(subset, unit_pools)
                if assign is not None:
                    yield tuple(lookup[pos][subset[assign[pos]]]
                                for pos in range(poly.n))
        candidates = matched()
    else:
        candidates = _assignments(pools, budget)
    trie, coeffs = _poly_trie(poly)
    for keys in candidates:
        value = _poly_value(algebra, keys, trie, coeffs)
        if value:
            yield keys, value


def is_identity(poly: MultilinearPoly, algebra,
                budget: int | None = None) -> IdentityCheck:
    """Graded-basis evaluation through the kernel, with the antisymmetric
    and matrix-unit shortcuts.  Returns a witness assignment on failure."""
    for keys, _ in _nonzero_values(poly, algebra, get_budget(budget)):
        return IdentityCheck(False, witness=keys)
    return IdentityCheck(True)


# -- identity spaces --------------------------------------------------------------

class IdentitySpace:
    """Kernel basis of the evaluation map for one multidegree."""

    def __init__(self, algebra, degrees, words, vectors):
        self.algebra = algebra
        self.degrees = tuple(degrees)
        self.words = words
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def polys(self) -> list[MultilinearPoly]:
        group = self.algebra.group
        out = []
        for vec in self.vectors:
            coeffs = {w: c for w, c in zip(self.words, vec) if not c.is_zero()}
            out.append(MultilinearPoly(group, self.degrees, coeffs))
        return out


@lru_cache(maxsize=MAX_MULTIDEGREE_LEN)
def _sweep_words(n: int) -> tuple:
    """The words of an identity sweep of length n, every ordering of
    range(n) in lexicographic order, and their trie.  They depend on n
    alone, so each is built once per process; n is checked against
    MAX_MULTIDEGREE_LEN first, so at most that many are kept."""
    words = tuple(permutations(range(n)))
    return words, _word_trie(words)


def identity_space(algebra, degrees, budget: int | None = None) -> IdentitySpace:
    """Exact kernel of (coefficients -> evaluations over all basis tuples).

    The budget caps the a-priori assignment count, and a multidegree longer
    than MAX_MULTIDEGREE_LEN is refused.  The sweep stops once the
    rows reach full column rank: more rows only enlarge the row space, so
    the kernel stays {0}.  With no assignments every vector is in the
    kernel.  Spaces are not memoised; each call sweeps afresh.
    """
    degrees = tuple(degrees)
    n = len(degrees)
    _check_length(n)
    budget = get_budget(budget)
    words, trie = _sweep_words(n)
    pools = [algebra.component(g) for g in degrees]
    ech = linalg.Echelon(len(words))
    zero = linalg.ZERO
    for keys in _assignments(pools, budget):
        per_out: dict = {}
        for widx, terms in _word_values(algebra, keys, trie):
            for k, s in terms.items():
                if k not in per_out:
                    per_out[k] = [zero] * len(words)
                per_out[k][widx] = s
        for row in per_out.values():
            ech.add_row(row)
        if ech.rank == len(words):
            break
    return IdentitySpace(algebra, degrees, words, ech.kernel_basis())


class InclusionReport:
    def __init__(self, holds, checked, violation):
        self.holds = holds
        self.checked = checked
        self.violation = violation  # (degrees, separator, witness) or None


def inclusion_bounded(b_algebra, a_algebra, max_len: int,
                      budget: int | None = None) -> InclusionReport:
    """Check identity-space containment Id(B) <= Id(A) per multidegree.

    Multidegrees run over sorted tuples from the union support: a permutation
    of the multidegree relabels variables identically on both sides, so one
    representative per multiset decides all its rearrangements.  A max_len
    above MAX_MULTIDEGREE_LEN is refused before the first sweep.
    """
    _check_length(max_len)
    supp = sorted(set(a_algebra.support()) | set(b_algebra.support()))
    checked = []
    for length in range(1, max_len + 1):
        for degrees in combinations_with_replacement(supp, length):
            space_b = identity_space(b_algebra, degrees, budget)
            checked.append(degrees)
            if not space_b.vectors:
                continue
            space_a = identity_space(a_algebra, degrees, budget)
            ech = linalg.Echelon(len(space_b.words))
            for vec in space_a.vectors:
                ech.add_row(vec)
            for vec, poly in zip(space_b.vectors, space_b.polys()):
                if not ech.contains(vec):
                    check_b = is_identity(poly, b_algebra, budget)
                    if not check_b.is_identity:
                        raise VerificationFailed(
                            "kernel vector fails direct verification")
                    check_a = is_identity(poly, a_algebra, budget)
                    if check_a.is_identity:
                        raise VerificationFailed(
                            "separating vector unexpectedly vanishes")
                    return InclusionReport(False, checked,
                                           (degrees, poly, check_a.witness))
    return InclusionReport(True, checked, None)


# -- product-form polynomials -----------------------------------------------------

def _freeze_projective(element: AlgebraElement):
    """Hashable snapshot up to a global scalar; used to dedupe value sets
    (rescaling never changes whether later products vanish)."""
    items = sorted(element.terms.items(), key=lambda kv: str(kv[0]))
    inv = items[0][1].inverse()
    frozen = []
    for k, v in items:
        x = v * inv
        frozen.append((k, x.conductor, x.num, x.den))
    return tuple(frozen)


class ProductPoly:
    """A product of multilinear factors in disjoint variables.

    Kept factored: expanding separators of the block-product shape multiplies
    term counts, while identity checking only needs the per-factor value sets.
    """

    def __init__(self, group: FiniteGroup, atoms: list[MultilinearPoly]):
        self.group = group
        self.atoms = list(atoms)
        self.degrees = tuple(g for atom in atoms for g in atom.degrees)

    def evaluate(self, assignment) -> AlgebraElement:
        if len(assignment) != len(self.degrees):
            raise LengthMismatch("assignment length mismatch")
        pos = 0
        acc = None
        for atom in self.atoms:
            part = evaluate(atom, assignment[pos:pos + atom.n])
            pos += atom.n
            acc = part if acc is None else acc * part
        return acc

    def _atom_value_set(self, atom: MultilinearPoly, algebra, budget: int):
        values: dict = {}
        for _, terms in _nonzero_values(atom, algebra, budget):
            el = algebra.element(terms)
            values.setdefault(_freeze_projective(el), el)
        return list(values.values())

    def is_identity_on(self, algebra, budget: int | None = None) -> bool:
        """All graded assignments vanish; per-factor value sets are folded
        left to right, dropping zero partial products."""
        budget = get_budget(budget)
        partial: dict | None = None
        for atom in self.atoms:
            vals = self._atom_value_set(atom, algebra, budget)
            if not vals:
                return True
            if partial is None:
                partial = {_freeze_projective(v): v for v in vals}
                continue
            nxt: dict = {}
            if len(partial) * len(vals) > budget:
                raise BudgetExceeded("value-set product too large")
            for p in partial.values():
                for v in vals:
                    prod = p * v
                    if not prod.is_zero():
                        nxt.setdefault(_freeze_projective(prod), prod)
            partial = nxt
            if not partial:
                return True
        return not partial


# -- separators -------------------------------------------------------------------

class SeparatorResult:
    """A polynomial that vanishes on B and not on A at the witness.

    Each `separate_*` function checks both before it returns, and nothing
    checks them again.  Vanishing on B: `is_identity` (part1, and bounded
    within `inclusion_bounded`) or `ProductPoly.is_identity_on`
    (elementary).  Nonzero on A at `witness_a`: `evaluate` (part1),
    `ProductPoly.evaluate` (elementary), or the `is_identity` sweep on A
    whose nonzero assignment is the witness (bounded).
    """

    def __init__(self, kind, poly, witness_a, degrees):
        self.kind = kind
        self.poly = poly            # MultilinearPoly or ProductPoly
        self.witness_a = witness_a  # basis keys of A
        self.degrees = degrees


def _staircase_units(block_positions, length: int):
    """(i, j) index pairs walking the block diagonal/superdiagonal."""
    units = []
    q = 0
    for step in range(length):
        if step % 2 == 0:
            units.append((block_positions[q], block_positions[q]))
        else:
            units.append((block_positions[q], block_positions[q + 1]))
            q += 1
    return units


def separate_part1(a: GradedPresentation, b: GradedPresentation,
                   budget: int | None = None) -> SeparatorResult:
    """Separator for a trivially twisted full-subgroup target via the
    standard polynomial of degree twice the target's matrix size.  d and
    the verdict come from `embed.decide_part1` (true: DecisionWasTrue); a
    target of another shape is Unsupported."""
    budget = get_budget(budget)
    if not b.alpha.is_trivial():
        raise Unsupported(
            "separator shape requires a trivially twisted full-subgroup target")
    decision = decide_part1(a, b)
    if decision.verdict:
        raise DecisionWasTrue("embedding criterion holds; nothing separates")
    d, r1, r2 = decision.d, a.r, b.r
    group = a.group
    length = 2 * r2
    e = group.identity
    # the signed sum over all orderings, which is st_length at any degrees
    trie, signs = _poly_trie(standard_poly(length, [e] * length, group))
    witness = None
    if r1 > r2:
        # a staircase of matrix units chains in exactly one order
        units = _staircase_units(list(range(r2 + 1)), length)
        witness = tuple((e, i, j) for i, j in units)
        if not _poly_value(a, witness, trie, signs):
            witness = None
    if witness is None:
        r1pp = min(r1, (r2 + d) // d)  # smallest block with d*r1pp > r2
        # the corner on the first r1pp positions; its keys are keys of a
        sub = GradedPresentation(a.group, a.H, a.alpha, a.s.sub(range(r1pp)))
        keys = sub.basis_keys()
        if comb(len(keys), length) > budget:
            raise NotFoundWithinBudget("witness subset search exceeds budget")
        for subset in combinations(keys, length):
            if _poly_value(sub, subset, trie, signs):
                witness = subset
                break
        if witness is None:
            raise VerificationFailed("expected standard-polynomial witness")
    degrees = tuple(a.basis_degree(k) for k in witness)
    poly = standard_poly(length, degrees, group)
    if not is_identity(poly, b, budget).is_identity:
        raise VerificationFailed("separator fails to vanish on the target")
    val = evaluate(poly, [a.basis_element(k) for k in witness])
    if val.is_zero():
        raise VerificationFailed("separator witness evaluates to zero")
    return SeparatorResult("part1", poly, witness, degrees)


def separate_elementary(a: GradedPresentation, b: GradedPresentation,
                        budget: int | None = None) -> SeparatorResult:
    """Block-product separator against an elementary matrix target; the
    verdict comes from `embed.decide_elementary` (true: DecisionWasTrue); a
    target that is not elementary is Unsupported."""
    budget = get_budget(budget)
    if not b.H.is_trivial() or not b.alpha.is_trivial():
        raise Unsupported("target must carry an elementary grading")
    if decide_elementary(a, b).verdict:
        raise DecisionWasTrue("embedding criterion holds; nothing separates")
    group = a.group
    h_members = sorted(a.H.members)

    # the tuple's positions grouped by right coset, in order of first
    # occurrence
    blocks = list(coset_positions(a.s, a.H).values())
    inv = group.inverses
    t = group.table
    s1_pos = blocks[0][0]
    s1 = a.s[s1_pos]
    e = group.identity

    atoms: list[MultilinearPoly] = []
    witness: list = []
    for positions in blocks:
        qi = positions[0]
        si = a.s[qi]
        ri = len(positions)
        for h in h_members:
            deg_x = t[t[inv[s1]][h]][si]          # s1^-1 h s_i
            atoms.append(MultilinearPoly.variable(group, deg_x))
            witness.append((h, s1_pos, qi))
            st = standard_poly(2 * ri - 1, [e] * (2 * ri - 1), group)
            atoms.append(st)
            for (u, v) in _staircase_units(positions, 2 * ri - 1):
                hz = t[a.s[u]][inv[a.s[v]]]       # degree-e twist inside a block
                witness.append((hz, u, v))
            atoms.append(MultilinearPoly.variable(group, inv[deg_x]))
            q_last = positions[-1]
            hy = t[t[a.s[q_last]][inv[si]]][inv[h]]
            witness.append((hy, q_last, s1_pos))
            atoms.append(MultilinearPoly.variable(group, e))
            witness.append((e, s1_pos, s1_pos))
    product = ProductPoly(group, atoms)
    value = product.evaluate([a.basis_element(k) for k in witness])
    if value.is_zero():
        raise VerificationFailed("block-product witness evaluates to zero")
    if not product.is_identity_on(b, budget):
        raise VerificationFailed("block product fails to vanish on the target")
    return SeparatorResult("elementary_nonabelian", product, tuple(witness),
                           product.degrees)


def separate_bounded(a, b, max_len: int = 4,
                     budget: int | None = None) -> SeparatorResult:
    """Scan bounded multidegrees for any separating kernel vector."""
    report = inclusion_bounded(b, a, max_len, budget)
    if report.holds:
        raise NotFoundWithinBudget(
            f"no separator within multidegree length {max_len}")
    degrees, poly, witness = report.violation
    return SeparatorResult("bounded_fallback", poly, witness, degrees)

