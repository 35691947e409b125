"""Exact row reduction over cyclotomic scalars (Echelon, rank, kernels,
invert_matrix), plus solving modulo an integer through the Smith form."""

from __future__ import annotations

from math import gcd

from .errors import DivisionByZero
from .scalars import CyclotomicScalar, mul_scaled, sub_mul

ZERO = CyclotomicScalar.zero()
ONE = CyclotomicScalar.one()


class Echelon:
    """Incremental exact row reduction with pivot bookkeeping.

    Rows are dense lists of CyclotomicScalar.  Kept rows are normalized to
    pivot 1 and fully reduced against each other, so the accumulated rows are
    a reduced row echelon basis of the row space.  Each update x - c * y of
    an entry is the fused step `scalars.sub_mul`, and scaling by the
    pivot's inverse is `scalars.mul_scaled`, which skips the product for a
    zero entry; both give the scalar the operators give, value and
    conductor alike.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[CyclotomicScalar]] = []
        self.pivots: list[int] = []
        # one key per distinct row given to add_row; see there
        self._given: set = set()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce_row(self, row) -> list[CyclotomicScalar]:
        row = list(row)
        for prow, p in zip(self.rows, self.pivots):
            c = row[p]
            if not c.is_zero():
                for j in range(p, self.ncols):
                    if not prow[j].is_zero():
                        row[j] = sub_mul(row[j], c, prow[j])
        return row

    def add_row(self, row) -> bool:
        """Reduce and insert; True if the row enlarged the span.

        A row equal, entry for entry in value and conductor, to a row given
        before is not reduced again.  That row is in the span now, so the
        reduction would take the copy to zero, and add_row would return
        False without touching rows or pivots: returning False at once
        leaves the rank, and every later reduction and kernel entry, as
        they would be.  The key of a row lists its entries other than the
        module's ZERO, each with its column, conductor, numerators and
        denominator, so it is exact and its size follows the nonzero
        entries of rows given as ZERO-filled lists.
        """
        row = list(row)
        key = tuple([(j, c.conductor, c.num, c.den)
                     for j, c in enumerate(row) if c is not ZERO])
        if key in self._given:
            return False
        self._given.add(key)
        row = self.reduce_row(row)
        pivot = next((j for j in range(self.ncols) if not row[j].is_zero()), None)
        if pivot is None:
            return False
        inv = row[pivot].inverse()
        row = [mul_scaled(c, inv) for c in row]
        for prow in self.rows:
            c = prow[pivot]
            if not c.is_zero():
                for j in range(pivot, self.ncols):
                    if not row[j].is_zero():
                        prow[j] = sub_mul(prow[j], c, row[j])
        at = next((i for i, p in enumerate(self.pivots) if p > pivot),
                  len(self.pivots))
        self.rows.insert(at, row)
        self.pivots.insert(at, pivot)
        return True

    def contains(self, row) -> bool:
        return all(c.is_zero() for c in self.reduce_row(row))

    def kernel_basis(self) -> list[list[CyclotomicScalar]]:
        """Basis of the null space of the accumulated row span (as a matrix)."""
        pivot_set = set(self.pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            vec = [ZERO] * self.ncols
            vec[f] = ONE
            for prow, p in zip(self.rows, self.pivots):
                if not prow[f].is_zero():
                    vec[p] = -prow[f]
            basis.append(vec)
        return basis


def rank(rows, ncols: int) -> int:
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
    return ech.rank


def invert_matrix(mat: list[list[CyclotomicScalar]]) -> list[list[CyclotomicScalar]]:
    """Inverse of a square matrix by exact Gauss-Jordan elimination.

    Nothing in gradalg calls it; it stays because bench/tracer.py binds it
    by name."""
    n = len(mat)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise DivisionByZero("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- modular solving through the integer Smith form ---------------------------

def solve_mod(mat: list[list[int]], rhs: list[int], modulus: int):
    """Solve mat * x = rhs (mod modulus); None when inconsistent.

    Diagonalizes mat to its Smith form D = U * mat * V by integer row and
    column operations: each round moves a nonzero entry of least magnitude
    to (t, t) and reduces its row and column by floor quotients, until both
    are zero off the diagonal.  U is not kept: each row swap and row
    operation is applied to rhs as it is made, so rhs ends as U * rhs
    exactly.  V is kept for the back-substitution x = V * y, where y solves
    the diagonal system D * y = U * rhs (mod modulus) entry by entry.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(r) for r in mat]
    b = list(rhs)
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    t = 0
    while t < min(rows, cols):
        # move a nonzero entry of minimal magnitude into (t, t)
        best, least = None, 0
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        b[t], b[bi] = b[bi], b[t]
        if bj != t:
            for r in a:
                r[t], r[bj] = r[bj], r[t]
            for r in v:
                r[t], r[bj] = r[bj], r[t]
        pivot_row = a[t]
        p = pivot_row[t]
        dirty = False
        # row i -= q * row t; left of column t, rows t and up are zero
        for i in range(t + 1, rows):
            ai = a[i]
            if ai[t]:
                q = ai[t] // p
                for j in range(t, cols):
                    ai[j] -= q * pivot_row[j]
                b[i] -= q * b[t]
                dirty = dirty or ai[t] != 0
        # col j -= q * col t; above row t, columns t and up are zero
        for j in range(t + 1, cols):
            if pivot_row[j]:
                q = pivot_row[j] // p
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
                for r in v:
                    r[j] -= q * r[t]
                dirty = dirty or pivot_row[j] != 0
        if dirty or any(a[i][t] for i in range(t + 1, rows)) \
                or any(pivot_row[j] for j in range(t + 1, cols)):
            continue
        t += 1

    y = [0] * cols
    for i in range(rows):
        ub = b[i] % modulus
        di = a[i][i] if i < cols else 0
        if di:
            g = gcd(di, modulus)
            if ub % g:
                return None
            # solve di * y = ub mod modulus
            m2 = modulus // g
            inv = pow((di // g) % m2, -1, m2) if m2 > 1 else 0
            y[i] = ((ub // g) * inv) % m2 if m2 > 1 else 0
        elif ub:
            return None
    return [sum(v[i][k] * y[k] for k in range(cols)) % modulus
            for i in range(cols)]
