"""Exact row reduction over cyclotomic scalars (Echelon, rank, kernels,
invert_matrix), plus integer Smith form and solving modulo an integer."""

from __future__ import annotations

from .errors import NoSolution
from .scalars import CyclotomicScalar

ZERO = CyclotomicScalar.zero()
ONE = CyclotomicScalar.one()


class Echelon:
    """Incremental exact row reduction with pivot bookkeeping.

    Rows are dense lists of CyclotomicScalar.  Kept rows are normalized to
    pivot 1 and fully reduced against each other, so the accumulated rows are
    a reduced row echelon basis of the row space.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[CyclotomicScalar]] = []
        self.pivots: list[int] = []

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
                        row[j] = row[j] - c * prow[j]
        return row

    def add_row(self, row) -> bool:
        """Reduce and insert; True if the row enlarged the span."""
        row = self.reduce_row(row)
        pivot = next((j for j in range(self.ncols) if not row[j].is_zero()), None)
        if pivot is None:
            return False
        inv = row[pivot].inverse()
        row = [c * inv for c in row]
        for prow in self.rows:
            c = prow[pivot]
            if not c.is_zero():
                for j in range(pivot, self.ncols):
                    if not row[j].is_zero():
                        prow[j] = prow[j] - c * row[j]
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
            raise NoSolution("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- integer Smith normal form and modular solving -----------------------------

def smith_normal_form(mat: list[list[int]]):
    """Return (D, U, V) with U*mat*V = D diagonal, all over the integers."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(r) for r in mat]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i1, i2, c):  # row i1 -= c * row i2
        for j in range(cols):
            a[i1][j] -= c * a[i2][j]
        for j in range(rows):
            u[i1][j] -= c * u[i2][j]

    def col_op(j1, j2, c):  # col j1 -= c * col j2
        for i in range(rows):
            a[i][j1] -= c * a[i][j2]
        for i in range(cols):
            v[i][j1] -= c * v[i][j2]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for i in range(rows):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(cols):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    t = 0
    while t < min(rows, cols):
        # move a nonzero entry of minimal magnitude into (t, t)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                dirty = dirty or a[t][j] != 0
        if dirty or any(a[i][t] for i in range(t + 1, rows)) \
                or any(a[t][j] for j in range(t + 1, cols)):
            continue
        t += 1
    return a, u, v


def solve_mod(mat: list[list[int]], rhs: list[int], modulus: int):
    """Solve mat * x = rhs (mod modulus); None when inconsistent."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    d, u, v = smith_normal_form(mat)
    ub = [sum(u[i][k] * rhs[k] for k in range(rows)) % modulus for i in range(rows)]
    y = [0] * cols
    from math import gcd
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if i < cols and di:
            g = gcd(di, modulus)
            if ub[i] % g:
                return None
            # solve di * y = ub[i] mod modulus
            m2 = modulus // g
            inv = pow((di // g) % m2, -1, m2) if m2 > 1 else 0
            y[i] = ((ub[i] // g) * inv) % m2 if m2 > 1 else 0
        elif ub[i] % modulus:
            return None
    x = [sum(v[i][k] * y[k] for k in range(cols)) % modulus for i in range(cols)]
    return x
