"""Modular solving: solve_mod against the Smith form that keeps its U; the
rows Echelon.add_row skips."""

import random
from math import gcd

from gradalg import linalg
from gradalg.cocycles import coboundary_solve, enumerate_cocycle_classes
from gradalg.groups import FiniteGroup
from gradalg.scalars import CyclotomicScalar as C

from conftest import random_coboundary


def _state(ech):
    rows = [[(c, c.conductor) for c in row] for row in ech.rows]
    return rows, list(ech.pivots)


def test_add_row_skips_exact_copies_only():
    """A row equal, value and conductor, to one given before returns False
    at once and leaves the echelon as reducing it would; the same value at
    another conductor is reduced and returns False too.  zeta_6 has the
    numerators of zeta_3, so a key without conductors would skip it."""
    z3, z6, one, zero = C.zeta(3), C.zeta(6), linalg.ONE, linalg.ZERO
    assert z3.num == z6.num and z3 != z6
    ech = linalg.Echelon(3)
    assert ech.add_row([z3, one, zero])
    state = _state(ech)
    assert not ech.add_row([z3, one, zero])
    assert not ech.add_row([z3.rebase(6), one, C.zero(3)])
    assert _state(ech) == state
    assert ech.add_row([z6, one, zero])
    assert ech.rank == 2


def _smith_with_u(mat):
    """(D, U, V) with U*mat*V = D diagonal, all over the integers: the same
    pivots and operations as solve_mod, with U built as a square matrix."""
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
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None
                                or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
                dirty = dirty or a[t][j] != 0
        if dirty or any(a[i][t] for i in range(t + 1, rows)) \
                or any(a[t][j] for j in range(t + 1, cols)):
            continue
        t += 1
    return a, u, v


def _solve_with_u(mat, rhs, modulus):
    """The slow route: U * rhs as a matrix product, then the diagonal."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    d, u, v = _smith_with_u(mat)
    ub = [sum(u[i][k] * rhs[k] for k in range(rows)) % modulus
          for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di:
            g = gcd(di, modulus)
            if ub[i] % g:
                return None
            m2 = modulus // g
            inv = pow((di // g) % m2, -1, m2) if m2 > 1 else 0
            y[i] = ((ub[i] // g) * inv) % m2 if m2 > 1 else 0
        elif ub[i]:
            return None
    return [sum(v[i][k] * y[k] for k in range(cols)) % modulus
            for i in range(cols)]


def _check(mat, rhs, modulus):
    x = linalg.solve_mod(mat, rhs, modulus)
    assert x == _solve_with_u(mat, rhs, modulus), (mat, rhs, modulus)
    if x is not None:
        assert all(sum(c * xi for c, xi in zip(row, x)) % modulus
                   == b % modulus for row, b in zip(mat, rhs))
    return x


def test_solve_mod_matches_u_route_on_random_systems():
    """2,400 seeded systems: entries in [-4, 4], tall, square and wide
    shapes, rhs zero, consistent by construction, or arbitrary."""
    rng = random.Random(20250809)
    kinds = {"none": 0, "solved": 0, "zero": 0, "wide": 0}
    for n in range(2400):
        rows, cols = rng.randint(1, 9), rng.randint(1, 6)
        modulus = rng.randint(1, 72)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        mode = n % 3
        if mode == 0:
            rhs = [0] * rows
        elif mode == 1:
            x0 = [rng.randrange(modulus) for _ in range(cols)]
            rhs = [sum(c * x for c, x in zip(row, x0)) + modulus
                   * rng.randint(-3, 3) for row in mat]
        else:
            rhs = [rng.randint(-100, 100) for _ in range(rows)]
        x = _check(mat, rhs, modulus)
        kinds["none" if x is None else "solved"] += 1
        kinds["zero"] += mode == 0
        kinds["wide"] += rows < cols
    assert min(kinds.values()) > 200, kinds
    assert linalg.solve_mod([], [], 6) == _solve_with_u([], [], 6) == []


def test_solve_mod_matches_u_route_on_coboundary_systems(monkeypatch):
    """Every system coboundary_solve builds for the classes on Z2xZ2, Z4,
    Z6, Z2xZ4 and Z3xZ3, restricted to each isotropic subgroup and twisted
    by random coboundaries, solves as through U."""
    systems = []
    original = linalg.solve_mod

    def recorded(mat, rhs, modulus):
        systems.append(([list(r) for r in mat], list(rhs), modulus))
        return original(mat, rhs, modulus)

    monkeypatch.setattr(linalg, "solve_mod", recorded)
    rng = random.Random(17)
    for factors in ([2, 2], [4], [6], [2, 4], [3, 3]):
        group = FiniteGroup.product([FiniteGroup.cyclic(n) for n in factors])
        for cls in enumerate_cocycle_classes(group.full_subgroup()):
            beta = cls.bicharacter()
            for sub in group.all_subgroups():
                if not all(beta.values[(x, y)].is_one()
                           for x in sub for y in sub):
                    continue
                for _ in range(2):
                    coboundary_solve(cls.restrict(sub).twist_by_coboundary(
                        random_coboundary(sub, rng)))
    # isotropic subgroups over all classes: Z2xZ2 5 + 4, Z4 3, Z6 4,
    # Z2xZ4 8 + 7, Z3xZ3 6 + 5 + 5
    monkeypatch.undo()
    assert len(systems) == 2 * (9 + 3 + 4 + 15 + 16)
    for mat, rhs, modulus in systems:
        assert _check(mat, rhs, modulus) is not None
