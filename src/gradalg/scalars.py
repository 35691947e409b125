"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar of conductor m is a coordinate vector over the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m), always reduced modulo the m-th
cyclotomic polynomial Phi_m.  It is stored as `num`, a tuple of phi(m) int
numerators, over `den`, one positive int: coordinate i is num[i] / den (the
standard representation of number-field elements; Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 4.2).  Scalars with
different conductors compare and combine by rebasing both to the lcm
conductor; a result keeps that conductor unreduced.

Canonical form: den > 0 and gcd(den, num[0], ..., num[phi-1]) = 1, so zero
is all-zero numerators over 1.  Then den is the least common denominator of
the coordinates.  The coordinates of a field element in the power basis are
unique, and so is the least common denominator of a rational vector, so each
element has exactly one (num, den) at a given conductor: equality at a
common conductor is componentwise comparison of num and den, and it is
exact.

Everything between the input boundary and the output is int arithmetic.
Phi_m is monic with integer coefficients, so reducing an integer vector
modulo it, through the integer _power_table, keeps it integral.  A product
is therefore the integer convolution of the numerators, reduced, over the
product of the denominators, and a sum cross-multiplies; only a result whose
denominator is not 1 pays one gcd to return to canonical form.  Every root
of unity, and so every cocycle value, has integer coordinates and
denominator 1.  Rebasing adds a row of the power table per nonzero
numerator, and keeps the form canonical: Z[zeta_m] is a direct summand of
Z[zeta_M] as a Z-module (Z[zeta_M] is free over it on powers of zeta_M
starting at 1), so a prime that divides every coordinate at conductor M
divides every coordinate at conductor m.  An inverse is taken through the
field norm (see `inverse`), again with the power table alone.

Conductors 1 and 2 have phi = 1: the field is Q and a scalar is one rational
num[0] / den, so the same code does plain int arithmetic there, with a
convolution of length one and nothing to reduce.  The only roots of unity in
Q are 1 and -1, so at conductor 1 as_root_of_unity answers (2, 0), (2, 1) or
None, exactly what the scan over the powers of zeta_2 gives.

Operands are scalars only: +, -, *, / and == with anything else return
NotImplemented, so `x + 1` and `2 * x` raise TypeError; a rational enters
through from_rational.  Fraction appears only at the boundary: the public
constructor and from_rational, which take int (not bool) and Fraction
coordinates alone, since a float or a string would bring in a value that was
never exact; from_json; and `coeffs`, a read-only view of the coordinates as
Fractions for tests and display.  Results computed here are built by _exact
or _canon from numerators already reduced.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (ConductorNotMultiple, ConductorTooLarge, DivisionByZero,
                     NotRootOfUnity)
from .groups import MAX_CONDUCTOR


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be positive")
    result = m
    n, p = m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division by a monic integer polynomial with zero remainder
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        out[k - dd] = c
        if c:
            for i, d in enumerate(den):
                num[k - dd + i] -= c * d
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_m for k = 0 .. max(m, 2*phi - 1) - 1, rows of integer
    coefficients.  Rows phi and up fold a product back into the power
    basis; row k < m holds the numerators of zeta_m^k, each over 1 (a
    shift by x and a reduction by the monic Phi_m keep integers)."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    row = (1,) + (0,) * (phi - 1)
    rows = []
    for _ in range(max(m, 2 * phi - 1)):
        rows.append(row)
        shifted = (0,) + row
        lead = shifted[phi]
        row = tuple([shifted[i] - lead * poly[i] for i in range(phi)])
    return tuple(rows)



def common_conductor(m1: int, m2: int) -> int:
    """lcm(m1, m2), where scalars at m1 and m2 meet.  An lcm above both and
    above MAX_CONDUCTOR raises ConductorTooLarge; one conductor dividing the
    other, as a cocycle value's divides that of the splitting
    coboundary_solve derives from it, is never refused."""
    m = m1 * m2 // gcd(m1, m2)
    if m > MAX_CONDUCTOR and m > m1 and m > m2:
        raise ConductorTooLarge(f"conductor {m} exceeds {MAX_CONDUCTOR}")
    return m


def _mul_reduced(m: int, x: tuple, y: tuple) -> tuple:
    """The numerators of x * y at conductor m: the integer convolution,
    folded back through the power table (one int product when phi = 1)."""
    n = len(x)
    if n == 1:
        return (x[0] * y[0],)
    conv = [0] * (2 * n - 1)
    for i, p in enumerate(x):
        if p:
            for j, q in enumerate(y):
                if q:
                    conv[i + j] += p * q
    out = conv[:n]
    table = _power_table(m)
    for k in range(n, 2 * n - 1):
        c = conv[k]
        if c:
            row = table[k]
            for i in range(n):
                out[i] += c * row[i]
    return tuple(out)


class CyclotomicScalar:
    """An exact element of Q(zeta_m): int numerators `num` over one
    positive int `den`, in canonical form (see the module docstring)."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(_rational(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector length must be phi(conductor)")
        den = lcm(*(c.denominator for c in coeffs))
        num = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("CyclotomicScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions (a read-only view)."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.num])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> CyclotomicScalar:
        value = _rational(value)
        return _exact(conductor, (value.numerator,)
                      + (0,) * (euler_phi(conductor) - 1), value.denominator)

    @classmethod
    def zero(cls, conductor: int = 1) -> CyclotomicScalar:
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> CyclotomicScalar:
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> CyclotomicScalar:
        """zeta_m^k, stored at conductor m."""
        return _exact(m, _power_table(m)[k % m], 1)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        num = self.num
        return self.den == 1 and num[0] == 1 and not any(num[1:])

    def rebase(self, conductor: int) -> CyclotomicScalar:
        """The same field element expressed at a larger conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorNotMultiple(
                f"{self.conductor} does not divide {conductor}")
        # z_m^k = z_M^(k*step), and k*step <= (phi(m)-1)*step < M has a row
        step = conductor // self.conductor
        table = _power_table(conductor)
        out = [0] * len(table[0])
        for k, c in enumerate(self.num):
            if c:
                for i, r in enumerate(table[k * step]):
                    out[i] += c * r
        # canonical still: see the direct-summand argument in the docstring
        return _exact(conductor, tuple(out), self.den)

    def _common(self, other: CyclotomicScalar):
        if self.conductor == other.conductor:
            return self, other
        m = common_conductor(self.conductor, other.conductor)
        return self.rebase(m), other.rebase(m)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CyclotomicScalar:
            return NotImplemented
        a, b = self._common(other)
        da, db = a.den, b.den
        if da == db:
            return _canon(a.conductor, [p + q for p, q in zip(a.num, b.num)], da)
        return _canon(a.conductor,
                      [p * db + q * da for p, q in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _exact(self.conductor, tuple([-n for n in self.num]), self.den)

    def __sub__(self, other):
        if other.__class__ is not CyclotomicScalar:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not CyclotomicScalar:
            return NotImplemented
        a, b = self._common(other)
        m = a.conductor
        return _canon(m, _mul_reduced(m, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicScalar:
        """The inverse through the field norm.

        For x != 0 in Q(zeta_m) the norm N(x) = prod_{k in (Z/mZ)^*}
        sigma_k(x), with sigma_k the automorphism zeta_m -> zeta_m^k, is a
        nonzero rational (Washington, Introduction to Cyclotomic Fields,
        1997, ch. 2).  So with y = prod_{k != 1} sigma_k(num), num * y is
        the integer N(num), and (num / den)^-1 = den * y / N(num).  Each
        sigma_k(num) = sum_i num[i] zeta_m^(i*k mod m) is a sum of rows of
        the power table, so the whole inverse is int arithmetic.  For
        phi(m) > 1 the embeddings pair off with their complex conjugates
        (sigma_{-k} = conj . sigma_k), so N(num), a product of the
        |sigma_k(num)|^2, is positive and is the denominator as it stands.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m, num, den = self.conductor, self.num, self.den
        if len(num) == 1:
            n = num[0]
            return _exact(m, (den,), n) if n > 0 else _exact(m, (-den,), -n)
        table = _power_table(m)
        y = None
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = [0] * len(num)
                for i, c in enumerate(num):
                    if c:
                        for j, r in enumerate(table[i * k % m]):
                            conj[j] += c * r
                y = conj if y is None else _mul_reduced(m, y, conj)
        norm = _mul_reduced(m, num, y)
        n = norm[0]
        if n <= 0 or any(norm[1:]):
            raise DivisionByZero("element is not invertible")
        return _canon(m, [den * c for c in y], n)

    def __truediv__(self, other):
        if other.__class__ is not CyclotomicScalar:
            return NotImplemented
        a, b = self._common(other)
        return a * b.inverse()

    def __eq__(self, other):
        if other.__class__ is not CyclotomicScalar:
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # cross-conductor equality makes hashing unsafe

    def __repr__(self):
        return f"CyclotomicScalar({self.conductor}, {[str(c) for c in self.coeffs]})"

    # -- roots of unity ------------------------------------------------------

    def as_root_of_unity(self) -> tuple[int, int] | None:
        """Return (M, k) with self == zeta_M^k, or None.

        Every root of unity in Q(zeta_m) is a power of zeta_M for
        M = lcm(2, m), so scanning those powers is a complete test.  Each
        has integer coordinates, so a denominator other than 1 rules it out.
        At m = 1 the powers of zeta_2 are 1 and -1, compared directly.
        """
        if self.den != 1:
            return None
        m = self.conductor
        if m == 1:
            c = self.num[0]
            return (2, 0) if c == 1 else (2, 1) if c == -1 else None
        M = m if m % 2 == 0 else 2 * m
        num = self.rebase(M).num
        table = _power_table(M)
        for k in range(M):
            if num == table[k]:
                return M, k
        return None

    def is_root_of_unity(self) -> bool:
        return self.as_root_of_unity() is not None

    def sqrt_root_of_unity(self) -> CyclotomicScalar:
        """Canonical square root zeta_2M^k of a root of unity zeta_M^k."""
        data = self.as_root_of_unity()
        if data is None:
            raise NotRootOfUnity(f"{self!r} is not a root of unity")
        M, k = data
        return CyclotomicScalar.zeta(2 * M, k)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """Each coordinate as its reduced [numerator, denominator] pair of
        decimal strings; the conductor as stored, unreduced."""
        den = self.den
        coeffs = []
        for n in self.num:
            g = gcd(n, den)
            coeffs.append([str(n // g), str(den // g)])
        return {"conductor": self.conductor, "coeffs": coeffs}

    @classmethod
    def from_json(cls, data) -> CyclotomicScalar:
        """Read the to_json form: the conductor an int, each numerator and
        denominator a decimal-integer string.  Any other value raises
        ValueError instead of being coerced, since int() would read 1.5 as
        1 and true as 1, and the scalar read would not be the one written.
        A conductor above MAX_CONDUCTOR raises ConductorTooLarge."""
        conductor = data["conductor"]
        if type(conductor) is not int:
            raise ValueError(f"conductor must be an integer, not {conductor!r}")
        if conductor > MAX_CONDUCTOR:
            raise ConductorTooLarge(
                f"conductor {conductor} exceeds {MAX_CONDUCTOR}")
        coeffs = [Fraction(_decimal(num), _decimal(den))
                  for num, den in data["coeffs"]]
        return cls(conductor, coeffs)


_new_scalar = object.__new__
_set_conductor = CyclotomicScalar.conductor.__set__
_set_num = CyclotomicScalar.num.__set__
_set_den = CyclotomicScalar.den.__set__


def _exact(conductor: int, num: tuple, den: int) -> CyclotomicScalar:
    """A scalar from numerators and a denominator already in canonical form
    and reduced modulo Phi_conductor, taken as they are: the checks of
    __init__ are for outside input."""
    x = _new_scalar(CyclotomicScalar)
    _set_conductor(x, conductor)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _canon(conductor: int, num, den: int) -> CyclotomicScalar:
    """A scalar from reduced int numerators over a positive denominator,
    divided through by their common gcd (none is needed over 1)."""
    if den == 1:
        return _exact(conductor, tuple(num), 1)
    g = gcd(den, *num)
    if g != 1:
        return _exact(conductor, tuple([n // g for n in num]), den // g)
    return _exact(conductor, tuple(num), den)


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text) -> int:
    if not isinstance(text, str) or _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"expected a decimal-integer string, not {text!r}")
    return int(text)


def _rational(value):
    """value itself if it is an int (not a bool) or a Fraction; TypeError
    otherwise, since a float, bool or string was never an exact rational."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError("a scalar coordinate must be an int or a Fraction, "
                        f"not {type(value).__name__}")
    return value

