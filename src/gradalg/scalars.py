"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is a coordinate vector over the power basis 1, z, ..., z^(phi(m)-1)
of Q(zeta_m), with exact rational entries, always reduced modulo the m-th
cyclotomic polynomial.  Scalars with different conductors compare and combine
by rebasing both to the lcm conductor.

Conductor 1 is the field Q(zeta_1) = Q itself: phi(1) = 1 and the power basis
is the single element 1, so a scalar there is one rational.  When both
operands have conductor 1, products, sums, negatives and inverses are the
rational operations on that one Fraction, with no convolution or reduction
(modulo Phi_1 = x - 1 a constant is already reduced).  The only roots of unity
in Q are 1 and -1, so at conductor 1 as_root_of_unity answers (2, 0), (2, 1)
or None, exactly what the scan over the powers of zeta_2 gives.

Results computed here are built by _exact from a tuple that is already a
reduced vector of Fractions of length phi(conductor); only the public
constructor coerces its entries and checks the length.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ConductorNotMultiple, DivisionByZero, NotRootOfUnity

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """x^k mod Phi_m for k = 0 .. 2*(phi-1), rows of integer coefficients."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    rows = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        rows.append(tuple(row))
    for k in range(phi, 2 * phi - 1):
        prev = rows[-1]
        shifted = [0] + list(prev)
        lead = shifted[phi]
        row = [shifted[i] - lead * poly[i] for i in range(phi)]
        rows.append(tuple(row))
    return tuple(rows)


def _reduce(m: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(m)
    if len(coeffs) > 2 * phi - 1:
        # long division by the monic cyclotomic polynomial
        poly = cyclotomic_polynomial(m)
        coeffs = list(coeffs)
        for k in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(phi + 1):
                    coeffs[k - phi + i] -= c * poly[i]
        coeffs = coeffs[:phi] + [_ZERO] * (phi - len(coeffs))
        return tuple(coeffs)
    table = _power_table(m)
    out = [_ZERO] * phi
    for k, c in enumerate(coeffs):
        if not c:
            continue
        row = table[k]
        for i in range(phi):
            if row[i]:
                out[i] += c * row[i]
    return tuple(out)


class CyclotomicScalar:
    """An exact element of Q(zeta_m)."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector length must be phi(conductor)")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("CyclotomicScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> CyclotomicScalar:
        return _exact(conductor, (Fraction(value),)
                      + (_ZERO,) * (euler_phi(conductor) - 1))

    @classmethod
    def zero(cls, conductor: int = 1) -> CyclotomicScalar:
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> CyclotomicScalar:
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> CyclotomicScalar:
        """zeta_m^k, stored at conductor m."""
        k %= m
        if m == 1:
            return cls.one(1)
        coeffs = [_ZERO] * m
        coeffs[k] = _ONE
        return _exact(m, _reduce(m, coeffs))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def rebase(self, conductor: int) -> CyclotomicScalar:
        """The same field element expressed at a larger conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorNotMultiple(
                f"{self.conductor} does not divide {conductor}")
        step = conductor // self.conductor
        coeffs = [_ZERO] * (step * (len(self.coeffs) - 1) + 1)
        for k, c in enumerate(self.coeffs):
            coeffs[k * step] = c
        return _exact(conductor, _reduce(conductor, coeffs))

    def _common(self, other: CyclotomicScalar):
        if self.conductor == other.conductor:
            return self, other
        m = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.rebase(m), other.rebase(m)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CyclotomicScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return _exact(1, (self.coeffs[0] + other.coeffs[0],))
        a, b = self._common(other)
        return _exact(a.conductor,
                      tuple([x + y for x, y in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return _exact(self.conductor, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not CyclotomicScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return _exact(1, (self.coeffs[0] * other.coeffs[0],))
        a, b = self._common(other)
        n = len(a.coeffs)
        conv = [_ZERO] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        return _exact(a.conductor, _reduce(a.conductor, conv))

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicScalar:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.conductor
        if m == 1:
            return _exact(1, (1 / self.coeffs[0],))
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(m)]
        # extended Euclid in Q[x]: s*a + t*Phi = gcd, gcd constant
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(_poly_trim(r0)) != 1:
            raise DivisionByZero("element is not invertible")
        c = r0[0]
        inv = [x / c for x in s0]
        inv += [_ZERO] * (euler_phi(m) - len(inv))
        return _exact(m, _reduce(m, inv))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicScalar.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if other.__class__ is not CyclotomicScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-conductor equality makes hashing unsafe

    def __repr__(self):
        return f"CyclotomicScalar({self.conductor}, {[str(c) for c in self.coeffs]})"

    # -- roots of unity ------------------------------------------------------

    def as_root_of_unity(self) -> tuple[int, int] | None:
        """Return (M, k) with self == zeta_M^k, or None.

        Every root of unity in Q(zeta_m) is a power of zeta_M for
        M = lcm(2, m), so scanning those powers is a complete test.  At
        m = 1 the powers of zeta_2 are 1 and -1, compared directly.
        """
        m = self.conductor
        if m == 1:
            c = self.coeffs[0]
            return (2, 0) if c == 1 else (2, 1) if c == -1 else None
        M = m if m % 2 == 0 else 2 * m
        a = self.rebase(M)
        for k, coeffs in enumerate(_unity_power_coeffs(M)):
            if a.coeffs == coeffs:
                return M, k
        return None

    def is_root_of_unity(self) -> bool:
        return self.as_root_of_unity() is not None

    def root_order(self) -> int:
        data = self.as_root_of_unity()
        if data is None:
            raise NotRootOfUnity(f"{self!r} is not a root of unity")
        M, k = data
        return M // gcd(M, k) if k else 1

    def sqrt_root_of_unity(self) -> CyclotomicScalar:
        """Canonical square root zeta_2M^k of a root of unity zeta_M^k."""
        data = self.as_root_of_unity()
        if data is None:
            raise NotRootOfUnity(f"{self!r} is not a root of unity")
        M, k = data
        return CyclotomicScalar.zeta(2 * M, k)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"conductor": self.conductor,
                "coeffs": [[str(c.numerator), str(c.denominator)]
                           for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> CyclotomicScalar:
        coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
        return cls(int(data["conductor"]), coeffs)


_new_scalar = object.__new__
_set_conductor = CyclotomicScalar.conductor.__set__
_set_coeffs = CyclotomicScalar.coeffs.__set__


def _exact(conductor: int, coeffs: tuple) -> CyclotomicScalar:
    """A scalar from a reduced tuple of Fractions of length phi(conductor),
    taken as it is: the coercion and length check of __init__ are for
    outside input."""
    x = _new_scalar(CyclotomicScalar)
    _set_conductor(x, conductor)
    _set_coeffs(x, coeffs)
    return x


@lru_cache(maxsize=None)
def _unity_power_coeffs(M: int) -> tuple[tuple[Fraction, ...], ...]:
    z = CyclotomicScalar.zeta(M)
    acc = CyclotomicScalar.one(M)
    rows = [acc.coeffs]
    for _ in range(M - 1):
        acc = acc * z
        rows.append(acc.coeffs)
    return tuple(rows)


def _coerce(value):
    if isinstance(value, CyclotomicScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicScalar.from_rational(value)
    return NotImplemented


# -- rational polynomial helpers (for field inversion) -------------------------

def _poly_trim(p):
    i = len(p)
    while i > 0 and not p[i - 1]:
        i -= 1
    return p[:i]


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    q = [_ZERO] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / lead
        if c:
            q[k] = c
            for i, d in enumerate(b):
                a[k + i] -= c * d
    return q, _poly_trim(a)


ZERO = CyclotomicScalar.zero()
ONE = CyclotomicScalar.one()
MINUS_ONE = CyclotomicScalar.from_rational(-1)
