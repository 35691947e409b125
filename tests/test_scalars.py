"""Cyclotomic scalar arithmetic, rebasing and root-of-unity handling."""

import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from gradalg.errors import (ConductorTooLarge, DivisionByZero, NotRootOfUnity,
                            Unsupported)
from gradalg.scalars import CyclotomicScalar as C
from gradalg.scalars import (_power_table, cyclotomic_polynomial, euler_phi,
                             mul_scaled, sub_mul)


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_i_squared_is_minus_one():
    i = C.zeta(4)
    assert i * i == C.from_rational(-1)


def test_additive_identity():
    x = C.zeta(12, 5) + C.from_rational(Fraction(2, 3))
    assert x + C.zero() == x


def test_third_root_product():
    # expand (1+z)(1+z^2) = 1 + z + z^2 + z^3 with z^3 = 1 and 1 + z + z^2 = 0,
    # so the product reduces to 1 + (z^3) + (z + z^2) = 1 + 1 - 1 = 1
    z = C.zeta(3)
    lhs = (C.one() + z) * (C.one() + z * z)
    manual = C.one() + z + z * z + z * z * z
    assert lhs == manual
    assert lhs.is_one()


def test_rebase_minus_one():
    m1 = C.from_rational(-1, 2)
    assert m1.rebase(4) == C.zeta(4) * C.zeta(4)


def test_rebase_identity():
    a = C.zeta(6) + C.one()
    assert a.rebase(6) is a


def test_rebase_third_root():
    lifted = C.zeta(3).rebase(6)
    candidate = C.zeta(6) * C.zeta(6)
    # a primitive cube root: cube is 1, the element itself is not
    assert (candidate * candidate * candidate).is_one()
    assert not candidate.is_one()
    assert lifted == candidate


def test_rebase_requires_divisibility():
    with pytest.raises(Unsupported, match="4 does not divide 6"):
        C.zeta(4).rebase(6)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        C.one() / C.zero()
    with pytest.raises(DivisionByZero):
        C.zero().inverse()


def test_sqrt_examples():
    assert C.one().sqrt_root_of_unity().is_one()
    assert C.from_rational(-1).sqrt_root_of_unity() == C.zeta(4)
    s = C.zeta(3).sqrt_root_of_unity()
    assert s * s == C.zeta(3)


def test_sqrt_rejects_non_roots():
    with pytest.raises(NotRootOfUnity):
        C.from_rational(2).sqrt_root_of_unity()
    with pytest.raises(NotRootOfUnity):
        (C.one() + C.zeta(5)).sqrt_root_of_unity()


def test_root_detection_at_odd_conductor():
    # -z3 lives at conductor 3 but is a primitive sixth root
    neg = C.from_rational(-1) * C.zeta(3)
    assert neg.conductor == 3
    assert neg.as_root_of_unity() == (6, 5)


scalars = st.builds(
    lambda m, k, num, den: C.zeta(m, k) + C.from_rational(Fraction(num, den)),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(0, 11),
       st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(0, 11))
def test_roots_closed_under_mul_inverse_sqrt(m1, k1, m2, k2):
    a = C.zeta(m1, k1)
    b = C.zeta(m2, k2)
    prod = a * b
    assert prod.is_root_of_unity()
    assert prod.inverse().is_root_of_unity()
    rt = prod.sqrt_root_of_unity()
    assert rt * rt == prod
    # order divides the conductor of the representation
    M, k = rt.as_root_of_unity()
    assert rt.conductor % (M // gcd(M, k)) == 0


def test_rebase_is_field_homomorphism():
    import random
    rng = random.Random(7)
    conductors = [1, 2, 3, 4, 6, 12]
    for _ in range(1000):
        m = rng.choice(conductors)
        target = rng.choice([c for c in [12, 24, 36] if c % m == 0])
        a = C.zeta(m, rng.randrange(m)) + C.from_rational(rng.randrange(-3, 4))
        b = C.zeta(m, rng.randrange(m)) + C.from_rational(rng.randrange(-3, 4))
        assert (a + b).rebase(target) == a.rebase(target) + b.rebase(target)
        assert (a * b).rebase(target) == a.rebase(target) * b.rebase(target)
        # injectivity: equal images force equal elements
        if a.rebase(target) == b.rebase(target):
            assert a == b


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda m: st.builds(
    C, st.just(m), st.lists(st.builds(Fraction, st.integers(-10**20, 10**20),
                                      st.integers(1, 10**6)),
                            min_size=euler_phi(m), max_size=euler_phi(m)))))
@example(C.zeta(12, 7) + C.from_rational(Fraction(-3, 7)))
def test_serialization_round_trip(a):
    """from_json(to_json(a)) is a, conductor included, and writing it
    again gives the same bytes; every coordinate is written as strings."""
    data = a.to_json()
    assert data["conductor"] == a.conductor
    assert all(isinstance(p, str) for pair in data["coeffs"] for p in pair)
    back = C.from_json(data)
    assert back == a and back.conductor == a.conductor
    assert json.dumps(back.to_json()) == json.dumps(data)


# -- the reference route: long division and extended Euclid over Fractions ----

def _reduce(m, coeffs):
    """sum_k coeffs[k] z^k reduced modulo Phi_m by long division, as a tuple
    of length phi(m)."""
    phi = euler_phi(m)
    coeffs = list(coeffs)
    if len(coeffs) > phi:
        poly = cyclotomic_polynomial(m)
        for k in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(phi + 1):
                    coeffs[k - phi + i] -= c * poly[i]
    return tuple(coeffs[:phi] + [0] * (phi - len(coeffs)))


def _poly_trim(p):
    i = len(p)
    while i > 0 and not p[i - 1]:
        i -= 1
    return p[:i]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / lead
        if c:
            q[k] = c
            for i, d in enumerate(b):
                a[k + i] -= c * d
    return q, _poly_trim(a)


# -- the conductor-1 fast path against the general route -----------------------

def _general(m, a, b=None, op="mul"):
    """The route every conductor takes: rebase to the lcm conductor m, then
    add coefficient-wise, or convolve and reduce modulo Phi_m, or invert by
    extended Euclid against Phi_m.  Returns (conductor, coeffs)."""
    x = _reduce(m, _spread(a, m))
    if op == "neg":
        return m, tuple(-c for c in x)
    if op == "inverse":
        return m, _general_inverse(m, x)
    y = _reduce(m, _spread(b, m))
    if op == "add":
        return m, tuple(p + q for p, q in zip(x, y))
    if op == "div":
        y = _general_inverse(m, y)
    conv = [Fraction(0)] * (2 * len(x) - 1)
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            conv[i + j] += p * q
    return m, _reduce(m, conv)


def _spread(a, m):
    """a's power-basis vector at conductor m, before reduction."""
    step = m // a.conductor
    out = [Fraction(0)] * (step * (len(a.coeffs) - 1) + 1)
    for k, c in enumerate(a.coeffs):
        out[k * step] = c
    return out


def _general_inverse(m, coeffs):
    r0 = [Fraction(c) for c in cyclotomic_polynomial(m)]
    r1 = list(coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    inv = [x / r0[0] for x in s0]
    inv += [Fraction(0)] * (euler_phi(m) - len(inv))
    return _reduce(m, inv)


_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)))


@st.composite
def _scalar_at(draw, m, rationals=_rationals):
    return C(m, [draw(rationals) for _ in range(euler_phi(m))])


@st.composite
def _step_entry(draw, m):
    """A scalar at conductor m: a zero, a root of unity, an integral
    element (denominator 1) or one with rational coordinates."""
    kind = draw(st.sampled_from(["zero", "root", "integral", "rational"]))
    if kind == "zero":
        return C.zero(m)
    if kind == "root":
        return C.zeta(m, draw(st.integers(0, m - 1)))
    if kind == "integral":
        return C(m, [draw(st.integers(-5, 5)) for _ in range(euler_phi(m))])
    return draw(_scalar_at(m))


def _exact_form(x, m):
    assert x.conductor == m
    assert type(x.coeffs) is tuple and len(x.coeffs) == euler_phi(m)
    assert all(type(c) is Fraction for c in x.coeffs)
    return x.conductor, x.coeffs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1, 1), (1, 4), (4, 1), (1, 3), (3, 1), (1, 12),
                        (12, 1), (4, 4), (12, 12), (3, 4), (4, 6), (2, 2),
                        (3, 3), (5, 5), (8, 8), (2, 8)]).flatmap(
           lambda mm: st.tuples(st.just(lcm(mm[0], mm[1])),
                                _scalar_at(mm[0]) | _step_entry(mm[0]),
                                _scalar_at(mm[1]) | _step_entry(mm[1]))))
def test_fast_path_matches_general_route(case):
    """Every operator against the rational reference route, on arbitrary
    rational operands and on zeros, roots of unity and integral elements,
    at equal conductors (where operands over 1 take the fast path) and at
    unequal ones; a == b holds exactly when the reference a - b is zero."""
    m, a, b = case
    assert _exact_form(a * b, m) == _general(m, a, b, "mul")
    assert _exact_form(a + b, m) == _general(m, a, b, "add")
    assert _exact_form(a - b, m) == _general(m, a, -b, "add")
    # a + a has a's numerators over half its denominator when that is even
    for x, y in ((a, b), (b, a), (a, C(a.conductor, a.coeffs)),
                 (a.rebase(m), a), (a, a + a)):
        assert (x == y) == (not any(_general(m, x, -y, "add")[1]))
    assert _exact_form(-a, a.conductor) == _general(a.conductor, a, op="neg")
    if not b.is_zero():
        assert _exact_form(a / b, m) == _general(m, a, b, "div")
        assert _exact_form(b.inverse(), b.conductor) == \
            _general(b.conductor, b, op="inverse")


@settings(max_examples=100, deadline=None)
@given(_rationals)
def test_conductor1_roots_match_scan(c):
    x = C.from_rational(c)
    scan = next(((2, k) for k, row in enumerate(_power_table(2))
                 if row == x.rebase(2).coeffs), None)
    assert x.as_root_of_unity() == scan


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(4, 4), (12, 12), (1, 12), (4, 12)]).flatmap(
    lambda mm: st.tuples(_scalar_at(mm[0]), _scalar_at(mm[1]))))
def test_products_match_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    x = sympy.Symbol("x")
    prod = a * b
    m = prod.conductor
    ring = sympy.QQ

    def poly(s):
        step = m // s.conductor
        return sympy.Poly({(k * step,): c for k, c in enumerate(s.coeffs)},
                          x, domain=ring)

    phi = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain=ring)
    expected = (poly(a) * poly(b)).rem(phi)
    got = sympy.Poly({(k,): c for k, c in enumerate(prod.coeffs)}, x,
                     domain=ring)
    assert got == expected


# -- integer numerators over one denominator ------------------------------------

def _canonical(x):
    """x is in canonical form: int numerators, one per power-basis
    coordinate, over a positive int denominator sharing no factor with all
    of them; zero is all-zero numerators over 1."""
    assert type(x.num) is tuple and len(x.num) == euler_phi(x.conductor)
    assert all(type(n) is int for n in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1
    return x


_conductors = st.sampled_from([1, 2, 3, 4, 6, 12])


@settings(max_examples=100, deadline=None)
@given(_conductors.flatmap(_scalar_at), _conductors.flatmap(_scalar_at),
       st.sampled_from([1, 2, 3]))
def test_canonical_form_after_every_operation(a, b, k):
    for x in (a, b, a + b, a - b, a * b, -a, a - a, a * b - b * a, a * a,
              a.rebase(a.conductor * k), (a + b).rebase(12 * k),
              C.from_json(a.to_json()), C(a.conductor, a.coeffs)):
        _canonical(x)
    if not b.is_zero():
        _canonical(a / b)
        _canonical(b.inverse())
    assert _canonical(C(4, [0, 0])).den == 1
    assert _canonical(C.from_rational(Fraction(0, 5), 6)).den == 1


@settings(max_examples=100, deadline=None)
@given(_conductors.flatmap(_scalar_at))
def test_to_json_matches_fraction_rendering(a):
    assert a.to_json() == {
        "conductor": a.conductor,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in a.coeffs]}


def test_numerators_share_one_denominator():
    x = C(4, [Fraction(1, 6), Fraction(-3, 4)])
    assert (x.num, x.den) == ((2, -9), 12)
    assert x.coeffs == (Fraction(1, 6), Fraction(-3, 4))
    assert (C.zeta(12, 5).num, C.zeta(12, 5).den) == ((0, -1, 0, 1), 1)


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/3", "2", None])
def test_constructor_rejects_inexact_input(bad):
    with pytest.raises(TypeError):
        C(1, [bad])
    with pytest.raises(TypeError):
        C(4, [bad, 2])
    with pytest.raises(TypeError):
        C(4, [Fraction(1, 3), bad])
    with pytest.raises(TypeError):
        C.from_rational(bad)


# -- the inverse through the field norm against extended Euclid ----------------

_small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9, 10, 12, 15, 16, 20, 24]).flatmap(
    lambda m: _scalar_at(m, _small)))
def test_norm_inverse_matches_euclid(x):
    if x.is_zero():
        return
    inv = x.inverse()
    m = x.conductor
    assert _exact_form(_canonical(inv), m) == _general(m, x, op="inverse")
    assert (x * inv).is_one()


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 10, 12, 15, 16, 20, 24])
def test_norm_inverse_of_roots_and_rationals(m):
    for k in range(m):
        z = C.zeta(m, k)
        assert z.inverse() == C.zeta(m, -k)
    q = C.from_rational(Fraction(-3, 7), m)
    assert q.inverse() == C.from_rational(Fraction(-7, 3), m)


@pytest.mark.parametrize("op", [
    lambda x: x + 1, lambda x: 1 + x, lambda x: x - 1, lambda x: 1 - x,
    lambda x: 2 * x, lambda x: x * 2, lambda x: x / 2, lambda x: 2 / x,
    lambda x: x + Fraction(1, 2), lambda x: x * 2.0, lambda x: x ** 2])
def test_operands_are_scalars_only(op):
    with pytest.raises(TypeError):
        op(C.zeta(4))


def test_scalar_never_equals_a_number():
    # == with a number is not coerced: a rational enters by from_rational
    assert (C.one() == 1) is False
    assert C.one() == C.from_rational(1)


def test_power_tables_are_bounded_and_rebuilt_equal():
    """A process that meets many conductors keeps at most 32 power tables
    and 32 cyclotomic polynomials; values at a conductor whose table was
    evicted compute as before."""
    before = {}
    for p in (3, 5, 7):
        a = C.zeta(p, 1) + C.from_rational(Fraction(2, 3), p)
        b = C.zeta(p, p - 1) - C.from_rational(5, p)
        before[p] = (a, b, a * b, a / b, a.inverse())
    primes = [p for p in range(3, 257, 2)
              if all(p % q for q in range(3, int(p ** 0.5) + 1, 2))]
    assert len(primes) == 53
    for p in primes:
        C.zeta(p, 1) * C.zeta(p, 2)
    for cached in (_power_table, cyclotomic_polynomial):
        assert cached.cache_info().currsize <= 32
    misses = _power_table.cache_info().misses
    for p, (a, b, prod, quot, inv) in before.items():
        assert (a * b, a / b, a.inverse()) == (prod, quot, inv)
    # each of 3, 5 and 7 had its table evicted and built once more
    assert _power_table.cache_info().misses == misses + 3


# -- the fused elimination step ---------------------------------------------------

_step_conductors = st.sampled_from([1, 2, 3, 4, 5, 8, 12])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fused_step_matches_operators(data):
    """sub_mul(x, c, y) is the scalar `x - c * y` builds, value and
    conductor, whether x, c and y share a conductor or not; mul_scaled(x, s)
    is `x * s`."""
    if data.draw(st.booleans()):
        conductors = [data.draw(_step_conductors)] * 3
    else:
        conductors = [data.draw(_step_conductors) for _ in range(3)]
    x, c, y = (data.draw(_step_entry(m)) for m in conductors)
    fused, expected = sub_mul(x, c, y), x - c * y
    assert fused == expected
    assert fused.conductor == expected.conductor
    assert (_canonical(fused).num, fused.den) == (expected.num, expected.den)
    scaled, expected = mul_scaled(x, c), x * c
    assert scaled == expected
    assert scaled.conductor == expected.conductor
    assert (_canonical(scaled).num, scaled.den) == \
        (expected.num, expected.den)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12, 256, 500, 509, 512]),
       st.sampled_from([1, 3, 4, 5, 8, 12, 256, 500, 509, 512]),
       _rationals.filter(bool))
def test_zero_scaling_matches_operator(mz, ms, r):
    """A zero scaled by the pivot's inverse is zero at the lcm conductor,
    and it raises ConductorTooLarge exactly when `zero * inv` does."""
    zero, inv = C.zero(mz), C.from_rational(r, ms).inverse()
    try:
        expected = zero * inv
    except ConductorTooLarge:
        with pytest.raises(ConductorTooLarge):
            mul_scaled(zero, inv)
        return
    got = mul_scaled(zero, inv)
    assert got == expected
    assert got.conductor == expected.conductor
    assert (_canonical(got).num, got.den) == (expected.num, expected.den)
