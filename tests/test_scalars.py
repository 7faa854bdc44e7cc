from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperobs.scalars import (
    FLOATS,
    PRIME,
    PRIME_FIELD,
    RATIONALS,
    DualDomain,
    derive_seed,
    random_point,
)

residues = st.integers(min_value=0, max_value=PRIME - 1)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # independent route to the inverse for cross-checking inv_int
    if b == 0:
        return a, 1, 0
    g, s, t = _egcd(b, a % b)
    return g, t, s - (a // b) * t


def test_prime_constant():
    assert PRIME == 2**61 - 1
    # 2**61 - 1 is a Mersenne prime; spot check a couple of non-divisors
    for q in (3, 5, 7, 11, 13, 31, 61):
        assert PRIME % q != 0


def test_inverse_of_two():
    inv = PRIME_FIELD.inv_int(2)
    assert inv == (PRIME + 1) // 2
    g, s, _ = _egcd(2, PRIME)
    assert g == 1
    assert inv == s % PRIME


def test_field_inverse_matches_extended_euclid():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1, PRIME)
        g, s, _ = _egcd(a, PRIME)
        assert g == 1
        assert PRIME_FIELD.inv_int(a) == s % PRIME
        assert PRIME_FIELD.mul(PRIME_FIELD.inv_int(a), a) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PRIME_FIELD.inv_int(0)
    with pytest.raises(ZeroDivisionError):
        PRIME_FIELD.inv_int(PRIME)


def test_field_axioms_random_triples():
    F = PRIME_FIELD
    rng = random.Random(13)
    for _ in range(1000):
        a = rng.randrange(PRIME)
        b = rng.randrange(PRIME)
        c = rng.randrange(PRIME)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)


@given(residues, residues)
def test_field_sub_is_add_of_negation(x, y):
    F = PRIME_FIELD
    assert F.sub(x, y) == F.add(x, F.neg(y))


@given(residues)
def test_field_units(x):
    F = PRIME_FIELD
    assert F.add(x, F.zero()) == x
    assert F.mul(x, F.one()) == x
    assert F.mul(x, F.zero()) == 0
    if x != 0:
        assert F.mul(x, F.inv_int(x)) == 1


def test_int_coercion_reduces():
    F = PRIME_FIELD
    assert F.add(1, PRIME) == 1
    assert F.mul(2, PRIME + 3) == 6
    assert F.sub(5, 2) == 3
    assert F.from_int(-1) == PRIME - 1
    assert F.from_int(PRIME + 4) == 4


def test_factorial_inverse_values():
    # 1/(k-1)!, the coefficient of the adjacency unfolding, in both exact
    # domains
    for k in range(1, 8):
        f = factorial(k - 1)
        assert RATIONALS.inv_int(f) == Fraction(1, f)
        assert PRIME_FIELD.mul(PRIME_FIELD.inv_int(f), f) == 1


def test_rational_field_homomorphism():
    # Fraction a/b maps to a * b^-1; ring operations must commute with it
    rng = random.Random(23)

    def phi(q: Fraction) -> int:
        return (q.numerator * pow(q.denominator, -1, PRIME)) % PRIME

    for _ in range(200):
        a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        b = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        assert phi(a + b) == (phi(a) + phi(b)) % PRIME
        assert phi(a * b) == (phi(a) * phi(b)) % PRIME
        assert phi(a - b) == (phi(a) - phi(b)) % PRIME


def _poly_eval(dom, coeffs, x):
    # coeffs[i] multiplies x**i
    acc = dom.zero()
    for c in reversed(coeffs):
        acc = dom.add(dom.mul(acc, x), dom.from_int(c))
    return acc


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.integers(-9, 9),
)
def test_dual_differentiates_polynomials(coeffs, x0):
    dual = DualDomain(RATIONALS)
    val = _poly_eval(dual, coeffs, dual.variable(Fraction(x0), Fraction(1)))
    assert val[0] == _poly_eval(RATIONALS, coeffs, Fraction(x0))
    assert val[1] == _poly_eval(RATIONALS, _poly_derivative(coeffs), Fraction(x0))


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.integers(-9, 9),
)
def test_dual_product_rule(p, q, x0):
    dual = DualDomain(RATIONALS)
    x = dual.variable(Fraction(x0), Fraction(1))
    prod = dual.mul(_poly_eval(dual, p, x), _poly_eval(dual, q, x))
    x0 = Fraction(x0)
    pv, dv = _poly_eval(RATIONALS, p, x0), _poly_eval(RATIONALS, _poly_derivative(p), x0)
    qv, dq = _poly_eval(RATIONALS, q, x0), _poly_eval(RATIONALS, _poly_derivative(q), x0)
    assert prod[0] == pv * qv
    assert prod[1] == pv * dq + dv * qv


def test_dual_over_field_elements():
    dual = DualDomain(PRIME_FIELD)
    a = dual.variable(3, 1)
    b = dual.mul(dual.mul(a, a), a)  # x**3 at x=3: value 27, derivative 27
    assert b == (27, 27)
    # (a0 + a1 eps)(b0 + b1 eps) = a0 b0 + (a0 b1 + a1 b0) eps, written out,
    # with both parts reduced mod P
    rng = random.Random(5)
    for _ in range(100):
        a = (rng.randrange(PRIME), rng.randrange(PRIME))
        b = (rng.randrange(PRIME), rng.randrange(PRIME))
        assert dual.mul(a, b) == (
            a[0] * b[0] % PRIME,
            (a[0] * b[1] + a[1] * b[0]) % PRIME,
        )
        assert dual.add(a, b) == ((a[0] + b[0]) % PRIME, (a[1] + b[1]) % PRIME)


def test_domains_share_one_protocol():
    for dom in (PRIME_FIELD, RATIONALS, FLOATS, DualDomain(RATIONALS)):
        z, o = dom.zero(), dom.one()
        assert dom.is_zero(z)
        assert not dom.is_zero(o)
        assert dom.add(o, dom.neg(o)) == z
        assert dom.mul(dom.from_int(6), dom.inv_int(6)) == o
        assert dom.sub(dom.from_int(5), dom.from_int(2)) == dom.from_int(3)


def test_random_field_vector_deterministic():
    a = random_point(8, 42)
    assert a == random_point(8, 42)
    assert a != random_point(8, 43)
    # nonzero residues only, so no monomial vanishes for a trivial reason
    assert all(1 <= v < PRIME for v in a)
    assert random_point(0, 1) == []


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(0, "x") == derive_seed(0, "x")
    assert derive_seed(0, "x") != derive_seed(0, "y")
    assert derive_seed(0, "x") != derive_seed(1, "x")
    # frozen value guards against accidental algorithm drift
    assert derive_seed(0, "rank-point-0") == 15152959838619848816
