from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import numpy as np
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
    lanes_for,
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
    dual = DualDomain(RATIONALS, 1)
    val = _poly_eval(dual, coeffs, dual.variable(Fraction(x0), 0))
    assert val[0] == _poly_eval(RATIONALS, coeffs, Fraction(x0))
    assert val[1] == (
        _poly_eval(RATIONALS, _poly_derivative(coeffs), Fraction(x0)),
    )


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.integers(-9, 9),
)
def test_dual_product_rule(p, q, x0):
    # p(x) q(y) at (x0, x0): the gradient is (p' q, p q')
    dual = DualDomain(RATIONALS, 2)
    x = dual.variable(Fraction(x0), 0)
    y = dual.variable(Fraction(x0), 1)
    prod = dual.mul(_poly_eval(dual, p, x), _poly_eval(dual, q, y))
    x0 = Fraction(x0)
    pv, dv = _poly_eval(RATIONALS, p, x0), _poly_eval(RATIONALS, _poly_derivative(p), x0)
    qv, dq = _poly_eval(RATIONALS, q, x0), _poly_eval(RATIONALS, _poly_derivative(q), x0)
    assert prod[0] == pv * qv
    assert prod[1] == (dv * qv, pv * dq)


def test_dual_over_field_elements():
    dual = DualDomain(PRIME_FIELD, 2)
    x, y = dual.variable(3, 0), dual.variable(5, 1)
    # x**2 y at (3, 5): value 45, gradient (2 x y, x**2) = (30, 9)
    assert dual.mul(dual.mul(x, x), y) == (45, (30, 9))
    # (a0 + a.eps)(b0 + b.eps) = a0 b0 + (a0 b_j + a_j b0) eps_j, written
    # out coordinate by coordinate, with every part reduced mod P
    rng = random.Random(5)
    for _ in range(100):
        a = (rng.randrange(PRIME), (rng.randrange(PRIME), rng.randrange(PRIME)))
        b = (rng.randrange(PRIME), (rng.randrange(PRIME), rng.randrange(PRIME)))
        assert dual.mul(a, b) == (
            a[0] * b[0] % PRIME,
            tuple((a[0] * bj + aj * b[0]) % PRIME for aj, bj in zip(a[1], b[1])),
        )
        assert dual.add(a, b) == (
            (a[0] + b[0]) % PRIME,
            tuple((aj + bj) % PRIME for aj, bj in zip(a[1], b[1])),
        )


def test_domains_share_one_protocol():
    # the six methods the kernels call, and nothing of a wider protocol
    for dom in (PRIME_FIELD, RATIONALS, FLOATS, DualDomain(RATIONALS, 2)):
        z, o = dom.zero(), dom.one()
        assert dom.add(z, o) == o
        assert dom.mul(z, o) == z
        assert dom.mul(dom.from_int(6), dom.inv_int(6)) == o
        assert dom.add(dom.from_int(2), dom.from_int(3)) == dom.from_int(5)
        assert not {"sub", "neg", "is_zero", "name"} & set(dir(dom))
    assert RATIONALS.inv_int(3) == Fraction(1, 3)
    assert FLOATS.inv_int(4) == 0.25
    # constants carry an all-zero gradient of the domain's width
    assert DualDomain(RATIONALS, 2).from_int(3) == (3, (0, 0))


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


_EDGE_RESIDUES = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, PRIME - 2, PRIME - 1]


def test_field_lanes_match_int_arithmetic():
    lanes = lanes_for(PRIME_FIELD)
    rng = random.Random(41)
    pairs = [(a, b) for a in _EDGE_RESIDUES for b in _EDGE_RESIDUES]
    pairs += [(rng.randrange(PRIME), rng.randrange(PRIME)) for _ in range(10**4)]
    a = np.array([u for u, _ in pairs], dtype=np.uint64)
    b = np.array([v for _, v in pairs], dtype=np.uint64)
    assert lanes.mul(a, b).tolist() == [u * v % PRIME for u, v in pairs]
    assert lanes.add(a, b).tolist() == [(u + v) % PRIME for u, v in pairs]
    assert lanes.scale(a, PRIME - 1).tolist() == [(-u) % PRIME for u, _ in pairs]
    # the folded sums, along an axis and over row segments, of 10**4 terms
    column = a.reshape(-1, 1)
    assert lanes.sum(column).tolist() == [sum(u for u, _ in pairs) % PRIME]
    starts = np.array([0, 3, 64, 65, 5000])
    ends = starts.tolist()[1:] + [len(pairs)]
    assert lanes.reduceat(column, starts)[:, 0].tolist() == [
        sum(u for u, _ in pairs[lo:hi]) % PRIME
        for lo, hi in zip(starts.tolist(), ends)
    ]


def test_field_lanes_stay_uint64():
    # numpy 1.x promotes uint64 with a signed Python int to float64, which
    # would silently round residues
    lanes = lanes_for(PRIME_FIELD)
    a = lanes.cast([[PRIME - 1, 5], [2**32 + 1, 0]])
    results = [
        a,
        lanes.mul(a, a),
        lanes.mul(a[:, :1], a),
        lanes.add(a, a),
        lanes.sum(a),
        lanes.reduceat(a, np.array([0, 1])),
        lanes.scale(a, 3),
        lanes.zeros((2, 2)),
        lanes.empty((1, 2)),
    ]
    assert all(r.dtype == np.uint64 for r in results)
    assert lanes.mul(a, a).tolist() == [
        [(PRIME - 1) ** 2 % PRIME, 25], [(2**32 + 1) ** 2 % PRIME, 0]
    ]


def test_field_lanes_reduce_before_the_cast():
    lanes = lanes_for(PRIME_FIELD)
    values = [-1, -PRIME, PRIME, PRIME + 5, 2**64 + 3, -(2**70) - 1]
    assert lanes.cast(values).tolist() == [v % PRIME for v in values]


def test_lanes_per_domain():
    assert lanes_for(RATIONALS).cast([1, 2]).tolist() == [Fraction(1), Fraction(2)]
    assert lanes_for(FLOATS).cast([1, 2]).dtype == np.float64
    with pytest.raises(TypeError):
        lanes_for(DualDomain(RATIONALS, 2))
