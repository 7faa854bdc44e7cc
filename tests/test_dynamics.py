"""Three evaluators for the derivative chain, checked against each other.

The chain evaluator (Leibniz rule over level multisets) is the production
path; the factor-list recursion and the explicit operator product exist to
cross-check it. Agreement of all three on random instances over two exact
domains is the core guarantee of this module.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs.dynamics import (
    DynamicsSpec,
    RecursionStats,
    apply_factors,
    lie_derivative_naive_scaled,
    lie_derivative_recursive,
    lie_derivatives,
)
from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import UniformHypergraph, gen_hyperchain
from hyperobs.scalars import PRIME, PRIME_FIELD, RATIONALS, DualDomain

from conftest import int_point, random_uniform_hypergraph, rational_point


def _frac(values):
    return [Fraction(v) for v in values]


def test_eval_f_triangle(triangle_dyn):
    assert lie_derivatives(triangle_dyn, _frac([1, 2, 3]), 1)[1] == _frac([6, 3, 2])
    assert lie_derivatives(triangle_dyn, _frac([1, 0, 0]), 1)[1] == _frac([0, 0, 0])


def test_second_derivative_triangle(triangle_dyn):
    chain = lie_derivatives(triangle_dyn, _frac([1, 2, 3]), 2)
    assert chain[0] == _frac([1, 2, 3])
    assert chain[1] == _frac([6, 3, 2])
    # d/dt (x2 x3) = f2 x3 + x2 f3 = 3*3 + 2*2 = 13, and so on
    assert chain[2] == _frac([13, 20, 15])


def _kron_power(x, m):
    # first factor most significant, the order the unfolding columns use
    out = [Fraction(1)]
    for _ in range(m):
        out = [a * b for a in out for b in x]
    return out


def test_eval_f_matches_unfolding(triangle_dyn):
    # f(x) edge by edge equals the unfolding times x^[k-1]
    rng = random.Random(2)
    for _ in range(10):
        g = random_uniform_hypergraph(rng.randint(3, 5), rng.randint(2, 3), rng)
        dyn = DynamicsSpec(g)
        x = rational_point(g.n, rng)
        f = lie_derivatives(dyn, x, 1)[1]
        assert f == dyn.unfolding().matvec(_kron_power(x, g.k - 1), zero=Fraction(0))


def test_apply_factors_mixed_matches_kron(triangle_dyn):
    rng = random.Random(6)
    for _ in range(8):
        g = random_uniform_hypergraph(4, 3, rng)
        dyn = DynamicsSpec(g)
        x = rational_point(4, rng)
        y = rational_point(4, rng)
        direct = apply_factors(dyn, [x, y], RATIONALS)
        kron_xy = [a * b for a in x for b in y]
        assert direct == dyn.unfolding().matvec(kron_xy, zero=Fraction(0))
    with pytest.raises(ValueError):
        apply_factors(triangle_dyn, [[Fraction(1)] * 3], RATIONALS)
    with pytest.raises(ValueError):
        apply_factors(triangle_dyn, [[Fraction(1)] * 2] * 2, RATIONALS)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_evaluators_agree_rational(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(k, 4)
    g = random_uniform_hypergraph(n, k, rng)
    dyn = DynamicsSpec(g)
    x = rational_point(n, rng)
    depth = rng.randint(0, 3)
    chain = lie_derivatives(dyn, x, depth)
    for p in range(depth + 1):
        assert lie_derivative_recursive(dyn, p, x) == chain[p]
        ints, scale = lie_derivative_naive_scaled(dyn, p, [int(v) for v in x])
        assert [Fraction(v, scale) for v in ints] == chain[p]


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_evaluators_agree_mod_p(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(k, 4)
    g = random_uniform_hypergraph(n, k, rng)
    dyn = DynamicsSpec(g)
    # full-range residues, not just small integers
    x = [rng.randrange(PRIME) for _ in range(n)]
    depth = rng.randint(1, 3)
    chain = lie_derivatives(dyn, x, depth, domain=PRIME_FIELD)
    p = depth
    rec = lie_derivative_recursive(dyn, p, x, domain=PRIME_FIELD)
    ints, scale = lie_derivative_naive_scaled(dyn, p, x)
    inv_scale = pow(scale, -1, PRIME)
    assert [v % PRIME for v in rec] == [v % PRIME for v in chain[p]]
    assert [v * inv_scale % PRIME for v in ints] == [v % PRIME for v in chain[p]]


def test_rational_field_homomorphism(triangle_dyn):
    rng = random.Random(13)
    x = int_point(3, rng)
    chain = lie_derivatives(triangle_dyn, _frac(x), 3)
    chain_p = lie_derivatives(
        triangle_dyn, [v % PRIME for v in x], 3, domain=PRIME_FIELD
    )
    for exact, modular in zip(chain, chain_p):
        for q, r in zip(exact, modular):
            expected = (
                q.numerator * pow(q.denominator, -1, PRIME)
            ) % PRIME
            assert r % PRIME == expected


def test_scaled_integer_lane_matches():
    rng = random.Random(21)
    for _ in range(12):
        k = rng.randint(2, 3)
        n = rng.randint(k, 4)
        g = random_uniform_hypergraph(n, k, rng)
        dyn = DynamicsSpec(g)
        x = int_point(n, rng)
        p = rng.randint(0, 3)
        ints, scale = lie_derivative_naive_scaled(dyn, p, x)
        exact = lie_derivative_recursive(dyn, p, _frac(x))
        assert [Fraction(v, scale) for v in ints] == exact


def test_scaled_lane_object_dtype():
    # coordinates big enough to overflow int64 force the exact dtype path
    g = gen_hyperchain(3, 3)
    dyn = DynamicsSpec(g)
    x = [10**12, -(10**12) + 7, 10**11]
    ints, scale = lie_derivative_naive_scaled(dyn, 2, x)
    exact = lie_derivative_recursive(dyn, 2, _frac(x))
    assert [Fraction(v, scale) for v in ints] == exact


def test_scaled_lane_validation(triangle_dyn):
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, 1, [1.5, 2, 3])
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, -1, [1, 2, 3])
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, 1, [1, 2])


def test_recursion_stats_frozen(triangle_dyn):
    stats = RecursionStats()
    lie_derivative_recursive(triangle_dyn, 3, _frac([1, 2, 3]), stats=stats)
    # p=3, k=3: window counts 3*2*1 with one contraction call each, plus the
    # branch calls themselves: 1 + 3 + 3*2 = 10
    assert stats.calls == 10
    # no intermediate product exceeds n**(k-1)
    assert stats.max_kron_len == 9


def test_recursion_budget(triangle_dyn):
    with pytest.raises(ResourceLimitError):
        lie_derivative_recursive(
            triangle_dyn, 4, _frac([1, 2, 3]), max_calls=5
        )


def test_naive_rejects_dual_domain(triangle_dyn):
    # the operator-product oracle evaluates integer points only
    dual = DualDomain(RATIONALS)
    x = [dual.variable(Fraction(v), Fraction(0)) for v in (1, 2, 3)]
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, 1, x)


def test_naive_resource_caps(triangle_dyn):
    with pytest.raises(ResourceLimitError):
        lie_derivative_naive_scaled(triangle_dyn, 8, [1, 2, 3], max_slots=100)


def test_weight_scales_each_order():
    rng = random.Random(17)
    g = random_uniform_hypergraph(4, 3, rng)
    x = rational_point(4, rng)
    plain = lie_derivatives(DynamicsSpec(g), x, 3)
    weighted = lie_derivatives(DynamicsSpec(g, weight=3), x, 3)
    for p in range(4):
        assert weighted[p] == [Fraction(3) ** p * v for v in plain[p]]
    ints, scale = lie_derivative_naive_scaled(
        DynamicsSpec(g, weight=3), 2, [1, -2, 3, 1]
    )
    plain2 = lie_derivatives(DynamicsSpec(g), _frac([1, -2, 3, 1]), 2)[2]
    assert [Fraction(v, scale) for v in ints] == [9 * v for v in plain2]


def test_homogeneity_euler_identity(triangle_dyn):
    # J_p is homogeneous of degree p(k-2)+1: sum_i x_i dJ_p/dx_i = m J_p
    dual = DualDomain(RATIONALS)
    x = _frac([2, -3, 5])
    p = 2
    m = p * (3 - 2) + 1
    values = lie_derivatives(triangle_dyn, x, p)[p]
    weighted_sum = [Fraction(0)] * 3
    for direction in range(3):
        lifted = [
            dual.variable(x[i], Fraction(1) if i == direction else Fraction(0))
            for i in range(3)
        ]
        grads = lie_derivatives(triangle_dyn, lifted, p, domain=dual)[p]
        for i in range(3):
            weighted_sum[i] += x[direction] * grads[i][1]
    assert weighted_sum == [Fraction(m) * v for v in values]


def test_chain_symmetry_conservation():
    # outer nodes of the 4-chain see the same single edge remainder {2,3}
    dyn = DynamicsSpec(gen_hyperchain(4, 3))
    rng = random.Random(30)
    x = rational_point(4, rng)
    chain = lie_derivatives(dyn, x, 3)
    for p in range(1, 4):
        assert chain[p][0] == chain[p][3]


def test_lie_derivatives_validation(triangle_dyn):
    with pytest.raises(ValueError):
        lie_derivatives(triangle_dyn, _frac([1, 2, 3]), -1)
    with pytest.raises(ValueError):
        lie_derivatives(triangle_dyn, _frac([1, 2]), 1)
    with pytest.raises(ValueError):
        lie_derivative_recursive(triangle_dyn, -1, _frac([1, 2, 3]))
    with pytest.raises(ValueError):
        lie_derivative_recursive(triangle_dyn, 1, _frac([1, 2]))
