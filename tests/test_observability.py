"""Jacobians of the derivative chain and generic observability ranks."""

import random
from fractions import Fraction

import pytest

from hyperobs.dynamics import DynamicsSpec, lie_derivatives
from hyperobs.hypergraph import (
    UniformHypergraph,
    gen_complete,
    gen_hyperchain,
    gen_hyperstar,
)
from hyperobs.linalg import bareiss_rank
from hyperobs.observability import (
    NomOracle,
    RankConfig,
    generic_rank,
    is_locally_weakly_observable,
    lie_derivatives_with_jacobians,
    node_blocks,
)
from hyperobs.scalars import FLOATS, PRIME, RATIONALS

from conftest import random_uniform_hypergraph, rational_point


def _frac(values):
    return [Fraction(v) for v in values]


def _jacobian(dyn, p, x, domain):
    return lie_derivatives_with_jacobians(dyn, x, p, domain)[1][p]


def test_jacobian_first_order_triangle(triangle_dyn):
    # f = (x2 x3, x1 x3, x1 x2); its Jacobian at (1,2,3) by hand
    J = _jacobian(triangle_dyn, 1, _frac([1, 2, 3]), RATIONALS)
    assert J == [
        _frac([0, 3, 2]),
        _frac([3, 0, 1]),
        _frac([2, 1, 0]),
    ]
    J0 = _jacobian(triangle_dyn, 0, _frac([1, 2, 3]), RATIONALS)
    assert J0 == [_frac([1, 0, 0]), _frac([0, 1, 0]), _frac([0, 0, 1])]
    with pytest.raises(ValueError):
        lie_derivatives_with_jacobians(triangle_dyn, _frac([1, 2, 3]), -1, RATIONALS)


def test_jacobian_against_finite_differences(triangle_dyn):
    h = 1e-6
    x = [0.8, 1.3, 1.9]
    J = _jacobian(triangle_dyn, 2, list(x), FLOATS)
    for j in range(3):
        lo = list(x)
        hi = list(x)
        lo[j] -= h
        hi[j] += h
        f_lo = lie_derivatives(triangle_dyn, lo, 2, FLOATS)[2]
        f_hi = lie_derivatives(triangle_dyn, hi, 2, FLOATS)[2]
        for i in range(3):
            fd = (f_hi[i] - f_lo[i]) / (2 * h)
            assert J[i][j] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_values_match_plain_chain(triangle_dyn):
    x = _frac([2, -1, 3])
    values, grads = lie_derivatives_with_jacobians(
        triangle_dyn, x, 3, RATIONALS
    )
    assert values == lie_derivatives(triangle_dyn, x, 3)
    assert len(grads) == 4


def test_assemble_nom_matches_kalman_for_pairwise_graphs():
    # k = 2 collapses to linear dynamics dx/dt = A x, where the stacked
    # blocks of y = x_1 are exactly C, CA, CA^2, ... with C = e_1
    g = UniformHypergraph(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    dyn = DynamicsSpec(g)
    x = _frac([5, -2, 7, 1])
    _, grads = lie_derivatives_with_jacobians(dyn, x, 4, RATIONALS)
    stacked = [grads[p][0] for p in range(5)]
    A = dyn.unfolding().to_dense(zero=Fraction(0))

    current = _frac([1, 0, 0, 0])
    rows = [list(current)]
    for _ in range(4):
        current = [
            sum(current[i] * A[i][j] for i in range(4)) for j in range(4)
        ]
        rows.append(list(current))
    assert stacked == rows
    assert bareiss_rank(stacked) == generic_rank(g, [1])


def test_node_blocks_level_zero(triangle_dyn):
    ev = node_blocks(triangle_dyn, [4, 5, 6], 2)
    n = triangle_dyn.n
    for i in range(1, n + 1):
        row0 = ev.blocks[i - 1][0]
        assert row0 == tuple(
            1 if j == i else 0 for j in range(1, n + 1)
        )
    assert ev.rows_for([2]) == list(ev.blocks[1])
    assert len(ev.rows_for([1, 3])) == 2 * 3


def test_generic_rank_known_cases():
    assert generic_rank(gen_complete(5, 3), [1]) == 5
    # star leaves see the core only through products, one leaf direction
    # stays invisible
    assert generic_rank(gen_hyperstar(5, 3), [5]) == 4
    assert generic_rank(gen_hyperstar(5, 3), [3, 4]) == 5
    assert generic_rank(gen_hyperchain(4, 3), [1]) == 4
    g = gen_hyperchain(4, 3)
    assert generic_rank(g, list(range(1, 5))) == 4


def test_rank_monotone_in_nodes_and_depth():
    rng = random.Random(19)
    for _ in range(6):
        g = random_uniform_hypergraph(5, 3, rng)
        full = generic_rank(g, [1, 2, 3, 4, 5])
        part = generic_rank(g, [1, 3])
        assert part <= full
        shallow = generic_rank(g, [1, 3], RankConfig(depth=1))
        deep = generic_rank(g, [1, 3], RankConfig(depth=4))
        assert shallow <= deep
        # depth defaults to n - 1, where the rank has saturated: one more
        # level adds nothing
        default = generic_rank(g, [1, 3])
        assert deep <= default
        assert default == generic_rank(g, [1, 3], RankConfig(depth=g.n))


def test_oracle_caching_and_validation(triangle_dyn):
    oracle = NomOracle(triangle_dyn, RankConfig(trials=2, seed=0, depth=3))
    ev0 = oracle.evaluation(0)
    assert oracle.evaluation(0) is ev0
    assert all(v != 0 for v in ev0.point)
    assert oracle.evaluation(1).point != ev0.point
    with pytest.raises(IndexError):
        oracle.evaluation(2)
    with pytest.raises(ValueError):
        oracle.rank([1, 1])
    with pytest.raises(IndexError):
        oracle.rank([9])
    assert len(oracle.echelons()) == 2
    # an unset depth resolves to n - 1 of the oracle's own dynamics
    assert oracle.depth == 3
    assert NomOracle(triangle_dyn).depth == 2
    assert NomOracle(triangle_dyn, RankConfig(depth=0)).depth == 0


def test_oracle_deterministic(triangle_dyn):
    a = NomOracle(triangle_dyn, RankConfig(trials=2, seed=7, depth=3))
    b = NomOracle(triangle_dyn, RankConfig(trials=2, seed=7, depth=3))
    assert a.evaluation(0).point == b.evaluation(0).point
    assert a.rank([1]) == b.rank([1])
    c = NomOracle(triangle_dyn, RankConfig(trials=2, seed=8, depth=3))
    assert c.evaluation(0).point != a.evaluation(0).point


def test_rank_config_validation():
    with pytest.raises(ValueError):
        RankConfig(trials=0)
    with pytest.raises(ValueError):
        RankConfig(depth=-1)
    cfg = RankConfig()
    assert cfg.trials == 3 and cfg.seed == 0 and cfg.depth is None


def test_rank_invariant_under_edge_weight():
    rng = random.Random(23)
    for _ in range(5):
        g = random_uniform_hypergraph(4, 3, rng)
        plain = DynamicsSpec(g)
        scaled = DynamicsSpec(g, weight=5)
        for nodes in ([1], [2, 4]):
            assert generic_rank(plain, nodes) == generic_rank(scaled, nodes)


def test_observability_report(triangle_dyn):
    rep = is_locally_weakly_observable(triangle_dyn.graph, [1])
    assert rep.observable
    assert rep.verdict == "observable"
    assert rep.rank == rep.n == 3
    assert rep.depth == 2
    star = gen_hyperstar(5, 3)
    rep2 = is_locally_weakly_observable(star, [5])
    assert not rep2.observable
    assert rep2.verdict == "not-observable-at-depth"
    assert rep2.rank == 4
    rep3 = is_locally_weakly_observable(star, [5], RankConfig(depth=2))
    assert rep3.depth == 2
