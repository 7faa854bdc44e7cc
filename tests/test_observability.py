"""Jacobians of the derivative chain and generic observability ranks."""

import random
from fractions import Fraction

import pytest

import numpy as np

from hyperobs import observability
from hyperobs.dynamics import DynamicsSpec, lie_derivatives
from hyperobs.hypergraph import (
    UniformHypergraph,
    gen_complete,
    gen_hyperchain,
    gen_hyperstar,
)
from hyperobs.mon import (
    brute_force_mon,
    greedy_mon,
    minimum_observable_nodes,
)
from hyperobs.observability import (
    NomOracle,
    RankConfig,
    is_locally_weakly_observable,
    lie_derivatives_with_jacobians,
    node_blocks,
)
from conftest import random_uniform_hypergraph
from oracles import Dual, bareiss_rank, lie_derivative_recursive, residue


def _frac(values):
    return [Fraction(v) for v in values]


def _jacobian(dyn, p, x):
    return lie_derivatives_with_jacobians(dyn, x, p)[p].tolist()


def _dual_point(x):
    return [Dual.variable(v, j, len(x)) for j, v in enumerate(x)]


def test_jacobian_first_order_triangle(triangle_dyn):
    # f = (x2 x3, x1 x3, x1 x2); its Jacobian at (1,2,3) by hand
    J = _jacobian(triangle_dyn, 1, [1, 2, 3])
    assert J == [[0, 3, 2], [3, 0, 1], [2, 1, 0]]
    J0 = _jacobian(triangle_dyn, 0, [1, 2, 3])
    assert J0 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        lie_derivatives_with_jacobians(triangle_dyn, [1, 2, 3], -1)


def test_jacobian_against_finite_differences(triangle_dyn):
    # the recursion oracle over float dual numbers against central
    # differences of the same oracle over floats; the exact tests tie the
    # oracle to the kernel
    h = 1e-6
    x = [0.8, 1.3, 1.9]
    J = [d.eps for d in lie_derivative_recursive(triangle_dyn, 2, _dual_point(x))]
    for j in range(3):
        lo = list(x)
        hi = list(x)
        lo[j] -= h
        hi[j] += h
        f_lo = lie_derivative_recursive(triangle_dyn, 2, lo)
        f_hi = lie_derivative_recursive(triangle_dyn, 2, hi)
        for i in range(3):
            fd = (f_hi[i] - f_lo[i]) / (2 * h)
            assert J[i][j] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_jacobians_reject_wrong_sized_point(triangle_dyn):
    # too long is not cut to n coordinates, too short is no IndexError
    for x in ([1, 2, 3, 4], [1, 2]):
        with pytest.raises(ValueError, match="coordinates for 3 nodes"):
            lie_derivatives_with_jacobians(triangle_dyn, x, 1)


def test_values_match_plain_chain(triangle_dyn):
    # the values that ride along with the gradients are the chain itself,
    # which the recursion oracle computes from the values alone
    x = [2, -1, 3]
    values = lie_derivatives(triangle_dyn, x, 3)[:, :, 0].tolist()
    assert values == [
        [residue(v) for v in lie_derivative_recursive(triangle_dyn, p, _frac(x))]
        for p in range(4)
    ]
    assert lie_derivatives_with_jacobians(triangle_dyn, x, 3).shape == (4, 3, 3)


def test_assemble_nom_matches_kalman_for_pairwise_graphs():
    # k = 2 collapses to linear dynamics dx/dt = A x, where the stacked
    # blocks of y = x_1 are exactly C, CA, CA^2, ... with C = e_1
    g = UniformHypergraph(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    dyn = DynamicsSpec(g)
    grads = lie_derivatives_with_jacobians(dyn, [5, -2, 7, 1], 4)
    stacked = grads[:, 0].tolist()
    # at k = 2 the unfolding is the adjacency matrix
    A = [[0] * 4 for _ in range(4)]
    for i, j in g.edges:
        A[i - 1][j - 1] = A[j - 1][i - 1] = 1

    current = _frac([1, 0, 0, 0])
    rows = [list(current)]
    for _ in range(4):
        current = [
            sum(current[i] * A[i][j] for i in range(4)) for j in range(4)
        ]
        rows.append(list(current))
    # the entries of C A^p are small nonnegative integers, so their
    # residues are the integers themselves
    assert stacked == rows
    assert bareiss_rank(stacked) == is_locally_weakly_observable(g, [1]).rank


def test_node_blocks_match_rational_jacobians_mod_p():
    # the production kernel (one gradient pass mod P) against the exact
    # rational Jacobians of the factor-list recursion over dual numbers,
    # reduced mod P afterwards: every level up to n - 1, except levels 4
    # and 5 of the six-node 4-uniform graphs, where the recursion takes
    # half a minute per point
    rng = random.Random(29)
    cases = []
    for _ in range(12):
        k = rng.randint(2, 4)
        n = rng.randint(k, 6)
        g = random_uniform_hypergraph(n, k, rng)
        cases.append((g, [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)]))
    # five nodes at every uniformity, so level 4 is checked for each
    for k in (2, 3, 4):
        g = random_uniform_hypergraph(5, k, rng)
        cases.append((g, [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(5)]))
    for g, x in cases:
        n = g.n
        dyn = DynamicsSpec(g)
        depth = n - 1
        blocks = node_blocks(dyn, x, depth)
        seeded = _dual_point(_frac(x))
        for p in range((depth if n <= 5 or g.k <= 3 else 3) + 1):
            rec = lie_derivative_recursive(dyn, p, seeded)
            for i in range(n):
                assert blocks[i, p].tolist() == [residue(q) for q in rec[i].eps]


def test_node_blocks_level_zero(triangle_dyn):
    blocks = node_blocks(triangle_dyn, [4, 5, 6], 2)
    n = triangle_dyn.n
    for i in range(1, n + 1):
        row0 = blocks[i - 1, 0].tolist()
        assert row0 == [1 if j == i else 0 for j in range(1, n + 1)]


def test_node_blocks_are_the_kernels_lanes(triangle_dyn, monkeypatch):
    # the blocks are a node-major view of the chain's gradient lanes, not a
    # copy of them
    chains = []

    def kernel(*args):
        chains.append(lie_derivatives(*args))
        return chains[-1]

    monkeypatch.setattr(observability, "lie_derivatives", kernel)
    blocks = node_blocks(triangle_dyn, [4, 5, 6], 2)
    (chain,) = chains
    assert blocks.dtype == np.uint64
    assert blocks.shape == (3, 3, 3)
    assert np.shares_memory(blocks, chain)
    assert (blocks == chain[:, :, 1:].transpose(1, 0, 2)).all()


def test_generic_rank_known_cases():
    assert is_locally_weakly_observable(gen_complete(5, 3), [1]).rank == 5
    # star leaves see the core only through products, one leaf direction
    # stays invisible
    assert is_locally_weakly_observable(gen_hyperstar(5, 3), [5]).rank == 4
    assert is_locally_weakly_observable(gen_hyperstar(5, 3), [3, 4]).rank == 5
    assert is_locally_weakly_observable(gen_hyperchain(4, 3), [1]).rank == 4
    g = gen_hyperchain(4, 3)
    assert is_locally_weakly_observable(g, list(range(1, 5))).rank == 4


def test_rank_monotone_in_nodes_and_depth():
    rng = random.Random(19)
    for _ in range(6):
        g = random_uniform_hypergraph(5, 3, rng)
        full = is_locally_weakly_observable(g, [1, 2, 3, 4, 5]).rank
        part = is_locally_weakly_observable(g, [1, 3]).rank
        assert part <= full
        shallow = is_locally_weakly_observable(g, [1, 3], RankConfig(depth=1)).rank
        deep = is_locally_weakly_observable(g, [1, 3], RankConfig(depth=4)).rank
        assert shallow <= deep
        # depth defaults to n - 1, where the rank has saturated: one more
        # level adds nothing
        default = is_locally_weakly_observable(g, [1, 3]).rank
        assert deep <= default
        deeper = is_locally_weakly_observable(g, [1, 3], RankConfig(depth=g.n)).rank
        assert default == deeper


def test_oracle_caching_and_validation(triangle):
    oracle = NomOracle(triangle, RankConfig(trials=2, seed=0, depth=3))
    ev0 = oracle.evaluation(0)
    assert oracle.evaluation(0) is ev0
    assert (oracle.evaluation(1) != ev0).any()
    with pytest.raises(IndexError):
        oracle.evaluation(2)
    with pytest.raises(ValueError):
        oracle.rank([1, 1])
    with pytest.raises(ValueError):
        oracle.rank(i for i in (2, 2))
    # any iterable of nodes, read once
    assert oracle.rank(i for i in (1, 3)) == oracle.rank([1, 3])
    with pytest.raises(IndexError):
        oracle.rank([9])
    # an unset depth resolves to n - 1 of the oracle's own dynamics
    assert oracle.depth == 3
    assert NomOracle(triangle).depth == 2
    assert NomOracle(triangle, RankConfig(depth=0)).depth == 0


def test_oracle_deterministic(triangle):
    a = NomOracle(triangle, RankConfig(trials=2, seed=7, depth=3))
    b = NomOracle(triangle, RankConfig(trials=2, seed=7, depth=3))
    assert (a.evaluation(0) == b.evaluation(0)).all()
    assert a.rank([1]) == b.rank([1])
    c = NomOracle(triangle, RankConfig(trials=2, seed=8, depth=3))
    assert (c.evaluation(0) != a.evaluation(0)).any()


def test_rank_config_validation():
    with pytest.raises(ValueError):
        RankConfig(trials=0)
    with pytest.raises(ValueError):
        RankConfig(depth=-1)
    cfg = RankConfig()
    assert cfg.trials == 3 and cfg.seed == 0 and cfg.depth is None


def test_observability_report(triangle):
    rep = is_locally_weakly_observable(triangle, [1])
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
    # the chain stops where the measured set's rank stops growing: a star
    # leaf gains one rank per level through level 3, and level 4 adds none.
    # On star 5/3 level 4 is the cap n - 1; on star 8/3 the chain stops
    # there, three levels below the cap
    assert (rep2.depth, rep2.stacked_depth) == (4, 4)
    assert rep3.stacked_depth == 2
    rep8 = is_locally_weakly_observable(gen_hyperstar(8, 3), [8])
    assert (rep8.rank, rep8.depth, rep8.stacked_depth) == (4, 7, 4)
    # every node measured is rank n at level 0
    assert is_locally_weakly_observable(star, range(1, 6)).stacked_depth == 0


def test_an_oracle_builds_its_own_dynamics(triangle, triangle_dyn):
    # handed dynamics instead of a hypergraph, the oracle refuses at once,
    # before a query could fail on the graph's missing attributes
    assert NomOracle(triangle).dyn.graph is triangle
    with pytest.raises(TypeError, match="UniformHypergraph, not DynamicsSpec"):
        NomOracle(triangle_dyn)


def test_a_watched_oracle_ranks_only_its_set(triangle):
    # watching one node set makes only that set's span final when the
    # chain stops, so no other set can be ranked on it
    oracle = NomOracle(triangle, watch=[3, 1])
    assert oracle.watch == (1, 3)
    assert oracle.rank([3, 1]) == 3
    assert oracle.stacked_depth == 1
    with pytest.raises(ValueError, match="watched"):
        oracle.rank([1])
    # watching every node alone ranks any set, each trial at one depth
    every = NomOracle(triangle)
    assert every.watch is None
    assert every.rank([1]) == every.rank([1, 3]) == 3
    assert every.stacked_depth == 2
    # nor does a watched oracle serve node bases, so no search runs on it:
    # watching {5} here, node 3's basis would stop at rank 6, not 7, and
    # the searches would miss the one-node minimum (3,)
    g = UniformHypergraph(
        7, 2, [(1, 2), (1, 6), (6, 7), (1, 4), (2, 5), (2, 3), (5, 6), (2, 6)]
    )
    cfg = RankConfig(trials=3)
    assert minimum_observable_nodes(g, cfg).selected == (3,)
    watched = NomOracle(g, cfg, watch=[5])
    with pytest.raises(ValueError, match="watched"):
        watched.basis(0, 3)
    for search in (greedy_mon, minimum_observable_nodes, brute_force_mon):
        with pytest.raises(ValueError, match="watched"):
            search(watched)
    # nor on a disconnected graph, whose parts would be unwatched oracles
    apart = UniformHypergraph(7, 2, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    watched = NomOracle(apart, cfg, watch=[1])
    for search in (greedy_mon, minimum_observable_nodes, brute_force_mon):
        with pytest.raises(ValueError, match="serves no node basis"):
            search(watched)


def test_a_query_at_full_rank_never_builds_the_twin_classes():
    # core node 2 and three of the four twin leaves of star 6/3 reach rank 6
    # at trial 0, so the ceiling is never needed. A watched oracle then
    # never builds the graph's twin classes; an unwatched evaluation reads
    # them once, to watch one member of each class, so it runs on a copy
    g = gen_hyperstar(6, 3)
    oracle = NomOracle(g, RankConfig(trials=3))
    copy = gen_hyperstar(6, 3)
    assert NomOracle(copy, RankConfig(trials=3)).rank([2, 3, 4, 5]) == 6
    assert "twin_classes" in vars(copy)
    watched = is_locally_weakly_observable(g, [2, 3, 4, 5])
    assert watched.observable and "twin_classes" not in vars(g)
    # the core alone ends trial 0 at rank 3, its ceiling, and stops there
    assert oracle.rank([1]) == 3
    assert "twin_classes" in vars(g)
    assert sorted(oracle._evaluations) == [0]


def test_a_query_works_its_ceiling_out_once(monkeypatch):
    # at depth 0 the core node 1 of star 6/3 ranks 1 at every trial, below
    # n and its ceiling 3, so all three trials run on one ceiling
    calls = []
    ceiling = NomOracle.ceiling
    monkeypatch.setattr(
        NomOracle,
        "ceiling",
        lambda self, nodes: calls.append(nodes) or ceiling(self, nodes),
    )
    oracle = NomOracle(gen_hyperstar(6, 3), RankConfig(trials=3, depth=0))
    assert oracle.rank([1]) == 1
    assert sorted(oracle._evaluations) == [0, 1, 2]
    assert calls == [{1}]
