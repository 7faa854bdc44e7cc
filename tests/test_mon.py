"""Greedy and exhaustive minimum observable node selection."""

import random

import pytest

from hyperobs.dynamics import DynamicsSpec
from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import (
    UniformHypergraph,
    disjoint_union,
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
    relabel,
)
from hyperobs.mon import (
    MonResult,
    brute_force_mon,
    greedy_mon,
    minimum_observable_nodes,
    mon_per_component,
)
from hyperobs.observability import RankConfig, generic_rank


def test_options_validation(triangle):
    # RankConfig validates its own fields; see test_rank_config_validation
    with pytest.raises(ValueError):
        greedy_mon(triangle, tie_break="degreee")
    with pytest.raises(ValueError):
        minimum_observable_nodes(triangle, tie_break="degreee")


def test_single_edge_minimum(triangle):
    res = minimum_observable_nodes(triangle)
    assert res.size == 1
    assert res.verdict == "complete"
    assert res.rank_trace == (3,)
    brute = brute_force_mon(triangle)
    # size order then lexicographic: node 1 comes first
    assert brute.selected == (1,)


def test_tie_break_policies():
    g = gen_hyperchain(5, 3)
    # all nodes give the same gain; the policies pick different winners
    deg = greedy_mon(g, tie_break="degree")
    assert deg.selected == (3,)
    assert deg.rank_trace == (5,)
    idx = greedy_mon(g, tie_break="index")
    assert idx.selected == (1,)
    rnd = greedy_mon(g, tie_break="random")
    assert rnd.selected == (5,)
    assert rnd.verdict == "complete"
    # seeded draw is reproducible
    assert greedy_mon(g, tie_break="random").selected == (5,)


def test_star_needs_all_but_one_leaf():
    # leaves of a 3-uniform star are pairwise indistinguishable through the
    # shared core, so all but one must be measured directly
    for n, expect in ((5, 2), (6, 3), (7, 4)):
        res = minimum_observable_nodes(gen_hyperstar(n, 3))
        assert res.size == expect
        assert res.verdict == "complete"
        brute = brute_force_mon(gen_hyperstar(n, 3))
        assert brute.size == expect


def test_star_size_drops_with_uniformity():
    assert minimum_observable_nodes(gen_hyperstar(7, 3)).size == 4
    assert minimum_observable_nodes(gen_hyperstar(7, 4)).size == 3
    assert minimum_observable_nodes(gen_hyperstar(7, 5)).size == 2


def test_greedy_matches_brute_on_families():
    cases = [
        gen_hyperchain(5, 3),
        gen_hyperring(5, 3),
        gen_hyperring(6, 3),
        gen_complete(5, 3),
        gen_complete(5, 4),
        gen_hyperstar(6, 4),
    ]
    for g in cases:
        greedy = minimum_observable_nodes(g)
        brute = brute_force_mon(g)
        assert greedy.verdict == brute.verdict == "complete"
        assert greedy.size == brute.size


def test_disjoint_components_solved_independently():
    two = disjoint_union(gen_hyperchain(4, 3), gen_hyperchain(4, 3))
    res = minimum_observable_nodes(two)
    assert res.verdict == "complete"
    assert res.size == 2
    assert len(res.components) == 2
    assert res.components[0].nodes == (1, 2, 3, 4)
    assert res.components[1].nodes == (5, 6, 7, 8)
    # the trace accumulates across components to the full rank
    assert res.rank_trace == (4, 8)
    # without the decomposition the greedy still finishes, components just
    # share the trace
    flat = minimum_observable_nodes(two, per_component=False)
    assert flat.verdict == "complete"
    assert flat.size == 2
    assert flat.components == ()


def test_isolated_nodes_select_themselves():
    g = UniformHypergraph(5, 3, [(1, 2, 3)])
    res = minimum_observable_nodes(g)
    assert res.verdict == "complete"
    assert set(res.selected) >= {4, 5}
    assert res.size == 3
    assert res.rank_trace[-1] == 5


def test_empty_edge_set_needs_every_node():
    g = UniformHypergraph(3, 3, [])
    assert sorted(minimum_observable_nodes(g).selected) == [1, 2, 3]
    brute = brute_force_mon(g)
    assert brute.selected == (1, 2, 3)
    assert brute.verdict == "complete"


def test_selection_equivariant_under_relabelling():
    g = gen_hyperstar(6, 3)
    base = greedy_mon(g, tie_break="index")
    assert base.selected == (3, 4, 5)
    perm = {1: 3, 2: 1, 3: 5, 4: 2, 5: 6, 6: 4}
    h = relabel(g, perm)
    # ranks are label-blind: the image of the base selection observes the
    # relabelled graph, and greedy there needs as many nodes
    assert generic_rank(h, [perm[s] for s in base.selected]) == h.n
    res = greedy_mon(h, tie_break="index")
    assert res.size == base.size
    assert generic_rank(h, res.selected) == h.n


def test_rank_trace_strictly_increases():
    rng = random.Random(29)
    from conftest import random_uniform_hypergraph

    for _ in range(8):
        g = random_uniform_hypergraph(6, 3, rng)
        res = minimum_observable_nodes(g)
        trace = res.rank_trace
        assert all(a < b for a, b in zip(trace, trace[1:]))
        assert res.verdict == "complete"
        assert trace[-1] == 6
        # a fresh set of evaluation points certifies the same selection
        assert generic_rank(g, res.selected, RankConfig(seed=997)) == 6


def test_brute_force_budget_and_stall():
    g = gen_hyperstar(6, 3)
    with pytest.raises(ResourceLimitError):
        brute_force_mon(g, max_subsets=5)
    stalled = brute_force_mon(g, max_size=1)
    assert stalled == MonResult((), (), "stalled")


def test_weight_does_not_change_selection():
    g = gen_hyperstar(6, 3)
    plain = minimum_observable_nodes(DynamicsSpec(g))
    scaled = minimum_observable_nodes(DynamicsSpec(g, weight=4))
    assert plain.selected == scaled.selected
    assert plain.rank_trace == scaled.rank_trace
