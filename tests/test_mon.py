"""Greedy and exhaustive minimum observable node selection."""

import random
from itertools import combinations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperobs import mon, observability
from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import (
    FAMILIES,
    UniformHypergraph,
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
)
from hyperobs.mon import (
    TIE_BREAKS,
    MonResult,
    brute_force_mon,
    greedy_mon,
    invisible_pair,
    minimum_observable_nodes,
    twin_lower_bound,
)
from hyperobs.linalg import Echelon, modp_rank
from hyperobs.observability import (
    NomOracle,
    RankConfig,
    TwinCount,
    is_locally_weakly_observable,
)

from conftest import disjoint_union, random_uniform_hypergraph, relabel
from oracles import (
    all_trials_rank,
    block_rows,
    eager_greedy,
    edge_twin_classes,
    full_depth_blocks,
    naive_brute_force,
    twin_ceiling,
)


def test_options_validation(triangle):
    # RankConfig validates its own fields; see test_rank_config_validation
    with pytest.raises(ValueError):
        greedy_mon(triangle, tie_break="degreee")
    with pytest.raises(ValueError):
        minimum_observable_nodes(triangle, tie_break="degreee")


def test_single_edge_minimum(triangle):
    res = minimum_observable_nodes(triangle)
    assert res.size == 1
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
    # "random" follows a seeded shuffle of the labels, the same every run
    rnd = greedy_mon(g, tie_break="random")
    assert rnd.selected == (1,)
    assert greedy_mon(g, tie_break="random") == rnd


def test_star_needs_all_but_one_leaf():
    # leaves of a 3-uniform star are pairwise indistinguishable through the
    # shared core, so all but one must be measured directly
    for n, expect in ((5, 2), (6, 3), (7, 4)):
        res = minimum_observable_nodes(gen_hyperstar(n, 3))
        assert res.size == expect
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
        assert greedy.size == brute.size


def test_disjoint_components_solved_independently():
    two = disjoint_union(gen_hyperchain(4, 3), gen_hyperchain(4, 3))
    res = minimum_observable_nodes(two)
    assert res.size == 2
    assert len(res.components) == 2
    assert res.components[0].nodes == (1, 2, 3, 4)
    assert res.components[1].nodes == (5, 6, 7, 8)
    # the trace accumulates across components to the full rank
    assert res.rank_trace == (4, 8)


def test_isolated_nodes_select_themselves():
    g = UniformHypergraph(5, 3, [(1, 2, 3)])
    res = minimum_observable_nodes(g)
    assert set(res.selected) >= {4, 5}
    assert res.size == 3
    assert res.rank_trace[-1] == 5


def test_empty_edge_set_needs_every_node():
    g = UniformHypergraph(3, 3, [])
    assert sorted(minimum_observable_nodes(g).selected) == [1, 2, 3]
    brute = brute_force_mon(g)
    assert brute.selected == (1, 2, 3)


def test_selection_equivariant_under_relabelling():
    g = gen_hyperstar(6, 3)
    base = greedy_mon(g, tie_break="index")
    assert base.selected == (3, 4, 5)
    perm = {1: 3, 2: 1, 3: 5, 4: 2, 5: 6, 6: 4}
    h = relabel(g, perm)
    # ranks are label-blind: the image of the base selection observes the
    # relabelled graph, and greedy there needs as many nodes
    image = [perm[s] for s in base.selected]
    assert is_locally_weakly_observable(h, image).rank == h.n
    res = greedy_mon(h, tie_break="index")
    assert res.size == base.size
    assert is_locally_weakly_observable(h, res.selected).rank == h.n


def test_rank_trace_strictly_increases():
    rng = random.Random(29)
    for _ in range(8):
        g = random_uniform_hypergraph(6, 3, rng)
        res = minimum_observable_nodes(g)
        trace = res.rank_trace
        assert all(a < b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == 6
        # a fresh set of evaluation points certifies the same selection
        fresh = is_locally_weakly_observable(g, res.selected, RankConfig(seed=997))
        assert fresh.rank == 6


def test_brute_force_budget(monkeypatch):
    # star 6/3 needs 3 of its 4 twin leaves: the prefixes (1) and (2) are
    # cut, as they leave 2 slots for 3 needed leaves, then (3, 4, 5) is
    # ranked, three visits in all
    g = gen_hyperstar(6, 3)
    monkeypatch.setattr(mon, "SUBSET_BUDGET", 2)
    with pytest.raises(ResourceLimitError) as refusal:
        brute_force_mon(g)
    assert str(refusal.value) == (
        "exhaustive search exceeded 2 ranked subsets and cut prefixes "
        "from size 3 up"
    )
    monkeypatch.setattr(mon, "SUBSET_BUDGET", 3)
    assert brute_force_mon(g).selected == (3, 4, 5)


def test_the_twin_walk_counts_each_cut_once():
    # four twin leaves 1..4 under the core {5, 6}: the four 3-subsets of
    # leaves are ranked, and each slot's walk ends with one cut once two
    # leaves below its next candidate would stay unpicked: in the last
    # slot after (1, 2, 4), (1, 3, 4) and (2, 3, 4), in the second after
    # (1, 3) and (2, 3), and in the first after (2)
    g = UniformHypergraph(6, 3, [(i, 5, 6) for i in range(1, 5)])
    walk = mon._Walk(NomOracle(g))
    assert walk.start == 3
    assert list(walk.subsets(3)) == list(combinations(range(1, 5), 3))
    assert walk.visits == 4 + 6


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except ResourceLimitError as exc:
        return ("refused", str(exc))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=7),
    k=st.integers(min_value=2, max_value=4),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    tie_break=st.sampled_from(TIE_BREAKS),
    budget=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_searches_match_their_plain_forms(
    seed, n, k, trials, depth, tie_break, budget
):
    # the early stops may only skip work, never change a result
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    assert greedy_mon(g, cfg, tie_break) == eager_greedy(g, cfg, tie_break)
    exact = naive_brute_force(g, cfg)
    assert brute_force_mon(g, cfg).selected == exact.selected
    if len(g.connected_components()) > 1:
        return
    # on a connected graph the budget counts ranked subsets and cut
    # prefixes from the twin bound up, each standing for a subset the plain
    # search counts before its answer, which also counts every smaller
    # subset: the search refuses nothing the plain one finishes
    start = twin_lower_bound(g)
    below = sum(comb(g.n, s) for s in range(1, start))
    with patch.object(mon, "SUBSET_BUDGET", budget):
        fast = _outcome(brute_force_mon, g, cfg)
    plain = _outcome(naive_brute_force, g, cfg, budget + below)
    if isinstance(fast, MonResult):
        assert fast.selected == exact.selected
    else:
        message = f"exhaustive search exceeded {budget} ranked subsets"
        assert fast == (
            "refused", f"{message} and cut prefixes from size {start} up"
        )
        assert plain[0] == "refused"


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=14),
    k=st.integers(min_value=2, max_value=4),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=0, max_value=3),
    tie_break=st.sampled_from(TIE_BREAKS),
)
@settings(max_examples=60, deadline=None)
def test_lazy_greedy_matches_eager_on_larger_graphs(
    seed, n, k, trials, depth, tie_break
):
    # shallow blocks on up to 14 nodes leave many candidates below n with
    # stale bounds and tied scores
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    assert greedy_mon(g, cfg, tie_break) == eager_greedy(g, cfg, tie_break)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=2, max_value=4),
    depth=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_gains_shrink_as_the_selection_grows(seed, n, k, depth):
    # lazy greedy's bounds rest on this: at one point, the rank a block adds
    # to a span U, dim(U + W) - dim(U), never grows as U grows
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    oracle = NomOracle(g, RankConfig(seed=seed, depth=depth))
    blocks = full_depth_blocks(oracle, 0)
    nodes = list(range(1, g.n + 1))
    rng.shuffle(nodes)
    inner_size = rng.randint(0, g.n)
    outer_size = rng.randint(inner_size, g.n)
    inner, outer = Echelon(g.n), Echelon(g.n)
    inner.add_rows(block_rows(blocks, nodes[:inner_size]))
    outer.add_rows(block_rows(blocks, nodes[:outer_size]))
    for c in range(1, g.n + 1):
        block = block_rows(blocks, [c])
        assert outer.probe(block) <= inner.probe(block)
        # a node's basis stands in for its block
        assert inner.probe(oracle.basis(0, c)) == inner.probe(block)


def _sparse_hypergraph(rng: random.Random) -> UniformHypergraph:
    """3 to 9 nodes, k 2 to 4, and 1 to 12 distinct edges: isolated nodes
    and several components are common."""
    n = rng.randint(3, 9)
    k = rng.randint(2, min(4, n))
    pool = list(combinations(range(1, n + 1), k))
    edges = rng.sample(pool, rng.randint(1, min(12, len(pool))))
    return UniformHypergraph(n, k, edges)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    trials=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_early_stop_matches_full_depth(seed, trials):
    # each chain stops at the first level where its watched sets are flat;
    # verdicts, ranks, picks and exhaustive sets must equal those of every
    # level up to the default cap n - 1, at the same points
    rng = random.Random(seed)
    g = _sparse_hypergraph(rng)
    cfg = RankConfig(trials=trials, seed=seed)
    reference = NomOracle(g, cfg)
    blocks = [full_depth_blocks(reference, t) for t in range(trials)]
    for _ in range(3):
        nodes = rng.sample(range(1, g.n + 1), rng.randint(1, g.n))
        want = max(modp_rank(block_rows(b, nodes), g.n) for b in blocks)
        report = is_locally_weakly_observable(g, nodes, cfg)
        assert (report.rank, report.observable) == (want, want == g.n)
        assert report.stacked_depth <= report.depth == g.n - 1
    for tie_break in TIE_BREAKS:
        assert greedy_mon(g, cfg, tie_break) == eager_greedy(g, cfg, tie_break)
    assert brute_force_mon(g, cfg).selected == naive_brute_force(g, cfg).selected


def test_lazy_greedy_work_counts(monkeypatch):
    cfg = RankConfig(trials=3)
    probes = _count_calls(monkeypatch, Echelon, "probe")
    bases = _count_calls(monkeypatch, NomOracle, "basis")
    # a basis reads its block from the trial's evaluation once, then caches
    reads = _count_calls(monkeypatch, NomOracle, "evaluation")
    # node 1 comes first in key order and reaches n at trial 0, so no other
    # candidate is scored, and no other block is read; under "random" the
    # first node in the shuffle does the same
    for tie_break in TIE_BREAKS:
        ring = greedy_mon(gen_hyperring(20, 3), cfg, tie_break)
        assert len(probes) == 1
        assert len(reads) == 1
        assert {args[1:] for args in bases} == {(0, ring.selected[0])}
        probes.clear()
        bases.clear()
        reads.clear()
    # each (trial, node) block is reduced once, into its basis. While two
    # leaves are unmeasured, a leaf's twin ceiling is one above a core
    # node's, and the first leaf in key order reaches it at trial 0, so
    # each of the eight steps probes one leaf at one trial, and trials 1
    # and 2 are never evaluated. Leaf 3 reads its block once; leaves 4..10
    # are its twins, whose bases are built from its basis, so they read no
    # evaluation
    star = gen_hyperstar(11, 3)
    lazy = greedy_mon(star, cfg)
    assert lazy.selected == tuple(range(3, 11))
    assert len(probes) == 8
    assert len(reads) == 1
    assert len({args[1:] for args in bases}) == 8
    assert {args[1] for args in bases} == {0}
    probes.clear()
    assert eager_greedy(star, cfg) == lazy
    assert len(probes) == 180


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=2, max_value=4),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=0, max_value=3),
    tie_break=st.sampled_from(TIE_BREAKS),
)
@settings(max_examples=60, deadline=None)
def test_greedy_never_stalls(seed, n, k, trials, depth, tie_break):
    # every block holds its level-0 row e_i, so greedy reaches full rank on
    # every component, isolated nodes included, at any depth
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random() / 2)
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    res = minimum_observable_nodes(g, cfg, tie_break)
    assert res.rank_trace[-1] == g.n
    for part in res.components:
        assert part.rank_trace[-1] == len(part.nodes)


def test_greedy_caps_bounds_at_n(monkeypatch):
    # a stale rank + gain can exceed n; capped at n, such a candidate sorts
    # by key among the others that may reach n, and is not scored first
    probes = _count_calls(monkeypatch, Echelon, "probe")
    greedy_mon(gen_complete(5, 4), RankConfig(trials=1, seed=12, depth=3))
    assert len(probes) == 6


def test_twin_classes_and_bound():
    star = gen_hyperstar(11, 3)
    assert star.twin_classes == (tuple(range(3, 12)),)
    # worked out once per hypergraph, and shared by the oracle
    oracle = NomOracle(star)
    assert star.twin_classes is oracle.dyn.graph.twin_classes
    assert twin_lower_bound(star) == 8
    assert twin_lower_bound(gen_hyperstar(10, 3)) == 7
    assert twin_lower_bound(gen_hyperstar(7, 4)) == 3
    # one node observes a ring: no twins, one sensor
    assert gen_hyperring(20, 3).twin_classes == ()
    assert twin_lower_bound(gen_hyperring(20, 3)) == 1
    # isolated nodes have no remainders and are nobody's twins, but each is
    # a component of its own
    lone = UniformHypergraph(5, 3, [(1, 2, 3)])
    assert lone.twin_classes == ()
    assert twin_lower_bound(lone) == 3
    # components add up
    two = disjoint_union(gen_hyperstar(6, 3), gen_hyperstar(5, 3))
    assert two.twin_classes == ((3, 4, 5, 6), (9, 10, 11))
    assert twin_lower_bound(two) == 5 == minimum_observable_nodes(two).size
    # at k = 2, twins are non-adjacent nodes with the same neighbours
    path = UniformHypergraph(3, 2, [(1, 2), (2, 3)])
    assert path.twin_classes == ((1, 3),)
    assert brute_force_mon(path).selected == (1,)


def test_invisible_pair():
    star = gen_hyperstar(11, 3)
    assert invisible_pair(star, [1]) == (3, 4)
    assert invisible_pair(star, [3, 5]) == (4, 6)
    assert invisible_pair(star, range(3, 11)) is None
    two = disjoint_union(gen_hyperstar(6, 3), gen_hyperstar(5, 3))
    assert invisible_pair(two, [3, 4, 5, 6, 9]) == (10, 11)
    assert invisible_pair(gen_hyperring(6, 3), [1]) is None


def _with_twin(g: UniformHypergraph) -> UniformHypergraph:
    """g plus a new node n+1, a twin of the first node of g's first edge."""
    u = g.edges[0][0]
    copies = [
        tuple(i for i in e if i != u) + (g.n + 1,) for e in g.edges if u in e
    ]
    return UniformHypergraph(g.n + 1, g.k, list(g.edges) + copies)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=8),
    k=st.integers(min_value=2, max_value=4),
    twins=st.integers(min_value=0, max_value=2),
    lifo=st.booleans(),
    steps=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_the_twin_ledger_follows_every_add_and_remove(
    seed, n, k, twins, lifo, steps
):
    # LIFO, the set is a rising path, grown and undone as the walk does;
    # otherwise any node joins and any member leaves
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    for _ in range(twins):
        g = _with_twin(g)
    classes = edge_twin_classes(g)
    count = TwinCount(g.twin_classes)
    current: list[int] = []
    for _ in range(steps):
        low = current[-1] + 1 if lifo and current else 1
        out = [v for v in range(low, g.n + 1) if v not in current]
        if out and (not current or rng.random() < 0.6):
            v = rng.choice(out)
            want = count.need_with(v)
            count.add(v)
            current.append(v)
            assert count.need == want
        else:
            v = current.pop(-1 if lifo else rng.randrange(len(current)))
            count.remove(v)
        assert g.n - count.need == twin_ceiling(g, current)
        for v in range(1, g.n + 1):
            cls = next((c for c in classes if v in c), ())
            if v not in current:
                assert g.n - count.need_with(v) == twin_ceiling(
                    g, current + [v]
                )
            if all(u <= v for u in cls if u in current):
                left = [u for u in cls if u <= v and u not in current]
                assert count.stranded(v) == len(left)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=2, max_value=4),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    twin=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_twins_bound_every_full_rank_set(seed, n, k, trials, depth, twin):
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    if twin:
        g = _with_twin(g)
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    assert twin_lower_bound(g) <= naive_brute_force(g, cfg).size
    # a subset that leaves two twins unmeasured is below rank n at every
    # trial, on the raw blocks of every level up to the cap
    oracle = NomOracle(g, cfg)
    for size in range(1, g.n + 1):
        for subset in combinations(range(1, g.n + 1), size):
            if invisible_pair(g, subset) is None:
                continue
            for t in range(trials):
                rows = block_rows(full_depth_blocks(oracle, t), subset)
                assert modp_rank(rows, g.n) < g.n


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=9),
    k=st.integers(min_value=2, max_value=4),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=0, max_value=3),
    twin=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_no_trial_ranks_a_set_above_its_ceiling(seed, n, k, trials, depth, twin):
    # the twin ceiling bounds every trial's rank, on the raw blocks of every
    # level up to the cap, so stopping at it changes no rank and no pick
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    if twin:
        g = _with_twin(g)
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    oracle = NomOracle(g, cfg)
    blocks = [full_depth_blocks(oracle, t) for t in range(trials)]
    order = list(range(1, g.n + 1))
    rng.shuffle(order)
    # the ceiling of a set grown node by node, O(1) a step, as greedy keeps it
    count = TwinCount(g.twin_classes)
    for size in range(g.n + 1):
        nodes = order[:size]
        cap = oracle.ceiling(nodes)
        assert cap == g.n - count.need == twin_ceiling(g, nodes)
        if size < g.n:
            assert g.n - count.need_with(order[size]) == oracle.ceiling(
                order[: size + 1]
            )
            count.add(order[size])
        if not nodes:
            continue
        for b in blocks:
            assert modp_rank(block_rows(b, nodes), g.n) <= cap
        want = all_trials_rank(g, nodes, cfg)
        assert NomOracle(g, cfg).rank(nodes) == want
        assert is_locally_weakly_observable(g, nodes, cfg).rank == want
    for tie_break in TIE_BREAKS:
        assert greedy_mon(g, cfg, tie_break) == eager_greedy(g, cfg, tie_break)


def _first_flat_level(block: list[list[int]], n: int) -> int:
    """The first level of a node's block, one row a level, that adds no
    rank to the levels below it or brings them to rank n; failing that,
    the last."""
    ech = Echelon(n)
    for p, row in enumerate(block):
        if ech.add_rows([row]) == 0 or ech.rank == n:
            return p
    return len(block) - 1


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=7),
    k=st.integers(min_value=2, max_value=4),
    twins=st.integers(min_value=1, max_value=2),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
@settings(max_examples=60, deadline=None)
def test_a_twin_basis_built_from_the_first_spans_its_own_block(
    seed, n, k, twins, trials, depth
):
    # a twin's block is the first twin's of its class with the two
    # coordinates exchanged, so the basis built from the first's spans its
    # own block, and a chain that watches one member of each class stops
    # where one watching every node would
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    for _ in range(twins):
        g = _with_twin(g)
    oracle = NomOracle(g, RankConfig(trials=trials, seed=seed, depth=depth))
    nodes = range(1, g.n + 1)
    stops = []
    for t in range(oracle.trials):
        blocks = full_depth_blocks(oracle, t)
        bases = {v: oracle.basis(t, v) for v in nodes}
        for cls in g.twin_classes:
            for v in cls:
                rank = modp_rank(block_rows(blocks, [v]), g.n)
                assert modp_rank(bases[v], g.n) == len(bases[v]) == rank
        for u, v in combinations(nodes, 2):
            rank = modp_rank(block_rows(blocks, [u, v]), g.n)
            assert modp_rank(bases[u] + bases[v], g.n) == rank
        stops.append(
            max(_first_flat_level(blocks[v - 1].tolist(), g.n) for v in nodes)
        )
        assert oracle.evaluation(t).shape[1] - 1 == stops[-1]
        assert oracle.stacked_depth == max(stops)


def test_an_unwatched_evaluation_folds_as_many_rows_at_any_star_size(
    monkeypatch,
):
    # the leaves of star n/3 are one twin class, so trial 0's chain folds
    # the rows of the two core nodes and of leaf 3 alone, at any n
    add_rows = Echelon.add_rows
    folded = []

    def counting(self, rows):
        rows = list(rows)
        folded[-1] += len(rows)
        return add_rows(self, rows)

    monkeypatch.setattr(Echelon, "add_rows", counting)
    for n in (11, 20, 40):
        folded.append(0)
        NomOracle(gen_hyperstar(n, 3), RankConfig(trials=3)).evaluation(0)
    assert folded[0] == folded[1] == folded[2]


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_greedy_evaluates_trials_only_when_needed(monkeypatch):
    cfg = RankConfig(trials=3)
    # every ring node reaches full rank at trial 0, so no other trial can
    # change a score
    evals = _count_calls(monkeypatch, observability, "node_blocks")
    ring = greedy_mon(gen_hyperring(6, 3), cfg)
    assert len(evals) == 1
    assert ring == MonResult((1,), (6,), depth=5)
    # a star leaf alone stays below full rank but reaches its twin
    # ceiling at trial 0, and so does every later pick
    evals.clear()
    greedy_mon(gen_hyperstar(6, 3), cfg)
    assert len(evals) == 1
    # at depth 2 a leaf reaches rank 3, one below its ceiling 4, so every
    # trial is scored
    evals.clear()
    greedy_mon(gen_hyperstar(6, 3), RankConfig(trials=3, depth=2))
    assert len(evals) == 3


def test_brute_force_stops_at_the_first_full_rank_trial(monkeypatch):
    ranks = _count_calls(monkeypatch, mon, "modp_rank")
    res = brute_force_mon(gen_hyperring(6, 3), RankConfig(trials=3))
    assert res.selected == (1,)
    assert len(ranks) == 1


def test_brute_force_starts_at_the_twin_bound(monkeypatch):
    # star 20/3 needs 17 of its 18 twin leaves; a prefix with a core node
    # leaves two leaves unmeasured, so the walk takes leaves 3..18, offers
    # 19 and 20 for the last slot, and the first subset ranked is the answer
    lasts = _count_calls(monkeypatch, mon, "combinations")
    ranks = _count_calls(monkeypatch, mon, "modp_rank")
    res = brute_force_mon(gen_hyperstar(20, 3))
    assert res.selected == tuple(range(3, 20))
    assert [(tuple(pool), r) for pool, r in lasts] == [((19, 20), 1)]
    assert len(ranks) == 1


def test_brute_force_ranks_each_subset_once_per_trial(monkeypatch):
    # complete 6/2 has no twins and needs five nodes. (1) fails at its one
    # trial, k = 2 having one point, which turns the rank cut on. Every
    # node's basis has rank 2 and s nodes span s + 1 dimensions, so the cut
    # takes every prefix of sizes 2 and 3 (rank at most 4 and 5), but a
    # 4-subset's prefix of three nodes has rank 4, so each of the 15 is
    # ranked (rank 5). Then (1, ..., 5) is ranked.
    g = gen_complete(6, 2)
    cfg = RankConfig(trials=3)
    ranks = _count_calls(monkeypatch, mon, "modp_rank")
    res = brute_force_mon(g, cfg)
    assert len(ranks) == 1 + comb(6, 4) + 1
    assert res.selected == naive_brute_force(g, cfg).selected
    assert res.selected == (1, 2, 3, 4, 5)
    # ring 9/3 at depth 2 has no twins, and each basis has rank at most 3.
    # (1) fails at all three trials, so the cut takes every prefix of size
    # 1 and 2 (rank at most 6), and (1, 2, 3) reaches rank 9 at trial 0
    ranks.clear()
    g, cfg = gen_hyperring(9, 3), RankConfig(trials=3, depth=2)
    res = brute_force_mon(g, cfg)
    assert len(ranks) == 3 * 1 + 1
    assert res.selected == naive_brute_force(g, cfg).selected == (1, 2, 3)


@pytest.mark.parametrize("n", [10, 11, 20])
def test_brute_force_on_stars_evaluates_trial_0_only(monkeypatch, n):
    # the first subset a star's walk ranks is its answer, full rank at
    # trial 0, so no later trial point is drawn and the rank cut stays off
    evals = _count_calls(monkeypatch, observability, "node_blocks")
    res = brute_force_mon(gen_hyperstar(n, 3), RankConfig(trials=3))
    assert res.selected == tuple(range(3, n))
    assert len(evals) == 1


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    family=st.sampled_from(["ring", "chain", "complete", "random"]),
    n=st.integers(min_value=2, max_value=9),
    k=st.integers(min_value=2, max_value=3),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_brute_force_with_the_rank_cut_matches_the_plain_search(
    seed, family, n, k, trials, depth
):
    # with no twins every component's walk starts at size 1, so a minimum
    # above one node per component means a subset failed at every trial,
    # which turns the rank cut on
    rng = random.Random(seed)
    n = max(n, k)
    if family == "random":
        g = random_uniform_hypergraph(n, k, rng, density=rng.random())
    else:
        g = FAMILIES[family](n, k)
    assume(not g.twin_classes)
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    exact = naive_brute_force(g, cfg)
    assume(exact.size > len(g.connected_components()))
    assert brute_force_mon(g, cfg).selected == exact.selected


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=8),
    k=st.integers(min_value=2, max_value=3),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=0, max_value=3),
    twin=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_the_rank_cut_keeps_every_full_rank_subset(
    seed, n, k, trials, depth, twin
):
    # the twin cut alone walks exactly the subsets at full ceiling, in
    # lexicographic order, through prefixes that each have one; the rank
    # cut drops only subsets below rank n at every trial, and counts no
    # more visits
    rng = random.Random(seed)
    g = random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    if twin:
        g = _with_twin(g)
    n = g.n
    oracle = NomOracle(g, RankConfig(trials=trials, seed=seed, depth=depth))
    plain, cut = mon._Walk(oracle), mon._Walk(oracle)
    cut.rank_cut = True
    prefixes = []
    push = plain._push
    plain._push = lambda v: (push(v), prefixes.append(tuple(plain.path)))
    for size in range(plain.start, n + 1):
        prefixes.clear()
        walked = list(plain.subsets(size))
        assert walked == [
            s
            for s in combinations(range(1, n + 1), size)
            if oracle.ceiling(s) == n
        ]
        heads = {s[:d] for s in walked for d in range(size)}
        assert set(prefixes) <= heads
        full = [
            s
            for s in walked
            if any(
                modp_rank([row for i in s for row in oracle.basis(t, i)], n)
                == n
                for t in range(oracle.trials)
            )
        ]
        kept = list(cut.subsets(size))
        assert kept == [s for s in walked if s in set(kept)]
        assert set(full) <= set(kept)
    assert cut.visits <= plain.visits


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    sizes=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    lone=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=2, max_value=3),
    trials=st.integers(min_value=1, max_value=3),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
@settings(max_examples=40, deadline=None)
def test_brute_force_per_component_matches_the_whole_graph_search(
    seed, sizes, lone, k, trials, depth
):
    # the sorted union of each component's lexicographically first minimum
    # set is the whole graph's, also when shuffled labels interleave the
    # components
    rng = random.Random(seed)
    a, b = (
        random_uniform_hypergraph(max(m, k), k, rng, density=rng.random())
        for m in sizes
    )
    union = disjoint_union(a, b)
    g = UniformHypergraph(union.n + lone, k, union.edges)
    labels = list(range(1, g.n + 1))
    rng.shuffle(labels)
    g = relabel(g, dict(zip(range(1, g.n + 1), labels)))
    cfg = RankConfig(trials=trials, seed=seed, depth=depth)
    fast, plain = brute_force_mon(g, cfg), naive_brute_force(g, cfg)
    assert fast.selected == plain.selected
    assert [c.nodes for c in fast.components] == [
        tuple(c) for c in g.connected_components()
    ]
