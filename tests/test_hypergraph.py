"""Hypergraph type, generators, serialization and adjacency structure."""

import json
import random
import re
import sys
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs import hypergraph
from hyperobs.cli import main
from hyperobs.dynamics import DynamicsSpec
from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import (
    UniformHypergraph,
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
    induced_subhypergraph,
)
from conftest import disjoint_union, random_uniform_hypergraph, relabel
from oracles import (
    canonical_edges,
    cells_and_sets,
    columns,
    edge_degrees,
    edge_incidence,
    edge_twin_classes,
)


def test_construction_canonicalizes():
    g = UniformHypergraph(4, 3, [(3, 2, 1), (1, 2, 3), (2, 4, 3)])
    assert g.edges == ((1, 2, 3), (2, 3, 4))
    assert g.num_edges == 2
    assert g.degrees() == {1: 1, 2: 2, 3: 2, 4: 1}


def test_construction_errors():
    with pytest.raises(ValueError):
        UniformHypergraph(0, 2)
    with pytest.raises(ValueError):
        UniformHypergraph(3, 1)
    with pytest.raises(ValueError):
        UniformHypergraph(3, 3, [(1, 2, 2)])
    with pytest.raises(ValueError):
        UniformHypergraph(3, 3, [(1, 2)])
    with pytest.raises(ValueError):
        UniformHypergraph(3, 3, [(1, 2, 4)])


def test_generator_shapes():
    chain = gen_hyperchain(4, 3)
    assert chain.edges == ((1, 2, 3), (2, 3, 4))
    assert gen_hyperchain(5, 3).num_edges == 3
    # ring on exactly k nodes collapses to one edge
    assert gen_hyperring(3, 3).edges == ((1, 2, 3),)
    ring4 = gen_hyperring(4, 3)
    assert ring4.edges == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    star = gen_hyperstar(6, 3)
    assert star.edges == ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6))
    assert gen_complete(5, 3).num_edges == 10
    assert gen_complete(4, 2).num_edges == 6


def test_generator_validation(monkeypatch):
    for gen in (gen_hyperchain, gen_hyperring, gen_hyperstar, gen_complete):
        with pytest.raises(ValueError):
            gen(3, 5)
        with pytest.raises(ValueError):
            gen(3, 1)
    with pytest.raises(ResourceLimitError):
        gen_complete(200, 3)
    # every family admits exactly MAX_EDGES edges, and refuses one more
    # before building any
    monkeypatch.setattr(hypergraph, "MAX_EDGES", 10)
    # complete stops at C(6, 2) = 15, before C(6, 3) is formed
    for family, n, k, over in (
        ("chain", 12, 3, "11 edges .cap 10."),
        ("ring", 10, 3, "11 edges .cap 10."),
        ("star", 12, 3, "11 edges .cap 10."),
        ("complete", 5, 3, "more than 10 edges"),
    ):
        gen = hypergraph.FAMILIES[family]
        assert gen(n, k).num_edges == 10
        message = f"^{family} hypergraph would hold {over}$"
        with pytest.raises(ResourceLimitError, match=message):
            gen(n + 1, k)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_handshake_identity(seed):
    rng = random.Random(seed)
    g = random_uniform_hypergraph(
        rng.randint(3, 7), rng.randint(2, 3), rng
    )
    assert sum(g.degrees().values()) == g.k * g.num_edges


def test_connected_components():
    g = UniformHypergraph(7, 3, [(1, 2, 3), (3, 4, 5)])
    assert g.connected_components() == [[1, 2, 3, 4, 5], [6], [7]]
    assert gen_hyperchain(5, 3).connected_components() == [[1, 2, 3, 4, 5]]
    lone = UniformHypergraph(3, 2)
    assert lone.connected_components() == [[1], [2], [3]]


def test_leave_one_out_matches_the_per_set_sort():
    # the sets from one drop table and each stage's distinct sets from one
    # stable sort of small keys equal, dtypes included, those of sorting
    # every set on its own and np.unique, on 200 random k = 3..5 graphs and
    # on complete 40/4 (1,096,680 sets)
    rng = random.Random(31)
    graphs = [gen_complete(40, 4)]
    for _ in range(200):
        k = rng.randint(3, 5)
        n = rng.randint(k, 12)
        graphs.append(random_uniform_hypergraph(n, k, rng, density=rng.random()))
    for g in graphs:
        dyn = DynamicsSpec(g)
        _, (want_stages, want_gather) = cells_and_sets(
            dyn.incidence, dyn.incidence_starts, g.n
        )
        stages, gather = dyn.leave_one_out
        assert gather.dtype == want_gather.dtype
        assert np.array_equal(gather, want_gather)
        assert len(stages) == len(want_stages)
        for pair, want in zip(stages, want_stages):
            for got, expected in zip(pair, want):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)


def test_disjoint_union():
    a = gen_hyperchain(4, 3)
    b = UniformHypergraph(3, 3, [(1, 2, 3)])
    u = disjoint_union(a, b)
    assert u.n == 7
    assert u.edges == ((1, 2, 3), (2, 3, 4), (5, 6, 7))
    assert u.connected_components() == [[1, 2, 3, 4], [5, 6, 7]]
    with pytest.raises(ValueError):
        disjoint_union(a, UniformHypergraph(3, 2))


def test_relabel_and_induced():
    g = gen_hyperstar(5, 3)
    perm = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    h = relabel(g, perm)
    assert h.edges == ((1, 4, 5), (2, 4, 5), (3, 4, 5))
    with pytest.raises(ValueError):
        relabel(g, {1: 1, 2: 2, 3: 3, 4: 4, 5: 4})
    sub = induced_subhypergraph(g, [1, 2, 4])
    assert sub.n == 3
    assert sub.edges == ((1, 2, 3),)
    # the subset's nodes are relabelled 1.. in sorted order: 2, 3, 4, 5 of h
    # become 1, 2, 3, 4, whatever order the subset lists them in
    sub = induced_subhypergraph(h, [5, 2, 4, 3])
    assert sub.edges == ((1, 3, 4), (2, 3, 4))
    with pytest.raises(ValueError):
        induced_subhypergraph(g, [])
    with pytest.raises(IndexError):
        induced_subhypergraph(g, [1, 9])


def test_json_round_trip():
    g = gen_hyperring(5, 3)
    text = g.to_json()
    assert text.endswith("\n")
    assert UniformHypergraph.from_json(text) == g
    # canonical form: keys sorted, stable across dumps
    assert text == g.to_json()
    parsed = json.loads(text)
    assert list(parsed.keys()) == ["edges", "k", "n"]


def test_from_dict_errors():
    with pytest.raises(ValueError, match="required key"):
        UniformHypergraph.from_dict({"n": 3, "k": 2})
    with pytest.raises(ValueError, match="integers"):
        UniformHypergraph.from_dict({"n": "3", "k": 2, "edges": []})
    with pytest.raises(ValueError, match="list"):
        UniformHypergraph.from_dict({"n": 3, "k": 2, "edges": "no"})
    with pytest.raises(ValueError, match="edge #2"):
        UniformHypergraph.from_dict(
            {"n": 3, "k": 2, "edges": [[1, 2], [1, "2"]]}
        )
    # JSON true/false are not node counts or labels
    for flag in ("n", "k"):
        data = {"n": 3, "k": 2, "edges": []}
        data[flag] = True
        with pytest.raises(ValueError, match="integers"):
            UniformHypergraph.from_dict(data)
    with pytest.raises(ValueError, match="edge #1"):
        UniformHypergraph.from_dict({"n": 3, "k": 2, "edges": [[True, 2]]})
    for top in (3, None, True, [1, 2], "text"):
        with pytest.raises(ValueError, match="JSON object"):
            UniformHypergraph.from_dict(top)
    # a file holds to the generators' rule k <= n, though singleton
    # components built in memory do not
    with pytest.raises(ValueError, match="need at least k = 4 nodes"):
        UniformHypergraph.from_dict({"n": 3, "k": 4, "edges": []})
    assert UniformHypergraph(1, 3).n == 1
    # n + 1 must still be a list length
    with pytest.raises(ValueError, match="must be below"):
        UniformHypergraph.from_dict({"n": sys.maxsize, "k": 3, "edges": []})
    assert UniformHypergraph.from_dict(
        {"n": sys.maxsize - 1, "k": 3, "edges": []}
    ).n == sys.maxsize - 1


@st.composite
def raw_edge_lists(draw):
    """(n, k, edges, form): unsorted rows of k distinct nodes, repeated
    edges, isolated nodes, up to two components and, often, a star whose
    leaves are twins, given as a list, a tuple or an int array."""
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=k, max_value=12))
    cut = draw(st.integers(min_value=k, max_value=n))

    def edge(lo, hi):
        return st.permutations(range(lo, hi + 1)).map(lambda p: list(p[:k]))

    edges = draw(st.lists(edge(1, cut), max_size=12))
    if n - cut >= k:
        edges += draw(st.lists(edge(cut + 1, n), max_size=8))
    if draw(st.booleans()):
        core = draw(edge(1, cut))[: k - 1]
        leaves = [i for i in range(1, cut + 1) if i not in core]
        for leaf in draw(st.lists(st.sampled_from(leaves), max_size=5)):
            edges.append(core + [leaf])
    if edges:
        again = st.lists(st.sampled_from(edges), max_size=4)
        edges += [list(reversed(e)) for e in draw(again)]
        edges = draw(st.permutations(edges))
    form = draw(st.sampled_from(["list", "tuple", "int64", "int32"]))
    if form == "tuple":
        edges = tuple(map(tuple, edges))
    elif form != "list":
        edges = np.array(edges, dtype=form).reshape(-1, k)
    return n, k, edges, form


@given(raw_edge_lists())
@settings(max_examples=150, deadline=None)
def test_structure_matches_the_per_edge_references(raw):
    n, k, edges, form = raw
    given_rows = np.array(edges, copy=True) if form in ("int64", "int32") else None
    g = UniformHypergraph(n, k, edges)
    assert g.edges == canonical_edges(list(edges), n, k)
    assert all(type(i) is int for e in g.edges for i in e)
    assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
    assert g.edge_array.tolist() == [list(e) for e in g.edges]
    if given_rows is not None:  # the caller's array is left as it was
        assert np.array_equal(edges, given_rows)
    assert g.degrees() == edge_degrees(g)
    rows, starts = edge_incidence(g)
    dyn = DynamicsSpec(g)
    for got, want in ((dyn.incidence, rows), (dyn.incidence_starts, starts)):
        assert got.dtype == np.intp and np.array_equal(got, want)
    assert g.twin_classes == edge_twin_classes(g)
    cells, sets = cells_and_sets(rows, starts, n)
    for got, want in zip(dyn.jacobian_cells, cells):
        assert np.array_equal(got, want)
    if k >= 3:
        (stages, gather), (want_stages, want_gather) = dyn.leave_one_out, sets
        assert np.array_equal(gather, want_gather)
        assert len(stages) == len(want_stages)
        for pair, want in zip(stages, want_stages):
            assert all(map(np.array_equal, pair, want))
    nodes = sorted({i for e in g.edges[: len(g.edges) // 2] for i in e} | {n})
    sub = induced_subhypergraph(g, nodes)
    to_new = {old: new for new, old in enumerate(nodes, start=1)}
    assert sub.edges == canonical_edges(
        [[to_new[i] for i in e] for e in g.edges if set(e) <= set(nodes)],
        len(nodes),
        k,
    )


# each bad edge comes second, after a good one and before another bad one;
# the messages are those of the per-edge loop the array path replaced
MALFORMED = {
    "bool": ([True, 2, 3], "edge #2 is not a list of integers: [True, 2, 3]"),
    "float": ([1.0, 2, 3], "edge #2 is not a list of integers: [1.0, 2, 3]"),
    "string": (["1", 2, 3], "edge #2 is not a list of integers: ['1', 2, 3]"),
    "nested": ([[1], 2, 3], "edge #2 is not a list of integers: [[1], 2, 3]"),
    "ragged": ([3, 1], "edge (3, 1) must have 3 distinct nodes"),
    "ragged-long": ([4, 3, 2, 1], "edge (4, 3, 2, 1) must have 3 distinct nodes"),
    "repeated": ([3, 1, 3], "edge (3, 1, 3) must have 3 distinct nodes"),
    "node-0": ([2, 0, 1], "edge (0, 1, 2) outside node range 1..4"),
    "node-n+1": ([5, 2, 1], "edge (1, 2, 5) outside node range 1..4"),
    "past-int64": (
        [2**70, 1, 2],
        "edge (1, 2, 1180591620717411303424) outside node range 1..4",
    ),
    "below-int64": (
        [-(2**70), 1, 2],
        "edge (-1180591620717411303424, 1, 2) outside node range 1..4",
    ),
    "non-list": (7, "edge #2 is not a list of integers: 7"),
    "non-list-string": ("abc", "edge #2 is not a list of integers: 'abc'"),
}


@pytest.mark.parametrize("bad, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_edges_keep_their_messages(tmp_path, capsys, bad, message):
    data = {"n": 4, "k": 3, "edges": [[1, 2, 3], bad, [1, 1, 2]]}
    with pytest.raises(ValueError) as info:
        UniformHypergraph.from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    for argv in (["observable", str(path), "--nodes", "1"], ["mon", str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hyperobs: error: {message}\n"


def test_constructor_names_the_first_bad_edge():
    # the array path finds the bad row; the message names it as given
    for edges in ([(1, 2, 3), (3, 2, 3), (0, 1, 2)], np.array([[1, 2, 3], [3, 2, 3]])):
        with pytest.raises(ValueError, match=r"^edge \(3, 2, 3\) must have 3"):
            UniformHypergraph(4, 3, edges)
    with pytest.raises(ValueError, match=r"^edge \(1, 2, 9\) outside node range"):
        UniformHypergraph(4, 3, np.array([[1, 2, 3], [9, 2, 1]], dtype=np.int32))
    with pytest.raises(ValueError, match=r"^edge \(0, 1, 2\) outside node range"):
        UniformHypergraph(4, 3, [(1, 2, 3), (2, 1, 0)])
    with pytest.raises(ValueError, match=r"^edge \(1.5, 2, 3\) is not a list"):
        UniformHypergraph(4, 3, [(1, 2, 3), (1.5, 2, 3)])
    assert UniformHypergraph(4, 3, iter([(3, 2, 1)])).edges == ((1, 2, 3),)
    assert UniformHypergraph(4, 3, np.empty((0, 3), dtype=np.int64)).edges == ()


def test_loaded_hypergraphs_honour_the_edge_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hypergraph, "MAX_EDGES", 4)
    ring = gen_hyperring(4, 3)  # the cap's 4 edges load
    assert UniformHypergraph.from_dict(ring.to_dict()) == ring
    # refused before any validation: the fifth edge is not even an edge
    data = {"n": 4, "k": 3, "edges": [*map(list, ring.edges), "bad"]}
    message = "hypergraph holds 5 edges (cap 4)"
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        UniformHypergraph.from_json(json.dumps(data))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert main(["mon", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hyperobs: resource limit: {message}\n"


def _flat(rest, n):
    # first factor most significant, as in oracles.columns
    pos = 0
    for j in rest:
        pos = pos * n + (j - 1)
    return pos


def _table(dyn):
    """The column table as a set of (row, column) positions, 1-based rows."""
    return {
        (r, c)
        for r, cols in enumerate(columns(dyn), start=1)
        for c in cols
    }


def _tensor_of(dyn):
    """Read the column table back as the index set of the adjacency tensor:
    row i and the digits of the column give the full index."""
    n, k = dyn.n, dyn.k
    tensor = set()
    for r, c in _table(dyn):
        rest = []
        for _ in range(k - 1):
            c, digit = divmod(c, n)
            rest.append(digit + 1)
        tensor.add((r, *reversed(rest)))
    return tensor


def test_adjacency_tensor_supersymmetric():
    # every ordering of every hyperedge is listed, nothing else
    g = UniformHypergraph(4, 3, [(1, 2, 3), (2, 3, 4)])
    tensor = _tensor_of(DynamicsSpec(g))
    # 2 edges x 3! orderings
    assert tensor == {idx for e in g.edges for idx in permutations(e)}


def test_adjacency_unfolding_matches_tensor_unfold():
    # unfolding the tensor along any mode gives back the same table
    rng = random.Random(5)
    for _ in range(10):
        g = random_uniform_hypergraph(
            rng.randint(3, 5), rng.randint(2, 3), rng
        )
        dyn = DynamicsSpec(g)
        tensor = _tensor_of(dyn)
        for mode in range(1, g.k + 1):
            unfolded = {
                (idx[mode - 1], _flat(idx[: mode - 1] + idx[mode:], g.n))
                for idx in tensor
            }
            assert unfolded == _table(dyn)


def test_unfolding_row_sums_are_degrees():
    # row i holds degree(i) * (k-1)! entries of 1/(k-1)!, summing to the degree
    g = gen_hyperstar(6, 3)
    cols = columns(DynamicsSpec(g))
    assert {i: len(c) for i, c in enumerate(cols, start=1)} == {
        i: d * factorial(g.k - 1) for i, d in g.degrees().items()
    }


def test_unfolding_column_cap():
    # n^(k-1) columns may not exceed the 1e8 slot cap: 465^3 > 1e8 >= 464^3
    over = DynamicsSpec(UniformHypergraph(465, 4, [(1, 2, 3, 4)]))
    with pytest.raises(ResourceLimitError, match="columns"):
        columns(over)
    at_cap = DynamicsSpec(UniformHypergraph(464, 4, [(1, 2, 3, 4)]))
    assert [len(c) for c in columns(at_cap)[:5]] == [6, 6, 6, 6, 0]
