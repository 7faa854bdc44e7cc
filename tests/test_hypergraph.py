"""Hypergraph type, generators, serialization and adjacency structure."""

import json
import random
import sys
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs import hypergraph
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
from oracles import columns


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
