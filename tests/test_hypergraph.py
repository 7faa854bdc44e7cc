"""Hypergraph type, generators, serialization and adjacency structure."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import (
    UniformHypergraph,
    adjacency_unfolding,
    disjoint_union,
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
    induced_subhypergraph,
    relabel,
)
from hyperobs.tensor import ivec
from conftest import random_uniform_hypergraph


def test_construction_canonicalizes():
    g = UniformHypergraph(4, 3, [(3, 2, 1), (1, 2, 3), (2, 4, 3)])
    assert g.edges == ((1, 2, 3), (2, 3, 4))
    assert g.num_edges == 2
    assert g.degree(2) == 2
    assert g.degree(1) == 1
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
    with pytest.raises(IndexError):
        UniformHypergraph(3, 2, [(1, 2)]).degree(4)


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


def test_generator_validation():
    for gen in (gen_hyperchain, gen_hyperring, gen_hyperstar, gen_complete):
        with pytest.raises(ValueError):
            gen(3, 5)
        with pytest.raises(ValueError):
            gen(3, 1)
    with pytest.raises(ResourceLimitError):
        gen_complete(200, 3)
    assert gen_complete(200, 3, max_edges=2 * 10**6).num_edges == 1313400


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
    sub, back = induced_subhypergraph(g, [1, 2, 4])
    assert sub.n == 3
    assert sub.edges == ((1, 2, 3),)
    assert back == {1: 1, 2: 2, 3: 4}
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


def _tensor_of(A, n, k):
    """Read an unfolding back as a tensor: row i and the ivec digits of the
    column give the full index."""
    tensor = {}
    for (r, c), v in A.entries.items():
        pos, rest = c - 1, []
        for _ in range(k - 1):
            pos, digit = divmod(pos, n)
            rest.append(digit + 1)
        tensor[(r, *rest)] = v
    return tensor


def test_adjacency_tensor_supersymmetric():
    # every ordering of every hyperedge holds 1/(k-1)!, nothing else is stored
    g = UniformHypergraph(4, 3, [(1, 2, 3), (2, 3, 4)])
    tensor = _tensor_of(adjacency_unfolding(g), g.n, g.k)
    # 2 edges x 3! orderings
    assert len(tensor) == 12
    for e in g.edges:
        for idx in permutations(e):
            assert tensor[idx] == Fraction(1, 2)


def test_adjacency_unfolding_matches_tensor_unfold():
    # unfolding the tensor along any mode gives back the same matrix
    rng = random.Random(5)
    for _ in range(10):
        g = random_uniform_hypergraph(
            rng.randint(3, 5), rng.randint(2, 3), rng
        )
        direct = adjacency_unfolding(g)
        tensor = _tensor_of(direct, g.n, g.k)
        dims = (g.n,) * (g.k - 1)
        for mode in range(1, g.k + 1):
            unfolded = {
                (idx[mode - 1], ivec(idx[: mode - 1] + idx[mode:], dims)): v
                for idx, v in tensor.items()
            }
            assert unfolded == direct.entries


def test_unfolding_row_sums_are_degrees():
    g = gen_hyperstar(6, 3)
    A = adjacency_unfolding(g)
    sums = {i: Fraction(0) for i in range(1, g.n + 1)}
    for (r, _), v in A.entries.items():
        sums[r] += v
    assert sums == {i: Fraction(d) for i, d in g.degrees().items()}


def test_unfolding_column_cap():
    # 1000^3 = 1e9 columns, over the default 1e8 slot cap
    g = UniformHypergraph(1000, 4, [(1, 2, 3, 4)])
    with pytest.raises(ResourceLimitError, match="columns"):
        adjacency_unfolding(g)
    small = gen_hyperchain(4, 3)
    with pytest.raises(ResourceLimitError):
        adjacency_unfolding(small, max_cols=15)
    assert adjacency_unfolding(small, max_cols=16).cols == 16
