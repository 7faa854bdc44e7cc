from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

import pytest

from hyperobs import DynamicsSpec, UniformHypergraph
from hyperobs.dynamics import lie_derivatives


@pytest.fixture
def triangle() -> UniformHypergraph:
    """Single hyperedge {1,2,3}: dx1 = x2 x3, dx2 = x1 x3, dx3 = x1 x2."""
    return UniformHypergraph(3, 3, [(1, 2, 3)])


@pytest.fixture
def triangle_dyn(triangle) -> DynamicsSpec:
    return DynamicsSpec(triangle)


def rational_point(n: int, rng: random.Random) -> list[Fraction]:
    """Small nonzero integer coordinates as exact rationals."""
    return [Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])) for _ in range(n)]


def int_point(n: int, rng: random.Random) -> list[int]:
    return [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(n)]


def chain_values(
    dyn: DynamicsSpec, x: list[int], depth: int
) -> list[list[int]]:
    """The kernel's chain values J_0..J_depth at x, as residues mod P."""
    return lie_derivatives(dyn, x, depth)[:, :, 0].tolist()


def random_uniform_hypergraph(
    n: int, k: int, rng: random.Random, density: float = 0.5
) -> UniformHypergraph:
    from itertools import combinations

    pool = list(combinations(range(1, n + 1), k))
    edges = [e for e in pool if rng.random() < density]
    if not edges:
        edges = [pool[rng.randrange(len(pool))]]
    return UniformHypergraph(n, k, edges)


def disjoint_union(
    a: UniformHypergraph, b: UniformHypergraph
) -> UniformHypergraph:
    """The two hypergraphs side by side; b's nodes are shifted past a's."""
    if a.k != b.k:
        raise ValueError(f"uniformities differ: {a.k} and {b.k}")
    shifted = [tuple(i + a.n for i in e) for e in b.edges]
    return UniformHypergraph(a.n + b.n, a.k, list(a.edges) + shifted)


def relabel(
    g: UniformHypergraph, mapping: Mapping[int, int]
) -> UniformHypergraph:
    """Apply a node permutation. The mapping must be a bijection on 1..n."""
    if sorted(mapping.keys()) != list(range(1, g.n + 1)) or sorted(
        mapping.values()
    ) != list(range(1, g.n + 1)):
        raise ValueError("mapping is not a permutation of 1..n")
    return UniformHypergraph(
        g.n, g.k, [tuple(mapping[i] for i in e) for e in g.edges]
    )
