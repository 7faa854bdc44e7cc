"""k-uniform hypergraphs: the data type, generator families, JSON
serialization and the adjacency unfolding.

Nodes are labelled 1..n. Every hyperedge is a set of exactly k distinct
nodes, held canonically as a sorted tuple; the edge list itself is sorted
and duplicate-free, so equal hypergraphs compare equal structurally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial
from typing import Any, Iterable, Mapping, Sequence

from .errors import ResourceLimitError
from .scalars import RATIONALS
from .tensor import MAX_DENSE_SLOTS, SparseMatrix, ivec

MAX_COMPLETE_EDGES = 10**6


@dataclass(frozen=True)
class UniformHypergraph:
    """A k-uniform hypergraph on nodes 1..n."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]] = ()):
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        if k < 2:
            raise ValueError(f"uniformity must be at least 2, got {k}")
        canon = set()
        for e in edges:
            tup = tuple(sorted(e))
            if len(set(tup)) != k or len(tup) != k:
                raise ValueError(
                    f"edge {tuple(e)} must have {k} distinct nodes"
                )
            if tup[0] < 1 or tup[-1] > n:
                raise ValueError(f"edge {tup} outside node range 1..{n}")
            canon.add(tup)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: int) -> int:
        """Number of hyperedges containing the node."""
        if not 1 <= node <= self.n:
            raise IndexError(f"node {node} outside 1..{self.n}")
        return sum(1 for e in self.edges if node in e)

    def degrees(self) -> dict[int, int]:
        out = {i: 0 for i in range(1, self.n + 1)}
        for e in self.edges:
            for i in e:
                out[i] += 1
        return out

    def connected_components(self) -> list[list[int]]:
        """Node sets linked through shared hyperedges, sorted within and
        across components. Isolated nodes come back as singletons."""
        parent = list(range(self.n + 1))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges:
            root = find(e[0])
            for i in e[1:]:
                parent[find(i)] = root
        groups: dict[int, list[int]] = {}
        for i in range(1, self.n + 1):
            groups.setdefault(find(i), []).append(i)
        return sorted(sorted(g) for g in groups.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "k": self.k,
            "edges": [list(e) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> UniformHypergraph:
        if not isinstance(data, Mapping):
            raise ValueError(
                f"hypergraph must be a JSON object, got {type(data).__name__}"
            )
        for key in ("n", "k", "edges"):
            if key not in data:
                raise ValueError(f"hypergraph object lacks required key {key!r}")
        n, k, edges = data["n"], data["k"], data["edges"]
        if not _is_int(n) or not _is_int(k):
            raise ValueError("n and k must be integers")
        if not isinstance(edges, list):
            raise ValueError("edges must be a list of node lists")
        for pos, e in enumerate(edges, start=1):
            if not isinstance(e, list) or not all(_is_int(i) for i in e):
                raise ValueError(f"edge #{pos} is not a list of integers: {e!r}")
        return cls(n, k, edges)

    @classmethod
    def from_json(cls, text: str) -> UniformHypergraph:
        return cls.from_dict(json.loads(text))


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which Python counts as an int subtype
    return isinstance(value, int) and not isinstance(value, bool)


def gen_hyperchain(n: int, k: int) -> UniformHypergraph:
    """Consecutive windows {i, ..., i+k-1}; n-k+1 edges."""
    _check_generator_args(n, k)
    return UniformHypergraph(
        n, k, [tuple(range(i, i + k)) for i in range(1, n - k + 2)]
    )


def gen_hyperring(n: int, k: int) -> UniformHypergraph:
    """Cyclic windows of width k. Windows that wrap onto the same node set
    collapse, so the ring on n = k nodes has a single edge."""
    _check_generator_args(n, k)
    edges = [
        tuple((i + t) % n + 1 for t in range(k)) for i in range(n)
    ]
    return UniformHypergraph(n, k, edges)


def gen_hyperstar(n: int, k: int) -> UniformHypergraph:
    """Shared core {1, ..., k-1} plus one leaf per edge; n-k+1 edges."""
    _check_generator_args(n, k)
    core = tuple(range(1, k))
    return UniformHypergraph(
        n, k, [core + (leaf,) for leaf in range(k, n + 1)]
    )


def gen_complete(
    n: int, k: int, max_edges: int = MAX_COMPLETE_EDGES
) -> UniformHypergraph:
    """All C(n, k) hyperedges."""
    _check_generator_args(n, k)
    total = comb(n, k)
    if total > max_edges:
        raise ResourceLimitError(
            f"complete hypergraph would hold {total} edges (cap {max_edges})"
        )
    return UniformHypergraph(n, k, combinations(range(1, n + 1), k))


def _check_generator_args(n: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"uniformity must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k = {k} nodes, got n = {n}")


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


def induced_subhypergraph(
    g: UniformHypergraph, nodes: Sequence[int]
) -> tuple[UniformHypergraph, dict[int, int]]:
    """Restrict to a node subset, relabelled to 1..len(nodes).

    Only edges entirely inside the subset survive. Returns the restricted
    hypergraph and the map from new labels back to originals.
    """
    ordered = sorted(set(nodes))
    if not ordered:
        raise ValueError("node subset is empty")
    if ordered[0] < 1 or ordered[-1] > g.n:
        raise IndexError(f"nodes {nodes} outside 1..{g.n}")
    to_new = {old: new for new, old in enumerate(ordered, start=1)}
    keep = set(ordered)
    edges = [
        tuple(to_new[i] for i in e) for e in g.edges if keep.issuperset(e)
    ]
    back = {new: old for old, new in to_new.items()}
    return UniformHypergraph(len(ordered), g.k, edges), back


def adjacency_unfolding(
    g: UniformHypergraph,
    domain: Any = RATIONALS,
    max_cols: int = MAX_DENSE_SLOTS,
) -> SparseMatrix:
    """Mode unfolding of the adjacency tensor, built edge by edge.

    Row i collects 1/(k-1)! at the flattened index of every ordering of each
    hyperedge through i with i removed. By supersymmetry the result does not
    depend on which mode is unfolded.
    """
    cols = g.n ** (g.k - 1)
    if cols > max_cols:
        raise ResourceLimitError(
            f"unfolding has n^(k-1) = {cols} columns, cap is {max_cols}"
        )
    w = domain.inv_int(factorial(g.k - 1))
    dims = (g.n,) * (g.k - 1)
    entries: dict[tuple[int, int], Any] = {}
    for e in g.edges:
        for i in e:
            rest = tuple(j for j in e if j != i)
            for order in permutations(rest):
                entries[(i, ivec(order, dims))] = w
    return SparseMatrix(g.n, cols, entries)
