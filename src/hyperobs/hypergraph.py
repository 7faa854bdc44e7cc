"""k-uniform hypergraphs: the data type, generator families and JSON
serialization.

Nodes are labelled 1..n. Every hyperedge is a set of exactly k distinct
nodes, held canonically as a sorted tuple; the edge list itself is sorted
and duplicate-free, so equal hypergraphs compare equal structurally.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Any, Iterable, Mapping, Sequence

from .errors import ResourceLimitError

MAX_EDGES = 10**6


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

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of two or more twins: nodes of positive degree whose sets
        of hyperedge remainders e - {i} are equal. Each class is sorted,
        and the classes are ordered by their first node. Worked out once
        per hypergraph."""
        rests: dict[int, set[tuple[int, ...]]] = {}
        for e in self.edges:
            for p, i in enumerate(e):
                rests.setdefault(i, set()).add(e[:p] + e[p + 1 :])
        groups: dict[frozenset[tuple[int, ...]], list[int]] = {}
        for i in sorted(rests):
            groups.setdefault(frozenset(rests[i]), []).append(i)
        return tuple(tuple(c) for c in groups.values() if len(c) > 1)

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
        # only singleton components, built in memory, may have k > n
        _check_sizes(n, k)
        if not isinstance(edges, list):
            raise ValueError("edges must be a list of node lists")
        for pos, e in enumerate(edges, start=1):
            if not isinstance(e, list) or not all(_is_int(i) for i in e):
                raise ValueError(f"edge #{pos} is not a list of integers: {e!r}")
        return cls(n, k, edges)

    @classmethod
    def from_json(cls, text: str) -> UniformHypergraph:
        try:
            return cls.from_dict(json.loads(text))
        except RecursionError:
            raise ValueError("JSON nests too deeply to load") from None


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which Python counts as an int subtype
    return isinstance(value, int) and not isinstance(value, bool)


def gen_hyperchain(n: int, k: int) -> UniformHypergraph:
    """Consecutive windows {i, ..., i+k-1}; n-k+1 edges."""
    _check_sizes(n, k)
    _check_edges("chain", n - k + 1)
    return UniformHypergraph(
        n, k, [tuple(range(i, i + k)) for i in range(1, n - k + 2)]
    )


def gen_hyperring(n: int, k: int) -> UniformHypergraph:
    """Cyclic windows of width k. Windows that wrap onto the same node set
    collapse, so the ring on n = k nodes has a single edge."""
    _check_sizes(n, k)
    _check_edges("ring", 1 if n == k else n)
    edges = [
        tuple((i + t) % n + 1 for t in range(k)) for i in range(n)
    ]
    return UniformHypergraph(n, k, edges)


def gen_hyperstar(n: int, k: int) -> UniformHypergraph:
    """Shared core {1, ..., k-1} plus one leaf per edge; n-k+1 edges."""
    _check_sizes(n, k)
    _check_edges("star", n - k + 1)
    core = tuple(range(1, k))
    return UniformHypergraph(
        n, k, [core + (leaf,) for leaf in range(k, n + 1)]
    )


def gen_complete(n: int, k: int) -> UniformHypergraph:
    """All C(n, k) hyperedges."""
    _check_sizes(n, k)
    # C(n, j) grows with j up to n / 2: refuse at the first one over the cap
    total = 1
    for j in range(1, min(k, n - k) + 1):
        total = total * (n - j + 1) // j
        if total > MAX_EDGES:
            raise ResourceLimitError(
                f"complete hypergraph would hold more than {MAX_EDGES} edges"
            )
    return UniformHypergraph(n, k, combinations(range(1, n + 1), k))


FAMILIES = {
    "chain": gen_hyperchain,
    "ring": gen_hyperring,
    "star": gen_hyperstar,
    "complete": gen_complete,
}


def _check_edges(family: str, total: int) -> None:
    """Refuse a family member of more than MAX_EDGES edges before any is
    built."""
    if total > MAX_EDGES:
        raise ResourceLimitError(
            f"{family} hypergraph would hold {total} edges (cap {MAX_EDGES})"
        )


def _check_sizes(n: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"uniformity must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k = {k} nodes, got n = {n}")
    if n >= sys.maxsize:  # range(n + 1) must have a length
        raise ValueError(f"node count {n} must be below {sys.maxsize}")


def induced_subhypergraph(
    g: UniformHypergraph, nodes: Sequence[int]
) -> UniformHypergraph:
    """Restrict to a node subset, relabelled 1..len(nodes) in sorted order.

    Only edges entirely inside the subset survive.
    """
    ordered = sorted(set(nodes))
    if not ordered:
        raise ValueError("node subset is empty")
    if ordered[0] < 1 or ordered[-1] > g.n:
        raise IndexError(f"nodes {nodes} outside 1..{g.n}")
    to_new = {old: new for new, old in enumerate(ordered, start=1)}
    edges = [
        tuple(to_new[i] for i in e) for e in g.edges if to_new.keys() >= set(e)
    ]
    return UniformHypergraph(len(ordered), g.k, edges)
