"""k-uniform hypergraphs: the data type, generator families and JSON
serialization.

Nodes are labelled 1..n. Every hyperedge is a set of exactly k distinct
nodes, held canonically as a sorted tuple; the edge list itself is sorted
and duplicate-free, so equal hypergraphs compare equal structurally. The
same edges are kept as one (E, k) int64 array, and the degrees, the
incidence of hyperedge remainders and the twin classes are built from it
with numpy, so no step walks the edges in a Python loop; such a loop only
words the error for the first bad edge.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress
from operator import lt, ne
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import ResourceLimitError

MAX_EDGES = 10**6


@dataclass(frozen=True)
class UniformHypergraph:
    """A k-uniform hypergraph on nodes 1..n.

    ``edge_array`` holds ``edges`` as one read-only (E, k) int64 array,
    row for row. It is not a field: equality, hashing and repr are those
    of the tuples."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]] = ()):
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        if k < 2:
            raise ValueError(f"uniformity must be at least 2, got {k}")
        rows, canon = _canonical(edges, n, k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", canon)
        object.__setattr__(self, "edge_array", rows)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def _degree_counts(self) -> np.ndarray:
        """How many edges hold each node, at index node - 1."""
        return np.bincount(self.edge_array.ravel(), minlength=self.n + 1)[1:]

    def degrees(self) -> dict[int, int]:
        return dict(zip(range(1, self.n + 1), self._degree_counts().tolist()))

    @cached_property
    def incidence(self) -> np.ndarray:
        """The remainders of every hyperedge through every node.

        An (M, k-1) array of 0-based nodes with M = k |E|: row r lists the
        nodes of one hyperedge other than its owner, in increasing order,
        owners in increasing order and each owner's rows in edge order.
        Node i owns rows incidence_starts[i] to incidence_starts[i + 1] - 1.
        """
        k = self.k
        drop = [[s for s in range(k) if s != p] for p in range(k)]
        # edge-major: the k remainders of edge 0, then of edge 1, ...
        rests = (self.edge_array[:, drop] - 1).reshape(-1, k - 1)
        order = np.argsort(self.edge_array.ravel(), kind="stable")
        return rests[order].astype(np.intp, copy=False)

    @cached_property
    def incidence_starts(self) -> np.ndarray:
        """Offsets of each node's first row in ``incidence``, and M last."""
        starts = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(self._degree_counts(), out=starts[1:])
        return starts

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
        per hypergraph.

        A node's block of ``incidence`` lists its remainders in edge order,
        which is their own sorted order (taking a shared node out of two
        sorted edges keeps their order), so equal sets are equal bytes."""
        starts = self.incidence_starts.tolist()
        rows = self.incidence
        groups: dict[bytes, list[int]] = {}
        for i in np.flatnonzero(self._degree_counts()).tolist():
            block = rows[starts[i] : starts[i + 1]].tobytes()
            groups.setdefault(block, []).append(i + 1)
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
        edges = data.get("edges") if isinstance(data, Mapping) else None
        # refused before any validation or array is built
        if isinstance(edges, list) and len(edges) > MAX_EDGES:
            raise ResourceLimitError(
                f"hypergraph holds {len(edges)} edges (cap {MAX_EDGES})"
            )
        if not isinstance(data, Mapping):
            raise ValueError(
                f"hypergraph must be a JSON object, got {type(data).__name__}"
            )
        for key in ("n", "k", "edges"):
            if key not in data:
                raise ValueError(f"hypergraph object lacks required key {key!r}")
        n, k = data["n"], data["k"]
        if not _is_int(n) or not _is_int(k):
            raise ValueError("n and k must be integers")
        # only singleton components, built in memory, may have k > n
        _check_sizes(n, k)
        if not isinstance(edges, list):
            raise ValueError("edges must be a list of node lists")
        # one pass over the types in C; the loop only names the first bad
        # edge (JSON true/false load as bool, which is not int)
        if not set(map(type, edges)) <= {list} or not set(
            map(type, chain.from_iterable(edges))
        ) <= {int}:
            for pos, e in enumerate(edges, start=1):
                if not isinstance(e, list) or not all(_is_int(i) for i in e):
                    raise ValueError(
                        f"edge #{pos} is not a list of integers: {e!r}"
                    )
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


def _canonical(
    edges: Iterable[Iterable[int]], n: int, k: int
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The edges as a read-only (E, k) int64 array and as a tuple of
    tuples, row for row: each row sorted, rows in lexicographic order,
    repeats dropped. Lists, tuples and integer arrays are taken as they
    are, other iterables are listed first. The first edge in input order
    that is not k distinct nodes of 1..n is refused with the message of
    ``_check_edge``."""
    if not isinstance(edges, (list, tuple, np.ndarray)):
        edges = list(edges)
    try:
        rows = np.array(edges)
    except ValueError:  # ragged rows
        rows = np.empty(0)
    if rows.dtype.kind not in "iu" or rows.shape != (len(edges), k):
        # no edges, or ragged, nested, non-integer or past int64: the loop
        # names the first bad edge, and when it finds none every node is
        # an int in 1..n
        for e in edges:
            _check_edge(e, n, k)
        rows = np.array(edges, dtype=np.int64).reshape(-1, k)
    rows = rows.astype(np.int64, copy=False)
    rows.sort(axis=1)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    # one tolist(); min, max, map and zip walk its columns in C, which on
    # small graphs costs less than numpy's fixed cost per call
    cols = rows.T.tolist()
    if cols[0] and (
        min(cols[0]) < 1
        or max(cols[-1]) > n
        or not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
    ):
        bad = (rows[:, 0] < 1) | (rows[:, -1] > n)
        bad |= (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        _check_edge(edges[int(order[bad].min())], n, k)
    tuples = list(zip(*cols))
    fresh = [True, *map(ne, tuples[1:], tuples)]
    if not all(fresh):
        rows = rows[np.array(fresh)]
        tuples = list(compress(tuples, fresh))
    rows.flags.writeable = False
    return rows, tuple(tuples)


def _check_edge(edge: Iterable[int], n: int, k: int) -> None:
    """Refuse an edge that is not k distinct integer nodes of 1..n, naming
    it as given (the length and repeats first) or sorted (the range)."""
    given = tuple(edge.tolist() if isinstance(edge, np.ndarray) else edge)
    tup = tuple(sorted(given))
    if len(set(tup)) != k or len(tup) != k:
        raise ValueError(f"edge {given} must have {k} distinct nodes")
    if tup[0] < 1 or tup[-1] > n:
        raise ValueError(f"edge {tup} outside node range 1..{n}")
    if not all(isinstance(i, (int, np.integer)) for i in tup):
        raise ValueError(f"edge {given} is not a list of integers")


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
    nodes = chain.from_iterable(combinations(range(1, n + 1), k))
    return UniformHypergraph(
        n, k, np.fromiter(nodes, np.int64, total * k).reshape(-1, k)
    )


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
    # each node's 0-based place in the subset; edges with a node outside
    # it are dropped
    ordered = np.array(ordered, dtype=np.int64)
    at = np.searchsorted(ordered, g.edge_array)
    inside = (ordered[np.minimum(at, len(ordered) - 1)] == g.edge_array).all(1)
    return UniformHypergraph(len(ordered), g.k, at[inside] + 1)
