"""Polynomial dynamics attached to a k-uniform hypergraph.

The state obeys dx/dt = A x^[k-1] where A is the adjacency unfolding and
x^[k-1] the (k-1)-fold Kronecker power. Because A comes from a symmetric
tensor, the vector field collapses edgewise:

    f(x)_i = sum over hyperedges e containing i of prod_{j in e, j != i} x_j.

Three independent evaluators compute the higher time derivatives J_p of the
state along the flow (J_0 = x, J_1 = f(x), ...):

* ``lie_derivatives``: the whole chain J_0..J_depth via the Leibniz rule for
  multilinear maps. Division free, works over any scalar domain including
  dual numbers, and never touches vectors longer than n. This is the one the
  observability machinery uses.
* ``lie_derivative_recursive``: the factor-list recursion. Keeps a list of
  n-vectors, repeatedly contracts a window of k-1 of them through A, and
  sums over window positions. Materializes Kronecker products of at most
  k-1 vectors (n**(k-1) entries), never a full power of the state.
* ``lie_derivative_naive_scaled``: the spelled-out operator product
  A B_2 ... B_p x^[m], where each B_q is a sum of I x ... x A x ... x I
  factors, over the integers with A scaled by (k-1)!. Exponentially large
  and meant purely as an oracle for the other two; its (values, scale)
  result serves both the rational and the mod-P comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from typing import Any, Sequence

import numpy as np

from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph, adjacency_unfolding
from .scalars import RATIONALS
from .tensor import MAX_DENSE_SLOTS, SparseMatrix

DEFAULT_RECURSION_BUDGET = 500_000

_INT64_SAFE = 1 << 62


@lru_cache(maxsize=None)
def _index_permutations(width: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(width)))


@lru_cache(maxsize=None)
def _level_multisets(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Non-increasing tuples of `parts` nonnegative ints summing to total."""
    if parts == 1:
        return ((total,),)
    out = []
    for head in range(total, -1, -1):
        for tail in _level_multisets(total - head, parts - 1):
            if tail[0] <= head:
                out.append((head,) + tail)
    return tuple(out)


def _multinomial(total: int, terms: Sequence[int]) -> int:
    num = factorial(total)
    for q in terms:
        num //= factorial(q)
    return num


def _multiset_orderings(terms: Sequence[int]) -> int:
    count = factorial(len(terms))
    seen: dict[int, int] = {}
    for q in terms:
        seen[q] = seen.get(q, 0) + 1
    for mult in seen.values():
        count //= factorial(mult)
    return count


@dataclass(frozen=True)
class DynamicsSpec:
    """A hypergraph together with its induced polynomial vector field.

    ``weight`` scales every hyperedge uniformly; ranks are invariant to it,
    which the test suite exercises, and the default of 1 is the plain
    adjacency dynamics.
    """

    graph: UniformHypergraph
    weight: int = 1

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def k(self) -> int:
        return self.graph.k

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each node, the tuple of hyperedge remainders through it."""
        per_node: list[list[tuple[int, ...]]] = [
            [] for _ in range(self.n + 1)
        ]
        for e in self.graph.edges:
            for i in e:
                per_node[i].append(tuple(j for j in e if j != i))
        return tuple(tuple(rests) for rests in per_node)

    @cached_property
    def _unfoldings(self) -> dict[str, SparseMatrix]:
        return {}

    def unfolding(self, domain: Any = RATIONALS) -> SparseMatrix:
        cached = self._unfoldings.get(domain.name)
        if cached is None:
            cached = adjacency_unfolding(self.graph, domain)
            if self.weight != 1:
                w = domain.from_int(self.weight)
                cached = SparseMatrix(
                    cached.rows,
                    cached.cols,
                    {key: domain.mul(w, v) for key, v in cached.entries.items()},
                )
            self._unfoldings[domain.name] = cached
        return cached


def apply_factors(
    dyn: DynamicsSpec, factors: Sequence[Sequence[Any]], domain: Any
) -> list[Any]:
    """A applied to the Kronecker product of k-1 vectors, edge by edge.

    Entry i is 1/(k-1)! times the sum, over hyperedges through i and over
    orderings of the remaining nodes, of the product of factor values. When
    all factors are one vector the orderings collapse against the
    coefficient and the loop runs once per edge.
    """
    k = dyn.k
    if len(factors) != k - 1:
        raise ValueError(f"need {k - 1} factor vectors, got {len(factors)}")
    for f in factors:
        if len(f) != dyn.n:
            raise ValueError("factor length does not match node count")
    first = factors[0]
    same = all(f is first for f in factors)
    inv_fact = None if same else domain.inv_int(factorial(k - 1))
    weight = (
        None if dyn.weight == 1 else domain.from_int(dyn.weight)
    )
    perms = None if same else _index_permutations(k - 1)
    mul, add = domain.mul, domain.add
    out = []
    for rests in dyn.incidence[1:]:
        acc = domain.zero()
        for rest in rests:
            if same:
                term = first[rest[0] - 1]
                for node in rest[1:]:
                    term = mul(term, first[node - 1])
                acc = add(acc, term)
            else:
                for sigma in perms:
                    term = first[rest[sigma[0]] - 1]
                    for t in range(1, k - 1):
                        term = mul(term, factors[t][rest[sigma[t]] - 1])
                    acc = add(acc, term)
        if inv_fact is not None:
            acc = mul(acc, inv_fact)
        if weight is not None:
            acc = mul(acc, weight)
        out.append(acc)
    return out


def lie_derivatives(
    dyn: DynamicsSpec, x: Sequence[Any], depth: int, domain: Any = RATIONALS
) -> list[list[Any]]:
    """The chain J_0, ..., J_depth of time derivatives of the state.

    Differentiating J_{p+1} = d^p/dt^p A(x x ... x x) through the Leibniz
    rule gives a sum over all ways to split p derivatives among the k-1
    slots; splits that agree as multisets share one contraction because the
    adjacency tensor is symmetric in its slots.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if len(x) != dyn.n:
        raise ValueError(
            f"point has {len(x)} coordinates for {dyn.n} nodes"
        )
    add = domain.add
    chain: list[list[Any]] = [list(x)]
    for p in range(depth):
        acc = [domain.zero()] * dyn.n
        for levels in _level_multisets(p, dyn.k - 1):
            coeff = _multinomial(p, levels) * _multiset_orderings(levels)
            term = apply_factors(
                dyn, [chain[q] for q in levels], domain
            )
            if coeff == 1:
                acc = [add(a, t) for a, t in zip(acc, term)]
            else:
                c = domain.from_int(coeff)
                mul = domain.mul
                acc = [add(a, mul(c, t)) for a, t in zip(acc, term)]
        chain.append(acc)
    return chain


@dataclass
class RecursionStats:
    """Instrumentation for the factor-list recursion."""

    calls: int = 0
    max_kron_len: int = 0


def _domain_kron(
    vectors: Sequence[Sequence[Any]], domain: Any, stats: RecursionStats
) -> list[Any]:
    mul = domain.mul
    out = list(vectors[0])
    stats.max_kron_len = max(stats.max_kron_len, len(out))
    for v in vectors[1:]:
        out = [mul(a, b) for a in out for b in v]
        stats.max_kron_len = max(stats.max_kron_len, len(out))
    return out


def _apply_sparse(
    mat: SparseMatrix, w: Sequence[Any], domain: Any
) -> list[Any]:
    add, mul = domain.add, domain.mul
    out = [domain.zero()] * mat.rows
    for (r, c), v in mat.entries.items():
        out[r - 1] = add(out[r - 1], mul(v, w[c - 1]))
    return out


def lie_derivative_recursive(
    dyn: DynamicsSpec,
    p: int,
    x: Sequence[Any],
    domain: Any = RATIONALS,
    stats: RecursionStats | None = None,
    max_calls: int = DEFAULT_RECURSION_BUDGET,
) -> list[Any]:
    """J_p by recursion on a list of factor vectors.

    The list starts as p(k-2)+1 copies of x. One step picks each window of
    k-1 adjacent factors, contracts it through A into a single n-vector,
    and recurses with the shortened list; the results over all windows sum.
    The branch count grows factorially in p, so a call budget guards the
    recursion; the chain evaluator is the scalable route.
    """
    if p < 0:
        raise ValueError(f"derivative order must be nonnegative, got {p}")
    if len(x) != dyn.n:
        raise ValueError(f"point has {len(x)} coordinates for {dyn.n} nodes")
    if stats is None:
        stats = RecursionStats()
    if p == 0:
        return list(x)
    A = dyn.unfolding(domain)
    start = [list(x)] * (p * (dyn.k - 2) + 1)
    return _recurse_factors(A, dyn.k, p, start, domain, stats, max_calls)


def _recurse_factors(
    A: SparseMatrix,
    k: int,
    p: int,
    factors: list[Sequence[Any]],
    domain: Any,
    stats: RecursionStats,
    max_calls: int,
) -> list[Any]:
    stats.calls += 1
    if stats.calls > max_calls:
        raise ResourceLimitError(
            f"factor-list recursion exceeded its call budget "
            f"({stats.calls} > {max_calls})"
        )
    if p == 1:
        return _apply_sparse(
            A, _domain_kron(factors, domain, stats), domain
        )
    add = domain.add
    windows = (p - 1) * (k - 2) + 1
    out = None
    for i in range(windows):
        merged = _apply_sparse(
            A, _domain_kron(factors[i : i + k - 1], domain, stats), domain
        )
        shorter = factors[:i] + [merged] + factors[i + k - 1 :]
        sub = _recurse_factors(A, k, p - 1, shorter, domain, stats, max_calls)
        out = sub if out is None else [add(a, b) for a, b in zip(out, sub)]
    return out


def _scaled_columns(dyn: DynamicsSpec) -> list[np.ndarray]:
    """Per row, the 0-based flattened column of every hyperedge ordering.

    These are the structural positions of the unfolding scaled by (k-1)!,
    where each entry is exactly 1 (times the uniform weight, applied by the
    caller)."""
    n, k = dyn.n, dyn.k
    powers = [n**t for t in range(k - 1)]
    cols: list[list[int]] = []
    for rests in dyn.incidence[1:]:
        mine = []
        for rest in rests:
            for order in permutations(rest):
                mine.append(
                    sum((node - 1) * powers[t] for t, node in enumerate(order))
                )
        cols.append(mine)
    return [np.asarray(sorted(c), dtype=np.intp) for c in cols]


def lie_derivative_naive_scaled(
    dyn: DynamicsSpec,
    p: int,
    x: Sequence[int],
    max_slots: int = MAX_DENSE_SLOTS,
) -> tuple[list[int], int]:
    """Integer form of the operator-product evaluation.

    Works over Z with the unfolding scaled by (k-1)! so that every entry is
    an integer; returns (values, scale) with J_p = values / scale and
    scale = ((k-1)!)**p. Vectorized with int64 when a priori bounds permit,
    otherwise with exact object arrays. Coordinates must be integers.
    """
    if any(not isinstance(v, int) for v in x):
        raise ValueError("integer evaluation needs integer coordinates")
    if p < 0:
        raise ValueError(f"derivative order must be nonnegative, got {p}")
    if p == 0:
        return [int(v) for v in x], 1
    n, k = dyn.n, dyn.k
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates for {n} nodes")
    m = p * (k - 2) + 1
    if n**m > max_slots:
        raise ResourceLimitError(
            f"naive evaluation needs {n}**{m} = {n**m} slots (cap {max_slots})"
        )
    cols_by_row = _scaled_columns(dyn)
    max_mult = max((len(c) for c in cols_by_row), default=0)
    wt = abs(dyn.weight)

    # A priori magnitude bound, stage by stage, to pick a safe dtype.
    bound = max((abs(int(v)) for v in x), default=1) ** m
    for q in range(p, 1, -1):
        bound *= ((q - 1) * (k - 2) + 1) * max(max_mult, 1) * max(wt, 1)
    bound *= max(max_mult, 1) * max(wt, 1)
    dtype: Any = np.int64 if bound < _INT64_SAFE else object

    xv = np.asarray([int(v) for v in x], dtype=dtype)
    w = xv
    for _ in range(m - 1):
        w = (w[:, None] * xv[None, :]).reshape(-1)
    for q in range(p, 1, -1):
        width = (q - 1) * (k - 2) + 1
        out = np.zeros(n**width, dtype=dtype)
        for slot in range(width):
            lhs = n**slot
            rhs = n ** (width - 1 - slot)
            w3 = w.reshape(lhs, n ** (k - 1), rhs)
            out3 = out.reshape(lhs, n, rhs)
            for row in range(n):
                cols = cols_by_row[row]
                if len(cols):
                    out3[:, row, :] += w3[:, cols, :].sum(axis=1)
        if dyn.weight != 1:
            out *= dyn.weight
        w = out
    final = []
    for row in range(n):
        cols = cols_by_row[row]
        total = int(w[cols].sum()) if len(cols) else 0
        final.append(total * dyn.weight)
    return final, factorial(k - 1) ** p
