"""Polynomial dynamics attached to a k-uniform hypergraph.

The state obeys dx/dt = A x^[k-1] where A is the adjacency unfolding and
x^[k-1] the (k-1)-fold Kronecker power. Because A comes from a symmetric
tensor, the vector field collapses edgewise:

    f(x)_i = sum over hyperedges e containing i of prod_{j in e, j != i} x_j.

``DynamicsSpec`` holds the structure in two forms: ``incidence``, the
hyperedge remainders through each node that the production kernel reads,
and ``unfolding_columns``, the nonzero columns of A that the two oracles
read.

Three evaluators compute the higher time derivatives J_p of the state along
the flow (J_0 = x, J_1 = f(x), ...); the last two share no code with the
first and exist to check it:

* ``lie_derivatives``: the production kernel. It runs the Taylor recurrence
  of the ODE solution on numpy lanes, for the values alone or for the values
  with all n partials, so one pass yields every Jacobian of the chain.
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
from functools import cached_property
from itertools import permutations
from math import factorial
from typing import Any, Sequence

import numpy as np

from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph
from .scalars import RATIONALS, lanes_for

DEFAULT_RECURSION_BUDGET = 500_000
MAX_DENSE_SLOTS = 10**8
_BLOCK_SLOTS = 1 << 13

_INT64_SAFE = 1 << 62


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
    def incidence(self) -> np.ndarray:
        """The remainders of every hyperedge through every node.

        An (M, k-1) array of 0-based nodes with M = k |E|: row r lists the
        nodes of one hyperedge other than its owner, owners in increasing
        order. Node i owns rows incidence_starts[i] to
        incidence_starts[i + 1] - 1.
        """
        per_node: list[list[list[int]]] = [[] for _ in range(self.n)]
        for e in self.graph.edges:
            for i in e:
                per_node[i - 1].append([j - 1 for j in e if j != i])
        rows = [rest for rests in per_node for rest in rests]
        return np.array(rows, dtype=np.intp).reshape(-1, self.k - 1)

    @cached_property
    def incidence_starts(self) -> np.ndarray:
        """Offsets of each node's first row in ``incidence``, and M last."""
        degrees = self.graph.degrees()
        return np.cumsum(
            [0] + [degrees[i] for i in range(1, self.n + 1)], dtype=np.intp
        )

    @cached_property
    def unfolding_columns(self) -> tuple[np.ndarray, ...]:
        """The adjacency unfolding A, row by row, as its nonzero columns.

        Entry i - 1 holds the sorted 0-based column of every ordering
        (j_1, ..., j_{k-1}) of every hyperedge remainder through node i,
        flattened with the first factor most significant:
        sum_t (j_t - 1) n**(k-1-t), the digit order of the Kronecker product
        and of numpy's row-major reshapes. Each listed entry of A is
        weight / (k-1)!, and every other entry is zero. Callers build
        vectors of n**(k-1) slots against it, so more than MAX_DENSE_SLOTS
        columns is refused.
        """
        n, k = self.n, self.k
        if n ** (k - 1) > MAX_DENSE_SLOTS:
            raise ResourceLimitError(
                f"unfolding has n^(k-1) = {n ** (k - 1)} columns, "
                f"cap is {MAX_DENSE_SLOTS}"
            )
        powers = [n ** (k - 2 - t) for t in range(k - 1)]
        rests = self.incidence.tolist()
        starts = self.incidence_starts.tolist()
        rows = []
        for lo, hi in zip(starts, starts[1:]):
            cols = [
                sum(node * powers[t] for t, node in enumerate(order))
                for rest in rests[lo:hi]
                for order in permutations(rest)
            ]
            rows.append(np.asarray(sorted(cols), dtype=np.intp))
        return tuple(rows)


def _cauchy_block(u: np.ndarray, v: np.ndarray, lanes: Any) -> np.ndarray:
    """sum_j u[j] v[j] over axis 0, for lanes of [value | gradient] on the
    last axis: the gradient of each product follows the product rule."""
    out = lanes.sum(lanes.mul(u[..., :1], v))
    if u.shape[-1] > 1:
        out[..., 1:] = lanes.add(
            out[..., 1:], lanes.sum(lanes.mul(u[..., 1:], v[..., :1]))
        )
    return out


def apply_factors(
    dyn: DynamicsSpec,
    chain: np.ndarray,
    series: list[np.ndarray],
    p: int,
    lanes: Any,
) -> np.ndarray:
    """One level of the normalized Taylor recurrence: X_{p+1} from X_0..X_p.

    chain[q] holds X_q = J_q / q!, the Taylor coefficients of the solution
    x(t), for q <= p. Since dx/dt = f(x), (p+1) X_{p+1} is coefficient p of
    f(x(t)): for each remainder (a_1, ..., a_{k-1}) of a hyperedge through
    node i, coefficient p of the product x_{a_1}(t) ... x_{a_{k-1}}(t),
    summed into node i and scaled by weight / (p+1).

    The product is built factor by factor: coefficient p of (P x_a)(t) is
    the Cauchy sum over q of P_q X_{p-q}[a], taken in blocks of at most
    _BLOCK_SLOTS lane slots so that temporaries stay small. The partial
    products of 2..k-2 factors need every earlier coefficient, so
    ``series`` keeps them, one (depth, M, width) array per length; this call
    fills their coefficient p.
    """
    rests = dyn.incidence
    k = dyn.k
    term = chain[p, rests[:, 0]]
    step = max(1, _BLOCK_SLOTS // max(1, term.size))
    for t in range(1, k - 1):
        term = None
        for lo in range(0, p + 1, step):
            hi = min(lo + step, p + 1)
            head = chain[lo:hi, rests[:, 0]] if t == 1 else series[t - 2][lo:hi]
            tail = chain[p + 1 - hi : p + 1 - lo, rests[:, t]][::-1]
            block = _cauchy_block(head, tail, lanes)
            term = block if term is None else lanes.add(term, block)
        if t < k - 2:
            series[t - 1][p] = term
    starts = dyn.incidence_starts
    owners = np.flatnonzero(np.diff(starts))
    out = lanes.zeros((dyn.n,) + chain.shape[2:])
    if len(owners):
        out[owners] = lanes.reduceat(term, starts[owners])
    domain = lanes.domain
    return lanes.scale(
        out, domain.mul(domain.from_int(dyn.weight), domain.inv_int(p + 1))
    )


def lie_derivatives(
    dyn: DynamicsSpec,
    x: Sequence[Any],
    depth: int,
    domain: Any = RATIONALS,
    gradients: bool = False,
) -> Any:
    """The chain J_0, ..., J_depth of time derivatives of the state.

    Runs the Taylor recurrence (``apply_factors``) once per level on the
    numpy lanes of the domain (``scalars.lanes_for``) and multiplies level
    p by p! at the end, which restores J_p exactly over the field and the
    rationals. Level p costs O(M (k-2) p w) lane operations for M = k |E|
    remainders of lane width w.

    Returns level p as a list of n values. With ``gradients``, lanes carry
    [value | all n partials] from x_j seeded as (x_j, e_j), and the result
    is one (depth + 1, n, n + 1) lane array instead: row i of level p is
    J_p[i] followed by its gradient. More than MAX_DENSE_SLOTS lane slots,
    counted before any is allocated, is refused.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    n, k = dyn.n, dyn.k
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates for {n} nodes")
    lanes = lanes_for(domain)
    width = n + 1 if gradients else 1
    rows = len(dyn.incidence)
    # the chain, and the partial products of 2..k-2 factors
    slots = (depth + 1) * width * (n + max(k - 3, 0) * rows)
    if slots > MAX_DENSE_SLOTS:
        raise ResourceLimitError(
            f"depth {depth} at n = {n} needs {slots} lane slots, "
            f"cap is {MAX_DENSE_SLOTS}"
        )
    chain = lanes.empty((depth + 1, n, width))
    chain[0, :, 0] = lanes.cast(x)
    if gradients:
        chain[0, :, 1:] = lanes.cast(np.eye(n, dtype=np.int64))
    series = [lanes.empty((depth, rows, width)) for _ in range(k - 3)]
    for p in range(depth):
        chain[p + 1] = apply_factors(dyn, chain, series, p, lanes)
    scale = domain.one()
    for p in range(2, depth + 1):
        scale = domain.mul(scale, domain.from_int(p))
        chain[p] = lanes.scale(chain[p], scale)
    if gradients:
        return chain
    return chain[:, :, 0].tolist()


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


def _apply_columns(
    dyn: DynamicsSpec, w: Sequence[Any], domain: Any
) -> list[Any]:
    """A w: each row sums w over its columns, then scales once."""
    add, mul = domain.add, domain.mul
    scale = mul(
        domain.from_int(dyn.weight), domain.inv_int(factorial(dyn.k - 1))
    )
    out = []
    for cols in dyn.unfolding_columns:
        acc = domain.zero()
        for c in cols.tolist():
            acc = add(acc, w[c])
        out.append(mul(acc, scale))
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
    start = [list(x)] * (p * (dyn.k - 2) + 1)
    return _recurse_factors(dyn, p, start, domain, stats, max_calls)


def _recurse_factors(
    dyn: DynamicsSpec,
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
        return _apply_columns(
            dyn, _domain_kron(factors, domain, stats), domain
        )
    add = domain.add
    k = dyn.k
    windows = (p - 1) * (k - 2) + 1
    out = None
    for i in range(windows):
        merged = _apply_columns(
            dyn, _domain_kron(factors[i : i + k - 1], domain, stats), domain
        )
        shorter = factors[:i] + [merged] + factors[i + k - 1 :]
        sub = _recurse_factors(dyn, p - 1, shorter, domain, stats, max_calls)
        out = sub if out is None else [add(a, b) for a, b in zip(out, sub)]
    return out


def lie_derivative_naive_scaled(
    dyn: DynamicsSpec,
    p: int,
    x: Sequence[int],
    max_slots: int = MAX_DENSE_SLOTS,
) -> tuple[list[int], int]:
    """Integer form of the operator-product evaluation.

    Works over Z with the unfolding scaled by (k-1)!, so that every listed
    entry is the integer weight; returns (values, scale) with
    J_p = values / scale and scale = ((k-1)!)**p. Vectorized with int64 when a priori bounds permit,
    otherwise with exact object arrays. Coordinates must be integers.
    """
    if any(not isinstance(v, int) for v in x):
        raise ValueError("integer evaluation needs integer coordinates")
    if p < 0:
        raise ValueError(f"derivative order must be nonnegative, got {p}")
    n, k = dyn.n, dyn.k
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates for {n} nodes")
    if p == 0:
        return [int(v) for v in x], 1
    m = p * (k - 2) + 1
    if n**m > max_slots:
        raise ResourceLimitError(
            f"naive evaluation needs {n}**{m} = {n**m} slots (cap {max_slots})"
        )
    cols_by_row = dyn.unfolding_columns
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
