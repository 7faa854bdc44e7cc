"""Polynomial dynamics attached to a k-uniform hypergraph.

The state obeys dx/dt = A x^[k-1] where A is the adjacency unfolding and
x^[k-1] the (k-1)-fold Kronecker power. Because A comes from a symmetric
tensor, the vector field collapses edgewise:

    f(x)_i = sum over hyperedges e containing i of prod_{j in e, j != i} x_j.

``DynamicsSpec`` holds the structure as ``incidence``, the hyperedge
remainders through each node. ``lie_derivatives`` computes the higher time
derivatives J_p of the state along the flow (J_0 = x, J_1 = f(x), ...) and
all their Jacobians in one pass of the Taylor recurrence of the ODE
solution and its variational equation, exactly mod P = 2**61 - 1
(``scalars``). The two oracles that check it, the factor-list recursion and
the spelled-out operator product, live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph
from .scalars import (
    PRIME,
    cast,
    limb_matmul,
    mul,
    row_sum,
    scale,
    segment_sums,
)

MAX_DENSE_SLOTS = 10**8


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
    def jacobian_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the entries of an (M, k-1) array over ``incidence`` land in
        the n x n Jacobian of f: entry (r, s) in cell (owner of row r,
        incidence[r, s]).

        Returns the order that sorts the entries by flat cell index, the
        distinct cells, and where each cell's run starts in that order.
        """
        owners = np.repeat(np.arange(self.n), np.diff(self.incidence_starts))
        cells = (owners[:, None] * self.n + self.incidence).ravel()
        order = np.argsort(cells, kind="stable")
        distinct, starts = np.unique(cells[order], return_index=True)
        return order, distinct, starts


@dataclass(frozen=True)
class ChainStacks:
    """What a chain pass keeps between levels, besides the chain itself.

    ``series`` holds, for every remainder (a_1, ..., a_{k-1}), coefficients
    0..depth-1 of the value products x_{a_1} ... x_{a_s} (row s - 2) and
    x_{a_s} ... x_{a_{k-1}} (row k + s - 5), for s = 2..k-2; only k >= 4
    has any. ``jacobians`` holds the Taylor coefficients D_q of Df(x(t))
    at [:, depth - 1 - q], so that D_p, ..., D_0 side by side is one slice;
    at k = 2 Df is the constant adjacency, applied as sums, and none is
    kept.
    """

    series: np.ndarray
    jacobians: np.ndarray

    @staticmethod
    def shapes(dyn: DynamicsSpec, depth: int) -> tuple[tuple[int, ...], ...]:
        return (
            (2 * max(dyn.k - 3, 0), depth, dyn.k * dyn.graph.num_edges),
            (dyn.n, depth if dyn.k > 2 else 0, dyn.n),
        )

    @classmethod
    def allocate(cls, dyn: DynamicsSpec, depth: int) -> ChainStacks:
        series, jacobians = cls.shapes(dyn, depth)
        return cls(
            np.empty(series, dtype=np.uint64),
            np.empty(jacobians, dtype=np.uint64),
        )


def check_lane_slots(dyn: DynamicsSpec, depth: int) -> None:
    """Refuse a chain pass whose lanes (chain, value series and Jacobian
    stack) exceed MAX_DENSE_SLOTS, counted from n, k, |E| and depth alone."""
    shapes = ((depth + 1, dyn.n, dyn.n + 1),) + ChainStacks.shapes(dyn, depth)
    slots = sum(prod(shape) for shape in shapes)
    if slots > MAX_DENSE_SLOTS:
        raise ResourceLimitError(
            f"depth {depth} at n = {dyn.n} needs {slots} lane slots, "
            f"cap is {MAX_DENSE_SLOTS}"
        )


def _coefficient(
    u: np.ndarray | None, v: np.ndarray | None, p: int
) -> np.ndarray:
    """Coefficient p of the product of two series, each given by its
    coefficients 0..p on axis 0, at most one None for the constant 1."""
    if u is None:
        return v[p]
    if v is None:
        return u[p]
    return row_sum(mul(u[: p + 1], v[p::-1]))


def _leave_one_out(
    rests: np.ndarray, values: np.ndarray, series: np.ndarray, p: int
) -> np.ndarray:
    """Coefficient p of every leave-one-out product: entry (r, s) is that of
    the product over the remainder rests[r] without its factor s.

    values holds X_0..X_p. The product without factor s is the prefix
    before s times the suffix after it; this call adds coefficient p of
    the prefixes and suffixes of two or more factors to ``series``.
    """
    m = rests.shape[1]
    factors = [values[:, rests[:, s]] for s in range(m)]
    # prefix[s]: factors 0..s-1; suffix[s]: factors s..m-1
    prefix = {0: None, 1: factors[0]}
    suffix = {m: None, m - 1: factors[m - 1]}

    def extend(row: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        series[row, p] = _coefficient(u, v, p)
        return series[row, : p + 1]

    for s in range(2, m):
        prefix[s] = extend(s - 2, prefix[s - 1], factors[s - 1])
    for s in range(m - 2, 0, -1):
        suffix[s] = extend(m - 3 + s, factors[s], suffix[s + 1])
    return np.stack(
        [_coefficient(prefix[s], suffix[s + 1], p) for s in range(m)],
        axis=1,
    )


def apply_factors(
    dyn: DynamicsSpec, chain: np.ndarray, stacks: ChainStacks, p: int
) -> np.ndarray:
    """One level of the variational Taylor recurrence: Y_{p+1} from
    Y_0..Y_p.

    chain[q] holds Y_q, the Taylor coefficients of the solution x(t) in
    column 0 and, in any further columns, those of its derivatives along
    the seeded directions (Phi = dx(t)/dx_0 for the seed [x | I]). Phi
    obeys Phi' = Df(x(t)) Phi, and Euler's identity Df(x) x = (k-1) f(x)
    gives x' = f(x) from the same product, so

        (p+1) Y_{p+1} = weight * sum_{q <= p} D_q Y_{p-q},

    column 0 scaled by (k-1)^-1, with D_q coefficient q of Df(x(t)). This
    call builds D_p from the leave-one-out products of each hyperedge
    remainder, summed into the cells (owner, factor), and takes the sum as
    one exact mod-P GEMM (``scalars.limb_matmul``). At k = 2, Df is the
    constant adjacency: D_q = 0 for q > 0, and D_0 Y_p sums rows of Y_p.
    """
    n, k = dyn.n, dyn.k
    step = dyn.weight * pow(p + 1, -1, PRIME)
    if k == 2:
        starts = dyn.incidence_starts
        owners = np.flatnonzero(np.diff(starts))
        out = np.zeros(chain.shape[1:], dtype=np.uint64)
        if len(owners):
            rows = chain[p, dyn.incidence[:, 0]]
            out[owners] = segment_sums(rows, starts[owners])
        return scale(out, step)
    loo = _leave_one_out(dyn.incidence, chain[: p + 1, :, 0], stacks.series, p)
    order, cells, starts = dyn.jacobian_cells
    d = np.zeros(n * n, dtype=np.uint64)
    if len(cells):
        d[cells] = segment_sums(loo.ravel()[order], starts)
    jacobians = stacks.jacobians
    block = jacobians.shape[1] - 1 - p
    jacobians[:, block] = d.reshape(n, n)
    out = limb_matmul(
        jacobians.reshape(n, -1)[:, block * n :],
        chain[: p + 1].reshape(-1, chain.shape[2]),
    )
    out[:, 0] = scale(out[:, 0], pow(k - 1, -1, PRIME))
    return scale(out, step)


def lie_derivatives(
    dyn: DynamicsSpec,
    x: Sequence[int],
    depth: int,
    stop: Callable[[np.ndarray, int], bool] | None = None,
) -> np.ndarray:
    """The chain J_0, ..., J_depth of time derivatives of the state and all
    their Jacobians at the integer point x, mod P.

    Lanes carry [value | all n partials], seeded [x | I]. The variational
    recurrence (``apply_factors``) runs once per level, and level p is
    multiplied by p! at the end, which restores J_p exactly mod P. For
    k >= 3, level p costs one GEMM of 9 (p+1) n^2 (n+1) float64
    multiply-adds, the split of its operands into limbs, O(p n^2), and
    O(k M p) value products for M = k |E| remainders; at k = 2 it costs
    O(M n) sums.

    Returns one (depth + 1, n, n + 1) uint64 array: row i of level p is
    J_p[i] followed by its gradient. A non-integer coordinate raises
    ValueError. More lane slots than MAX_DENSE_SLOTS are refused before
    any is allocated (``check_lane_slots``).

    stop, if given, is asked stop(chain, p) once level p is written and
    before level p + 1 is computed, for p < depth; levels are still
    unscaled by p! then, which changes no span. True ends the pass: the
    result is then levels 0..p only, a view of the array allocated for
    depth, whose later levels are never written.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    n = dyn.n
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates for {n} nodes")
    check_lane_slots(dyn, depth)
    chain = np.empty((depth + 1, n, n + 1), dtype=np.uint64)
    chain[0, :, 0] = cast(x)
    chain[0, :, 1:] = np.eye(n, dtype=np.uint64)
    stacks = ChainStacks.allocate(dyn, depth)
    top = depth
    for p in range(depth):
        if stop is not None and stop(chain, p):
            top = p
            break
        chain[p + 1] = apply_factors(dyn, chain, stacks, p)
    factorial = 1
    for p in range(2, top + 1):
        factorial = factorial * p % PRIME
        chain[p] = scale(chain[p], factorial)
    return chain[: top + 1]
