"""Polynomial dynamics attached to a k-uniform hypergraph.

The state obeys dx/dt = A x^[k-1] where A is the adjacency unfolding and
x^[k-1] the (k-1)-fold Kronecker power. Because A comes from a symmetric
tensor, the vector field collapses edgewise:

    f(x)_i = sum over hyperedges e containing i of prod_{j in e, j != i} x_j.

``DynamicsSpec`` reads the structure from its graph as ``incidence``, the
hyperedge remainders through each node. ``lie_derivatives`` computes the higher time
derivatives J_p of the state along the flow (J_0 = x, J_1 = f(x), ...) and
all their Jacobians in one pass of the Taylor recurrence of the ODE
solution and its variational equation, exactly mod P = 2**61 - 1
(``scalars``); each level's sum over earlier levels is one coefficient of
a matrix series product, ``scalars.LimbProduct``, which is handed each
level's residues and keeps them in its own format. The two oracles that
check it, the factor-list recursion and the spelled-out operator product,
live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import prod
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph
from .scalars import (
    PRIME,
    LimbProduct,
    cast,
    fits_one_chunk,
    mul,
    row_sum,
    segment_sums,
)

MAX_DENSE_SLOTS = 10**8
# lanes the closing p! scaling multiplies in one call: every level at
# n <= 24 at once, and about 2.5 MB of temporaries at n = 100
_SCALE_LANES = 1 << 16


@dataclass(frozen=True)
class DynamicsSpec:
    """A hypergraph together with its induced polynomial vector field, the
    plain adjacency dynamics: every hyperedge has weight 1."""

    graph: UniformHypergraph
    # not a field: the bench tracer keys its points on it
    weight: ClassVar[int] = 1

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def k(self) -> int:
        return self.graph.k

    @property
    def incidence(self) -> np.ndarray:
        """The remainders of every hyperedge through every node, an (M, k-1)
        array of 0-based nodes, M = k |E| (``UniformHypergraph.incidence``):
        node i owns rows incidence_starts[i] to incidence_starts[i + 1] - 1,
        each sorted."""
        return self.graph.incidence

    @property
    def incidence_starts(self) -> np.ndarray:
        """Offsets of each node's first row in ``incidence``, and M last."""
        return self.graph.incidence_starts

    @cached_property
    def jacobian_cells(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where the entries of an (M, k-1) array over ``incidence`` land in
        the n x n Jacobian of f: entry (r, s) in cell (owner of row r,
        incidence[r, s]).

        Returns the order that sorts the entries by cell, column first, the
        distinct cells' rows and columns in that order, and where each
        cell's run starts in it.
        """
        n = self.n
        owners = np.repeat(np.arange(n), np.diff(self.incidence_starts))
        # the rows are owner-major, so a stable sort by column alone keeps
        # each column's entries in owner order; on uint8 and uint16 keys
        # numpy sorts stably by radix
        factors = self.incidence.ravel()
        order = np.argsort(factors.astype(np.min_scalar_type(n)), kind="stable")
        cells = (factors * n + owners.repeat(self.k - 1))[order]
        starts = np.flatnonzero(np.diff(cells, prepend=-1))
        distinct = cells[starts]
        return order, distinct % n, distinct // n, starts

    @cached_property
    def leave_one_out(
        self,
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """How a level takes coefficient p of every leave-one-out product
        (k >= 3), as columns of a value series.

        The product over a remainder without one of its factors depends
        only on the set of the other nodes, so each distinct set is one
        column: columns 0..n-1 are the nodes' values, and each further
        column a set of z >= 2 nodes, the Cauchy product of the column of
        its z - 1 lowest nodes with the value of its highest. The sets of
        one size are one stage: their coefficient p needs coefficient p of
        the stage before, so each stage is one batched product.

        Returns the stages as (u, v) column arrays, whose products are the
        next columns in turn, and the column of each entry of an (M, k-1)
        array over ``incidence``, in ``jacobian_cells`` order.
        """
        n, m = self.n, self.k - 1
        # entry (r, s): the nodes of remainder r without factor s, sorted
        # as the remainder is, taken through one drop table
        drop = [[t for t in range(m) if t != s] for s in range(m)]
        sets = self.incidence[:, drop].reshape(-1, m - 1)
        columns, count, stages = sets[:, 0], n, []
        for z in range(1, m - 1):
            keys = columns * n + sets[:, z]
            # a stable sort of keys cast as small as they fit, by radix on
            # uint8 and uint16; a run of equal keys is one distinct set
            order = np.argsort(
                keys.astype(np.min_scalar_type(count * n)), kind="stable"
            )
            ordered = keys[order]
            fresh = np.diff(ordered, prepend=-1) != 0
            distinct = ordered[fresh]
            stages.append((distinct // n, distinct % n))
            columns = np.empty_like(keys)
            columns[order] = count + np.cumsum(fresh) - 1
            count += len(distinct)
        return stages, columns[self.jacobian_cells[0]]


@dataclass(frozen=True)
class ChainStacks:
    """What a chain pass at k >= 3 keeps between levels, besides the chain.

    ``series`` holds at [q] coefficient q of the columns of
    ``DynamicsSpec.leave_one_out``, values only. ``steps`` holds at [p] the
    scale of level p + 1 in every lane, (p+1)^-1, with column 0, the
    solution's, also scaled by (k-1)^-1 (``apply_factors``). ``product`` is
    the series product D_q by Y_q (``scalars.LimbProduct``), which keeps
    both factors of every level so far in its own format.
    """

    series: np.ndarray
    steps: np.ndarray
    product: LimbProduct

    @staticmethod
    def layout(
        dyn: DynamicsSpec, depth: int
    ) -> tuple[tuple[tuple[int, ...], type], ...]:
        """The (shape, dtype) of every array a pass holds at its peak
        besides the chain and the index arrays of ``dyn``: at k >= 3 the
        value series and the step table, then the arrays of the level
        product (``LimbProduct.layout``). At k = 2 a pass keeps nothing,
        and a level holds the gathered remainder rows and its output, then
        either the half-word copy and the two segment sums of the rows or
        the temporaries of ``mul`` on the output, whichever is larger. None
        at depth 0."""
        n = dyn.n
        if depth == 0:
            return ()
        if dyn.k == 2:
            rows = 2 * dyn.graph.num_edges
            return (
                ((rows, n + 1), np.uint64),
                ((n, n + 1), np.uint64),
                ((max(rows + 2 * n, 5 * n), n + 1), np.uint64),
            )
        columns = n + sum(len(u) for u, _ in dyn.leave_one_out[0])
        cells = len(dyn.jacobian_cells[1])
        return (
            ((depth, columns), np.uint64),
            ((depth, n + 1), np.uint64),
            *LimbProduct.layout(n, n, n + 1, depth, cells),
        )

    @classmethod
    def allocate(cls, dyn: DynamicsSpec, depth: int) -> ChainStacks | None:
        """The stacks of a pass to depth, or None where it keeps none."""
        if dyn.k == 2 or depth == 0:
            return None
        series, steps = cls.layout(dyn, depth)[:2]
        inverses = np.array(
            [pow(p, -1, PRIME) for p in range(1, depth + 1)], dtype=np.uint64
        )
        table = np.empty(*steps)
        table[:] = inverses[:, None]
        table[:, 0] = mul(inverses, np.uint64(pow(dyn.k - 1, -1, PRIME)))
        _, rows, columns, _ = dyn.jacobian_cells
        return cls(
            np.empty(*series),
            table,
            LimbProduct(dyn.n, dyn.n, dyn.n + 1, depth, rows, columns),
        )


def check_lane_slots(dyn: DynamicsSpec, depth: int) -> None:
    """Refuse a chain pass whose arrays (chain, value series, step table,
    the level product's arrays, and the transients of a level's step,
    ``ChainStacks.layout``) exceed MAX_DENSE_SLOTS 8-byte slots, counted
    from their shapes before any is allocated. A chain past the cap alone is
    refused before the cells are worked out, which takes time linear in
    n. A pass at k >= 3 whose level product would need blocks of n
    columns wider than one GEMM chunk (``scalars.fits_one_chunk``), past
    n = 2**11, is refused before anything is counted."""
    if dyn.k > 2 and depth > 0 and not fits_one_chunk(dyn.n):
        raise ResourceLimitError(
            f"a block of n = {dyn.n} columns is wider than one GEMM chunk: "
            f"no lane slots for a pass at k = {dyn.k}"
        )

    def slots(arrays: tuple[tuple[tuple[int, ...], type], ...]) -> int:
        return sum(
            -(-prod(shape) * np.dtype(dtype).itemsize // 8)
            for shape, dtype in arrays
        )

    needs = slots((((depth + 1, dyn.n, dyn.n + 1), np.uint64),))
    what = "for the chain alone"
    if needs <= MAX_DENSE_SLOTS:
        needs += slots(ChainStacks.layout(dyn, depth))
        what = "in all"
    if needs > MAX_DENSE_SLOTS:
        raise ResourceLimitError(
            f"depth {depth} at n = {dyn.n} needs {needs} lane slots {what}, "
            f"cap is {MAX_DENSE_SLOTS}"
        )


def apply_factors(
    dyn: DynamicsSpec, chain: np.ndarray, stacks: ChainStacks | None, p: int
) -> np.ndarray:
    """One level of the variational Taylor recurrence: Y_{p+1} from
    Y_0..Y_p.

    chain[q] holds Y_q, the Taylor coefficients of the solution x(t) in
    column 0 and, in any further columns, those of its derivatives along
    the seeded directions (Phi = dx(t)/dx_0 for the seed [x | I]). Phi
    obeys Phi' = Df(x(t)) Phi, and Euler's identity Df(x) x = (k-1) f(x)
    gives x' = f(x) from the same product, so

        (p+1) Y_{p+1} = sum_{q <= p} D_q Y_{p-q},

    column 0 scaled by (k-1)^-1, with D_q coefficient q of Df(x(t)). This
    call builds D_p from the leave-one-out products of each hyperedge
    remainder, summed into the cells (owner, factor), and hands D_p's cells
    and Y_p to the series product, which keeps levels 0..p-1 of both and
    takes the sum exactly mod P (``scalars.LimbProduct``), and scales it by
    row p of the pass's step table (``ChainStacks.steps``) in one ``mul``.
    At k = 2, Df is the constant adjacency: D_q = 0 for q > 0, D_0 Y_p sums
    rows of Y_p, and the level is scaled by (p+1)^-1 alone.
    """
    n = dyn.n
    if dyn.k == 2:
        # (k-1)^-1 = 1 leaves every lane the same scale
        column = np.full(chain.shape[2], pow(p + 1, -1, PRIME), np.uint64)
        starts = dyn.incidence_starts
        owners = np.flatnonzero(np.diff(starts))
        out = np.zeros(chain.shape[1:], dtype=np.uint64)
        if len(owners):
            rows = chain[p, dyn.incidence[:, 0]]
            out[owners] = segment_sums(rows, starts[owners])
        return mul(out, column)
    series = stacks.series
    series[p, :n] = chain[p, :, 0]
    stages, gather = dyn.leave_one_out
    lo = n
    for u, v in stages:
        lo += len(u)
        series[p, lo - len(u) : lo] = row_sum(
            mul(series[: p + 1, u], series[p::-1, v])
        )
    cells = segment_sums(series[p, gather], dyn.jacobian_cells[3])
    return mul(stacks.product.push(p, cells, chain[p]), stacks.steps[p])


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
    k >= 3, level p costs coefficient p of the series product, one GEMM of
    9 (p+1) n^2 (n+1) multiply-adds (``scalars.LimbProduct``), and O(p S)
    value products for the S distinct node sets of
    ``DynamicsSpec.leave_one_out``; at k = 2 it costs O(M n) sums for
    M = k |E| remainders.

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
    # the series and the product are freed before the scaling's temporaries
    del stacks
    factorials = accumulate(range(1, top + 1), lambda f, p: f * p % PRIME)
    factorials = np.array([1, *factorials], dtype=np.uint64)[:, None, None]
    levels = max(1, _SCALE_LANES // (n * (n + 1)))
    for lo in range(2, top + 1, levels):
        hi = min(lo + levels, top + 1)
        chain[lo:hi] = mul(chain[lo:hi], factorials[lo:hi])
    return chain[: top + 1]
