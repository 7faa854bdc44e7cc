"""Polynomial dynamics attached to a k-uniform hypergraph.

The state obeys dx/dt = A x^[k-1] where A is the adjacency unfolding and
x^[k-1] the (k-1)-fold Kronecker power. Because A comes from a symmetric
tensor, the vector field collapses edgewise:

    f(x)_i = sum over hyperedges e containing i of prod_{j in e, j != i} x_j.

``DynamicsSpec`` holds the structure as ``incidence``, the hyperedge
remainders through each node. ``lie_derivatives`` computes the higher time
derivatives J_p of the state along the flow (J_0 = x, J_1 = f(x), ...) and
all their Jacobians in one pass of the Taylor recurrence of the ODE
solution, on uint64 lanes mod P = 2**61 - 1 (``scalars``). The two oracles
that check it, the factor-list recursion and the spelled-out operator
product, live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph
from .scalars import PRIME, add, cast, mul, row_sum, scale, segment_sums

MAX_DENSE_SLOTS = 10**8
_BLOCK_SLOTS = 1 << 13


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


def _cauchy_block(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j u[j] v[j] over axis 0, for lanes of [value | gradient] on the
    last axis: the gradient of each product follows the product rule."""
    out = row_sum(mul(u[..., :1], v))
    out[..., 1:] = add(out[..., 1:], row_sum(mul(u[..., 1:], v[..., :1])))
    return out


def apply_factors(
    dyn: DynamicsSpec, chain: np.ndarray, series: list[np.ndarray], p: int
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
            block = _cauchy_block(head, tail)
            term = block if term is None else add(term, block)
        if t < k - 2:
            series[t - 1][p] = term
    starts = dyn.incidence_starts
    owners = np.flatnonzero(np.diff(starts))
    out = np.zeros((dyn.n,) + chain.shape[2:], dtype=np.uint64)
    if len(owners):
        out[owners] = segment_sums(term, starts[owners])
    return scale(out, dyn.weight * pow(p + 1, -1, PRIME))


def lie_derivatives(
    dyn: DynamicsSpec, x: Sequence[int], depth: int
) -> np.ndarray:
    """The chain J_0, ..., J_depth of time derivatives of the state and all
    their Jacobians at the integer point x, mod P.

    Lanes carry [value | all n partials] from x_j seeded as (x_j, e_j). The
    Taylor recurrence (``apply_factors``) runs once per level, and level p
    is multiplied by p! at the end, which restores J_p exactly mod P. Level
    p costs O(M (k-2) p n) lane operations for M = k |E| remainders.

    Returns one (depth + 1, n, n + 1) uint64 array: row i of level p is
    J_p[i] followed by its gradient. A non-integer coordinate raises
    ValueError. More than MAX_DENSE_SLOTS lane slots, counted before any is
    allocated, is refused.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    n, k = dyn.n, dyn.k
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates for {n} nodes")
    rows = len(dyn.incidence)
    # the chain, and the partial products of 2..k-2 factors
    slots = (depth + 1) * (n + 1) * (n + max(k - 3, 0) * rows)
    if slots > MAX_DENSE_SLOTS:
        raise ResourceLimitError(
            f"depth {depth} at n = {n} needs {slots} lane slots, "
            f"cap is {MAX_DENSE_SLOTS}"
        )
    chain = np.empty((depth + 1, n, n + 1), dtype=np.uint64)
    chain[0, :, 0] = cast(x)
    chain[0, :, 1:] = np.eye(n, dtype=np.uint64)
    series = [
        np.empty((depth, rows, n + 1), dtype=np.uint64) for _ in range(k - 3)
    ]
    for p in range(depth):
        chain[p + 1] = apply_factors(dyn, chain, series, p)
    factorial = 1
    for p in range(2, depth + 1):
        factorial = factorial * p % PRIME
        chain[p] = scale(chain[p], factorial)
    return chain
