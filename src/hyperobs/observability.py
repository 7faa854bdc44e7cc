"""Local weak observability of hypergraph dynamics.

The observability matrix at a point stacks the gradients of the measured
time derivatives: with outputs y = C x and derivative chain J_0, J_1, ...,
the block for level p is C times the Jacobian of J_p. Full column rank n at
a point certifies local weak observability there; since every block entry
is a polynomial in the point, rank at a random point over a large prime
field certifies the generic rank with high probability (a Schwartz-Zippel
argument), and taking the best of several trials drives the failure odds
down further.

Levels 0..n-1 always suffice: once a level adds nothing to the span of the
gradients dJ_q, no later level does either (the observability rank
condition of Hermann and Krener), so that is the default depth.

Jacobians come from forward differentiation inside the chain kernel: the
Taylor recurrence of ``dynamics.lie_derivatives`` runs once on lanes that
carry [value | all n partials], seeded x_j = (x_j, e_j). The lanes are
uint64 residues mod 2**61 - 1, and every entry is exact in that field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .dynamics import DynamicsSpec, check_lane_slots, lie_derivatives
from .hypergraph import UniformHypergraph, induced_subhypergraph
from .linalg import Echelon, modp_rank
from .scalars import derive_seed, random_point


@dataclass(frozen=True)
class RankConfig:
    """Knobs for the probabilistic rank checks, validated here only.

    depth is the highest derivative level stacked; None means n - 1 for the
    n-node dynamics the rank is taken on. trials is the number of
    independent evaluation points; the reported rank is the best one seen,
    rank deficiency at every point being overwhelmingly unlikely for a
    generically full-rank matrix. seed derives every evaluation point.
    """

    trials: int = 3
    seed: int = 0
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.depth is not None and self.depth < 0:
            raise ValueError(f"depth must be nonnegative, got {self.depth}")


def lie_derivatives_with_jacobians(
    dyn: DynamicsSpec, x: Sequence[int], depth: int
) -> np.ndarray:
    """The Jacobians of the chain J_0..J_depth at the integer point x mod P:
    the kernel's gradient lanes, [p, i, j] = dJ_p[i] / dx[j], not copied."""
    return lie_derivatives(dyn, x, depth)[:, :, 1:]


def node_blocks(
    dyn: DynamicsSpec, x: Sequence[int], depth: int
) -> np.ndarray:
    """Every node's observability block at the integer point x mod P.

    [i-1, p] is the gradient row of J_p for node i, in a node-major view
    of the kernel's lanes: stacking a node's rows over p gives its block,
    and a node set's matrix is the union of its blocks.
    """
    return lie_derivatives_with_jacobians(dyn, x, depth).transpose(1, 0, 2)


class NomOracle:
    """Shared node-block evaluations at seeded random points.

    All rank queries against one oracle reuse the same trial points, which
    keeps greedy selection consistent and makes repeated queries cheap. The
    points have no zero coordinates and derive deterministically from the
    seed. A config depth of None resolves here, to n - 1 of ``dyn``; the
    config itself is kept for oracles on parts of ``dyn``.
    """

    def __init__(self, dyn: DynamicsSpec, config: RankConfig | None = None):
        cfg = config or RankConfig()
        self.dyn = dyn
        self.config = cfg
        self.depth = cfg.depth if cfg.depth is not None else dyn.n - 1
        self.trials = cfg.trials
        self.seed = cfg.seed
        self._evaluations: dict[int, np.ndarray] = {}
        self._bases: dict[tuple[int, int], list[list[int]]] = {}

    def evaluation(self, trial: int) -> np.ndarray:
        """Every node's block at one trial point (``node_blocks``)."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} outside 0..{self.trials - 1}")
        cached = self._evaluations.get(trial)
        if cached is None:
            # refuse a chain no memory holds before drawing its n coordinates
            check_lane_slots(self.dyn, self.depth)
            point = random_point(
                self.dyn.n, derive_seed(self.seed, f"rank-point-{trial}")
            )
            cached = node_blocks(self.dyn, point, self.depth)
            self._evaluations[trial] = cached
        return cached

    def basis(self, trial: int, node: int) -> list[list[int]]:
        """Row basis of a node's block at one trial point, reduced once.

        It spans the same rows as the block, so it can stand in for the
        block in any rank, probe or echelon, with fewer rows to reduce.
        """
        rows = self._bases.get((trial, node))
        if rows is None:
            ech = Echelon(self.dyn.n)
            ech.add_rows(self.evaluation(trial)[node - 1].tolist())
            rows = self._bases[trial, node] = list(ech.pivots.values())
        return rows

    @cached_property
    def parts(self) -> tuple[tuple[tuple[int, ...], NomOracle | None], ...]:
        """Each sorted connected component with the oracle that ranks it:
        None for an isolated node, this one on a connected hypergraph, and
        otherwise one on the induced sub-hypergraph under this config."""
        dyn, out = self.dyn, []
        for comp in dyn.graph.connected_components():
            part: NomOracle | None = None
            if len(comp) == dyn.n > 1:
                part = self
            elif len(comp) > 1:
                sub = induced_subhypergraph(dyn.graph, comp)
                part = NomOracle(DynamicsSpec(sub, dyn.weight), self.config)
            out.append((tuple(comp), part))
        return tuple(out)

    def rank(self, nodes: Iterable[int]) -> int:
        """Best rank of the stacked node blocks across the trial points."""
        nodes = list(nodes)
        seen = set(nodes)
        if len(seen) != len(nodes):
            raise ValueError(f"duplicate nodes in {nodes}")
        for i in seen:
            if not 1 <= i <= self.dyn.n:
                raise IndexError(f"node {i} outside 1..{self.dyn.n}")
        best = 0
        for t in range(self.trials):
            blocks = self.evaluation(t)
            rows = [r for i in sorted(seen) for r in blocks[i - 1].tolist()]
            best = max(best, modp_rank(rows, self.dyn.n))
            if best == self.dyn.n:
                break
        return best


def _as_dynamics(g: UniformHypergraph | DynamicsSpec) -> DynamicsSpec:
    if isinstance(g, DynamicsSpec):
        return g
    return DynamicsSpec(g)


@dataclass(frozen=True)
class ObservabilityReport:
    """Outcome of a local weak observability check."""

    observable: bool
    rank: int
    n: int
    depth: int
    trials: int

    @property
    def verdict(self) -> str:
        return "observable" if self.observable else "not-observable-at-depth"


def is_locally_weakly_observable(
    g: UniformHypergraph | DynamicsSpec,
    nodes: Sequence[int],
    config: RankConfig | None = None,
) -> ObservabilityReport:
    """Does measuring the given nodes pin down the full state locally?

    True when the generic observability rank reaches the node count at the
    configured depth (default n - 1).
    """
    oracle = NomOracle(_as_dynamics(g), config)
    rank = oracle.rank(list(nodes))
    return ObservabilityReport(
        observable=rank == oracle.dyn.n,
        rank=rank,
        n=oracle.dyn.n,
        depth=oracle.depth,
        trials=oracle.trials,
    )
