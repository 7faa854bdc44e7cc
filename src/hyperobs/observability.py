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

Jacobians come from forward-mode dual numbers: one evaluation of the chain
per coordinate direction, exact over the field and over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .dynamics import DynamicsSpec, lie_derivatives
from .hypergraph import UniformHypergraph
from .linalg import Echelon, modp_rank
from .scalars import PRIME, PRIME_FIELD, DualDomain, derive_seed, random_point


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
    dyn: DynamicsSpec, x: Sequence[Any], depth: int, domain: Any
) -> tuple[list[list[Any]], list[list[list[Any]]]]:
    """The chain J_0..J_depth and all its Jacobians at x.

    Runs the chain once per coordinate over dual numbers seeded in that
    direction; the eps parts of run j form column j of every Jacobian.
    Returns (values, grads) with grads[p][i][j] = dJ_p[i] / dx[j].
    """
    n = dyn.n
    dd = DualDomain(domain)
    values: list[list[Any]] | None = None
    grads = [
        [[domain.zero()] * n for _ in range(n)] for _ in range(depth + 1)
    ]
    zero, one = domain.zero(), domain.one()
    for j in range(n):
        seeded = [
            dd.variable(x[i], one if i == j else zero) for i in range(n)
        ]
        chain = lie_derivatives(dyn, seeded, depth, dd)
        for p in range(depth + 1):
            level = chain[p]
            for i in range(n):
                grads[p][i][j] = level[i][1]
        if values is None:
            values = [[pair[0] for pair in level] for level in chain]
    if values is None:
        values = [list(x) for _ in range(depth + 1)]
    return values, grads


@dataclass(frozen=True)
class NomEvaluation:
    """Per-node observability blocks at one evaluation point.

    blocks[i-1][p] is the gradient row of J_p for node i, reduced mod the
    field prime; stacking a node's rows over p gives its observability
    block, and a node set's matrix is the union of its blocks.
    """

    point: tuple[int, ...]
    depth: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def rows_for(self, nodes: Sequence[int]) -> list[tuple[int, ...]]:
        out = []
        for i in nodes:
            out.extend(self.blocks[i - 1])
        return out


def node_blocks(
    dyn: DynamicsSpec, x: Sequence[int], depth: int
) -> NomEvaluation:
    """Evaluate every node's observability block at a field point."""
    point = [PRIME_FIELD.from_int(v) for v in x]
    _, grads = lie_derivatives_with_jacobians(
        dyn, point, depth, PRIME_FIELD
    )
    blocks = tuple(
        tuple(tuple(grads[p][i]) for p in range(depth + 1))
        for i in range(dyn.n)
    )
    return NomEvaluation(tuple(point), depth, blocks)


class NomOracle:
    """Shared node-block evaluations at seeded random points.

    All rank queries against one oracle reuse the same trial points, which
    keeps greedy selection consistent and makes repeated queries cheap. The
    points have no zero coordinates and derive deterministically from the
    seed. A config depth of None resolves here, to n - 1 of ``dyn``.
    """

    def __init__(self, dyn: DynamicsSpec, config: RankConfig | None = None):
        cfg = config or RankConfig()
        self.dyn = dyn
        self.depth = cfg.depth if cfg.depth is not None else dyn.n - 1
        self.trials = cfg.trials
        self.seed = cfg.seed
        self._evaluations: dict[int, NomEvaluation] = {}

    def evaluation(self, trial: int) -> NomEvaluation:
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} outside 0..{self.trials - 1}")
        cached = self._evaluations.get(trial)
        if cached is None:
            point = random_point(
                self.dyn.n, derive_seed(self.seed, f"rank-point-{trial}")
            )
            cached = node_blocks(self.dyn, point, self.depth)
            self._evaluations[trial] = cached
        return cached

    def rank(self, nodes: Sequence[int]) -> int:
        """Best rank of the stacked node blocks across the trial points."""
        seen = set(nodes)
        if len(seen) != len(list(nodes)):
            raise ValueError(f"duplicate nodes in {list(nodes)}")
        for i in seen:
            if not 1 <= i <= self.dyn.n:
                raise IndexError(f"node {i} outside 1..{self.dyn.n}")
        best = 0
        for t in range(self.trials):
            rows = self.evaluation(t).rows_for(sorted(seen))
            best = max(best, modp_rank(rows, self.dyn.n, PRIME))
            if best == self.dyn.n:
                break
        return best

    def echelons(self) -> list[Echelon]:
        """Fresh empty bases, one per trial, for incremental selection."""
        return [Echelon(self.dyn.n, PRIME) for _ in range(self.trials)]


def _as_dynamics(g: UniformHypergraph | DynamicsSpec) -> DynamicsSpec:
    if isinstance(g, DynamicsSpec):
        return g
    return DynamicsSpec(g)


def generic_rank(
    g: UniformHypergraph | DynamicsSpec,
    nodes: Sequence[int],
    config: RankConfig | None = None,
) -> int:
    """Generic rank of the observability matrix for a measured node set."""
    return NomOracle(_as_dynamics(g), config).rank(list(nodes))


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
