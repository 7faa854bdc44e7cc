"""Local weak observability of hypergraph dynamics.

The observability matrix at a point stacks the gradients of the measured
time derivatives: with outputs y = C x and derivative chain J_0, J_1, ...,
the block for level p is C times the Jacobian of J_p. Full column rank n at
a point certifies local weak observability there; since every block entry
is a polynomial in the point, rank at a random point over a large prime
field certifies the generic rank with high probability (a Schwartz-Zippel
argument), and taking the best of several trials drives the failure odds
down further.

Levels 0..n-1 always suffice, and usually far fewer are needed: once a
level adds nothing to the span of a node set's gradients, no later level
does either (the stabilising filtration behind the observability rank
condition of Hermann and Krener). So the depth, n - 1 by default, is only
a cap. ``NomOracle`` ends each trial point's chain pass at the first level
where every watched node set is flat (that level added no rank to it) or
has rank n, and reports the highest level it stacked as
``stacked_depth``. A flat level at a random point can mislead only if the
point lies on a proper subvariety: the same Schwartz-Zippel class of
failure as the rank itself, so "observable" stays a certificate and "not
observable" stays probabilistic.

The best rank over the trials is capped twice: by n, and by the node set's
exact twin ceiling (``NomOracle.ceiling``), since two unmeasured twins u
and v make e_u - e_v a kernel vector of the set's stacked matrix over Z,
hence mod P at every point. No trial can beat the ceiling, so a rank query
stops at the first trial that reaches it, and later trials are never
evaluated; the result is the one every trial would give.
``stacked_depth`` covers the evaluated trials only.

Jacobians come from forward differentiation inside the chain kernel: the
Taylor recurrence of ``dynamics.lie_derivatives`` runs once on lanes that
carry [value | all n partials], seeded x_j = (x_j, e_j). The lanes are
uint64 residues mod 2**61 - 1, and every entry is exact in that field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .dynamics import DynamicsSpec, check_lane_slots, lie_derivatives
from .hypergraph import UniformHypergraph, induced_subhypergraph
from .linalg import Echelon, modp_rank
from .scalars import derive_seed, random_point


@dataclass(frozen=True)
class RankConfig:
    """Knobs for the probabilistic rank checks, validated here only.

    depth caps the derivative levels stacked; None means n - 1 for the
    n-node dynamics the rank is taken on. Each trial's chain stops below
    the cap once its watched node sets stop growing (``NomOracle``), so a
    larger cap costs only the levels that can still add rank. trials is
    the number of independent evaluation points; the reported rank is the
    best one seen, rank deficiency at every point being overwhelmingly
    unlikely for a generically full-rank matrix. seed derives every
    evaluation point.
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
    dyn: DynamicsSpec,
    x: Sequence[int],
    depth: int,
    stop: Callable[[np.ndarray, int], bool] | None = None,
) -> np.ndarray:
    """The Jacobians of the chain J_0..J_depth at the integer point x mod P:
    the kernel's gradient lanes, [p, i, j] = dJ_p[i] / dx[j], not copied.
    stop may end the chain early (``lie_derivatives``)."""
    return lie_derivatives(dyn, x, depth, stop)[:, :, 1:]


def node_blocks(
    dyn: DynamicsSpec,
    x: Sequence[int],
    depth: int,
    stop: Callable[[np.ndarray, int], bool] | None = None,
) -> np.ndarray:
    """Every node's observability block at the integer point x mod P.

    [i-1, p] is the gradient row of J_p for node i, in a node-major view
    of the kernel's lanes: stacking a node's rows over p gives its block,
    and a node set's matrix is the union of its blocks. stop may end the
    chain early (``lie_derivatives``).
    """
    return lie_derivatives_with_jacobians(dyn, x, depth, stop).transpose(
        1, 0, 2
    )


class TwinCount:
    """How many members of each twin class a node set leaves unmeasured,
    and the set's rank ceiling (``NomOracle.ceiling``), for a set that
    starts empty and grows one node at a time, in O(1) per node."""

    def __init__(self, n: int, classes: Sequence[Sequence[int]]) -> None:
        self.where = {i: c for c, cls in enumerate(classes) for i in cls}
        self.unmeasured = [len(cls) for cls in classes]
        self.ceiling = n - sum(m - 1 for m in self.unmeasured)

    def ceiling_with(self, node: int) -> int:
        """The ceiling once node, not yet in the set, joins it: one higher
        when another member of its twin class stays unmeasured."""
        c = self.where.get(node)
        return self.ceiling + (c is not None and self.unmeasured[c] > 1)

    def add(self, node: int) -> None:
        self.ceiling = self.ceiling_with(node)
        c = self.where.get(node)
        if c is not None:
            self.unmeasured[c] -= 1


class NomOracle:
    """Shared node-block evaluations at seeded random points.

    All rank queries against one oracle reuse the same trial points, which
    keeps greedy selection consistent and makes repeated queries cheap. The
    points have no zero coordinates and derive deterministically from the
    seed. A config depth of None resolves here, to n - 1 of ``dyn``; the
    config itself is kept for oracles on parts of ``dyn``.

    The depth is a cap. A trial's chain pass ends at the first level where
    every watched node set is flat (its last level added no rank) or at
    rank n; from there no level adds rank to any of them, nor to a union
    of them. watch=None watches each node alone, which makes every node
    set a union, as MON needs; a given watch is one node set, the only one
    ``rank`` then takes. Flatness is checked lazily: the pass folds each
    new level into the echelon of one set still growing, the witness, and
    only when it goes flat scans the sets after it for a new one. Each
    set's echelon, grown that way, is kept as its row basis.

    No trial can rank a node set above its ``ceiling``, so a rank query
    stops at the first trial that reaches it, and later trials are never
    evaluated for it.
    """

    def __init__(
        self,
        dyn: DynamicsSpec,
        config: RankConfig | None = None,
        watch: Iterable[int] | None = None,
    ):
        cfg = config or RankConfig()
        self.dyn = dyn
        self.config = cfg
        self.depth = cfg.depth if cfg.depth is not None else dyn.n - 1
        self.trials = cfg.trials
        self.seed = cfg.seed
        self.watch = None if watch is None else tuple(sorted(watch))
        self._evaluations: dict[int, np.ndarray] = {}
        # per (trial, node set) still growing: its echelon, the last level
        # folded in, and whether that level added rank below n
        self._growth: dict[
            tuple[int, tuple[int, ...]], tuple[Echelon, int, bool]
        ] = {}
        self._bases: dict[tuple[int, tuple[int, ...]], list[list[int]]] = {}

    def point(self, trial: int) -> list[int]:
        """The trial's evaluation point, derived from the seed."""
        return random_point(
            self.dyn.n, derive_seed(self.seed, f"rank-point-{trial}")
        )

    def evaluation(self, trial: int) -> np.ndarray:
        """Every node's block at one trial point (``node_blocks``), levels
        0..p for the level p where the chain pass stopped."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} outside 0..{self.trials - 1}")
        cached = self._evaluations.get(trial)
        if cached is None:
            # refuse a chain no memory holds before drawing its n coordinates
            check_lane_slots(self.dyn, self.depth)
            if self.watch is not None:
                sets = [self.watch]
            else:
                sets = [(i,) for i in range(1, self.dyn.n + 1)]
            witness = 0

            def flat(chain: np.ndarray, p: int) -> bool:
                nonlocal witness
                blocks = chain[:, :, 1:].transpose(1, 0, 2)
                while witness < len(sets) and not self._grow(
                    trial, sets[witness], blocks, p
                ):
                    witness += 1
                return witness == len(sets)

            cached = node_blocks(self.dyn, self.point(trial), self.depth, flat)
            self._evaluations[trial] = cached
        return cached

    def _grow(
        self, trial: int, nodes: tuple[int, ...], blocks: np.ndarray, top: int
    ) -> bool:
        """Fold the node set's rows of levels up to top into its echelon at
        one trial, stopping at its first flat level; whether it may still
        grow. blocks is the node-major chain so far."""
        n = self.dyn.n
        state = self._growth.get((trial, nodes))
        ech, level, growing = state or (Echelon(n), -1, True)
        while growing and level < top:
            level += 1
            rows = [blocks[i - 1, level].tolist() for i in nodes]
            gained = ech.add_rows(rows)
            growing = gained > 0 and ech.rank < n
        self._growth[trial, nodes] = ech, level, growing
        return growing

    def _span(self, trial: int, nodes: tuple[int, ...]) -> list[list[int]]:
        """Echelon rows spanning the node set's stacked blocks at one trial,
        built once, by the chain pass as far as it went."""
        rows = self._bases.get((trial, nodes))
        if rows is None:
            blocks = self.evaluation(trial)
            self._grow(trial, nodes, blocks, blocks.shape[1] - 1)
            ech = self._growth.pop((trial, nodes))[0]
            rows = self._bases[trial, nodes] = list(ech.pivots.values())
        return rows

    def basis(self, trial: int, node: int) -> list[list[int]]:
        """Row basis of a node's block at one trial point, reduced once.

        It spans the same rows as the block, so it can stand in for the
        block in any rank, probe or echelon, with fewer rows to reduce.
        """
        return self._span(trial, (node,))

    @cached_property
    def _twins(self) -> tuple[frozenset[int], ...]:
        """The twin classes of the graph, as sets."""
        return tuple(map(frozenset, self.dyn.graph.twin_classes))

    def ceiling(self, nodes: Collection[int]) -> int:
        """Exact upper bound on the node set's rank at every trial point
        and depth: n - sum over twin classes c of max(0, |c - nodes| - 1).

        For unmeasured twins u and v, e_u - e_v is orthogonal to every
        gradient row of the set over Z (see ``mon``), hence mod P at every
        point; the differences within each class's unmeasured members are
        independent, so the stacked matrix has that much kernel.
        """
        return self.dyn.n - sum(
            max(0, len(c.difference(nodes)) - 1) for c in self._twins
        )

    @property
    def stacked_depth(self) -> int:
        """The highest level stacked at any evaluated trial; 0 before any."""
        return max(
            (b.shape[1] - 1 for b in self._evaluations.values()), default=0
        )

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
                part = NomOracle(DynamicsSpec(sub), self.config)
            out.append((tuple(comp), part))
        return tuple(out)

    def rank(self, nodes: Iterable[int]) -> int:
        """Best rank of the stacked node blocks across the trial points,
        taken over the bases of the watched sets that make up the nodes.
        Trials stop at the first that reaches n or the nodes' ``ceiling``,
        which is worked out only once a trial ends below n."""
        nodes = list(nodes)
        seen = set(nodes)
        if len(seen) != len(nodes):
            raise ValueError(f"duplicate nodes in {nodes}")
        for i in seen:
            if not 1 <= i <= self.dyn.n:
                raise IndexError(f"node {i} outside 1..{self.dyn.n}")
        if self.watch is None:
            sets = [(i,) for i in sorted(seen)]
        elif seen == set(self.watch):
            sets = [self.watch]
        else:
            raise ValueError(
                f"this oracle ranks only its watched nodes {list(self.watch)}"
            )
        best = 0
        for t in range(self.trials):
            rows = [r for nodes in sets for r in self._span(t, nodes)]
            best = max(best, modp_rank(rows, self.dyn.n))
            if best == self.dyn.n or best == self.ceiling(seen):
                break
        return best


def _as_dynamics(g: UniformHypergraph | DynamicsSpec) -> DynamicsSpec:
    if isinstance(g, DynamicsSpec):
        return g
    return DynamicsSpec(g)


@dataclass(frozen=True)
class ObservabilityReport:
    """Outcome of a local weak observability check: depth is the cap,
    stacked_depth the highest level any trial's chain stacked."""

    observable: bool
    rank: int
    n: int
    depth: int
    stacked_depth: int
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

    True when the generic observability rank reaches the node count. Each
    trial's chain watches the measured set alone and stops once its rank
    stops growing or reaches n, below the configured depth (default n - 1)
    when it can.
    """
    nodes = list(nodes)
    oracle = NomOracle(_as_dynamics(g), config, watch=nodes)
    rank = oracle.rank(nodes)
    return ObservabilityReport(
        observable=rank == oracle.dyn.n,
        rank=rank,
        n=oracle.dyn.n,
        depth=oracle.depth,
        stacked_depth=oracle.stacked_depth,
        trials=oracle.trials,
    )
