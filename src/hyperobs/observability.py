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
``stacked_depth``. Twins go flat together, so one member per twin class
stands for the class, and its basis gives the others' (``mon`` gives the
argument). A flat level at a random point can mislead only if the
point lies on a proper subvariety: the same Schwartz-Zippel class of
failure as the rank itself, so "observable" stays a certificate and "not
observable" stays probabilistic.

The best rank over the trials is capped twice: by n, and by the node set's
exact twin ceiling (``NomOracle.ceiling``; ``mon`` gives the argument).
No trial can beat the ceiling, so a rank query stops at the first trial
that reaches it, and later trials are never evaluated; the result is the
one every trial would give. ``stacked_depth`` covers the evaluated trials
only.

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
    unlikely for a generically full-rank matrix. At k = 2 the blocks are
    the same at every point, so one is evaluated (``NomOracle``). seed
    derives every evaluation point.
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
    """The twin ledger of a node set: how many members of each twin class
    it leaves unmeasured, and its ``need``, one slot per unmeasured twin
    past the first of its class; n - need is its ``NomOracle.ceiling``.
    The set starts as nodes and gains or loses one node at a time, O(1)."""

    def __init__(
        self, classes: Sequence[Sequence[int]], nodes: Collection[int] = ()
    ) -> None:
        self.classes = classes
        self.unmeasured = [len(set(cls).difference(nodes)) for cls in classes]
        self.need = sum([m - 1 for m in self.unmeasured if m > 1])

    @cached_property
    def where(self) -> dict[int, tuple[int, int]]:
        """Each twin's class and its place in it, 1.., worked out on first
        use, so a need taken once never builds it."""
        return {
            i: (c, j)
            for c, cls in enumerate(self.classes)
            for j, i in enumerate(cls, 1)
        }

    def need_with(self, node: int) -> int:
        """The need once node, not in the set, joins it: one less when
        another member of its twin class stays unmeasured."""
        c = self.where.get(node)
        return self.need - (c is not None and self.unmeasured[c[0]] > 1)

    def add(self, node: int) -> None:
        c = self.where.get(node)
        if c is not None:
            self.unmeasured[c[0]] -= 1
            self.need -= self.unmeasured[c[0]] > 0

    def remove(self, node: int) -> None:
        """Undo ``add`` of node, in any order."""
        c = self.where.get(node)
        if c is not None:
            self.unmeasured[c[0]] += 1
            self.need += self.unmeasured[c[0]] > 1

    def stranded(self, node: int) -> int:
        """How many members of node's twin class at or below it the set
        leaves unmeasured, 0 outside a class, for a set with no member of
        the class above node, as on a path of rising nodes."""
        c = self.where.get(node)
        if c is None:
            return 0
        cls, place = c
        return place - len(self.classes[cls]) + self.unmeasured[cls]


class NomOracle:
    """Shared node-block evaluations at seeded random points.

    All rank queries against one oracle reuse the same trial points, which
    keeps greedy selection consistent and makes repeated queries cheap. The
    points have no zero coordinates and derive deterministically from the
    seed. The oracle builds the graph's dynamics itself, as ``dyn``. A
    config depth of None resolves here, to n - 1 of the graph; the config
    itself is kept for oracles on parts of the graph.

    The depth is a cap. A trial's chain pass ends at the first level where
    every watched node set is flat (its last level added no rank) or at
    rank n; from there no level adds rank to any of them, nor to a union
    of them. watch=None watches each node alone, which makes every node
    set a union, as MON needs; a given watch is one node set, the only one
    ``rank`` then takes. Flatness is checked lazily: the pass folds each
    new level into the echelon of the first set still growing, and only
    when it goes flat into the sets after it. Each set's echelon, grown
    that way, is kept as its row basis. Unwatched,
    a twin class is watched through its first member alone, and every
    other member's basis is derived from the first's without reduction
    (``basis``), so a class of m twins costs one block's reduction, not
    m.

    No trial can rank a node set above its ``ceiling``, so a rank query
    stops at the first trial that reaches it, and later trials are never
    evaluated for it. At k = 2 the dynamics are linear, dx/dt = A x, and
    node i's block is e_i A^p at every point, so ``trials`` is 1 there,
    for this oracle and its ``parts``; ``config`` keeps the count asked.
    """

    def __init__(
        self,
        g: UniformHypergraph,
        config: RankConfig | None = None,
        watch: Iterable[int] | None = None,
    ):
        if not isinstance(g, UniformHypergraph):
            raise TypeError(
                f"NomOracle takes a UniformHypergraph, not {type(g).__name__}"
            )
        cfg = config or RankConfig()
        self.dyn = DynamicsSpec(g)
        self.config = cfg
        self.depth = cfg.depth if cfg.depth is not None else g.n - 1
        self.trials = 1 if g.k == 2 else cfg.trials
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
        0..p for the level p where the chain pass stopped: the first where
        every watched set is flat or at rank n, or the cap. Unwatched, the
        stop test watches each node alone but one per twin class, its
        first member: a twin's block has the ranks and flat level of the
        first's, level by level (``basis``)."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} outside 0..{self.trials - 1}")
        cached = self._evaluations.get(trial)
        if cached is None:
            # refuse a chain no memory holds before drawing its n coordinates
            check_lane_slots(self.dyn, self.depth)
            if self.watch is not None:
                sets = [self.watch]
            else:
                firsts = self._firsts
                sets = [
                    (i,) for i in range(1, self.dyn.n + 1) if i not in firsts
                ]

            def flat(chain: np.ndarray, p: int) -> bool:
                blocks = chain[:, :, 1:].transpose(1, 0, 2)
                return not any(self._grow(trial, s, blocks, p) for s in sets)

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
            rows = self._bases[trial, nodes] = ech.rows()
        return rows

    def basis(self, trial: int, node: int) -> list[list[int]]:
        """Row basis of a node's block at one trial point, reduced once.

        It spans the same rows as the block, so it can stand in for the
        block in any rank, probe or echelon, with fewer rows to reduce.
        A watched oracle has none: its chains stop when the watched set
        goes flat, which may be before a node's block does.

        A twin v past the first member u of its class reduces nothing and
        reads no evaluation: its block is u's with coordinates u and v
        exchanged (see ``mon``), so its basis comes from u's. The first
        row of u's is e_u, level 0, and every other row is w + a e_u for
        a w in the span of u's levels from 1 on, whose u and v entries
        are equal. v's basis is e_v and each such w, the row with its u
        entry set to its v entry, in fresh lists. On a star these are the
        rows that reducing v's own block gives; swapping u's entries in
        place would span the same rows but leave fill that greedy and
        brute force pay for in their eliminations.
        """
        if self.watch is not None:
            raise ValueError("a watched oracle serves no node basis")
        u = self._firsts.get(node)
        if u is None:
            return self._span(trial, (node,))
        rows = self._bases.get((trial, (node,)))
        if rows is None:
            unit = [0] * self.dyn.n
            unit[node - 1] = 1
            rows = [unit]
            for row in self._span(trial, (u,))[1:]:
                row = row.copy()
                row[u - 1] = row[node - 1]
                rows.append(row)
            self._bases[trial, (node,)] = rows
        return rows

    @cached_property
    def _firsts(self) -> dict[int, int]:
        """Each twin past the first of its class, mapped to that first."""
        return {
            v: cls[0] for cls in self.dyn.graph.twin_classes for v in cls[1:]
        }

    def ceiling(self, nodes: Collection[int]) -> int:
        """Exact upper bound on the node set's rank at every trial point
        and depth: n less the set's twin need (``TwinCount``), since two
        unmeasured twins u and v make e_u - e_v a kernel vector of the
        set's stacked matrix (see ``mon``)."""
        return self.dyn.n - TwinCount(self.dyn.graph.twin_classes, nodes).need

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
                part = NomOracle(sub, self.config)
            out.append((tuple(comp), part))
        return tuple(out)

    def rank(self, nodes: Iterable[int]) -> int:
        """Best rank of the stacked node blocks across the trial points,
        taken over the watched set's basis, or, unwatched, over the nodes'
        ``basis``.
        Trials stop at the first that reaches n or the nodes' ``ceiling``,
        which is worked out once, when a trial first ends below n."""
        nodes = list(nodes)
        seen = set(nodes)
        if len(seen) != len(nodes):
            raise ValueError(f"duplicate nodes in {nodes}")
        for i in seen:
            if not 1 <= i <= self.dyn.n:
                raise IndexError(f"node {i} outside 1..{self.dyn.n}")
        if self.watch is not None and seen != set(self.watch):
            raise ValueError(
                f"this oracle ranks only its watched nodes {list(self.watch)}"
            )
        n, best, cap = self.dyn.n, 0, None
        for t in range(self.trials):
            if self.watch is None:
                rows = [r for i in sorted(seen) for r in self.basis(t, i)]
            else:
                rows = self._span(t, self.watch)
            best = max(best, modp_rank(rows, n))
            if best < n and cap is None:
                cap = self.ceiling(seen)
            if best in (n, cap):
                break
        return best


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
    g: UniformHypergraph,
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
    oracle = NomOracle(g, config, watch=nodes)
    rank = oracle.rank(nodes)
    return ObservabilityReport(
        observable=rank == oracle.dyn.n,
        rank=rank,
        n=oracle.dyn.n,
        depth=oracle.depth,
        stacked_depth=oracle.stacked_depth,
        trials=oracle.config.trials,
    )
