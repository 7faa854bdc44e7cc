"""Minimum observable node selection.

Given hypergraph dynamics, which smallest set of nodes must be measured so
the whole state is locally weakly observable? Exhaustive search is
exponential, so the workhorse is a greedy ascent on the generic rank of the
observability matrix: repeatedly add the node whose block buys the largest
rank gain at shared random evaluation points, stopping at full rank. An
exact brute-force search over subsets in size order backs it up at small n.

Rank contributions never cross connected components (every block entry only
involves coordinates from the node's own component), so the default mode
solves components independently and unions the picks; isolated nodes have
an empty dynamics block and always select themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .dynamics import DynamicsSpec
from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph, induced_subhypergraph
from .linalg import modp_rank
from .observability import NomOracle, RankConfig, _as_dynamics
from .scalars import PRIME, derive_seed

TIE_BREAKS = ("degree", "index", "random")

DEFAULT_SUBSET_BUDGET = 200_000


@dataclass(frozen=True)
class ComponentSelection:
    """Outcome of selection on one connected component."""

    nodes: tuple[int, ...]
    selected: tuple[int, ...]
    rank_trace: tuple[int, ...]
    verdict: str


@dataclass(frozen=True)
class MonResult:
    """A selected node set with its rank history.

    verdict is "complete" when the selection reached full rank, "stalled"
    when no remaining candidate could raise it further or a subset budget
    ran out. rank_trace records the rank after each pick.
    """

    selected: tuple[int, ...]
    rank_trace: tuple[int, ...]
    verdict: str
    components: tuple[ComponentSelection, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return len(self.selected)


def greedy_mon(
    g: UniformHypergraph | DynamicsSpec,
    config: RankConfig | None = None,
    tie_break: str = "degree",
) -> MonResult:
    """Greedy rank ascent over the whole hypergraph as given.

    Each step scores every unselected node by the rank its block would add
    at the best trial point, picks a maximizer, and folds its rows into the
    per-trial echelon bases. Stops at full rank, or with a "stalled" verdict
    if no node helps. tie_break names how rank-gain ties resolve: "degree"
    prefers the highest-degree node (then the lowest label), "index" the
    lowest label, "random" a draw seeded from the config seed.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(
            f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}"
        )
    dyn = _as_dynamics(g)
    n = dyn.n
    oracle = NomOracle(dyn, config)
    echelons = oracle.echelons()
    evaluations = [oracle.evaluation(t) for t in range(oracle.trials)]

    degrees = dyn.graph.degrees()
    if tie_break == "degree":
        key_fn = lambda s: (-degrees[s], s)
    else:
        key_fn = lambda s: s
    rng = (
        random.Random(derive_seed(oracle.seed, "tie-break"))
        if tie_break == "random"
        else None
    )

    selected: list[int] = []
    trace: list[int] = []
    remaining = list(range(1, n + 1))
    rank = 0
    while rank < n and remaining:
        scored = []
        for s in remaining:
            reach = max(
                ech.rank + ech.probe(ev.rows_for([s]))
                for ech, ev in zip(echelons, evaluations)
            )
            scored.append((reach - rank, s))
        best_gain = max(gain for gain, _ in scored)
        if best_gain <= 0:
            break
        pool = [s for gain, s in scored if gain == best_gain]
        if rng is not None:
            pick = pool[rng.randrange(len(pool))]
        else:
            pick = min(pool, key=key_fn)
        selected.append(pick)
        remaining.remove(pick)
        for ech, ev in zip(echelons, evaluations):
            ech.add_rows(ev.rows_for([pick]))
        rank = max(ech.rank for ech in echelons)
        trace.append(rank)
    return MonResult(
        selected=tuple(selected),
        rank_trace=tuple(trace),
        verdict="complete" if rank == n else "stalled",
    )


def mon_per_component(
    g: UniformHypergraph | DynamicsSpec,
    config: RankConfig | None = None,
    tie_break: str = "degree",
) -> MonResult:
    """Greedy selection run independently on each connected component.

    Observability blocks are block-diagonal across components, so the union
    of per-component selections is a selection for the whole hypergraph and
    the ranks add. Isolated nodes always pick themselves.
    """
    dyn = _as_dynamics(g)
    parts: list[ComponentSelection] = []
    selected: list[int] = []
    trace: list[int] = []
    achieved = 0
    for comp in dyn.graph.connected_components():
        sub, back = induced_subhypergraph(dyn.graph, comp)
        res = greedy_mon(DynamicsSpec(sub, dyn.weight), config, tie_break)
        mapped = tuple(back[s] for s in res.selected)
        parts.append(
            ComponentSelection(
                nodes=tuple(comp),
                selected=mapped,
                rank_trace=res.rank_trace,
                verdict=res.verdict,
            )
        )
        selected.extend(mapped)
        trace.extend(achieved + r for r in res.rank_trace)
        achieved += res.rank_trace[-1] if res.rank_trace else 0
    verdict = (
        "complete"
        if all(p.verdict == "complete" for p in parts)
        else "stalled"
    )
    return MonResult(
        selected=tuple(selected),
        rank_trace=tuple(trace),
        verdict=verdict,
        components=tuple(parts),
    )


def minimum_observable_nodes(
    g: UniformHypergraph | DynamicsSpec,
    config: RankConfig | None = None,
    tie_break: str = "degree",
    per_component: bool = True,
) -> MonResult:
    """Greedy selection, per connected component unless switched off."""
    if per_component:
        return mon_per_component(g, config, tie_break)
    return greedy_mon(g, config, tie_break)


def brute_force_mon(
    g: UniformHypergraph | DynamicsSpec,
    config: RankConfig | None = None,
    max_size: int | None = None,
    max_subsets: int = DEFAULT_SUBSET_BUDGET,
) -> MonResult:
    """Smallest full-rank node set by exhaustive search.

    Subsets enumerate in size order and lexicographically within a size, so
    the result is the lexicographically first minimum set. Shares its
    evaluation points with the greedy path (same seed derivation), and
    gives up with ResourceLimitError past the subset budget.
    """
    dyn = _as_dynamics(g)
    n = dyn.n
    oracle = NomOracle(dyn, config)
    evaluations = [oracle.evaluation(t) for t in range(oracle.trials)]
    limit = n if max_size is None else min(max_size, n)
    tried = 0
    for size in range(1, limit + 1):
        for subset in combinations(range(1, n + 1), size):
            tried += 1
            if tried > max_subsets:
                raise ResourceLimitError(
                    f"exhaustive search exceeded {max_subsets} subsets"
                )
            rank = max(
                modp_rank(ev.rows_for(subset), n, PRIME)
                for ev in evaluations
            )
            if rank == n:
                return MonResult(
                    selected=subset,
                    rank_trace=(rank,),
                    verdict="complete",
                )
    return MonResult(selected=(), rank_trace=(), verdict="stalled")
