"""Minimum observable node selection.

Given hypergraph dynamics, which smallest set of nodes must be measured so
the whole state is locally weakly observable? Exhaustive search is
exponential, so the workhorse is a greedy ascent on the generic rank of the
observability matrix: repeatedly add the node whose block buys the largest
rank gain at shared random evaluation points, stopping at full rank. An
exact brute-force search over subsets in size order backs it up at small n.

Both searches rank the blocks of one oracle per component, whose chain
watches every node alone: each trial's chain stops at the first level
where every node's block is flat (its last level added no rank) or full,
so every union's span, and with it every greedy probe and every subset's
rank, is the one the configured depth, a cap, would give (see
``observability``). ``ComponentSelection.stacked_depth`` reports how deep
the chains went.

Both searches stop rank work once the answer is decided, and both enter
each node as the row basis of its block, reduced once per oracle. A
candidate's score is its best rank over the trial points, and no trial can
give more than the exact ceiling of the selection plus the candidate
(``NomOracle.ceiling``, from the twins below), so scoring stops at the
first trial that reaches it; a trial point is evaluated only when a score
needs it. Greedy is lazy: it rescores only candidates whose bound from
their last gains and their ceiling could still win. Brute force ranks each
subset at each trial it needs with one ``modp_rank`` over its nodes' bases.
Every result is the one a full evaluation of every trial would give.

Twins bound both searches from below. Nodes u and v are twins when they
have the same set of hyperedge remainders e - {u}; twins never share a
hyperedge. Then f_u = f_v, neither depends on x_u or x_v, and every other
f_i depends on x_u + x_v alone, so x_u - x_v is conserved by the flow:
e_u - e_v is orthogonal to every gradient row except level 0 of u and v.
This is a polynomial identity over Z, so it holds mod P at every point and
depth. A node set that leaves r members of a class unmeasured thus has r - 1
independent directions in its kernel, which gives its rank ceiling
n - sum over classes of max(0, r - 1). A class of m twins needs m - 1
measured members, and every connected component needs one
(``twin_lower_bound``). Brute force starts at that size and skips, before
any rank work, each subset whose ceiling is below n, which leaves two twins
unmeasured.

Rank contributions never cross connected components (every block entry only
involves coordinates from the node's own component), so both searches solve
each component on its own oracle (``NomOracle.parts``) and union the picks;
an isolated node has no dynamics, so it selects itself without a rank query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Iterable

from .dynamics import DynamicsSpec
from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph
from .linalg import Echelon, modp_rank
from .observability import NomOracle, RankConfig, TwinCount, _as_dynamics
from .scalars import derive_seed

TIE_BREAKS = ("degree", "index", "random")

SUBSET_BUDGET = 200_000


@dataclass(frozen=True)
class ComponentSelection:
    """Outcome of selection on one connected component, with its oracle's
    depth cap, or the one a one-node oracle would have for an isolated
    node, and the highest level its oracle stacked so far (0 for an
    isolated node)."""

    nodes: tuple[int, ...]
    selected: tuple[int, ...]
    rank_trace: tuple[int, ...]
    depth: int
    stacked_depth: int


@dataclass(frozen=True)
class MonResult:
    """A full-rank node set with its rank history.

    Every block holds its level-0 row e_i, so no search stops short of
    rank n. rank_trace holds the rank after each greedy pick or component's
    exhaustive set. depth is its oracle's cap; None for the union
    over components both searches return, which carry theirs.
    """

    selected: tuple[int, ...]
    rank_trace: tuple[int, ...]
    depth: int | None = None
    components: tuple[ComponentSelection, ...] = field(default_factory=tuple)

    @property
    def size(self) -> int:
        return len(self.selected)


def twin_lower_bound(g: UniformHypergraph | DynamicsSpec | NomOracle) -> int:
    """Proven lower bound on the size of any full-rank node set: the sum
    over connected components of max(1, sum over its twin classes of m - 1).
    Given a NomOracle, the components are its parts.
    """
    return sum(
        1 if part is None else _twin_need(part)
        for _, part in _as_oracle(g, None).parts
    )


def _twin_need(part: NomOracle) -> int:
    """``twin_lower_bound`` of a connected part."""
    return max(1, part.dyn.n - part.ceiling(()))


def invisible_pair(
    g: UniformHypergraph | DynamicsSpec, measured: Iterable[int]
) -> tuple[int, int] | None:
    """The lexicographically first pair of unmeasured twins, or None.

    For such a pair u < v, x_u - x_v is an invisible direction: the node
    set is not observable, over any field and at any depth.
    """
    chosen = set(measured)
    pairs = []
    for cls in _as_dynamics(g).graph.twin_classes:
        rest = [i for i in cls if i not in chosen]
        if len(rest) > 1:
            pairs.append((rest[0], rest[1]))
    return min(pairs, default=None)


def _as_oracle(
    g: UniformHypergraph | DynamicsSpec | NomOracle, config: RankConfig | None
) -> NomOracle:
    """The oracle given, whose config then stands, or a fresh one on g."""
    if isinstance(g, NomOracle):
        return g
    return NomOracle(_as_dynamics(g), config)


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in TIE_BREAKS:
        raise ValueError(
            f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}"
        )


def greedy_mon(
    g: UniformHypergraph | DynamicsSpec | NomOracle,
    config: RankConfig | None = None,
    tie_break: str = "degree",
) -> MonResult:
    """Greedy rank ascent over the whole hypergraph as given.

    Each step picks the unselected node whose block would bring the
    selection to the highest rank at the best trial point, and folds its
    basis into the per-trial echelons, until full rank: below it, some
    unselected e_i adds 1 at every trial. tie_break names the key order
    that resolves ties: "degree" puts the highest-degree node first (then
    the lowest label), "index" the lowest label, and "random" follows one
    shuffle of the nodes seeded from the config seed. Given a NomOracle,
    greedy uses its points, bases and config.

    The picks are those of scoring every candidate at every trial, made
    with less work (Minoux's accelerated greedy). At one trial a node's
    gain dim(U + W) - dim(U) never grows as the selection's span U grows,
    so the selection's rank at a trial plus the candidate's gain there
    when last scored bounds the rank it can reach there now. No trial
    ranks the selection plus a candidate above its exact ceiling
    (``NomOracle.ceiling``), kept in O(1) per candidate from per-class
    counts of unmeasured twins, so a candidate's bound is the lesser of
    the two. A step scores candidates in (-bound, key) order until the
    next sorts after the least (-score, key) so far, which is the pick. A
    candidate not yet scored at every trial has its ceiling as its bound,
    so the first one in key order to reach it ends the step. A score stops
    at the first trial that reaches the ceiling, and a trial point is
    evaluated when a score first needs it.
    """
    _check_tie_break(tie_break)
    oracle = _as_oracle(g, config)
    n = oracle.dyn.n

    if tie_break == "degree":
        degrees = oracle.dyn.graph.degrees()
        key_fn = lambda s: (-degrees[s], s)
    elif tie_break == "random":
        order = list(range(1, n + 1))
        random.Random(derive_seed(oracle.seed, "tie-break")).shuffle(order)
        key_fn = {s: p for p, s in enumerate(order)}.__getitem__
    else:
        key_fn = lambda s: s

    selected: list[int] = []
    trace: list[int] = []
    remaining = set(range(1, n + 1))
    twins = TwinCount(n, oracle.dyn.graph.twin_classes)
    # per evaluated trial, the echelon of the selection's bases
    live: list[Echelon] = []
    # each candidate's gain per trial when last scored, kept only for
    # candidates that were below their ceiling at every trial
    gains: dict[int, list[int]] = {}

    def echelon(t: int) -> Echelon:
        if t == len(live):
            ech = Echelon(n)
            for s in selected:
                ech.add_rows(oracle.basis(t, s))
            live.append(ech)
        return live[t]

    def score(s: int) -> int:
        cap = twins.ceiling_with(s)
        best = 0
        row = []
        for t in range(oracle.trials):
            ech = echelon(t)
            gain = ech.probe(oracle.basis(t, s))
            best = max(best, ech.rank + gain)
            if best == cap:
                gains.pop(s, None)
                return cap
            row.append(gain)
        gains[s] = row
        return best

    def bound(s: int) -> int:
        cap = twins.ceiling_with(s)
        row = gains.get(s)
        if row is None:
            return cap
        return min(cap, max(ech.rank + gain for ech, gain in zip(live, row)))

    rank = 0
    while rank < n:
        # the least (-score, key, s) scored; (1,) sorts after every entry
        top = (1,)
        for entry in sorted((-bound(s), key_fn(s), s) for s in remaining):
            if entry > top:
                break
            top = min(top, (-score(entry[2]),) + entry[1:])
        pick = top[2]
        selected.append(pick)
        remaining.remove(pick)
        twins.add(pick)
        for t, ech in enumerate(live):
            ech.add_rows(oracle.basis(t, pick))
        rank = max(ech.rank for ech in live)
        trace.append(rank)
    return MonResult(
        selected=tuple(selected), rank_trace=tuple(trace), depth=oracle.depth
    )


def _per_component(
    oracle: NomOracle, search: Callable[[NomOracle], MonResult]
) -> MonResult:
    """search run on each of the oracle's parts, whose labels 1.. follow
    the sorted component, its picks mapped back and the ranks stacked. An
    isolated node picks itself, at the depth cap a one-node oracle would
    have: the configured one, or 0."""
    comps: list[ComponentSelection] = []
    trace: list[int] = []
    lone = MonResult((1,), (1,), oracle.config.depth or 0)
    for nodes, part in oracle.parts:
        res = lone if part is None else search(part)
        mapped = tuple(nodes[s - 1] for s in res.selected)
        stacked = 0 if part is None else part.stacked_depth
        comps.append(
            ComponentSelection(
                nodes, mapped, res.rank_trace, res.depth, stacked
            )
        )
        below = trace[-1] if trace else 0
        trace.extend(below + r for r in res.rank_trace)
    selected = tuple(s for c in comps for s in c.selected)
    return MonResult(selected, tuple(trace), components=tuple(comps))


def minimum_observable_nodes(
    g: UniformHypergraph | DynamicsSpec | NomOracle,
    config: RankConfig | None = None,
    tie_break: str = "degree",
) -> MonResult:
    """Greedy selection run independently on each connected component.

    Observability blocks are block-diagonal across components, so the union
    of per-component selections is a selection for the whole hypergraph and
    the ranks add. Given a NomOracle, its parts rank the components.
    """
    _check_tie_break(tie_break)
    oracle = _as_oracle(g, config)
    return _per_component(oracle, lambda p: greedy_mon(p, tie_break=tie_break))


def brute_force_mon(
    g: UniformHypergraph | DynamicsSpec | NomOracle,
    config: RankConfig | None = None,
) -> MonResult:
    """Smallest full-rank node set by exhaustive search on each connected
    component, unioned and sorted: the whole hypergraph's lexicographically
    first minimum set, since full rank is full rank on every component.
    Given the oracle greedy used, it ranks on the same parts, so each point
    is evaluated and each node basis reduced once for both searches.

    On a component, subsets enumerate in size order and lexicographically
    within a size, from its ``twin_lower_bound`` up, and a subset that
    leaves two twins unmeasured is skipped before any rank work. At each
    trial it needs, a subset is decided by one ``modp_rank`` over its
    nodes' bases. SUBSET_BUDGET counts the subsets one component's search
    enumerates, skipped ones included; past it, ResourceLimitError.
    """
    res = _per_component(_as_oracle(g, config), _exhaustive)
    return replace(res, selected=tuple(sorted(res.selected)))


def _exhaustive(oracle: NomOracle) -> MonResult:
    """``brute_force_mon`` on the whole hypergraph of the oracle."""
    n = oracle.dyn.n
    start = _twin_need(oracle)
    tried = 0
    for size in range(start, n + 1):
        for subset in combinations(range(1, n + 1), size):
            tried += 1
            if tried > SUBSET_BUDGET:
                raise ResourceLimitError(
                    f"exhaustive search exceeded {SUBSET_BUDGET} subsets "
                    f"from size {start} up"
                )
            if oracle.ceiling(subset) < n:
                continue
            for t in range(oracle.trials):
                rows = [row for s in subset for row in oracle.basis(t, s)]
                if modp_rank(rows, n) == n:
                    return MonResult(
                        selected=subset, rank_trace=(n,), depth=oracle.depth
                    )
    raise AssertionError("the full node set has rank n at trial 0")
