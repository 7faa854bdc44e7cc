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
the chains went. An oracle that watches one node set serves no node
basis, so every search refuses it with ValueError, on any graph.

Both searches stop rank work once the answer is decided, and both enter
each node as the row basis of its block, reduced once per oracle and
twin class (see the twins below). A
candidate's score is its best rank over the trial points, and no trial can
give more than the exact ceiling of the selection plus the candidate
(``NomOracle.ceiling``, from the twins below), so scoring stops at the
first trial that reaches it; a trial point is evaluated only when a score
needs it. Greedy is lazy: it rescores only candidates whose bound from
their last gains and their ceiling could still win. Brute force ranks each
subset it reaches at each trial it needs with one ``modp_rank`` over its
nodes' bases, and cuts, without ranking them, the subsets whose ceiling,
or whose bound from their nodes' basis ranks at every trial, is below n.
Every result is the one a full evaluation of every trial would give.

Twins bound both searches from below. Nodes u and v are twins when they
have the same set of hyperedge remainders e - {u}; twins never share a
hyperedge. Then f_u = f_v, neither depends on x_u or x_v, and every other
f_i depends on x_u + x_v alone, so x_u - x_v is conserved by the flow:
e_u - e_v is orthogonal to every gradient row except level 0 of u and v.
This is a polynomial identity over Z, so it holds mod P at every point and
depth. A node set that leaves r members of a class unmeasured thus has r - 1
independent directions in its kernel, so its rank ceiling is n less its
need, the sum over classes of max(0, r - 1). A class of m twins needs
m - 1 measured members, and every connected component needs one
(``twin_lower_bound``). One ledger, ``TwinCount``, keeps the need for the
ceiling, greedy's bounds, the bound and the walk. Brute force starts at
that size and walks only subsets whose ceiling is n, which leave no two
twins unmeasured.

The same identity gives a corollary. For p >= 1, J_p[u] = J_p[v] and
every J_p depends on x_u and x_v only through x_u + x_v, so with s_uv the
exchange of coordinates u and v, block_v = s_uv(block_u) row by row: e_v
for e_u at level 0, and at every level p >= 1 the same row, whose u and v
entries are equal. The two blocks have equal ranks and flat levels, level
by level, and their bases are swapped, so an oracle reduces one block
per twin class (``NomOracle.basis``).

Rank contributions never cross connected components (every block entry only
involves coordinates from the node's own component), so both searches solve
each component on its own oracle (``NomOracle.parts``) and union the picks;
an isolated node has no dynamics, so it selects itself without a rank query.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations
from typing import Callable, Iterable, Iterator

from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph
from .linalg import Echelon, modp_rank
from .observability import NomOracle, RankConfig, TwinCount
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


def twin_lower_bound(g: UniformHypergraph | NomOracle) -> int:
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
    return max(1, TwinCount(part.dyn.graph.twin_classes).need)


def invisible_pair(
    g: UniformHypergraph, measured: Iterable[int]
) -> tuple[int, int] | None:
    """The lexicographically first pair of unmeasured twins, or None.

    For such a pair u < v, x_u - x_v is an invisible direction: the node
    set is not observable, over any field and at any depth.
    """
    chosen = set(measured)
    pairs = []
    for cls in g.twin_classes:
        rest = [i for i in cls if i not in chosen]
        if len(rest) > 1:
            pairs.append((rest[0], rest[1]))
    return min(pairs, default=None)


def _as_oracle(
    g: UniformHypergraph | NomOracle, config: RankConfig | None
) -> NomOracle:
    """The oracle given, whose config then stands, or a fresh one on g."""
    if isinstance(g, NomOracle):
        return g
    return NomOracle(g, config)


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in TIE_BREAKS:
        raise ValueError(
            f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}"
        )


def greedy_mon(
    g: UniformHypergraph | NomOracle,
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
    (``NomOracle.ceiling``), kept in O(1) per candidate by the selection's
    ``TwinCount``, so a candidate's bound is the lesser of the two. A
    step scores candidates in (-bound, key) order until the next sorts
    after the least (-score, key) so far, which is the pick. A candidate
    not yet scored at every trial has its ceiling as its bound, so the
    first one in key order to reach it ends the step. A score stops at
    the first trial that reaches the ceiling, and a trial point is
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
    twins = TwinCount(oracle.dyn.graph.twin_classes)
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
        cap = n - twins.need_with(s)
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
        cap = n - twins.need_with(s)
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
    if oracle.watch is not None:
        # its parts would be fresh unwatched oracles on a disconnected
        # graph, so refuse it here, on every graph, as ``basis`` does
        raise ValueError("a watched oracle serves no node basis")
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
    g: UniformHypergraph | NomOracle,
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
    g: UniformHypergraph | NomOracle,
    config: RankConfig | None = None,
) -> MonResult:
    """Smallest full-rank node set by exhaustive search on each connected
    component, unioned and sorted: the whole hypergraph's lexicographically
    first minimum set, since full rank is full rank on every component.
    Given the oracle greedy used, it ranks on the same parts, so each point
    is evaluated and each node basis reduced once for both searches.

    On a component, subsets come in size order and lexicographically
    within a size, from its ``twin_lower_bound`` up, out of a depth-first
    walk over prefixes (``_Walk``). It cuts a prefix before any rank work
    once every subset through it would leave two twins unmeasured, and,
    after some subset has failed at every trial, once its rank plus the
    largest basis ranks of the nodes that could complete it stay below n
    at every trial. At each trial it needs, a subset is decided by one
    ``modp_rank`` over its nodes' bases. SUBSET_BUDGET counts the ranked
    subsets and cut prefixes of one component's search; past it,
    ResourceLimitError. Each stands for a subset that plain enumeration
    in the same order counts before its answer, so no search that such an
    enumeration finishes within the budget is refused.
    """
    res = _per_component(_as_oracle(g, config), _exhaustive)
    return replace(res, selected=tuple(sorted(res.selected)))


def _exhaustive(oracle: NomOracle) -> MonResult:
    """``brute_force_mon`` on the whole hypergraph of the oracle."""
    n = oracle.dyn.n
    walk = _Walk(oracle)
    for size in range(walk.start, n + 1):
        for subset in walk.subsets(size):
            for t in range(oracle.trials):
                rows = [row for s in subset for row in oracle.basis(t, s)]
                if modp_rank(rows, n) == n:
                    return MonResult(
                        selected=subset, rank_trace=(n,), depth=oracle.depth
                    )
            # every trial point is evaluated now, as the plain search would
            # have evaluated it, so the rank cut costs no extra point
            walk.rank_cut = True
    raise AssertionError("the full node set has rank n at trial 0")


class _Walk:
    """The subsets brute force ranks on an oracle, size by size, each size
    in lexicographic order: a depth-first walk over prefixes that cuts a
    prefix once no subset through it can reach rank n.

    The twin cut keeps the path's ``TwinCount``, added to and undone node
    by node, and cuts a prefix whose nodes after it cannot leave every
    class with at most one member unmeasured: either fewer slots are left
    than the prefix still needs, or two members of a class at or below
    the next candidate stay unpicked. Every prefix it keeps has a
    completion at the full ceiling, and it yields just the subsets whose
    ceiling is n.

    The rank cut, once ``rank_cut`` is set, extends one prefix echelon
    per trial by one node's basis per step, built only when asked, and
    cuts a prefix when at every trial its rank plus the r largest basis
    ranks among the nodes still allowed is below n, for r slots left: a
    node adds at most its basis rank to any span.

    ``visits`` counts the ranked subsets and cut prefixes. Each stands for
    at least one subset of the size, disjoint from the others, that the
    plain lexicographic enumeration reaches before the walk's position;
    past SUBSET_BUDGET, ResourceLimitError.
    """

    def __init__(self, oracle: NomOracle) -> None:
        self.oracle = oracle
        n = self.n = oracle.dyn.n
        self.twins = TwinCount(oracle.dyn.graph.twin_classes)
        self.start = _twin_need(oracle)
        self.path: list[int] = []
        self.rank_cut = False
        # per prefix length, per trial, the prefix's echelon once built
        self.echelons: list[list[Echelon | None]] = [
            [Echelon(n) for _ in range(oracle.trials)]
        ]
        # per trial, per first node v, the sums of the largest basis ranks
        # among nodes v..n: tops[t][v][r] for the r largest
        self.tops: dict[int, list[list[int]]] = {}
        self.visits = 0

    def subsets(self, size: int) -> Iterator[tuple[int, ...]]:
        """The subsets of the size that both cuts leave, in lexicographic
        order; each is counted as a visit when yielded."""
        path = self.path
        v = 1
        while True:
            r = size - len(path)
            hi = self.n - r + 1
            if r == 1:
                yield from self._last(v, hi)
            else:
                v = self._next(v, r, hi)
                if v:
                    self._push(v)
                    v += 1
                    continue
            # back to the last open slot, past its node
            while path:
                v = self._pop()
                if self._move_past(v, self.n - size + len(path) + 1):
                    v += 1
                    break
            else:
                return

    def _next(self, v: int, r: int, hi: int) -> int:
        """The first node from v on that the slot takes, r slots left,
        counting each prefix cut on the way; 0 when none is left."""
        while v <= hi:
            if self._short(v, r):
                self._visit()
                return 0
            if self.twins.need_with(v) < r:
                return v
            self._visit()
            if not self._move_past(v, hi):
                return 0
            v += 1
        return 0

    def _last(self, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """The subsets that end the prefix with one node from lo..hi."""
        prefix = tuple(self.path)
        # one candidate at a time through ``combinations``, on which
        # bench/spans.py counts mon.subsets_tried: the full subsets decided
        for (v,) in combinations(range(lo, hi + 1), 1):
            if self._short(v, 1):
                self._visit()
                return
            self._visit()
            if self.twins.need_with(v) == 0:
                yield prefix + (v,)
            if not self._move_past(v, hi):
                return

    def _visit(self) -> None:
        self.visits += 1
        if self.visits > SUBSET_BUDGET:
            raise ResourceLimitError(
                f"exhaustive search exceeded {SUBSET_BUDGET} ranked subsets "
                f"and cut prefixes from size {self.start} up"
            )

    def _move_past(self, v: int, hi: int) -> bool:
        """Leave v unpicked for good; whether the slot may go on to a later
        node. It may not when two members of v's class at or below v would
        stay unpicked, which cuts every later one to hi."""
        if self.twins.stranded(v) < 2:
            return True
        if v < hi:
            self._visit()
        return False

    def _push(self, v: int) -> None:
        self.twins.add(v)
        self.path.append(v)
        self.echelons.append([None] * self.oracle.trials)

    def _pop(self) -> int:
        v = self.path.pop()
        self.echelons.pop()
        self.twins.remove(v)
        return v

    def _short(self, v: int, r: int) -> bool:
        """Whether the rank cut takes the prefix with r slots left, each
        to be filled from v..n."""
        if not self.rank_cut:
            return False
        return all(
            self._echelon(t).rank + self._top(t, v, r) < self.n
            for t in range(self.oracle.trials)
        )

    def _echelon(self, t: int) -> Echelon:
        """The prefix's echelon at trial t, extended node by node from the
        longest prefix of it whose echelon is built."""
        d = len(self.path)
        while self.echelons[d][t] is None:
            d -= 1
        ech = self.echelons[d][t]
        for d in range(d + 1, len(self.path) + 1):
            longer = ech.copy()
            longer.add_rows(self.oracle.basis(t, self.path[d - 1]))
            ech = self.echelons[d][t] = longer
        return ech

    def _top(self, t: int, v: int, r: int) -> int:
        table = self.tops.get(t)
        if table is None:
            n = self.n
            ranks = [len(self.oracle.basis(t, i)) for i in range(1, n + 1)]
            table = self.tops[t] = [[0]] * (n + 1)
            falling: list[int] = []
            for i in range(n, 0, -1):
                insort(falling, -ranks[i - 1])
                table[i] = list(accumulate((-x for x in falling), initial=0))
        return table[v][r]
