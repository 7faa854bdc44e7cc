"""Spans and counters recorded around the public functions of each layer.

``Tracer.install`` replaces each traced function under the name its caller
looks it up by at call time: the module global in the calling module, or the
class attribute for methods. ``Tracer.uninstall`` puts every original back.
Spans (name, parent span, CLI call id, start, end) stay in memory until the
caller writes them out. A layer's self time is its span time minus the time
its child spans cover.

Scalar arithmetic gets no timer (wrapping ``DualDomain.mul`` would distort
it; its cost shows as self time of ``dynamics`` and ``observability``), and
``tensor`` gets none because the CLI never reaches it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    parent: int | None
    call: int
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and exact counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.points: set[tuple[Any, ...]] = set()
        self.pairs: set[tuple[int, int, int]] = set()
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self._call, time.perf_counter()))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].name == name

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run one CLI call under a fresh call id and a ``cli.main`` span."""
        self._call += 1
        sid = self._open("cli.main")
        try:
            return fn()
        finally:
            self._close(sid)

    def _timed(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _linalg(self, name: str, fn: Callable[..., Any], rows_at: int) -> Callable[..., Any]:
        """A span over an elimination entry point, counting rows and pivots.

        ``add_rows`` inside ``modp_rank`` is part of the rank span and is
        neither timed nor counted again.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._inside("linalg.rank"):
                return fn(*args, **kwargs)
            count = len(args[rows_at])
            sid = self._open(name)
            try:
                pivots = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counts["linalg.rows_reduced"] += count
            self.counts["linalg.pivots"] += pivots
            return pivots

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced name. Call ``uninstall`` to restore them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from hyperobs import cli, correlation, dynamics, mon, observability
        from hyperobs.hypergraph import UniformHypergraph
        from hyperobs.linalg import Echelon
        from hyperobs.observability import NomOracle

        p = self._patch
        p(UniformHypergraph, "from_json", lambda f: self._timed("hypergraph.load", f))

        p(observability, "lie_derivatives", lambda f: self._timed("dynamics.chain", f))
        p(dynamics, "apply_factors", lambda f: self._counted("dynamics.apply_factors_calls", f))

        p(observability, "lie_derivatives_with_jacobians",
          lambda f: self._timed("observability.jacobian", f))
        p(observability, "node_blocks", lambda f: self._counted("observability.evals", f))
        p(NomOracle, "rank", lambda f: self._counted("observability.rank_queries", f))
        p(NomOracle, "evaluation", self._point_recorder)

        p(Echelon, "probe", lambda f: self._linalg("linalg.probe", f, 1))
        p(Echelon, "add_rows", lambda f: self._linalg("linalg.add", f, 1))
        for module in (mon, observability):
            p(module, "modp_rank", lambda f: self._linalg("linalg.rank", f, 0))

        p(mon, "greedy_mon", lambda f: self._timed(
            "mon.greedy", f, lambda res: self.counts.update({"mon.picks": res.size})))
        p(cli, "brute_force_mon", lambda f: self._timed("mon.brute", f))
        p(mon, "combinations", self._subset_counter)

        p(cli, "read_timeseries_csv", lambda f: self._timed("correlation.parse", f))
        for module in (cli, correlation):
            p(module, "multicorrelation_table", lambda f: self._timed("correlation.table", f))
        p(correlation, "pearson", self._pair_recorder)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _point_recorder(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def evaluation(oracle: Any, trial: int) -> Any:
            g = oracle.dyn.graph
            self.points.add(
                (self._call, g.n, g.edges, oracle.dyn.weight, oracle.depth, oracle.seed, trial)
            )
            return fn(oracle, trial)

        return evaluation

    def _subset_counter(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def combinations(iterable: Iterable[Any], r: int) -> Any:
            for subset in fn(iterable, r):
                self.counts["mon.subsets_tried"] += 1
                yield subset

        return combinations

    def _pair_recorder(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def pearson(series: Any, i: int, j: int) -> Any:
            self.counts["correlation.pearson_calls"] += 1
            self.pairs.add((self._call, min(i, j), max(i, j)))
            return fn(series, i, j)

        return pearson

    # -- summarizing ------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [[s.name, s.parent, s.call, s.start, s.end] for s in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }

    def metrics(self, wall_s: float, trials: int) -> dict[str, float]:
        """Per-layer times, counts and ratios for one traced pass.

        ``wall_s`` is that pass's wall time; ``trials`` the trial count every
        rank call was given (greedy probes once per trial and candidate).
        """
        total: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        covered: Counter[int] = Counter()
        for s in self.spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            if s.parent is not None:
                covered[s.parent] += s.end - s.start

        def self_time(name: str) -> float:
            return sum(
                s.end - s.start - covered[sid]
                for sid, s in enumerate(self.spans)
                if s.name == name
            )

        def under(name: str, ancestor: str) -> int:
            n = 0
            for s in self.spans:
                if s.name != name:
                    continue
                p = s.parent
                while p is not None and self.spans[p].name != ancestor:
                    p = self.spans[p].parent
                n += p is not None
            return n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        linalg_s = total["linalg.probe"] + total["linalg.add"] + total["linalg.rank"]
        correlation_s = total["correlation.parse"] + total["correlation.table"]
        return {
            "cli.self_s": self_time("cli.main"),
            "hypergraph.load_s": total["hypergraph.load"],
            "dynamics.chain_s": total["dynamics.chain"],
            "dynamics.chain_calls": calls["dynamics.chain"],
            "dynamics.apply_factors_calls": c["dynamics.apply_factors_calls"],
            "observability.jacobian_s": total["observability.jacobian"],
            "observability.self_s": self_time("observability.jacobian"),
            "observability.evals": c["observability.evals"],
            "observability.evals_per_point": ratio(c["observability.evals"], len(self.points)),
            "observability.rank_queries": c["observability.rank_queries"],
            "observability.jacobian_share": ratio(total["observability.jacobian"], wall_s),
            "linalg.probe_s": total["linalg.probe"],
            "linalg.probe_calls": calls["linalg.probe"],
            "linalg.add_s": total["linalg.add"],
            "linalg.rank_s": total["linalg.rank"],
            "linalg.rank_calls": calls["linalg.rank"],
            "linalg.rows_reduced": c["linalg.rows_reduced"],
            "linalg.pivot_yield": ratio(c["linalg.pivots"], c["linalg.rows_reduced"]),
            "linalg.share": ratio(linalg_s, wall_s),
            "mon.greedy_s": total["mon.greedy"],
            "mon.greedy_self_s": self_time("mon.greedy"),
            "mon.picks": c["mon.picks"],
            "mon.candidates_scored": ratio(under("linalg.probe", "mon.greedy"), trials),
            "mon.brute_s": total["mon.brute"],
            "mon.subsets_tried": c["mon.subsets_tried"],
            "correlation.parse_s": total["correlation.parse"],
            "correlation.table_s": total["correlation.table"],
            "correlation.table_calls": calls["correlation.table"],
            "correlation.pearson_calls": c["correlation.pearson_calls"],
            "correlation.pearson_per_pair": ratio(c["correlation.pearson_calls"], len(self.pairs)),
            "correlation.share": ratio(correlation_s, wall_s),
        }
