"""Command line driver.

Four subcommands: ``gen`` builds a named topology, ``observable`` checks a
measured node set, ``mon`` selects a minimum observable node set, and
``ingest`` builds a hypergraph from a time-series CSV. Every run prints a
report to stdout, JSON by default; reports are byte-identical across runs
with the same flags and seed (wall-clock timing goes to stderr only).

Exit codes: 0 success, 1 bad usage or unreadable input, 2 a resource
budget (or memory) refused the computation, 3 an internal invariant broke.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .correlation import (
    check_threshold,
    hypergraph_from_table,
    multicorrelation_table,
    read_timeseries_csv,
)
from .errors import ResourceLimitError
from .hypergraph import FAMILIES, UniformHypergraph
from .mon import (
    TIE_BREAKS,
    brute_force_mon,
    invisible_pair,
    minimum_observable_nodes,
    twin_lower_bound,
)
from .observability import (
    NomOracle,
    RankConfig,
    is_locally_weakly_observable,
)
from .scalars import PRIME

def _graph_summary(g: UniformHypergraph) -> dict[str, Any]:
    histogram: dict[str, int] = {}
    for deg in g.degrees().values():
        histogram[str(deg)] = histogram.get(str(deg), 0) + 1
    return {
        "n": g.n,
        "k": g.k,
        "num_edges": g.num_edges,
        "degree_histogram": histogram,
    }


def _read_input(path: str) -> tuple[str, dict[str, Any]]:
    """The file's text, decoded as ``Path.read_text`` decodes it (locale
    encoding, universal newlines), and the report's input entry, which
    hashes the same bytes: the file is read once."""
    data = Path(path).read_bytes()
    with io.TextIOWrapper(
        io.BytesIO(data), encoding=io.text_encoding(None)
    ) as reader:
        text = reader.read()
    return text, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _load_hypergraph(path: str) -> tuple[UniformHypergraph, dict[str, Any]]:
    text, source = _read_input(path)
    return UniformHypergraph.from_json(text), source


def _parse_nodes(raw: str, n: int) -> list[int]:
    if raw.strip().lower() == "all":
        return list(range(1, n + 1))
    try:
        nodes = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"--nodes wants a comma list of integers or 'all', got {raw!r}"
        ) from None
    if not nodes:
        raise ValueError("--nodes selected nothing")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"--nodes has duplicates: {raw}")
    for i in nodes:
        if not 1 <= i <= n:
            raise ValueError(f"node {i} outside 1..{n}")
    return nodes


def _cmd_gen(args: argparse.Namespace) -> dict[str, Any]:
    g = FAMILIES[args.family](args.n, args.k)
    report = {
        "command": "gen",
        "version": __version__,
        "parameters": {"family": args.family, "n": args.n, "k": args.k},
        "hypergraph": _graph_summary(g),
        "result": g.to_dict(),
    }
    if args.out:
        Path(args.out).write_text(g.to_json())
        report["out"] = args.out
    return report


def _cmd_observable(args: argparse.Namespace) -> dict[str, Any]:
    g, source = _load_hypergraph(args.hypergraph)
    nodes = _parse_nodes(args.nodes, g.n)
    cfg = RankConfig(trials=args.trials, seed=args.seed, depth=args.depth)
    outcome = is_locally_weakly_observable(g, nodes, cfg)
    # an unmeasured twin pair makes "not observable" certain
    pair = None if outcome.observable else invisible_pair(g, nodes)
    report = {
        "command": "observable",
        "version": __version__,
        "input": source,
        "parameters": {
            "nodes": nodes,
            "depth": outcome.depth,
            "trials": args.trials,
            "seed": args.seed,
            "field_modulus": PRIME,
        },
        "hypergraph": _graph_summary(g),
        "result": {
            "verdict": outcome.verdict,
            "observable": outcome.observable,
            "rank": outcome.rank,
            "n": outcome.n,
            "stacked_depth": outcome.stacked_depth,
            "invisible_pair": pair,
        },
    }
    if args.out:
        Path(args.out).write_text(_render_json(report))
        report["out"] = args.out
    return report


def _cmd_mon(args: argparse.Namespace) -> dict[str, Any]:
    g, source = _load_hypergraph(args.hypergraph)
    cfg = RankConfig(trials=args.trials, seed=args.seed, depth=args.depth)
    # both searches rank each component on this oracle's parts
    oracle = NomOracle(g, cfg)
    res = minimum_observable_nodes(oracle, tie_break=args.tie_break)
    bound = twin_lower_bound(oracle)
    result: dict[str, Any] = {
        "selected": list(res.selected),
        "size": res.size,
        "rank_trace": list(res.rank_trace),
        # every search ends at full rank, so its verdict is always complete
        "verdict": "complete",
        "lower_bound": bound,
        # greedy's full-rank set is certified, and no smaller one exists
        "proven_minimum": res.size == bound,
        "components": [
            {**asdict(c), "verdict": "complete"} for c in res.components
        ],
    }
    if args.brute_force:
        exact = brute_force_mon(oracle)
        result["brute_force"] = {
            "selected": list(exact.selected),
            "size": exact.size,
            "verdict": "complete",
            "matches_greedy_size": exact.size == res.size,
        }
    report = {
        "command": "mon",
        "version": __version__,
        "input": source,
        "parameters": {
            "depth": args.depth,
            "trials": args.trials,
            "seed": args.seed,
            "tie_break": args.tie_break,
            "brute_force": bool(args.brute_force),
            "field_modulus": PRIME,
        },
        "hypergraph": _graph_summary(g),
        "result": result,
    }
    if args.out:
        Path(args.out).write_text(_render_json(report))
        report["out"] = args.out
    return report


def _cmd_ingest(args: argparse.Namespace) -> dict[str, Any]:
    check_threshold(args.threshold)
    text, source = _read_input(args.csv)
    series = read_timeseries_csv(text)
    table = multicorrelation_table(series)
    g = hypergraph_from_table(series.num_signals, table, args.threshold)
    triples, rho = table
    bins = np.bincount(np.minimum(rho * 10, 9).astype(int), minlength=10)
    report = {
        "command": "ingest",
        "version": __version__,
        "input": source,
        "parameters": {"threshold": args.threshold},
        "signals": list(series.labels),
        "result": {
            "triples_evaluated": len(triples),
            "num_edges": g.num_edges,
            "rho_histogram": {
                "bin_width": 0.1,
                "counts": bins.tolist(),
            },
            "hypergraph": g.to_dict(),
        },
    }
    if args.out:
        Path(args.out).write_text(g.to_json())
        report["out"] = args.out
    return report


def _render_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _render_text(report: dict[str, Any]) -> str:
    lines = [f"command: {report['command']}"]
    if "hypergraph" in report:
        h = report["hypergraph"]
        lines.append(
            f"hypergraph: n={h['n']} k={h['k']} edges={h['num_edges']}"
        )
    result = report.get("result", {})
    if report["command"] == "gen":
        lines.append(f"edges: {result['edges']}")
    elif report["command"] == "observable":
        lines.append(
            f"rank {result['rank']} of {result['n']}: {result['verdict']}"
        )
        lines.append(
            f"stacked depth {result['stacked_depth']} "
            f"of cap {report['parameters']['depth']}"
        )
    elif report["command"] == "mon":
        picks = " ".join(str(s) for s in result["selected"]) or "(none)"
        lines.append(f"selected: {picks}")
        lines.append(
            "rank trace: "
            + (" ".join(str(r) for r in result["rank_trace"]) or "(empty)")
        )
        lines.append(f"verdict: {result['verdict']}")
        lines.append(
            f"lower bound {result['lower_bound']}, proven minimum: "
            f"{str(result['proven_minimum']).lower()}"
        )
        if "brute_force" in result:
            bf = result["brute_force"]
            lines.append(
                f"brute force size {bf['size']}, "
                f"greedy matches: {str(bf['matches_greedy_size']).lower()}"
            )
        lines.append(
            "stacked depth per component: "
            + " ".join(str(c["stacked_depth"]) for c in result["components"])
        )
    elif report["command"] == "ingest":
        lines.append(
            f"triples evaluated: {result['triples_evaluated']}, "
            f"edges kept: {result['num_edges']}"
        )
    if "out" in report:
        lines.append(f"written: {report['out']}")
    return "\n".join(lines) + "\n"


def _add_rank_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--depth", type=int, default=None,
        help="cap on the derivative levels stacked (default n-1). Each "
        "chain stops earlier at the first level that can add no rank, which "
        "the report gives as stacked_depth; levels past n-1 add no generic "
        "rank",
    )
    p.add_argument("--trials", type=int, default=3, help="random evaluation points per rank check")
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report rendering",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hyperobs",
        description="Observability analysis of uniform hypergraph dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named topology")
    p_gen.add_argument("family", choices=sorted(FAMILIES))
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("--out", help="write the hypergraph JSON here")
    _add_format_flag(p_gen)
    p_gen.set_defaults(handler=_cmd_gen)

    p_obs = sub.add_parser(
        "observable", help="check local weak observability of a node set"
    )
    p_obs.add_argument("hypergraph", help="hypergraph JSON file")
    p_obs.add_argument(
        "--nodes", required=True,
        help="comma-separated node labels, or 'all'",
    )
    _add_rank_flags(p_obs)
    p_obs.add_argument("--out", help="also write the report here")
    _add_format_flag(p_obs)
    p_obs.set_defaults(handler=_cmd_observable)

    p_mon = sub.add_parser(
        "mon", help="select a minimum observable node set"
    )
    p_mon.add_argument("hypergraph", help="hypergraph JSON file")
    _add_rank_flags(p_mon)
    p_mon.add_argument(
        "--tie-break", choices=TIE_BREAKS,
        default="degree", dest="tie_break",
    )
    p_mon.add_argument(
        "--brute-force", action="store_true", dest="brute_force",
        help="also run the exhaustive search and compare",
    )
    p_mon.add_argument("--out", help="also write the report here")
    _add_format_flag(p_mon)
    p_mon.set_defaults(handler=_cmd_mon)

    p_ing = sub.add_parser(
        "ingest", help="build a hypergraph from a time-series CSV"
    )
    p_ing.add_argument("csv", help="CSV with a label row then numeric rows")
    p_ing.add_argument(
        "--threshold", type=float, default=0.95,
        help="keep triples with correlation strictly above this",
    )
    p_ing.add_argument("--out", help="write the hypergraph JSON here")
    _add_format_flag(p_ing)
    p_ing.set_defaults(handler=_cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        report = args.handler(args)
    except (ResourceLimitError, MemoryError) as exc:
        reason = str(exc) or "out of memory"
        print(f"hyperobs: resource limit: {reason}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, KeyError, OSError) as exc:
        print(f"hyperobs: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover
        print(
            f"hyperobs: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    if args.format == "text":
        sys.stdout.write(_render_text(report))
    else:
        sys.stdout.write(_render_json(report))
    print(
        f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
