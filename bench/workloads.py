"""The benchmark's workloads: their inputs, their CLI calls and their checks.

Every workload is a fixed list of ``hyperobs`` CLI calls. Hypergraph inputs
are written by the CLI's own ``gen`` subcommand; the time-series CSV is made
here from the seed. The seed also goes to the ``--seed`` flag of every rank
call. Checks use properties that hold for any seed (known MON sizes, known
verdicts, the planted triples), never golden report bytes: reports embed the
field modulus, which may legitimately change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Every rank call names its trial count, so per-trial counters can be
# turned into per-candidate ones.
TRIALS = 3

WHY = {
    "mon-deep": "MON = 1 on ring and complete: one pick and a deep "
    "derivative chain, so Jacobians dominate and the rank layer is idle",
    "mon-exact": "greedy makes n-k picks on stars, then brute force runs "
    "thousands of modp_rank calls, so the rank layer dominates",
    "observable": "the only path through NomOracle.rank: depth n, trial "
    "points evaluated lazily, all three trials on the unobservable star",
    "ingest": "48-signal correlation ingest with no dynamics or rank work, "
    "the no-change control for every kernel change",
}

# (family, n, k) per call; "small" sizes keep the self-tests quick.
MON_DEEP = {
    "full": [("ring", 20, 3), ("ring", 12, 4), ("complete", 8, 4)],
    "small": [("ring", 6, 3), ("ring", 5, 4), ("complete", 5, 4)],
}
MON_EXACT = {
    "full": [("star", 11, 3), ("star", 10, 3)],
    "small": [("star", 6, 3)],
}
# (family, n, k, --nodes, expected verdict)
OBSERVABLE = {
    "full": [
        ("ring", 24, 3, "all", "observable"),
        ("complete", 9, 4, "1", "observable"),
        ("star", 20, 3, "1", "not-observable-at-depth"),
    ],
    "small": [
        ("ring", 6, 3, "all", "observable"),
        ("complete", 5, 4, "1", "observable"),
        ("star", 6, 3, "1", "not-observable-at-depth"),
    ],
}
# (planted groups, noise signals, samples)
INGEST = {"full": (12, 12, 600), "small": (4, 3, 100)}
THRESHOLD = "0.95"

Check = Callable[[dict[str, Any]], list[str]]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the properties its JSON report must have."""

    label: str
    argv: tuple[str, ...]
    check: Check


def _expect(report: dict[str, Any], path: str, want: Any) -> list[str]:
    got: Any = report
    for key in path.split("."):
        if not isinstance(got, dict) or key not in got:
            return [f"{path} missing"]
        got = got[key]
    return [] if got == want else [f"{path} = {got!r}, expected {want!r}"]


def mon_check(size: int, brute_force: bool) -> Check:
    def check(report: dict[str, Any]) -> list[str]:
        problems = _expect(report, "result.verdict", "complete")
        problems += _expect(report, "result.size", size)
        if brute_force:
            problems += _expect(report, "result.brute_force.size", size)
            problems += _expect(report, "result.brute_force.verdict", "complete")
            problems += _expect(
                report, "result.brute_force.matches_greedy_size", True
            )
        return problems

    return check


def observable_check(verdict: str, n: int) -> Check:
    def check(report: dict[str, Any]) -> list[str]:
        problems = _expect(report, "result.verdict", verdict)
        if verdict == "observable":
            problems += _expect(report, "result.rank", n)
        return problems

    return check


def ingest_check(planted: list[tuple[int, int, int]], signals: int) -> Check:
    want = sorted(list(t) for t in planted)

    def check(report: dict[str, Any]) -> list[str]:
        problems = _expect(report, "result.triples_evaluated", comb(signals, 3))
        problems += _expect(report, "result.num_edges", len(want))
        problems += _expect(report, "result.hypergraph.edges", want)
        return problems

    return check


def mon_size(family: str, n: int, k: int) -> int:
    """Known minimum observable node count: all but one star leaf, else 1."""
    return n - k if family == "star" else 1


def planted_series(
    groups: int, noise: int, samples: int, seed: int
) -> tuple[str, list[tuple[int, int, int]]]:
    """CSV text with planted triples a, b, (a+b)/sqrt(2) plus noise signals.

    Columns are shuffled by the seed, so the planted triples land anywhere.
    Returns the CSV and the planted triples as sorted 1-based indices.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(groups):
        a = rng.normal(size=samples)
        b = rng.normal(size=samples)
        cols.extend([a, b, (a + b) / math.sqrt(2.0)])
    cols.extend(rng.normal(size=samples) for _ in range(noise))
    order = rng.permutation(len(cols))
    position = {int(src): dst + 1 for dst, src in enumerate(order)}
    planted = sorted(
        tuple(sorted(position[3 * g + j] for j in range(3)))
        for g in range(groups)
    )
    data = np.column_stack([cols[int(src)] for src in order])
    lines = [",".join(f"s{j:02d}" for j in range(1, len(cols) + 1))]
    lines.extend(",".join(repr(float(v)) for v in row) for row in data)
    return "\n".join(lines) + "\n", planted


def build(
    workload: str,
    seed: int,
    workdir: Path,
    gen: Callable[[list[str]], None],
    size: str = "full",
) -> list[Call]:
    """Write the workload's inputs into workdir and return its calls.

    ``gen`` runs the CLI's ``gen`` subcommand with the given arguments.
    """

    def graph(family: str, n: int, k: int) -> str:
        path = workdir / f"{family}-{n}-{k}.json"
        if not path.exists():
            gen(["gen", family, str(n), str(k), "--out", str(path)])
        return str(path)

    rank_flags = ("--trials", str(TRIALS), "--seed", str(seed))
    if workload in ("mon-deep", "mon-exact"):
        brute = workload == "mon-exact"
        cases = (MON_EXACT if brute else MON_DEEP)[size]
        extra = ("--brute-force",) if brute else ()
        return [
            Call(
                f"mon {family} n={n} k={k}",
                ("mon", graph(family, n, k)) + extra + rank_flags,
                mon_check(mon_size(family, n, k), brute),
            )
            for family, n, k in cases
        ]
    if workload == "observable":
        return [
            Call(
                f"observable {family} n={n} k={k} nodes={nodes}",
                ("observable", graph(family, n, k), "--nodes", nodes)
                + rank_flags,
                observable_check(verdict, n),
            )
            for family, n, k, nodes, verdict in OBSERVABLE[size]
        ]
    if workload == "ingest":
        groups, noise, samples = INGEST[size]
        text, planted = planted_series(groups, noise, samples, seed)
        path = workdir / "series.csv"
        path.write_text(text)
        return [
            Call(
                f"ingest signals={3 * groups + noise} samples={samples}",
                ("ingest", str(path), "--threshold", THRESHOLD),
                ingest_check(planted, 3 * groups + noise),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")
