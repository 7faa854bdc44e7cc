"""Self-tests of the benchmark, on shrunken workloads.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
hyperobs = run.import_hyperobs(ROOT)
MAIN = hyperobs.cli.main

# The layer metric each workload exists to exercise.
EXERCISED = {
    "mon-deep": ["observability.jacobian_s", "dynamics.chain_calls",
                 "dynamics.apply_factors_calls", "linalg.probe_calls", "mon.picks"],
    "mon-exact": ["linalg.rank_calls", "linalg.rows_reduced", "mon.brute_s",
                  "mon.subsets_tried", "mon.candidates_scored"],
    "observable": ["observability.rank_queries", "observability.evals",
                   "linalg.rank_calls", "hypergraph.load_s"],
    "ingest": ["correlation.parse_s", "correlation.table_calls",
               "correlation.pearson_calls", "correlation.pearson_per_pair"],
}
EXACT_COUNTERS = [
    "dynamics.chain_calls", "observability.evals", "linalg.rows_reduced",
    "mon.subsets_tried", "correlation.table_calls", "correlation.pearson_calls",
]


def small_calls(workload: str, seed: int, tmp_path: Path) -> list[workloads.Call]:
    def gen(argv: list[str]) -> None:
        assert run.cli_call(MAIN, tuple(argv))[0] == 0

    return workloads.build(workload, seed, tmp_path, gen, size="small")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_workload_passes_checks(workload, seed, tmp_path):
    calls = small_calls(workload, seed, tmp_path)
    result = run.run_workload(MAIN, calls, seconds=0, trace=True)
    assert result["failures"] == []
    assert result["attempted"] == 2 * len(calls)
    for name in EXERCISED[workload]:
        assert result["metrics"][name] > 0, name


def test_exact_counters_repeat(tmp_path):
    for workload in ("mon-exact", "ingest"):
        calls = small_calls(workload, 3, tmp_path)
        first, second = (
            run.run_workload(MAIN, calls, seconds=0, trace=True)["metrics"]
            for _ in range(2)
        )
        assert {n: first[n] for n in EXACT_COUNTERS} == {
            n: second[n] for n in EXACT_COUNTERS
        }


def test_uninstall_restores_and_trace_keeps_stdout(tmp_path):
    from hyperobs import cli, correlation, dynamics, linalg, mon, observability
    from hyperobs.hypergraph import UniformHypergraph

    owners = [cli, correlation, dynamics, mon, observability,
              linalg.Echelon, observability.NomOracle, UniformHypergraph]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    with tracer:
        assert dict(vars(mon))["modp_rank"] is not before[3]["modp_rank"]
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)

    for workload in run.WORKLOADS:
        for call in small_calls(workload, 1, tmp_path):
            _, plain = run.timed_call(MAIN, call)
            _, traced = run.timed_call(MAIN, call, Tracer())
            assert plain[:2] == traced[:2]


def test_wrong_expectation_fails(tmp_path):
    calls = small_calls("mon-deep", 0, tmp_path)
    calls[0] = workloads.Call(calls[0].label, calls[0].argv, workloads.mon_check(2, False))
    result = run.run_workload(MAIN, calls, seconds=0, trace=False)
    assert result["failed"] == 1
    assert result["failed_frac"] > 0
    assert json.loads(run.line(result))["correct"] is False


def test_benchmark_json_names_the_reported_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    calls = small_calls("ingest", 0, tmp_path)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(MAIN, calls, seconds=0, trace=trace)
        if not trace:
            result["metrics"]["setup_s"] = 0.1
        reported = json.loads(run.line(result))["metrics"]
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            n: m["unit"] for n, m in reported.items()
        }


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_inside_and_restores_the_alarm():
    import signal
    import time

    from reference import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.05) as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 2 + 3
    assert 0 < probe.inside_s < 0.3
    assert probe.mean_s() > 0
