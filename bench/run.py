"""Benchmark of the hyperobs CLI, end to end and layer by layer.

One closed-loop caller in one thread runs a workload's fixed list of CLI
calls through ``hyperobs.cli.main(argv)`` in this process, pass after pass,
until ``--seconds`` is used up. Inputs come from ``--seed``; the package
sees only the generated files and the ``--seed`` flag of its rank calls.
Reports are checked after each pass's timer stops.

    python3 bench/run.py --workload mon-deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics: ``norm_wall`` (the time of the
call list in units of the reference loop of ``reference.py``, see
``norm_list_time``), ``setup_s`` (median time for a fresh interpreter to
import hyperobs) and ``peak_rss_mb``. The raw ``wall_s`` is printed in the
text lines above the result. ``--trace 1`` runs each call
untraced and then traced, and reports the per-layer metrics of
``spans.Tracer`` plus the tracing overhead.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, with an environment block and,
when traced, every span, goes to ``.bench_out/`` under the repository root.
``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

import workloads
from reference import SpeedProbe, reference_s
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(workloads.WHY)
SETUP_SAMPLES = 7


def unit(name: str) -> str:
    if name == "norm_wall":
        return "ref"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "_yield", "_per_point", "_per_pair")):
        return "ratio"
    return "count"


def import_hyperobs(root: Path) -> Any:
    """Import hyperobs from ``root/src``, and from nowhere else."""
    src = root / "src"
    package = src / "hyperobs"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no hyperobs source under {src}")
    sys.path.insert(0, str(src))
    import hyperobs
    import hyperobs.cli

    if Path(hyperobs.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported hyperobs from {hyperobs.__file__}")
    return hyperobs


def cli_call(main: Callable[[list[str]], int], argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def timed_call(
    main: Callable[[list[str]], int],
    call: workloads.Call,
    tracer: Tracer | None = None,
) -> tuple[float, tuple[int, str, str]]:
    """Wall time and output of one CLI call, traced if a tracer is given."""
    if tracer is None:
        started = time.perf_counter()
        output = cli_call(main, call.argv)
        return time.perf_counter() - started, output
    with tracer:
        started = time.perf_counter()
        output = tracer.call(lambda: cli_call(main, call.argv))
        return time.perf_counter() - started, output


def check_pass(
    calls: list[workloads.Call], outputs: list[tuple[int, str, str]]
) -> list[str]:
    """One line per failed call: nonzero exit, or a report failing its check."""
    failures = []
    for call, (code, out, err) in zip(calls, outputs):
        if code != 0:
            failures.append(f"{call.label}: exit {code}: {err.strip()[-400:]}")
            continue
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            failures.append(f"{call.label}: report is not JSON: {exc}")
            continue
        problems = call.check(report)
        if problems:
            failures.append(f"{call.label}: " + "; ".join(problems))
    return failures


def repeat(seconds: float, one: Callable[[], Any]) -> list[Any]:
    """Run ``one`` at least once, and again while another run fits in time."""
    started = time.perf_counter()
    results, longest = [], 0.0
    while True:
        t = time.perf_counter()
        results.append(one())
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - started + longest > seconds:
            return results


def setup_times(root: Path, samples: int) -> list[float]:
    """Seconds a fresh interpreter takes to import hyperobs, per sample.

    One untimed import first writes the bytecode caches, which users have
    after their first run.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import hyperobs"]
    times = []
    for i in range(samples + 1):
        started = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True, timeout=120)
        if i:
            times.append(time.perf_counter() - started)
    return times


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    ref_file = git / name
    return ref_file.read_text().strip() if ref_file.is_file() else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, seed: int) -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def list_time(call_times: list[list[float]]) -> float:
    """Time to finish the call list: the sum of each call's median time.

    Taking each call's median over the passes, rather than the median pass,
    keeps one slow moment in a pass from moving the whole pass.
    """
    return sum(statistics.median(column) for column in zip(*call_times))


def norm_list_time(call_times: list[list[float]], call_refs: list[list[float]]) -> float:
    """Time to finish the call list, in units of the reference loop.

    Each call's time, less the time its speed probes took, is divided by
    the mean reference time sampled before, during and after it (see
    ``reference.SpeedProbe``), so that the machine's speed at that moment
    cancels; then, as in ``list_time``, each call's median over the passes
    is summed.
    """
    norms = [[t / r for t, r in zip(ts, rs)] for ts, rs in zip(call_times, call_refs)]
    return list_time(norms)


def run_workload(
    main: Callable[[list[str]], int],
    calls: list[workloads.Call],
    seconds: float,
    trace: bool,
) -> dict[str, Any]:
    """Measure and check passes over the calls.

    Untraced, the metrics are ``norm_wall`` (see ``norm_list_time``) and
    ``peak_rss_mb``. Traced, each call runs untraced and then traced, so
    both see the same machine load: the per-layer metrics are medians over
    the traced passes, and ``trace.overhead_s`` is the traced minus the
    untraced list time.
    """
    call_times: list[list[float]] = []
    call_refs: list[list[float]] = []
    traced_times: list[list[float]] = []
    layers: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    failures: list[str] = []

    def one_pass() -> None:
        gc.collect()
        times, refs, traced, outputs = [], [], [], []
        tracer = Tracer() if trace else None
        for call in calls:
            if tracer is None:
                with SpeedProbe() as probe:
                    elapsed, output = timed_call(main, call)
                times.append(elapsed - probe.inside_s)
                refs.append(probe.mean_s())
            else:
                elapsed, output = timed_call(main, call)
                times.append(elapsed)
                outputs.append(output)
                elapsed, output = timed_call(main, call, tracer)
                traced.append(elapsed)
            outputs.append(output)
        call_times.append(times)
        call_refs.append(refs)
        if tracer is not None:
            traced_times.append(traced)
            tracers.append(tracer)
            layers.append(tracer.metrics(sum(traced), workloads.TRIALS))
        checked = [c for c in calls for _ in range(2)] if trace else calls
        failures.extend(check_pass(checked, outputs))

    if not trace:
        reference_s()  # warm-up
    passes = len(repeat(seconds, one_pass))
    if trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        metrics["trace.wall_s"] = list_time(traced_times)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - list_time(call_times)
    else:
        metrics = {
            "norm_wall": norm_list_time(call_times, call_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    attempted = len(calls) * passes * (2 if trace else 1)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "wall_s": list_time(call_times),
        "call_times": call_times,
        "call_refs": call_refs,
        "traced_call_times": traced_times,
        "metrics": metrics,
        "traces": [t.to_json() for t in tracers],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict[str, Any]:
    hyperobs = import_hyperobs(root)
    main = hyperobs.cli.main
    setup = [] if trace else setup_times(root, SETUP_SAMPLES)
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / ".bench_work"))
    try:

        def gen(argv: list[str]) -> None:
            code, _, err = cli_call(main, tuple(argv))
            if code != 0:
                raise RuntimeError(f"hyperobs {' '.join(argv)} failed: {err}")

        calls = workloads.build(workload, seed, workdir, gen)
        result = run_workload(main, calls, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples"] = setup
    result["workload"] = workload
    result["env"] = environment(root, seed)
    return result


def line(result: dict[str, Any]) -> str:
    """The result's last stdout line."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit(name)}
                for name, value in sorted(result["metrics"].items())
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own, then one table."""
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            print(f"{workload}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    names = sorted({n for _, r in rows for n in r["metrics"]})
    header = ["metric", "unit"] + [w for w, _ in rows]
    table = [header]
    for n in names:
        table.append([n, unit(n)] + [f"{r['metrics'][n]['value']:.6g}" for _, r in rows])
    table.append(["failed_frac", "ratio"] + [f"{r['failed'] / r['attempted']:.6g}" for _, r in rows])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    summary = {w: r for w, r in rows}
    print(json.dumps(summary))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    times = result["traced_call_times"] if args.trace else result["call_times"]
    print(f"passes {len(times)}: " + " ".join(f"{sum(t):.4f}s" for t in times))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_frac {result['failed_frac']:.6g} ratio")
    print(f"wall_s {result['wall_s']:.6g} s")
    for name, value in sorted(result["metrics"].items()):
        print(f"{name} {value:.6g} {unit(name)}")
    print(f"result written to {path.relative_to(ROOT)}")
    print(line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
