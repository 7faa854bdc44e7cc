"""End-to-end acceptance checks.

One test per criterion; each prints a single ``ACCEPTANCE <id>: PASS/FAIL``
line (bypassing capture so the line lands in the live log) and then asserts.
The criteria pin the headline results: minimum selection sizes on the named
topologies, the collapse to the Kalman matrix at k = 2, exact agreement of
the three derivative evaluators, the homogeneity identity, float Jacobian
accuracy, greedy optimality at desk scale, recovery of planted triples from
a synthetic time series, and byte-level CLI determinism.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import hyperobs
from hyperobs.correlation import (
    TimeSeriesMatrix,
    hypergraph_from_timeseries,
    pairwise_graph_from_timeseries,
    read_timeseries_csv,
    write_timeseries_csv,
)
from hyperobs.dynamics import (
    DynamicsSpec,
    RecursionStats,
    lie_derivative_naive_scaled,
    lie_derivative_recursive,
    lie_derivatives,
)
from hyperobs.hypergraph import (
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
)
from hyperobs.linalg import bareiss_rank
from hyperobs.mon import brute_force_mon, greedy_mon, minimum_observable_nodes
from hyperobs.observability import (
    generic_rank,
    lie_derivatives_with_jacobians,
)
from hyperobs.scalars import FLOATS, PRIME, PRIME_FIELD, RATIONALS, random_point

from conftest import int_point, random_uniform_hypergraph


def _record(capsys, cid, desc, ok, detail=""):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {desc}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line + (f" [{detail}]" if detail else "")


def test_c1_named_topology_minimum_sizes(capsys):
    cases = [
        (gen_hyperchain(4, 3), 1, "chain(4,3)"),
        (gen_hyperchain(5, 3), 1, "chain(5,3)"),
        (gen_hyperring(4, 3), 1, "ring(4,3)"),
        (gen_hyperring(6, 3), 1, "ring(6,3)"),
        (gen_hyperstar(5, 3), 2, "star(5,3)"),
        (gen_hyperstar(6, 3), 3, "star(6,3)"),
        (gen_complete(5, 3), 1, "complete(5,3)"),
        (gen_complete(6, 3), 1, "complete(6,3)"),
    ]
    failures = []
    for g, expect, name in cases:
        started = time.perf_counter()
        res = greedy_mon(g)
        elapsed = time.perf_counter() - started
        if res.size != expect or res.verdict != "complete":
            failures.append(f"{name}: got {res.size}, want {expect}")
        if elapsed >= 60.0:
            failures.append(f"{name}: took {elapsed:.1f}s")
    _record(
        capsys, 1,
        "greedy minimum sizes on named topologies (each under 60s)",
        not failures, "; ".join(failures),
    )


def test_c2_star_trends(capsys):
    over_n = [minimum_observable_nodes(gen_hyperstar(n, 3)).size for n in (5, 6, 7)]
    over_k = [minimum_observable_nodes(gen_hyperstar(7, k)).size for k in (3, 4, 5)]
    ok = all(a <= b for a, b in zip(over_n, over_n[1:])) and all(
        a >= b for a, b in zip(over_k, over_k[1:])
    )
    _record(
        capsys, 2,
        "star selection grows with n and shrinks with k",
        ok, f"over n: {over_n}, over k: {over_k}",
    )


def test_c3_kalman_reduction(capsys):
    rng = random.Random(303)
    agreed = 0
    details = []
    for trial in range(20):
        n = rng.randint(2, 8)
        g = random_uniform_hypergraph(n, 2, rng, density=0.4)
        node = rng.randint(1, n)
        dyn = DynamicsSpec(g)
        A = dyn.unfolding().to_dense(zero=Fraction(0))
        row = [Fraction(1 if j == node else 0) for j in range(1, n + 1)]
        stack = [list(row)]
        for _ in range(n):
            row = [
                sum(row[i] * A[i][j] for i in range(n)) for j in range(n)
            ]
            stack.append(list(row))
        exact = bareiss_rank(stack)
        probabilistic = generic_rank(g, [node])
        if exact == probabilistic:
            agreed += 1
        else:
            details.append(f"trial {trial}: exact {exact} vs {probabilistic}")
    _record(
        capsys, 3,
        "pairwise graphs: random-point rank equals exact Kalman rank (20/20)",
        agreed == 20, "; ".join(details),
    )


def _sweep_configs():
    out = []
    for k in (2, 3, 4):
        for n in range(k, 6):
            rng = random.Random(1000 * k + n)
            out.append((gen_complete(n, k), f"complete({n},{k})"))
            out.append(
                (
                    random_uniform_hypergraph(n, k, rng, density=0.5),
                    f"random({n},{k})",
                )
            )
    return out


def test_c4_evaluator_agreement(capsys):
    failures = []
    for g, name in _sweep_configs():
        dyn = DynamicsSpec(g)
        n, k = g.n, g.k
        rng = random.Random(name)
        for _ in range(50):
            x = int_point(n, rng)
            chain = lie_derivatives(dyn, [Fraction(v) for v in x], 4)
            for p in range(5):
                stats = RecursionStats()
                rec = lie_derivative_recursive(
                    dyn, p, [Fraction(v) for v in x], stats=stats
                )
                ints, scale = lie_derivative_naive_scaled(dyn, p, x)
                naive_q = [Fraction(v, scale) for v in ints]
                if not (rec == naive_q == chain[p]):
                    failures.append(f"{name} p={p} x={x}")
                if stats.max_kron_len > n ** (k - 1):
                    failures.append(
                        f"{name} p={p}: intermediate length "
                        f"{stats.max_kron_len} > {n ** (k - 1)}"
                    )
                inv_scale = pow(scale % PRIME, -1, PRIME)
                mod_naive = [(v * inv_scale) % PRIME for v in ints]
                rec_mod = lie_derivative_recursive(
                    dyn, p, [v % PRIME for v in x], domain=PRIME_FIELD
                )
                if mod_naive != [v % PRIME for v in rec_mod]:
                    failures.append(f"{name} p={p} x={x} (mod P)")
            if failures:
                break
        # full-range residues exercise the field lane directly
        for t in range(5):
            z = random_point(n, 7000 + 13 * t)
            chain_p = lie_derivatives(dyn, z, 4, domain=PRIME_FIELD)
            for p in range(5):
                rec_mod = lie_derivative_recursive(
                    dyn, p, z, domain=PRIME_FIELD
                )
                if [v % PRIME for v in rec_mod] != [
                    v % PRIME for v in chain_p[p]
                ]:
                    failures.append(f"{name} p={p} full-range trial {t}")
        # the operator product at full-range points, read mod P
        for t in range(2):
            z = random_point(n, 9000 + 17 * t)
            for p in range(4):
                ints, scale = lie_derivative_naive_scaled(dyn, p, z)
                inv_scale = pow(scale, -1, PRIME)
                rec_mod = lie_derivative_recursive(
                    dyn, p, z, domain=PRIME_FIELD
                )
                if [v * inv_scale % PRIME for v in ints] != [
                    v % PRIME for v in rec_mod
                ]:
                    failures.append(f"{name} p={p} naive mod P")
        if failures:
            break
    _record(
        capsys, 4,
        "recursive, operator-product and chain evaluators agree exactly "
        "(rationals and mod P), intermediates within n**(k-1)",
        not failures, "; ".join(failures[:3]),
    )


def test_c5_euler_homogeneity(capsys):
    failures = []
    for g, name in _sweep_configs():
        dyn = DynamicsSpec(g)
        n, k = g.n, g.k
        rng = random.Random(name)
        for _ in range(50):
            x = [Fraction(v) for v in int_point(n, rng)]
            values, grads = lie_derivatives_with_jacobians(
                dyn, x, 4, RATIONALS
            )
            for p in range(5):
                degree = p * (k - 2) + 1
                for i in range(n):
                    weighted = sum(
                        grads[p][i][j] * x[j] for j in range(n)
                    )
                    if weighted != degree * values[p][i]:
                        failures.append(f"{name} p={p} i={i}")
            if failures:
                break
        if failures:
            break
    _record(
        capsys, 5,
        "gradient-weighted state equals (pk-2p+1) times the derivative, "
        "exactly",
        not failures, "; ".join(failures[:3]),
    )


def test_c6_float_jacobian_vs_finite_differences(capsys):
    instances = [DynamicsSpec(gen_hyperchain(3, 3))]
    rng = random.Random(606)
    for _ in range(6):
        n = rng.randint(3, 5)
        instances.append(DynamicsSpec(random_uniform_hypergraph(n, 3, rng)))
    h = 1e-6
    worst = 0.0
    failures = []
    for dyn in instances:
        n = dyn.n
        for _ in range(3):
            x = [rng.uniform(0.5, 2.0) for _ in range(n)]
            _, grads = lie_derivatives_with_jacobians(dyn, x, 3, FLOATS)
            for j in range(n):
                lo, hi = list(x), list(x)
                lo[j] -= h
                hi[j] += h
                f_lo = lie_derivatives(dyn, lo, 3, FLOATS)
                f_hi = lie_derivatives(dyn, hi, 3, FLOATS)
                for p in range(4):
                    for i in range(n):
                        fd = (f_hi[p][i] - f_lo[p][i]) / (2 * h)
                        a = grads[p][i][j]
                        rel = abs(a - fd) / (1.0 + max(abs(a), abs(fd)))
                        worst = max(worst, rel)
                        if rel > 1e-6:
                            failures.append(
                                f"n={n} p={p} ({i},{j}): rel {rel:.2e}"
                            )
    _record(
        capsys, 6,
        "float Jacobians match central differences within 1e-6 relative",
        not failures, f"worst {worst:.2e}; " + "; ".join(failures[:3]),
    )


def test_c7_greedy_matches_brute_force_at_desk_scale(capsys):
    mismatches = []
    for family, gen in (
        ("chain", gen_hyperchain),
        ("ring", gen_hyperring),
        ("star", gen_hyperstar),
        ("complete", gen_complete),
    ):
        for n in range(2, 7):
            for k in range(2, n + 1):
                g = gen(n, k)
                greedy = minimum_observable_nodes(g)
                exact = brute_force_mon(g)
                if (
                    greedy.size != exact.size
                    or greedy.verdict != "complete"
                    or exact.verdict != "complete"
                ):
                    mismatches.append(
                        f"{family}({n},{k}): greedy {greedy.size} "
                        f"({greedy.verdict}) vs exact {exact.size} "
                        f"({exact.verdict})"
                    )
    _record(
        capsys, 7,
        "greedy size equals the exhaustive minimum on all families, n <= 6",
        not mismatches, "; ".join(mismatches),
    )


def _planted_fixture():
    rng = np.random.default_rng(20240817)
    T = 600
    cols = []
    for _ in range(3):
        a = rng.normal(size=T)
        b = rng.normal(size=T)
        cols.extend([a, b, (a + b) / math.sqrt(2.0)])
    for _ in range(6):
        cols.append(rng.normal(size=T))
    labels = tuple(f"s{j:02d}" for j in range(1, 16))
    return TimeSeriesMatrix(labels, np.column_stack(cols))


def test_c8_planted_triples_and_selection_gap(capsys):
    series = _planted_fixture()
    # the CSV round trip is part of the pipeline under test
    recovered = read_timeseries_csv(write_timeseries_csv(series))
    g = hypergraph_from_timeseries(recovered, threshold=0.95)
    pair = pairwise_graph_from_timeseries(recovered, threshold=0.95)
    planted = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    hyper_mon = minimum_observable_nodes(g)
    pair_mon = minimum_observable_nodes(pair)
    ok = (
        g.edges == planted
        and hyper_mon.verdict == "complete"
        and pair_mon.verdict == "complete"
        and hyper_mon.size < pair_mon.size
    )
    _record(
        capsys, 8,
        "planted triples recovered exactly at 0.95; hypergraph selection "
        "strictly smaller than the pairwise one",
        ok,
        f"edges {g.edges}, sizes {hyper_mon.size} vs {pair_mon.size}",
    )


def _run_cli(args, cwd):
    # The child imports the same hyperobs as this process; an inherited
    # relative PYTHONPATH entry would not resolve from ``cwd``.
    package_root = str(Path(hyperobs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hyperobs", *args],
        capture_output=True, cwd=cwd, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _last_line(stderr):
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def test_c9_cli_byte_determinism(capsys, tmp_path):
    star = tmp_path / "star.json"
    series = _planted_fixture()
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(write_timeseries_csv(series))

    commands = [
        ["gen", "ring", "6", "3"],
        ["observable", str(star), "--nodes", "3,4", "--seed", "5"],
        ["mon", str(star), "--seed", "5", "--brute-force"],
        ["mon", str(star), "--tie-break", "random", "--seed", "9"],
        ["ingest", str(csv_path), "--threshold", "0.95"],
    ]
    failures = []
    code, _, err = _run_cli(
        ["gen", "star", "6", "3", "--out", str(star)], tmp_path
    )
    if code != 0:
        failures.append(f"setup gen star: exit {code}: {_last_line(err)}")
    for args in commands:
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code_a, stdout_a, err_a = _run_cli(
            [*args, "--out", str(out_a)], tmp_path
        )
        code_b, stdout_b, err_b = _run_cli(
            [*args, "--out", str(out_b)], tmp_path
        )
        if code_a != 0 or code_b != 0:
            err = err_a if code_a != 0 else err_b
            failures.append(
                f"{args[0]}: exit {code_a}/{code_b}: {_last_line(err)}"
            )
            continue
        if stdout_a.replace(
            str(out_a).encode(), b"OUT"
        ) != stdout_b.replace(str(out_b).encode(), b"OUT"):
            failures.append(f"{args[0]}: stdout differs")
        if out_a.read_bytes() != out_b.read_bytes():
            failures.append(f"{args[0]}: --out file differs")
    _record(
        capsys, 9,
        "repeated CLI runs with the same flags and seed are byte-identical",
        not failures, "; ".join(failures),
    )
