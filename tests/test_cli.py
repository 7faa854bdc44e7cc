"""Command line behaviour: reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperobs
from hyperobs import cli, dynamics, observability
from hyperobs.cli import main
from hyperobs.correlation import TimeSeriesMatrix, write_timeseries_csv
from hyperobs.hypergraph import (
    FAMILIES,
    UniformHypergraph,
    gen_hyperring,
    gen_hyperstar,
)

from conftest import disjoint_union


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_canonical_json(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, stdout, stderr = run(
        capsys, "gen", "chain", "5", "3", "--out", str(out)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["command"] == "gen"
    assert report["result"]["edges"] == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
    assert report["hypergraph"]["degree_histogram"] == {"1": 2, "2": 2, "3": 1}
    assert report["out"] == str(out)
    g = UniformHypergraph.from_json(out.read_text())
    assert g.n == 5 and g.num_edges == 3
    # timing stays off stdout so reports hash stably
    assert "elapsed" in stderr
    assert "elapsed" not in stdout


def test_gen_text_format(capsys):
    code, stdout, _ = run(capsys, "gen", "ring", "4", "3", "--format", "text")
    assert code == 0
    assert stdout.startswith("command: gen\n")
    assert "hypergraph: n=4 k=3 edges=4" in stdout


def test_gen_bad_arguments(capsys):
    code, _, stderr = run(capsys, "gen", "chain", "3", "5")
    assert code == 1
    assert "need at least k = 5 nodes" in stderr
    code, _, _ = run(capsys, "gen", "pentagram", "5", "3")
    assert code == 1


def test_gen_resource_limit(capsys):
    code, _, stderr = run(capsys, "gen", "complete", "200", "3")
    assert code == 2
    assert "resource limit" in stderr
    # the edge cap is checked before any edge is built
    started = time.perf_counter()
    code, _, stderr = run(capsys, "gen", "chain", "10000000000", "3")
    assert code == 2
    assert "chain hypergraph would hold 9999999998 edges" in stderr
    assert time.perf_counter() - started < 2
    # C(n, k) is built factor by factor and refused once past the cap, never
    # computed whole
    for n, k in (("20000", "10000"), ("1000000", "500000")):
        started = time.perf_counter()
        code, _, stderr = run(capsys, "gen", "complete", n, k)
        assert code == 2
        assert "complete hypergraph would hold more than 1000000" in stderr
        assert time.perf_counter() - started < 2


@pytest.mark.parametrize(
    "command", [["mon"], ["observable", "--nodes", "1"]], ids=["mon", "observable"]
)
def test_huge_depth_is_refused_at_once(tmp_path, capsys, command):
    # the chain's lanes are counted before any is allocated: a depth no
    # memory holds is a resource limit within a second, not a long run or
    # a MemoryError
    path = tmp_path / "ring5.json"
    path.write_text(gen_hyperring(5, 3).to_json())
    started = time.perf_counter()
    code, stdout, stderr = run(
        capsys, command[0], str(path), *command[1:], "--depth", "1000000000"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "resource limit" in stderr
    assert stdout == ""


@pytest.mark.parametrize(
    "doc, argv, code",
    [
        ({"n": 3, "k": 100000}, ["observable", "--nodes", "1"], 1),
        ({"n": 3, "k": 100000}, ["mon", "--brute-force"], 1),
        ({"n": 10**30, "k": 3}, ["mon"], 1),
        ({"n": 10**30, "k": 3}, ["observable", "--nodes", "all"], 1),
        ({"n": 10**30, "k": 3}, ["observable", "--nodes", "1"], 1),
        ({"n": sys.maxsize, "k": 3}, ["mon"], 1),
        ({"n": 3 * 10**6, "k": 3}, ["observable", "--nodes", "1"], 2),
    ],
    ids=[
        "k-above-n-observable", "k-above-n-brute-force", "n-1e30-mon",
        "n-1e30-all", "n-1e30-one", "n-maxsize-mon", "n-3e6-one",
    ],
)
def test_bad_hypergraph_files_end_at_once(tmp_path, capsys, doc, argv, code):
    # a k no edge can have, or an n no list can index, is bad input; a chain
    # no memory holds is refused before its n coordinates are drawn
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**doc, "edges": []}))
    started = time.perf_counter()
    got, stdout, stderr = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - started < 2.0
    assert got == code, stderr
    assert stdout == ""
    assert "internal error" not in stderr


@pytest.mark.skipif(
    not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm"
)
def test_running_out_of_memory_is_a_resource_limit(tmp_path):
    # with 512 MB of address space left, mon on 10^8 nodes cannot hold its
    # node lists; the MemoryError ends in exit 2, not an internal error
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**8, "k": 3, "edges": [[1, 2, 3]]}))
    code = (
        "import os, resource, sys\n"
        "from hyperobs.cli import main\n"
        "pages = int(open('/proc/self/statm').read().split()[0])\n"
        "cap = pages * os.sysconf('SC_PAGE_SIZE') + (512 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    package_root = str(Path(hyperobs.__file__).resolve().parent.parent)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, "mon", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert time.perf_counter() - started < 2.0
    assert proc.returncode == 2, proc.stderr
    assert "resource limit: out of memory" in proc.stderr
    assert proc.stdout == ""


def test_observable_round_trip(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(gen_hyperstar(5, 3).to_json())
    code, stdout, _ = run(
        capsys, "observable", str(path), "--nodes", "3,4"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["result"]["observable"] is True
    assert report["result"]["rank"] == 5
    assert report["parameters"]["nodes"] == [3, 4]
    assert report["parameters"]["field_modulus"] == 2**61 - 1
    assert "sha256" in report["input"]

    assert report["result"]["invisible_pair"] is None

    code, stdout, _ = run(
        capsys, "observable", str(path), "--nodes", "5", "--format", "text"
    )
    assert code == 0
    assert "rank 4 of 5: not-observable-at-depth" in stdout

    code, stdout, _ = run(capsys, "observable", str(path), "--nodes", "all")
    assert json.loads(stdout)["parameters"]["nodes"] == [1, 2, 3, 4, 5]


def test_observable_node_errors(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(gen_hyperstar(5, 3).to_json())
    for spec in ("0", "9", "1,1", "x", ""):
        code, _, stderr = run(
            capsys, "observable", str(path), "--nodes", spec
        )
        assert code == 1, spec
        assert "hyperobs: error" in stderr


def test_missing_and_malformed_input(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "observable", str(tmp_path / "absent.json"), "--nodes", "1"
    )
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "k": 3}')
    code, _, stderr = run(capsys, "observable", str(bad), "--nodes", "1")
    assert code == 1
    assert "required key" in stderr
    worse = tmp_path / "worse.json"
    worse.write_text("not json at all")
    code, _, _ = run(capsys, "observable", str(worse), "--nodes", "1")
    assert code == 1
    # valid JSON of the wrong shape is bad input too, never an internal
    # error, and so is JSON nested past the parser's recursion limit
    for text in (
        "3", "null", "true", '{"n": true, "k": 3, "edges": []}', "[" * 100000
    ):
        worse.write_text(text)
        for cmd in (["observable", str(worse), "--nodes", "1"], ["mon", str(worse)]):
            code, _, stderr = run(capsys, *cmd)
            assert code == 1, (text, cmd[0])
            assert "hyperobs: error" in stderr


def test_mon_report(tmp_path, capsys):
    path = tmp_path / "star6.json"
    path.write_text(gen_hyperstar(6, 3).to_json())
    code, stdout, _ = run(capsys, "mon", str(path), "--brute-force")
    assert code == 0
    report = json.loads(stdout)
    res = report["result"]
    assert res["size"] == 3
    assert res["verdict"] == "complete"
    assert res["rank_trace"][-1] == 6
    assert res["brute_force"]["matches_greedy_size"] is True
    assert len(res["components"]) == 1
    # three of the four twin leaves must be measured
    assert res["lower_bound"] == 3
    assert res["proven_minimum"] is True

    code, stdout, _ = run(
        capsys, "mon", str(path), "--tie-break", "index", "--format", "text",
        "--brute-force",
    )
    assert code == 0
    # booleans read as in the JSON report
    assert (
        "verdict: complete\nlower bound 3, proven minimum: true\n"
        "brute force size 3, greedy matches: true\n"
    ) in stdout

    # at depth 0 greedy needs every node, which the bound cannot prove
    code, stdout, _ = run(capsys, "mon", str(path), "--depth", "0")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert (res["size"], res["lower_bound"]) == (6, 3)
    assert res["proven_minimum"] is False


def test_observable_names_an_invisible_pair(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(gen_hyperstar(20, 3).to_json())
    code, stdout, _ = run(capsys, "observable", str(path), "--nodes", "1")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert res["verdict"] == "not-observable-at-depth"
    assert res["invisible_pair"] == [3, 4]
    # a deficient rank without unmeasured twins names no pair
    path.write_text(gen_hyperring(6, 3).to_json())
    code, stdout, _ = run(
        capsys, "observable", str(path), "--nodes", "1", "--depth", "0"
    )
    assert code == 0
    res = json.loads(stdout)["result"]
    assert (res["rank"], res["invisible_pair"]) == (1, None)


def test_mon_reports_depth(tmp_path, capsys):
    # each component says which depth ran, for both searches: n - 1 of the
    # hypergraph its oracle ranked; the exhaustive search's union has none
    path = tmp_path / "star6.json"
    path.write_text(gen_hyperstar(6, 3).to_json())
    code, stdout, _ = run(capsys, "mon", str(path), "--brute-force")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert [c["depth"] for c in res["components"]] == [5]
    assert "depth" not in res["brute_force"]
    two = UniformHypergraph(7, 3, [(1, 2, 3), (2, 3, 4), (5, 6, 7)])
    path.write_text(two.to_json())
    code, stdout, _ = run(capsys, "mon", str(path), "--brute-force")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert [c["nodes"] for c in res["components"]] == [[1, 2, 3, 4], [5, 6, 7]]
    assert [c["depth"] for c in res["components"]] == [3, 2]
    assert "depth" not in res["brute_force"]


def test_chains_stop_at_the_first_level_that_adds_no_rank(
    tmp_path, capsys, monkeypatch
):
    # stacked_depth is the highest level any trial stacked, and
    # apply_factors runs once per level past 0; depth stays the cap
    levels = []
    original = dynamics.apply_factors

    def counting(dyn, chain, stacks, p):
        levels.append(p + 1)
        return original(dyn, chain, stacks, p)

    monkeypatch.setattr(dynamics, "apply_factors", counting)

    def stacked(family, n, k, command, *flags):
        path = tmp_path / f"{family}{n}-{k}.json"
        path.write_text(FAMILIES[family](n, k).to_json())
        levels.clear()
        code, stdout, _ = run(capsys, command, str(path), *flags)
        assert code == 0
        report = json.loads(stdout)
        if command == "observable":
            return report["result"]["stacked_depth"], report
        (part,) = report["result"]["components"]
        return part["stacked_depth"], report

    # every node measured: rank n at level 0, no level computed
    depth, report = stacked("ring", 6, 3, "observable", "--nodes", "all")
    assert (depth, levels) == (0, [])
    assert report["result"]["verdict"] == "observable"
    # a star core gains one rank per level through level 2; level 3 adds
    # none, so trial 0 stacks levels 0..3 of the cap 19. Its rank 3 is the
    # ceiling 20 - (18 - 1) of the 18 unmeasured twin leaves, so no other
    # trial is evaluated
    depth, report = stacked("star", 20, 3, "observable", "--nodes", "1")
    assert (depth, report["parameters"]["depth"]) == (3, 19)
    assert levels == [1, 2, 3]
    assert report["result"]["rank"] == 3
    # a leaf at depth 2 reaches rank 3, one below its ceiling 4, so each of
    # the three trials stacks levels 1 and 2; at depth 3 it reaches 4 at
    # trial 0
    depth, report = stacked(
        "star", 20, 3, "observable", "--nodes", "3", "--depth", "2"
    )
    assert (depth, levels, report["result"]["rank"]) == (2, [1, 2] * 3, 3)
    depth, report = stacked(
        "star", 20, 3, "observable", "--nodes", "3", "--depth", "3"
    )
    assert (depth, levels, report["result"]["rank"]) == (3, [1, 2, 3], 4)
    # every star 11/3 node is flat by level 4
    depth, report = stacked("star", 11, 3, "mon")
    assert depth <= 4 < report["result"]["components"][0]["depth"] == 10
    assert max(levels) <= 4
    # one ring node and one complete-graph node need every level
    depth, _ = stacked("ring", 20, 3, "mon")
    assert depth == 19 == max(levels)
    depth, report = stacked("complete", 9, 4, "observable", "--nodes", "1")
    assert depth == 8 == report["parameters"]["depth"]
    assert levels == list(range(1, 9))
    assert report["result"]["verdict"] == "observable"

    path = tmp_path / "star20-3.json"
    code, stdout, _ = run(
        capsys, "observable", str(path), "--nodes", "1", "--format", "text"
    )
    assert stdout.endswith(
        "rank 3 of 20: not-observable-at-depth\nstacked depth 3 of cap 19\n"
    )
    code, stdout, _ = run(capsys, "mon", str(path), "--format", "text")
    assert stdout.endswith("stacked depth per component: 4\n")


def test_mon_splits_components_once(tmp_path, capsys, monkeypatch):
    # greedy, the twin bound and brute force all read the components from
    # the one oracle's parts, so each call splits the graph once
    path = tmp_path / "graph.json"
    calls = []
    original = UniformHypergraph.connected_components

    def counting(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(UniformHypergraph, "connected_components", counting)
    star = gen_hyperstar(11, 3)
    for g in (star, disjoint_union(star, gen_hyperstar(6, 3))):
        path.write_text(g.to_json())
        for flags in ((), ("--brute-force",)):
            calls.clear()
            code, _, _ = run(capsys, "mon", str(path), *flags)
            assert code == 0
            assert calls == [g.n]


def test_mon_brute_force_reuses_greedys_points(tmp_path, capsys, monkeypatch):
    # both searches rank each component at the same points, and each
    # point's chain runs once for the two. Every greedy pick on a star
    # reaches its twin ceiling at trial 0, and so does brute force's first
    # subset at or above it, so one point per component is evaluated; at
    # depth 1 a leaf stays below its ceiling, so all three trials are
    path = tmp_path / "star11.json"
    points = []
    original = observability.node_blocks

    def counting(dyn, x, *rest):
        points.append((dyn.n, tuple(x)))
        return original(dyn, x, *rest)

    monkeypatch.setattr(observability, "node_blocks", counting)
    star = gen_hyperstar(11, 3)
    two = disjoint_union(star, gen_hyperstar(6, 3))
    cases = (
        (star, [11], (), 8, 1),
        (two, [11, 6], (), 11, 1),
        (star, [11], ("--depth", "1"), 9, 3),
        (two, [11, 6], ("--depth", "1"), 13, 3),
    )
    for g, sizes, flags, size, trials in cases:
        path.write_text(g.to_json())
        points.clear()
        code, stdout, _ = run(
            capsys, "mon", str(path), "--brute-force", *flags
        )
        assert code == 0
        assert json.loads(stdout)["result"]["brute_force"]["size"] == size
        assert len(points) == len(set(points)) == trials * len(sizes)
        assert sorted({n for n, _ in points}) == sorted(sizes)


def test_mon_brute_force_runs_per_component(tmp_path, capsys):
    # six disjoint 3-edges and six isolated nodes, the shape ingest gives:
    # a whole-graph search would enumerate every subset below size 12
    path = tmp_path / "triples.json"
    edges = [[i, i + 1, i + 2] for i in range(1, 19, 3)]
    path.write_text(json.dumps({"n": 24, "k": 3, "edges": edges}))
    started = time.perf_counter()
    code, stdout, _ = run(capsys, "mon", str(path), "--brute-force")
    assert time.perf_counter() - started < 2
    assert code == 0
    res = json.loads(stdout)["result"]
    exact = res["brute_force"]
    assert (res["size"], exact["size"]) == (12, 12)
    assert exact["matches_greedy_size"] is True
    assert exact["selected"] == [1, 4, 7, 10, 13, 16, *range(19, 25)]


def test_mon_isolated_nodes_need_no_rank_work(tmp_path, capsys, monkeypatch):
    # 9,997 isolated nodes select themselves at the depth a one-node oracle
    # would stack; only the 3-node component's chain runs, at one point
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({"n": 10000, "k": 3, "edges": [[1, 2, 3]]}))
    sizes = []
    original = observability.node_blocks

    def counting(dyn, x, *rest):
        sizes.append(dyn.n)
        return original(dyn, x, *rest)

    monkeypatch.setattr(observability, "node_blocks", counting)
    code, stdout, _ = run(capsys, "mon", str(path))
    assert code == 0
    assert sizes == [3]
    res = json.loads(stdout)["result"]
    assert (res["size"], res["proven_minimum"]) == (9998, True)
    assert len(res["components"]) == 9998
    assert res["components"][1] == {
        "nodes": [4],
        "selected": [4],
        "rank_trace": [1],
        "verdict": "complete",
        "depth": 0,
        "stacked_depth": 0,
    }
    path.write_text(UniformHypergraph(5, 3, [(1, 2, 3)]).to_json())
    code, stdout, _ = run(capsys, "mon", str(path), "--depth", "4")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert [c["depth"] for c in res["components"]] == [4, 4, 4]


def test_mon_out_file_matches_stdout_report(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(UniformHypergraph(5, 3, [(1, 2, 3), (3, 4, 5)]).to_json())
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "mon", str(path), "--out", str(out))
    assert code == 0
    written = json.loads(out.read_text())
    shown = json.loads(stdout)
    # the stored report lacks only the self-referential "out" key
    assert shown.pop("out") == str(out)
    assert written == shown


def test_ingest(tmp_path, capsys):
    rng = np.random.default_rng(5)
    x = rng.normal(size=80)
    y = rng.normal(size=80)
    z = (x + y) / math.sqrt(2.0)
    w = rng.normal(size=80)
    series = TimeSeriesMatrix(
        ("a", "b", "c", "d"), np.column_stack([x, y, z, w])
    )
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(write_timeseries_csv(series))
    out = tmp_path / "learned.json"
    code, stdout, _ = run(
        capsys, "ingest", str(csv_path), "--out", str(out)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["signals"] == ["a", "b", "c", "d"]
    assert report["result"]["triples_evaluated"] == 4
    assert report["result"]["num_edges"] == 1
    assert report["result"]["hypergraph"]["edges"] == [[1, 2, 3]]
    counts = report["result"]["rho_histogram"]["counts"]
    assert sum(counts) == 4
    assert counts[9] >= 1
    g = UniformHypergraph.from_json(out.read_text())
    assert g.edges == ((1, 2, 3),)

    code, _, stderr = run(
        capsys, "ingest", str(csv_path), "--threshold", "2.0"
    )
    assert code == 1
    assert "threshold" in stderr


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf", "1e400"])
def test_ingest_refuses_non_finite_samples(tmp_path, capsys, sample):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(f"a,b,c\n1,2,3\n4,5,6\n7,{sample},9\n")
    code, stdout, stderr = run(capsys, "ingest", str(csv_path))
    assert code == 1
    assert f"line 4: non-finite value '{sample}'" in stderr
    assert stdout == ""


def test_ingest_refuses_an_oversized_cell(tmp_path, capsys):
    # the csv module refuses fields past 131,072 characters
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("a,b,c\n1,2,3\n" + "4" * 140000 + ",5,6\n7,8,9\n")
    code, stdout, stderr = run(capsys, "ingest", str(csv_path))
    assert code == 1
    assert "line 3: field larger than field limit" in stderr
    assert stdout == ""


@pytest.mark.parametrize("scale", [1.7e308, 1e-170], ids=["over", "under"])
def test_ingest_rescales_squares_beyond_float64(tmp_path, capsys, scale):
    # every sample is finite, but the squares of column a's deviations
    # overflow or underflow to 0; correlation does not depend on scale
    csv_path = tmp_path / "series.csv"
    reports = []
    for s in (scale, 1.0):
        csv_path.write_text(
            "a,b,c\n"
            + "".join(
                f"{v * s!r},{i},{i * i % 7}\n"
                for i, v in enumerate([1, -1, -1, 1, 1, -1])
            )
        )
        code, stdout, stderr = run(capsys, "ingest", str(csv_path))
        assert code == 0, stderr
        reports.append(json.loads(stdout)["result"])
    assert reports[0] == reports[1]


def test_ingest_refuses_a_constant_column(tmp_path, capsys):
    # 0.3 is inexact, so the sample deviation of 600 copies is not 0
    rows = "".join(f"{i % 5},0.3,{i % 3}\n" for i in range(600))
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("a,b,c\n" + rows)
    code, stdout, stderr = run(capsys, "ingest", str(csv_path))
    assert code == 1
    assert "signal 'b' (column 2) is constant" in stderr
    assert stdout == ""


def test_ingest_refuses_an_oversized_table(tmp_path, capsys):
    # 500 signals make 20,708,500 triples, past the memory cap
    labels = ",".join(f"s{j}" for j in range(500))
    rows = (
        ",".join(str(i * (j % 7 + 1)) for j in range(500)) for i in (1, 2, 4)
    )
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join([labels, *rows]) + "\n")
    code, stdout, stderr = run(capsys, "ingest", str(csv_path))
    assert code == 2
    assert "resource limit: 20708500 triples of 500 signals" in stderr
    assert stdout == ""


def test_ingest_refuses_more_edges_than_the_cap(tmp_path, capsys):
    # 200 proportional signals of 3 samples keep all 1,313,400 triples at
    # rho = 1, past MAX_EDGES; the table fits under the slot cap
    labels = ",".join(f"s{j}" for j in range(200))
    rows = (
        ",".join(str(i * (j % 7 + 1)) for j in range(200)) for i in (1, 2, 4)
    )
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join([labels, *rows]) + "\n")
    code, stdout, stderr = run(capsys, "ingest", str(csv_path))
    assert code == 2
    assert "resource limit: 1313400 of 1313400 triples of 200" in stderr
    assert stdout == ""


def test_reports_deterministic(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(gen_hyperstar(6, 3).to_json())
    argv = ["mon", str(path), "--seed", "4", "--trials", "2"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["mon", "--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_one_parser_serves_every_call(capsys):
    # a usage error, then help, then a valid call, all on the process's one
    # parser, each against a fresh parser
    calls = [["gen", "ring", "4"], ["--help"], ["gen", "ring", "4", "3"]]

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code, stdout, stderr = run(capsys, *argv)
            seen.append((code, stdout, re.sub(r"elapsed \S+", "", stderr)))
        return seen

    cli._build_parser.cache_clear()
    shared = outcomes(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [1, 0, 0]
    assert "usage:" in shared[0][2]
    assert shared == outcomes(fresh=True)


def test_input_is_read_once_and_hashed_as_parsed(tmp_path, capsys, monkeypatch):
    # the stand-in readers replace the file after each read, so a second
    # read would see other bytes than the ones parsed
    ring = gen_hyperring(5, 3).to_json().encode()
    star = gen_hyperstar(6, 3).to_json().encode()
    rng = np.random.default_rng(2)
    first_csv = write_timeseries_csv(
        TimeSeriesMatrix(("a", "b", "c"), rng.normal(size=(20, 3)))
    ).encode()
    other_csv = write_timeseries_csv(
        TimeSeriesMatrix(("x", "y", "z", "w"), rng.normal(size=(20, 4)))
    ).encode()
    target = tmp_path / "input"
    replacement = {}

    def replacing(read):
        def stand_in(self, *args, **kwargs):
            data = read(self, *args, **kwargs)
            if self == target:
                target.write_bytes(replacement["bytes"])
            return data

        return stand_in

    monkeypatch.setattr(Path, "read_bytes", replacing(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", replacing(Path.read_text))
    cases = [
        (["observable", str(target), "--nodes", "1"], ring, star),
        (["mon", str(target)], ring, star),
        (["ingest", str(target)], first_csv, other_csv),
    ]
    for argv, parsed, later in cases:
        target.write_bytes(parsed)
        replacement["bytes"] = later
        code, stdout, stderr = run(capsys, *argv)
        assert code == 0, stderr
        report = json.loads(stdout)
        assert report["input"]["sha256"] == hashlib.sha256(parsed).hexdigest()
        if argv[0] == "ingest":
            assert report["signals"] == ["a", "b", "c"]
        else:
            assert report["hypergraph"]["n"] == 5


def _exit_and_stderr(argv):
    # capsys is per test, not per hypothesis example
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_handled(path, data, argv):
    path.write_bytes(data.encode("utf-8", "surrogatepass"))
    code, stderr = _exit_and_stderr(argv)
    assert code in (0, 1, 2), stderr
    assert "internal error" not in stderr


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_CELL = st.sampled_from(["", " 1", "x", '"2"', "1e400", "nan", '"', "\0"])


def _csv_doc(cell):
    """CSV documents of a few rows, each as wide as the first."""
    return st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(cell, min_size=width, max_size=width), max_size=8
        )
    ).map(lambda rows: "\n".join(",".join(row) for row in rows))


@given(
    text=st.one_of(st.text(), _csv_doc(_NUMBER), _csv_doc(_NUMBER | _ODD_CELL))
)
@settings(max_examples=150, deadline=None)
def test_ingest_survives_any_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    _assert_handled(path, text, ["ingest", str(path)])


# JSON leaves and containers, with every integer small enough that a
# document naming it as n stays a small hypergraph
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
_MALFORMED_DOC = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 30) | _JSON,
        "k": st.integers(-1, 6) | _JSON,
        "edges": st.lists(
            st.lists(st.integers(-1, 31), max_size=6), max_size=10
        )
        | _JSON,
    }
)
# well-formed k-uniform documents on at most 30 nodes
_HYPERGRAPH_DOC = st.tuples(st.integers(2, 5), st.integers(5, 30)).flatmap(
    lambda kn: st.fixed_dictionaries(
        {
            "n": st.just(kn[1]),
            "k": st.just(kn[0]),
            "edges": st.lists(
                st.lists(
                    st.integers(1, kn[1]), min_size=kn[0], max_size=kn[0]
                ),
                max_size=10,
            ),
        }
    )
)


@given(
    text=st.one_of(st.text(), (_MALFORMED_DOC | _HYPERGRAPH_DOC).map(json.dumps))
)
@settings(max_examples=150, deadline=None)
def test_observable_survives_any_json(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    argv = ["observable", str(path), "--nodes", "1", "--depth", "1"]
    _assert_handled(path, text, argv + ["--trials", "1"])


@st.composite
def _small_doc(draw):
    """Well-formed k-uniform documents on at most 8 nodes."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(n, 4)))
    edge = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    return {"n": n, "k": k, "edges": draw(st.lists(edge, max_size=6))}


# odd --nodes text; the test adds node lists within 1..n
_ODD_NODES = st.one_of(
    st.lists(
        st.integers(-1, 9).map(str) | st.sampled_from(["", " ", "x", "1.5"]),
        max_size=4,
    ).map(",".join),
    st.sampled_from(["all", " ALL ", "1,1"]),
    st.text(max_size=8),
)


@given(
    doc=_small_doc(),
    command=st.sampled_from(["mon", "observable"]),
    depth=st.none() | st.integers(0, 3) | st.integers(-2, 3),
    trials=st.integers(1, 2) | st.integers(-1, 2),
    seed=st.integers(-(2**70), 2**70),
    tie_break=st.sampled_from(["degree", "index", "random", "best"]),
    brute_force=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_mon_and_observable_survive_any_flags(
    tmp_path_factory, doc, command, depth, trials, seed, tie_break,
    brute_force, data,
):
    path = tmp_path_factory.getbasetemp() / "flags.json"
    argv = [command, str(path), "--trials", str(trials), "--seed", str(seed)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    if command == "observable":
        in_range = st.lists(
            st.integers(1, doc["n"]), min_size=1, max_size=4, unique=True
        ).map(lambda nodes: ",".join(map(str, nodes)))
        argv.append(f"--nodes={data.draw(in_range | _ODD_NODES)}")
    else:
        argv += ["--tie-break", tie_break]
        if brute_force:
            argv.append("--brute-force")
    _assert_handled(path, json.dumps(doc), argv)
