"""Command line behaviour: reports, exit codes, determinism."""

import json
import math
import time

import numpy as np
import pytest

from hyperobs.cli import main
from hyperobs.correlation import TimeSeriesMatrix, write_timeseries_csv
from hyperobs.hypergraph import UniformHypergraph, gen_hyperring, gen_hyperstar


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
    # valid JSON of the wrong shape is bad input too, never an internal error
    for text in ("3", "null", "true", '{"n": true, "k": 3, "edges": []}'):
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
    )
    assert code == 0
    assert "verdict: complete\nlower bound 3, proven minimum: true\n" in stdout

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
    # each component and the exhaustive search say which depth ran: n - 1
    # of the hypergraph their oracle ranked
    path = tmp_path / "star6.json"
    path.write_text(gen_hyperstar(6, 3).to_json())
    code, stdout, _ = run(capsys, "mon", str(path), "--brute-force")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert [c["depth"] for c in res["components"]] == [5]
    assert res["brute_force"]["depth"] == 5
    two = UniformHypergraph(7, 3, [(1, 2, 3), (2, 3, 4), (5, 6, 7)])
    path.write_text(two.to_json())
    code, stdout, _ = run(capsys, "mon", str(path), "--brute-force")
    assert code == 0
    res = json.loads(stdout)["result"]
    assert [c["nodes"] for c in res["components"]] == [[1, 2, 3, 4], [5, 6, 7]]
    assert [c["depth"] for c in res["components"]] == [3, 2]
    assert res["brute_force"]["depth"] == 6


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
