"""The CLI at scale, one process per call: exhaustive MON on large stars,
rings and twin classes, and chains on both sides of one GEMM chunk.

Each test runs ``python -m hyperobs`` in a subprocess with fixed
arguments, a timeout where the check needs one, and the expected values of
its report; generated graphs go under ``tmp_path``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hyperobs


def _cli(*args, timeout=None):
    """The report's result of one CLI call, which must exit 0. The child
    imports the same hyperobs as this process: its package root goes first
    on PYTHONPATH."""
    package_root = str(Path(hyperobs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hyperobs", *map(str, args)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["result"]


def _gen(tmp_path, family, n, k):
    path = tmp_path / f"{family}{n}-{k}.json"
    _cli("gen", family, n, k, "--out", path)
    return path


def test_exhaustive_mon_on_star_20_3(tmp_path):
    # The 18 leaves are twins, so brute force starts at size 17 and must
    # finish within its default subset budget, and greedy's 17 nodes are a
    # proven minimum.
    r = _cli("mon", _gen(tmp_path, "star", 20, 3), "--brute-force")
    assert r["brute_force"]["size"] == 17 and r["proven_minimum"] is True, r


def test_exhaustive_mon_on_star_110_3(tmp_path):
    # The 108 leaves are twins: the walk cuts every prefix with a core node
    # and ranks one subset of size 107, the answer. Enumerating subsets in
    # order, brute force refused after 200,000 of them without one rank
    # query.
    path = _gen(tmp_path, "star", 110, 3)
    r = _cli("mon", path, "--brute-force", timeout=10)
    assert r["brute_force"]["size"] == 107, r["brute_force"]


def test_exhaustive_mon_on_ring_100_3_at_depth_2(tmp_path):
    # At depth 2 each node's basis has rank at most 3. Once the first
    # subset fails at every trial, the rank cut takes every size below 34
    # at its empty prefix, and brute force proves greedy's 34 nodes.
    # Ranking subsets one by one, it refused after about a minute.
    path = _gen(tmp_path, "ring", 100, 3)
    r = _cli("mon", path, "--depth", 2, "--brute-force", timeout=10)
    exact = r["brute_force"]
    assert exact["size"] == 34 and exact["matches_greedy_size"] is True, exact


def test_exhaustive_mon_with_three_twin_classes(tmp_path):
    # Three classes of 30 twin leaves, one under each pair of the core
    # nodes 1, 2, 3, need 29 measured nodes each. The twin bound 87 proves
    # greedy's size. Brute force starts at 87, where the walk's twin counts
    # cut every prefix with a core node, and the first subset it ranks is
    # the answer.
    edges = [[1, 2, a] for a in range(4, 34)]
    edges += [[2, 3, b] for b in range(34, 64)]
    edges += [[1, 3, c] for c in range(64, 94)]
    path = tmp_path / "three-classes.json"
    path.write_text(json.dumps({"n": 93, "k": 3, "edges": edges}))
    r = _cli("mon", path, "--brute-force", timeout=10)
    assert (r["size"], r["lower_bound"], r["proven_minimum"]) == (87, 87, True)
    assert r["brute_force"]["size"] == 87, r


def test_mon_on_star_300_3_with_298_twin_leaves(tmp_path):
    # The leaves are one twin class, so each trial's chain watches the two
    # core nodes and leaf 3 alone, and every other leaf's basis is built
    # from leaf 3's with no reduction. Greedy's 297 nodes meet the twin
    # bound, and brute force ranks one subset of that size.
    path = _gen(tmp_path, "star", 300, 3)
    r = _cli("mon", path, "--brute-force", timeout=30)
    assert (r["size"], r["proven_minimum"]) == (297, True), r
    assert r["brute_force"]["size"] == 297, r


def test_chains_on_both_sides_of_one_gemm_chunk(tmp_path):
    # Node 1 of a ring needs every level of the default depth n - 1. Ring
    # 45/3's last level product runs over 45 * 44 = 1,980 inner rows, one
    # chunk of at most 2^11, so the product is resident and writes each
    # level's limbs once into its GEMM operands; ring 46/3's runs over
    # 2,070 rows, two chunks, staged. Each must be observable at rank n,
    # stacking level n - 1.
    for n in (45, 46):
        path = _gen(tmp_path, "ring", n, 3)
        r = _cli("observable", path, "--nodes", 1, timeout=20)
        got = (r["verdict"], r["rank"], r["stacked_depth"])
        assert got == ("observable", n, n - 1), r


def test_observability_of_ring_100_3(tmp_path):
    # One measured node needs every level of the default depth 99, so the
    # chain stops nowhere early: the last level products run over 9,900
    # inner rows, five exact chunks of whole levels. Node 1 alone must give
    # the verdict observable at rank 100, stacking level 99.
    path = _gen(tmp_path, "ring", 100, 3)
    r = _cli("observable", path, "--nodes", 1, timeout=120)
    got = (r["verdict"], r["rank"], r["stacked_depth"])
    assert got == ("observable", 100, 99), r


def test_mon_on_ring_100_2(tmp_path):
    # k = 2 is linear, so one evaluation point serves every rank. Two nodes
    # observe ring 100/2; no twins, so the bound is 1 and not proven.
    r = _cli("mon", _gen(tmp_path, "ring", 100, 2), timeout=30)
    got = (r["size"], r["lower_bound"], r["proven_minimum"])
    assert got == (2, 1, False), r
