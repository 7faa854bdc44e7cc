"""Minimum observable node sizes across the generator families.

Sweeps chain, ring, star and complete hypergraphs over a range of n and k,
runs the greedy selection on each, and prints one table row per instance,
with greedy's time in seconds under secs. With --brute-force the exhaustive
minimum is computed alongside, its time under exact_s. Keep n
small: the search cuts subsets whose twins or node basis ranks rule out
full rank, but on complete n/2, which needs n - 1 nodes, each node's basis
has rank 2 while all but the first add 1 to a span, so the walk still
visits prefixes of up to about n/2 nodes. The sweep to --n-max 14 takes
about 1 s on a 2-core Xeon, to 22 about 20 s.

Usage:
    python3 scripts/mon_topologies.py --n-max 7
    python3 scripts/mon_topologies.py --families star,ring --brute-force

If the reader closes the output early, as ``| head`` does, the script
stops without a traceback and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from hyperobs import RankConfig, brute_force_mon, minimum_observable_nodes
from hyperobs.hypergraph import FAMILIES


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--families", default="chain,ring,star,complete",
        help="comma list from: " + ",".join(sorted(FAMILIES)),
    )
    ap.add_argument("--n-max", type=int, default=7)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument(
        "--brute-force", action="store_true",
        help="also search exhaustively and flag disagreements",
    )
    args = ap.parse_args(argv)

    names = [f.strip() for f in args.families.split(",") if f.strip()]
    for name in names:
        if name not in FAMILIES:
            ap.error(f"unknown family {name!r}")

    cfg = RankConfig(trials=args.trials, seed=args.seed)
    header = f"{'family':<10} {'n':>3} {'k':>3} {'edges':>6} {'mon':>4}"
    if args.brute_force:
        header += f" {'exact':>6} {'match':>6} {'exact_s':>7}"
    header += f" {'selected':<18} {'secs':>7}"
    print(header)
    print("-" * len(header))

    disagreements = 0
    for name in names:
        gen = FAMILIES[name]
        for n in range(2, args.n_max + 1):
            for k in range(2, min(n, args.k_max) + 1):
                g = gen(n, k)
                started = time.perf_counter()
                res = minimum_observable_nodes(g, cfg)
                elapsed = time.perf_counter() - started
                row = (
                    f"{name:<10} {n:>3} {k:>3} {g.num_edges:>6} "
                    f"{res.size:>4}"
                )
                if args.brute_force:
                    started = time.perf_counter()
                    exact = brute_force_mon(g, cfg)
                    exact_s = time.perf_counter() - started
                    match = exact.size == res.size
                    disagreements += not match
                    row += f" {exact.size:>6} {str(match).lower():>6}"
                    row += f" {exact_s:>7.3f}"
                picks = ",".join(str(s) for s in res.selected)
                row += f" {picks:<18} {elapsed:>7.3f}"
                print(row)

    if args.brute_force and disagreements:
        print(f"\n{disagreements} instance(s) where greedy is not minimum")
        return 1
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, as `| head -3` does: stop
        # quietly, with stdout on devnull so that the flush at exit fails
        # no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
