"""Minimum observable node sizes across the generator families.

Sweeps chain, ring, star and complete hypergraphs over a range of n and k,
runs the greedy selection on each, and prints one table row per instance.
With --brute-force the exhaustive minimum is computed alongside (keep n
small; the subset count explodes).

Usage:
    python3 scripts/mon_topologies.py --n-max 7
    python3 scripts/mon_topologies.py --families star,ring --brute-force
"""

from __future__ import annotations

import argparse
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
        header += f" {'exact':>6} {'match':>6}"
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
                    exact = brute_force_mon(g, cfg)
                    match = exact.size == res.size
                    disagreements += not match
                    row += f" {exact.size:>6} {str(match).lower():>6}"
                picks = ",".join(str(s) for s in res.selected)
                row += f" {picks:<18} {elapsed:>7.3f}"
                print(row)

    if args.brute_force and disagreements:
        print(f"\n{disagreements} instance(s) where greedy is not minimum")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
