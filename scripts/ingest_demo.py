"""Hypergraph inference from synthetic time series, end to end.

Generates a multivariate series with planted three-way linear dependences
(each planted group is two independent signals plus their normalized sum),
adds pure-noise signals, pushes everything through the CSV ingestion path,
and compares what the triple-correlation threshold recovers against a plain
pairwise-correlation graph. The point of the exercise: the planted triples
have multi-correlation 1 but no pairwise correlation strong enough to
survive the same threshold, so the hypergraph needs far fewer measured
nodes than the pairwise graph (where everything ends up isolated).

Usage:
    python3 scripts/ingest_demo.py
    python3 scripts/ingest_demo.py --groups 4 --noise-signals 3 --keep-csv out.csv
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from hyperobs import (
    TimeSeriesMatrix,
    hypergraph_from_timeseries,
    minimum_observable_nodes,
    multicorrelation_table,
    pairwise_graph_from_timeseries,
    read_timeseries_csv,
    write_timeseries_csv,
)


def planted_series(
    groups: int, noise: int, samples: int, seed: int
) -> tuple[TimeSeriesMatrix, list[tuple[int, int, int]]]:
    rng = np.random.default_rng(seed)
    cols = []
    planted = []
    for _ in range(groups):
        a = rng.normal(size=samples)
        b = rng.normal(size=samples)
        base = len(cols)
        cols.extend([a, b, (a + b) / math.sqrt(2.0)])
        planted.append((base + 1, base + 2, base + 3))
    for _ in range(noise):
        cols.append(rng.normal(size=samples))
    labels = tuple(f"s{j:02d}" for j in range(1, len(cols) + 1))
    return TimeSeriesMatrix(labels, np.column_stack(cols)), planted


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", type=int, default=3)
    ap.add_argument("--noise-signals", type=int, default=6)
    ap.add_argument("--samples", type=int, default=600)
    ap.add_argument("--threshold", type=float, default=0.95)
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--keep-csv", help="also write the generated CSV here")
    args = ap.parse_args(argv)

    series, planted = planted_series(
        args.groups, args.noise_signals, args.samples, args.seed
    )
    text = write_timeseries_csv(series)
    if args.keep_csv:
        with open(args.keep_csv, "w") as fh:
            fh.write(text)
    # round-trip through the CSV layer, same as the CLI would
    series = read_timeseries_csv(text)

    triples, rho = multicorrelation_table(series)
    ranked = np.argsort(-rho, kind="stable")
    print(f"{series.num_signals} signals, {len(triples)} triples evaluated")
    print("top triples by multi-correlation:")
    for row in ranked[: args.groups + 2]:
        indices = tuple(triples[row].tolist())
        mark = " (planted)" if indices in planted else ""
        print(f"  {indices}: rho = {rho[row]:.4f}{mark}")

    g = hypergraph_from_timeseries(series, args.threshold)
    pair = pairwise_graph_from_timeseries(series, args.threshold)
    recovered = set(g.edges) == set(planted)
    print(f"\nthreshold {args.threshold}: {g.num_edges} hyperedges kept")
    print(f"planted triples recovered exactly: {recovered}")
    print(f"pairwise graph at the same threshold: {pair.num_edges} edges")

    hyper_mon = minimum_observable_nodes(g)
    pair_mon = minimum_observable_nodes(pair)
    print(
        f"\nminimum observable nodes, hypergraph:     "
        f"{hyper_mon.size:>3}  {hyper_mon.selected}"
    )
    print(
        f"minimum observable nodes, pairwise graph: "
        f"{pair_mon.size:>3}"
    )
    saved = pair_mon.size - hyper_mon.size
    print(f"measurements saved by the triple structure: {saved}")
    return 0 if recovered else 1


if __name__ == "__main__":
    sys.exit(main())
