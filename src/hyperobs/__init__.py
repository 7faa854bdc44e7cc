"""Local weak observability of k-uniform hypergraph dynamics.

The package builds polynomial dynamics from a hypergraph, evaluates the
derivative chain and its Jacobians exactly, certifies observability of
measured node sets through probabilistic rank checks over a large prime
field, and selects minimum observable node sets greedily (with an
exhaustive cross-check at small sizes). Hypergraphs come from generator
families, JSON files, or thresholded multiple correlations of time series.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .correlation import (
    TimeSeriesMatrix,
    hypergraph_from_timeseries,
    multicorrelation_table,
    pairwise_graph_from_timeseries,
    read_timeseries_csv,
    write_timeseries_csv,
)
from .dynamics import DynamicsSpec
from .hypergraph import (
    UniformHypergraph,
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
)
from .mon import brute_force_mon, minimum_observable_nodes
from .observability import RankConfig, is_locally_weakly_observable

__all__ = [
    "DynamicsSpec",
    "RankConfig",
    "TimeSeriesMatrix",
    "UniformHypergraph",
    "brute_force_mon",
    "gen_complete",
    "gen_hyperchain",
    "gen_hyperring",
    "gen_hyperstar",
    "hypergraph_from_timeseries",
    "is_locally_weakly_observable",
    "minimum_observable_nodes",
    "multicorrelation_table",
    "pairwise_graph_from_timeseries",
    "read_timeseries_csv",
    "write_timeseries_csv",
]
