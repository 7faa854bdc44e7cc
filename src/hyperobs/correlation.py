"""Building hypergraphs from multivariate time series.

A triple of signals is linked when its multiple-correlation coefficient
rho = sqrt(1 - det R) exceeds a threshold, R being the 3x3 matrix of
pairwise Pearson correlations. rho is 0 for jointly uncorrelated signals
and 1 when one signal is a linear combination of the other two, which is
what makes it a three-way redundancy measure rather than a pairwise one.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .hypergraph import UniformHypergraph


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """Samples by signals, with one label per signal column.

    Each column's standardized form is built once, on first use, and kept.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    _standardized: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"expected a 2d array, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ValueError("need at least two samples per signal")
        if len(self.labels) != v.shape[1]:
            raise ValueError(
                f"{len(self.labels)} labels for {v.shape[1]} columns"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("signal labels must be distinct")
        object.__setattr__(self, "values", v)

    @property
    def num_signals(self) -> int:
        return self.values.shape[1]

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    def column(self, index: int) -> np.ndarray:
        if not 1 <= index <= self.num_signals:
            raise IndexError(
                f"signal index {index} outside 1..{self.num_signals}"
            )
        return self.values[:, index - 1]

    def standardized(self, index: int) -> np.ndarray:
        """Column ``index`` (1-based) at zero mean and unit sample standard
        deviation, as a contiguous 1-D array."""
        cached = self._standardized.get(index)
        if cached is None:
            col = self.column(index)
            sd = col.std(ddof=1)
            if sd == 0.0:
                raise ValueError(
                    f"signal {self.labels[index - 1]!r} (column {index}) is "
                    "constant, correlation undefined"
                )
            cached = (col - col.mean()) / sd
            self._standardized[index] = cached
        return cached


def read_timeseries_csv(text: str) -> TimeSeriesMatrix:
    """Parse a CSV whose first row holds labels and whose body is numeric.

    Every sample must be a finite float: nan, inf and overflowing values
    such as 1e400 are refused with their line.
    """
    reader = csv.reader(io.StringIO(text))
    # (line, row) with the line as the file counts it, blank lines included
    rows = [(reader.line_num, row) for row in reader if row]
    if len(rows) < 3:
        raise ValueError("CSV needs a label row and at least two data rows")
    labels = tuple(cell.strip() for cell in rows[0][1])
    data = []
    for lineno, row in rows[1:]:
        if len(row) != len(labels):
            raise ValueError(
                f"line {lineno}: {len(row)} cells, expected {len(labels)}"
            )
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    values = np.array(data, dtype=float)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        lineno, row = rows[r + 1]
        raise ValueError(f"line {lineno}: non-finite value {row[c].strip()!r}")
    return TimeSeriesMatrix(labels, values)


def write_timeseries_csv(series: TimeSeriesMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(series.labels)
    # repr of a Python float round-trips exactly; numpy scalars do not
    writer.writerows(
        [repr(float(v)) for v in row] for row in series.values
    )
    return out.getvalue()


def pearson(series: TimeSeriesMatrix, i: int, j: int) -> float:
    """Pearson correlation of two signal columns (1-based)."""
    a = series.standardized(i)
    b = series.standardized(j)
    return float(a @ b) / (series.num_samples - 1)


@dataclass(frozen=True)
class CorrelationTriple:
    """A sorted signal triple paired with its multi-correlation rho."""

    indices: tuple[int, int, int]
    rho: float

    def __post_init__(self) -> None:
        if list(self.indices) != sorted(self.indices):
            raise ValueError(f"indices must be sorted, got {self.indices}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")


def multicorrelation_table(
    series: TimeSeriesMatrix,
) -> list[CorrelationTriple]:
    """rho = sqrt(1 - det R) for every signal triple, in lexicographic
    index order, R being the triple's 3x3 Pearson matrix.

    Each pair's Pearson value is computed once and shared by every triple
    that holds the pair. The determinant of a correlation matrix sits in
    [0, 1]; rounding can push it a hair outside, so the result is clamped
    before the root.
    """
    if series.num_signals < 3:
        raise ValueError(
            f"need at least 3 signals, got {series.num_signals}"
        )
    signals = range(1, series.num_signals + 1)
    r = {(i, j): pearson(series, i, j) for i, j in combinations(signals, 2)}
    table = []
    for a, b, c in combinations(signals, 3):
        r_ab, r_ac, r_bc = r[a, b], r[a, c], r[b, c]
        det = 1.0 + 2.0 * r_ab * r_ac * r_bc - r_ab**2 - r_ac**2 - r_bc**2
        rho = math.sqrt(min(max(1.0 - det, 0.0), 1.0))
        table.append(CorrelationTriple((a, b, c), rho))
    return table


def hypergraph_from_table(
    num_signals: int, table: Sequence[CorrelationTriple], threshold: float
) -> UniformHypergraph:
    """3-uniform hypergraph on the signals, linking every triple of the
    table whose rho is strictly above the threshold. Signals that land in
    no triple stay as isolated nodes."""
    check_threshold(threshold)
    edges = [t.indices for t in table if t.rho > threshold]
    return UniformHypergraph(num_signals, 3, edges)


def hypergraph_from_timeseries(
    series: TimeSeriesMatrix, threshold: float = 0.95
) -> UniformHypergraph:
    """``hypergraph_from_table`` over the full multi-correlation table."""
    check_threshold(threshold)
    return hypergraph_from_table(
        series.num_signals, multicorrelation_table(series), threshold
    )


def pairwise_graph_from_timeseries(
    series: TimeSeriesMatrix, threshold: float = 0.95
) -> UniformHypergraph:
    """2-uniform counterpart: edges where |Pearson| strictly exceeds the
    threshold. Used to compare against the triple-based construction."""
    check_threshold(threshold)
    if series.num_signals < 2:
        raise ValueError("need at least 2 signals")
    edges = [
        (i, j)
        for i, j in combinations(range(1, series.num_signals + 1), 2)
        if abs(pearson(series, i, j)) > threshold
    ]
    return UniformHypergraph(series.num_signals, 2, edges)


def check_threshold(threshold: float) -> None:
    """Reject a threshold outside [0, 1], before any table is built."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
