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
from dataclasses import dataclass, field
from itertools import combinations

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
            if (col == col[0]).all():
                raise ValueError(
                    f"signal {self.labels[index - 1]!r} (column {index}) is "
                    "constant, correlation undefined"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                sd = col.std(ddof=1)
            # the mean or the squares over- or underflowed; correlation
            # does not depend on scale
            if not 0.0 < sd < np.inf:
                col = col / np.abs(col).max()
                sd = col.std(ddof=1)
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
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
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


def multicorrelation_table(
    series: TimeSeriesMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """rho = sqrt(1 - det R) for every signal triple, R being the triple's
    3x3 Pearson matrix.

    Returns (triples, rho): a (T, 3) array of sorted 1-based index triples
    in lexicographic order, and their rho. Each pair's Pearson value is
    computed once and shared by every triple that holds the pair. The
    determinant of a correlation matrix sits in [0, 1]; rounding can push
    it a hair outside, so the result is clamped before the root.
    """
    if series.num_signals < 3:
        raise ValueError(
            f"need at least 3 signals, got {series.num_signals}"
        )
    signals = range(1, series.num_signals + 1)
    r = np.zeros((series.num_signals + 1,) * 2)
    for i, j in combinations(signals, 2):
        r[i, j] = pearson(series, i, j)
    triples = np.array(list(combinations(signals, 3)), dtype=np.int64)
    a, b, c = triples.T
    r_ab, r_ac, r_bc = r[a, b], r[a, c], r[b, c]
    # squares through the C library's pow, as Python's float ** takes them;
    # numpy's ** 2 multiplies and can round the other way, which would move
    # triples that tie at a threshold or in a ranking by rho
    sq = np.float_power(r, 2.0)
    det = 1.0 + 2.0 * r_ab * r_ac * r_bc - sq[a, b] - sq[a, c] - sq[b, c]
    rho = np.sqrt(np.clip(1.0 - det, 0.0, 1.0))
    return triples, rho


def hypergraph_from_table(
    num_signals: int,
    table: tuple[np.ndarray, np.ndarray],
    threshold: float,
) -> UniformHypergraph:
    """3-uniform hypergraph on the signals, linking every triple of the
    table whose rho is strictly above the threshold. Signals that land in
    no triple stay as isolated nodes."""
    check_threshold(threshold)
    triples, rho = table
    return UniformHypergraph(num_signals, 3, triples[rho > threshold].tolist())


def hypergraph_from_timeseries(
    series: TimeSeriesMatrix, threshold: float = 0.95
) -> UniformHypergraph:
    """``hypergraph_from_table`` over the full multi-correlation table."""
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
