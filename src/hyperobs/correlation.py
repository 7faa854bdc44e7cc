"""Building hypergraphs from multivariate time series.

A triple of signals is linked when its multiple-correlation coefficient
rho = sqrt(1 - det R) exceeds a threshold, R being the 3x3 matrix of
pairwise Pearson correlations. rho is 0 for jointly uncorrelated signals
and 1 when one signal is a linear combination of the other two, which is
what makes it a three-way redundancy measure rather than a pairwise one.

The per-element work runs in numpy: numpy's C text reader converts the
CSV body, each series has one Pearson matrix from one matrix product, and
the triples are built by index arithmetic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from . import hypergraph
from .dynamics import MAX_DENSE_SLOTS
from .errors import ResourceLimitError
from .hypergraph import UniformHypergraph


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """Samples by signals, with one label per signal column.

    The Pearson matrix of every signal pair is built once, on first use,
    and kept.
    """

    labels: tuple[str, ...]
    values: np.ndarray

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

    def offset(self, index: int) -> int:
        """The 0-based position of signal ``index`` (1-based)."""
        if not 1 <= index <= self.num_signals:
            raise IndexError(
                f"signal index {index} outside 1..{self.num_signals}"
            )
        return index - 1

    @cached_property
    def pearson_matrix(self) -> np.ndarray:
        """Pearson correlation of every signal pair, 0-based: Z^T Z / (m - 1),
        Z holding the columns at zero mean and unit sample standard
        deviation. The first constant column, in index order, is refused."""
        v = self.values
        constant = (v == v[0]).all(axis=0)
        if constant.any():
            index = int(constant.argmax()) + 1
            raise ValueError(
                f"signal {self.labels[index - 1]!r} (column {index}) is "
                "constant, correlation undefined"
            )
        # one contiguous row per signal, so each mean and deviation sums
        # the column in the same order as it would alone
        z = v.T.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            sd = z.std(axis=1, ddof=1)
        # the mean or the squares over- or underflowed; correlation does
        # not depend on scale
        for c in np.flatnonzero(~((0.0 < sd) & (sd < np.inf))):
            z[c] /= np.abs(z[c]).max()
            sd[c] = z[c].std(ddof=1)
        z -= z.mean(axis=1, keepdims=True)
        z /= sd[:, None]
        return (z @ z.T) / (self.num_samples - 1)


# csv reads a carriage return as a line end and a quote or NUL by its own
# rules; the C reader strips \x1c-\x1f as whitespace, float() refuses them
_SCAN_ONLY = '\r"\0\x1c\x1d\x1e\x1f'


def read_timeseries_csv(text: str) -> TimeSeriesMatrix:
    """Parse a CSV whose first row holds labels and whose body is numeric.

    Each sample is Python's ``float()`` of its cell and must be finite:
    nan, inf and overflowing values such as 1e400 are refused with their
    line.

    The label row goes through ``csv``. The body goes to numpy's C text
    reader (``_c_reader_values``) unless that reader could disagree with
    ``float()`` or with csv's line and cell rules; then, and to report
    any error with its line, csv scans the body row by row.
    """
    reader = csv.reader(io.StringIO(text))
    # (line, row) with the line as the file counts it, blank lines included
    rows = ((reader.line_num, row) for row in reader if row)
    try:
        head = next(rows, None)
        if head is not None:
            labels = tuple(cell.strip() for cell in head[1])
            values = _c_reader_values(text, reader.line_num, len(labels))
            if values is not None:
                return TimeSeriesMatrix(labels, values)
        body = list(rows)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if head is None or len(body) < 2:
        raise ValueError("CSV needs a label row and at least two data rows")
    values = _body_values(body, len(labels))
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        lineno, row = body[r]
        raise ValueError(f"line {lineno}: non-finite value {row[c].strip()!r}")
    return TimeSeriesMatrix(labels, values)


def _c_reader_values(
    text: str, label_lines: int, width: int
) -> np.ndarray | None:
    """The body after the first label_lines lines from ``np.loadtxt``, as an
    (m, width) float64 array, or None where the C reader could read it
    otherwise than the csv scan.

    For ASCII decimals the C reader gives the correctly rounded value, as
    ``float()`` does; underscores and non-ASCII digits, which only
    ``float()`` accepts, make it raise. Lines are split on "\n" alone, as
    ``io.StringIO`` splits them for the csv scan (``str.splitlines`` also
    splits at \x0b, \x1c and more). None for a character of _SCAN_ONLY in
    the body, a line past csv's field limit, fewer than two rows (so
    loadtxt never warns of empty input), a row count other than the number
    of non-empty lines, a ``ValueError``, rows not width wide, or a
    non-finite value.
    """
    lines = text.split("\n")
    start = sum(map(len, lines[:label_lines])) + label_lines
    if any(text.find(c, start) >= 0 for c in _SCAN_ONLY):
        return None
    body = lines[label_lines:]
    count = len(body) - body.count("")
    if count < 2 or max(map(len, body)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(
            body, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    if values.shape != (count, width) or not np.isfinite(values).all():
        return None
    return values


def _body_values(body: list[tuple[int, list[str]]], width: int) -> np.ndarray:
    """The cells as an (m, width) float64 array, each Python's ``float()``
    of its cell; the first short row or refused cell is reported with its
    line."""
    data = []
    for lineno, row in body:
        if len(row) != width:
            raise ValueError(
                f"line {lineno}: {len(row)} cells, expected {width}"
            )
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return np.array(data, dtype=float)


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
    """Pearson correlation of two signal columns (1-based), read from the
    series' Pearson matrix."""
    return float(series.pearson_matrix[series.offset(i), series.offset(j)])


def multicorrelation_table(
    series: TimeSeriesMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """rho = sqrt(1 - det R) for every signal triple, R being the triple's
    3x3 Pearson matrix.

    Returns (triples, rho): a (T, 3) array of sorted 1-based index triples
    in lexicographic order, and their rho. Each pair's Pearson value is
    read once and shared by every triple that holds the pair. The
    determinant of a correlation matrix sits in [0, 1]; rounding can push
    it a hair outside, so the result is clamped before the root.

    A table of more than MAX_DENSE_SLOTS 8-byte slots at its peak
    (``table_slots``) is refused before any of it is built.
    """
    n = series.num_signals
    if n < 3:
        raise ValueError(f"need at least 3 signals, got {n}")
    needs = table_slots(n)
    if needs > MAX_DENSE_SLOTS:
        raise ResourceLimitError(
            f"{comb(n, 3)} triples of {n} signals need {needs} slots, "
            f"cap is {MAX_DENSE_SLOTS}"
        )
    r = np.zeros((n + 1, n + 1))
    for i, j in combinations(range(1, n + 1), 2):
        r[i, j] = pearson(series, i, j)
    # triples in lexicographic order: each pair (a, b), in the order of
    # triu_indices, once for every c in b+1..n
    pair_a, pair_b = np.triu_indices(n, k=1)
    runs = n - 1 - pair_b
    triples = np.empty((int(runs.sum()), 3), dtype=np.int64)
    a, b, c = triples.T
    a[:] = np.repeat(pair_a + 1, runs)
    b[:] = np.repeat(pair_b + 1, runs)
    # c counts up from b + 1 within each pair's run
    c[:] = np.arange(len(triples))
    c -= np.repeat(np.cumsum(runs) - runs, runs)
    c += b + 1
    r_ab, r_ac, r_bc = r[a, b], r[a, c], r[b, c]
    # squares through the C library's pow, as Python's float ** takes them;
    # numpy's ** 2 multiplies and can round the other way, which would move
    # triples that tie at a threshold or in a ranking by rho
    sq = np.float_power(r, 2.0)
    det = 1.0 + 2.0 * r_ab * r_ac * r_bc - sq[a, b] - sq[a, c] - sq[b, c]
    rho = np.sqrt(np.clip(1.0 - det, 0.0, 1.0))
    return triples, rho


def table_slots(n: int) -> int:
    """8-byte slots ``multicorrelation_table`` holds at its peak for n
    signals: per triple its three indices, its three pair values and the
    determinant, 1 - det and the clamped value, and the (n + 1)^2 pair
    table, its squares, and four slots per pair for the pair indices.
    tracemalloc measures 9.1 slots per triple at n = 200."""
    return 9 * comb(n, 3) + 2 * (n + 1) ** 2 + 4 * comb(n, 2)


def hypergraph_from_table(
    num_signals: int,
    table: tuple[np.ndarray, np.ndarray],
    threshold: float,
) -> UniformHypergraph:
    """3-uniform hypergraph on the signals, linking every triple of the
    table whose rho is strictly above the threshold. Signals that land in
    no triple stay as isolated nodes. More kept triples than
    ``hypergraph.MAX_EDGES`` raise ResourceLimitError before any becomes
    a Python object."""
    check_threshold(threshold)
    triples, rho = table
    keep = rho > threshold
    kept = np.count_nonzero(keep)
    if kept > hypergraph.MAX_EDGES:
        raise ResourceLimitError(
            f"{kept} of {len(rho)} triples of {num_signals} signals lie "
            f"above threshold {threshold}, cap is {hypergraph.MAX_EDGES} "
            "edges"
        )
    return UniformHypergraph(num_signals, 3, triples[keep])


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
