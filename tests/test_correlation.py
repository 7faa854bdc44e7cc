"""Time series parsing, Pearson and multiple correlation, threshold graphs."""

import csv
import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs import hypergraph
from hyperobs.correlation import (
    TimeSeriesMatrix,
    _body_values,
    hypergraph_from_table,
    hypergraph_from_timeseries,
    multicorrelation_table,
    pairwise_graph_from_timeseries,
    pearson,
    read_timeseries_csv,
    table_slots,
    write_timeseries_csv,
)
from hyperobs.dynamics import MAX_DENSE_SLOTS
from hyperobs.errors import ResourceLimitError

from oracles import pearson_dot, read_timeseries_csv_per_cell


def _series(arr, labels=None):
    arr = np.asarray(arr, dtype=float)
    if labels is None:
        labels = tuple(f"s{i}" for i in range(1, arr.shape[1] + 1))
    return TimeSeriesMatrix(tuple(labels), arr)


def test_matrix_validation():
    with pytest.raises(ValueError):
        _series([[1.0, 2.0]])
    with pytest.raises(ValueError):
        TimeSeriesMatrix(("a",), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TimeSeriesMatrix(("a", "a"), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TimeSeriesMatrix(("a",), np.zeros(3))
    m = _series([[1, 2], [3, 4], [5, 6]])
    assert m.num_samples == 3
    assert m.num_signals == 2
    assert list(m.values[:, 1]) == [2.0, 4.0, 6.0]
    with pytest.raises(IndexError):
        pearson(m, 0, 1)
    with pytest.raises(IndexError):
        pearson(m, 1, 3)


def test_csv_round_trip():
    rng = np.random.default_rng(1)
    m = _series(rng.normal(size=(5, 3)), ("x", "y", "z"))
    text = write_timeseries_csv(m)
    back = read_timeseries_csv(text)
    assert back.labels == m.labels
    # repr round-trips floats exactly
    assert np.array_equal(back.values, m.values)


def test_csv_parse_errors():
    with pytest.raises(ValueError, match="label row"):
        read_timeseries_csv("a,b\n1,2\n")
    with pytest.raises(ValueError, match="line 3"):
        read_timeseries_csv("a,b\n1,2\n1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_timeseries_csv("a,b\nx,2\n3,4\n")
    # float() accepts these; a sample must be finite
    for cell in ("nan", "NaN", "inf", "-Infinity", "1e400"):
        message = f"line 3: non-finite value '{cell}'"
        with pytest.raises(ValueError, match=message):
            read_timeseries_csv(f"a,b\n1,2\n3, {cell}\n")
    # lines are numbered as in the file, blank lines included
    with pytest.raises(ValueError, match="line 4: could not convert string to float: 'x'"):
        read_timeseries_csv("a,b\n\n1,2\nx,3\n")
    with pytest.raises(ValueError, match="line 5: non-finite value 'nan'"):
        read_timeseries_csv("\na,b\n1,2\n\n3,nan\n")


def _read_outcome(reader, text):
    try:
        series = reader(text)
    except ValueError as exc:
        return str(exc)
    # bit for bit, so -0.0 and 0.0 count as different
    return series.labels, series.values.shape, series.values.tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LIMIT = csv.field_size_limit()
# whitespace that float() strips, some of which str.splitlines splits at
_SPACE = st.sampled_from(
    ["", " ", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u3000"]
)
_PLAIN = st.one_of(
    _FINITE.map(repr),
    st.tuples(_SPACE, _FINITE, _SPACE).map(lambda t: f"{t[0]}{t[1]!r}{t[2]}"),
)
_CELL = st.one_of(
    _PLAIN,
    st.sampled_from(
        ["1_000", " 2_5 ", "\uff11\uff12", "nan", "inf", "-inf", "1e400",
         "abc", "", "1\0", "0x10", "#", "#1", "\x1c1", "2\x1f", '"3"',
         '"4,5"', '"6\n7"', '"8\r\n9"', '" 1 "', '"',
         " " * _LIMIT + "1", " " * (_LIMIT // 2) + "2"]
    ),
)
_LABELS = st.sampled_from(
    ["a,b,c", '"a","b","c"', '"a,1",b,c', '"a\nx",b," c "', " a , b ,c"]
)
# lines csv reads as rows that are not blank
_ODD_LINE = st.sampled_from([" ", "\t", "\x0b", ",", ",,", ",,,"])
_LINE_END = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def _odd_csv(draw):
    """Blank lines, then three labels, then rows of three ordinary or odd
    cells (now and then one cell short), with blank, whitespace-only and
    comma-only lines mixed in, and mixed line ends.

    One example in two is plain: ordinary cells, full rows and few odd
    lines; and one in two has only "\\n" line ends, so the C reader's
    path is taken often."""
    plain = draw(st.booleans())
    if plain:
        cell, width = _PLAIN, st.just(3)
        gap = st.sampled_from([""] * 6 + [" ", ","])
    else:
        cell, width = _CELL, st.sampled_from([3, 3, 3, 3, 2])
        gap = st.just("") | _ODD_LINE
    end = st.just("\n") if draw(st.booleans()) else _LINE_END
    text = "".join(draw(end) for _ in range(draw(st.integers(0, 2))))
    text += draw(_LABELS)
    for _ in range(draw(st.integers(0, 6))):
        for _ in range(draw(st.integers(0, 2))):
            text += draw(end) + draw(gap)
        cells = draw(st.lists(cell, min_size=3, max_size=3))
        text += draw(end) + ",".join(cells[: draw(width)])
    return text + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


@given(text=_odd_csv())
@settings(max_examples=400, deadline=None)
def test_csv_conversion_matches_the_per_cell_reader(text):
    # the same values bit for bit, or the same message, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read_outcome(read_timeseries_csv, text)
    assert got == _read_outcome(read_timeseries_csv_per_cell, text)


def test_plain_bodies_skip_the_csv_scan(monkeypatch):
    """The C reader converts a plain body, and the csv scan takes every
    body it could read differently."""
    scanned = []

    def scan(body, width):
        scanned.append(len(body))
        return _body_values(body, width)

    monkeypatch.setattr("hyperobs.correlation._body_values", scan)
    plain = "a,b\n1,2\n\n 3e-1 ,-4\n"
    series = read_timeseries_csv(plain)
    assert scanned == []
    assert series.values.tolist() == [[1.0, 2.0], [0.3, -4.0]]
    # quoted labels after blank lines; the body starts after them
    quoted = '\n\n"a,1","b"\n1,2\n3,4'
    assert read_timeseries_csv(quoted).labels == ("a,1", "b")
    assert scanned == []
    long_line = " " * (_LIMIT // 2) + "1," + " " * (_LIMIT // 2) + "2"
    for text in [
        'a,b\n1,2\n"3",4\n',  # a quote in the body
        "a,b\r\n1,2\r\n3,4\r\n",  # a carriage return
        "a,b\n1,2\n3,4\0\n",  # a NUL
        "a,b\n1,2\n3,\x1c4\n",  # only the C reader strips \x1c
        f"a,b\n1,2\n{long_line}\n",  # a line past csv's field limit
        "a,b\n1,2\n3,4\n \n",  # a whitespace-only line
        "a,b\n1,2\n3,1_0\n",  # only float() reads underscores
        "a,b\n1,2\n3,nan\n",  # non-finite
        "a,b,c\n1,2\n3,4\n",  # narrower than the labels
    ]:
        scanned.clear()
        _read_outcome(read_timeseries_csv, text)
        assert len(scanned) == 1, repr(text)
    # one body row is refused before either reader converts it
    scanned.clear()
    with pytest.raises(ValueError, match="at least two data rows"):
        read_timeseries_csv("a,b\n1,2\n")
    assert scanned == []


def test_pearson_frozen_and_oracle():
    m = _series([[1, 2], [2, 4], [3, 6], [4, 8]])
    assert pearson(m, 1, 2) == pytest.approx(1.0)
    m2 = _series([[1, 4], [2, 3], [3, 2], [4, 1]])
    assert pearson(m2, 1, 2) == pytest.approx(-1.0)
    rng = np.random.default_rng(7)
    data = rng.normal(size=(40, 4))
    m3 = _series(data)
    ref = np.corrcoef(data, rowvar=False)
    for i in range(1, 5):
        for j in range(1, 5):
            assert pearson(m3, i, j) == pytest.approx(ref[i - 1][j - 1])


def test_pearson_matches_the_dot_of_standardized_columns():
    rng = np.random.default_rng(11)
    for samples in (40, 600, 10000):
        data = rng.normal(size=(samples, 5))
        # squares that overflow and that underflow: both columns are rescaled
        data[:, 1] *= 1.7e308 / np.abs(data[:, 1]).max()
        data[:, 2] *= 1e-170
        data[:, 4] = data[:, 0] + 0.1 * data[:, 3]
        m = _series(data)
        for i in range(1, 6):
            for j in range(1, 6):
                assert abs(pearson(m, i, j) - pearson_dot(m, i, j)) <= 1e-15
    with pytest.raises(IndexError, match="signal index 6 outside 1..5"):
        pearson(m, 1, 6)
    with pytest.raises(IndexError, match="signal index 0 outside 1..5"):
        pearson(m, 0, 1)


def test_pearson_constant_column():
    m = _series([[1, 5], [2, 5], [3, 5]])
    with pytest.raises(ValueError, match="column 2"):
        pearson(m, 1, 2)
    # of several constant columns, the first in index order is named
    m = _series([[1, 5, 7, 1], [2, 5, 7, 0], [3, 5, 7, 1]])
    with pytest.raises(ValueError, match=r"signal 's2' \(column 2\) is constant"):
        multicorrelation_table(m)


def test_multicorrelation_against_determinant():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 5))
    m = _series(data)
    R = np.corrcoef(data, rowvar=False)
    triples, rho = multicorrelation_table(m)
    assert triples.tolist() == [list(t) for t in combinations(range(1, 6), 3)]
    for triple, value in zip(triples, rho):
        idx = triple - 1
        det = np.linalg.det(R[np.ix_(idx, idx)])
        expected = math.sqrt(min(max(1.0 - det, 0.0), 1.0))
        assert value == pytest.approx(expected, abs=1e-12)


def test_triples_are_every_combination_in_order():
    rng = np.random.default_rng(5)
    for n in range(3, 61):
        triples, rho = multicorrelation_table(_series(rng.normal(size=(3, n))))
        assert triples.dtype == np.int64
        assert triples.shape == (math.comb(n, 3), 3)
        assert rho.shape == (math.comb(n, 3),)
        assert triples.tolist() == [
            list(t) for t in combinations(range(1, n + 1), 3)
        ]


def test_multicorrelation_matches_the_scalar_formula():
    # bit for bit, on data where numpy's ** 2 (a multiply) and the C
    # library's pow round some squares apart
    data = np.random.default_rng(0).normal(size=(60, 20))
    m = _series(data)
    triples, rho = multicorrelation_table(m)
    for triple, value in zip(triples.tolist(), rho.tolist()):
        r_ab, r_ac, r_bc = (pearson(m, i, j) for i, j in combinations(triple, 2))
        det = 1.0 + 2.0 * r_ab * r_ac * r_bc - r_ab**2 - r_ac**2 - r_bc**2
        assert value == math.sqrt(min(max(1.0 - det, 0.0), 1.0))


def test_table_slot_count_at_the_cap(monkeypatch):
    # a table that needs the cap is built, one slot less is refused
    series = _series(np.random.default_rng(6).normal(size=(3, 10)))
    slots = table_slots(10)
    assert slots == 9 * 120 + 2 * 11**2 + 4 * 45
    monkeypatch.setattr("hyperobs.correlation.MAX_DENSE_SLOTS", slots)
    assert len(multicorrelation_table(series)[1]) == 120
    monkeypatch.setattr("hyperobs.correlation.MAX_DENSE_SLOTS", slots - 1)
    message = f"120 triples of 10 signals need {slots} slots"
    with pytest.raises(ResourceLimitError, match=message):
        multicorrelation_table(series)


def test_table_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    # 405 signals fit under the cap of 10**8 slots and 406 do not; no
    # Pearson value is read for the refused table
    assert table_slots(405) <= MAX_DENSE_SLOTS < table_slots(406)

    def unread(*args):
        raise AssertionError("pearson called")

    monkeypatch.setattr("hyperobs.correlation.pearson", unread)
    series = _series(np.random.default_rng(7).normal(size=(3, 406)))
    message = f"{math.comb(406, 3)} triples of 406 signals"
    with pytest.raises(ResourceLimitError, match=message):
        multicorrelation_table(series)
    assert "pearson_matrix" not in vars(series)


def test_table_slot_count_bounds_the_traced_peak():
    series = _series(np.random.default_rng(8).normal(size=(50, 120)))
    series.pearson_matrix
    tracemalloc.start()
    try:
        multicorrelation_table(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # within 2% here; numpy versions that reuse temporaries peak lower
    assert 0.75 * peak <= 8 * table_slots(120) <= 1.25 * peak


def test_kept_triples_past_the_edge_cap_are_refused(monkeypatch):
    # four signals in one line make all four triples rho = 1: a cap of four
    # edges keeps them, a cap of three refuses them before any edge is built
    t = np.arange(5.0)
    series = _series(np.column_stack([t, 2 * t, -t, 3 * t + 1]))
    table = multicorrelation_table(series)
    monkeypatch.setattr(hypergraph, "MAX_EDGES", 4)
    assert hypergraph_from_table(4, table, 0.95).num_edges == 4

    def unbuilt(*args):
        raise AssertionError("hypergraph built")

    monkeypatch.setattr(hypergraph, "MAX_EDGES", 3)
    monkeypatch.setattr("hyperobs.correlation.UniformHypergraph", unbuilt)
    message = "4 of 4 triples of 4 signals lie above threshold 0.95, cap is 3"
    with pytest.raises(ResourceLimitError, match=message):
        hypergraph_from_table(4, table, 0.95)
    # a threshold that keeps fewer passes the same cap
    monkeypatch.undo()
    monkeypatch.setattr(hypergraph, "MAX_EDGES", 0)
    assert hypergraph_from_table(4, table, 1.0).num_edges == 0


def test_multicorrelation_validation():
    small = _series(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ValueError):
        multicorrelation_table(small)


def test_exact_linear_combination_saturates():
    rng = np.random.default_rng(12)
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    z = (x + y) / math.sqrt(2.0)
    m = _series(np.column_stack([x, y, z]))
    triples, (rho,) = multicorrelation_table(m)
    assert triples.tolist() == [[1, 2, 3]]
    assert rho == pytest.approx(1.0, abs=1e-7)
    # strict comparison: threshold 1.0 admits nothing
    assert hypergraph_from_timeseries(m, threshold=1.0).num_edges == 0
    assert hypergraph_from_timeseries(m, threshold=0.95).edges == ((1, 2, 3),)


def test_multicorrelation_affine_invariance():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(50, 3))
    m = _series(data)
    scaled = _series(data * np.array([3.0, -0.5, 10.0]) + 7.0)
    _, (rho,) = multicorrelation_table(m)
    _, (moved,) = multicorrelation_table(scaled)
    assert moved == pytest.approx(rho, abs=1e-12)


def test_threshold_graphs():
    rng = np.random.default_rng(4)
    x = rng.normal(size=100)
    y = rng.normal(size=100)
    z = (x - y) / math.sqrt(2.0)
    noise = rng.normal(size=(100, 2))
    m = _series(np.column_stack([x, y, z, noise]))
    g = hypergraph_from_timeseries(m, threshold=0.95)
    assert g.n == 5
    assert g.k == 3
    assert g.edges == ((1, 2, 3),)
    # columns 4 and 5 stay as isolated nodes
    assert [4] in g.connected_components()
    with pytest.raises(ValueError):
        hypergraph_from_timeseries(m, threshold=1.5)


def test_pairwise_graph():
    t = np.linspace(0.0, 1.0, 30)
    a = t
    b = 2.0 * t + 1.0
    c = -t
    rng = np.random.default_rng(8)
    d = rng.normal(size=30)
    m = _series(np.column_stack([a, b, c, d]))
    g = pairwise_graph_from_timeseries(m, threshold=0.95)
    assert g.k == 2
    # negative correlation counts through the absolute value
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        pairwise_graph_from_timeseries(m, threshold=-0.1)
    lone = _series(np.random.default_rng(2).normal(size=(10, 1)))
    with pytest.raises(ValueError):
        pairwise_graph_from_timeseries(lone)
