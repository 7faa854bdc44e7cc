"""Independent checks of the derivative kernel, over plain Python numbers,
and the plain forms of the MON searches.

``hyperobs.dynamics.lie_derivatives`` computes the chain J_0 = x,
J_1 = f(x), ... and its Jacobians mod P only. The two oracles here compute
the same J_p with plain ``+`` and ``*`` on whatever numbers they are given:
``Fraction`` for exact values, ``float`` for finite differences, and
``Dual`` for exact or float gradients. They share no code and no input with
the kernel: the column table of the unfolding is built here from the
hyperedges, not from the kernel's incidence array. Exact values are compared
with the kernel's residues through ``residue``.

* ``lie_derivative_recursive``: the factor-list recursion. Keeps a list of
  n-vectors, repeatedly contracts a window of k-1 of them through A, and
  sums over window positions. Materializes Kronecker products of at most
  k-1 vectors (n**(k-1) entries), never a full power of the state.
* ``lie_derivative_naive_scaled``: the spelled-out operator product
  A B_2 ... B_p x^[m], where each B_q is a sum of I x ... x A x ... x I
  factors, over the integers with A scaled by (k-1)!. Exponentially large;
  its (values, scale) result serves both the rational and the mod-P
  comparisons.

``bareiss_rank`` gives exact ranks over the rationals.

``read_timeseries_csv_per_cell`` converts a CSV body one cell at a time
with ``float()``, and ``pearson_dot`` is the 1-D dot of two standardized
columns; ``hyperobs.correlation`` converts the body with numpy's C text
reader and reads Pearson values from one matrix product.

``eager_greedy`` and ``naive_brute_force`` are the MON searches with no
early stop: greedy scores every candidate at every trial point, evaluated up
front, and brute force ranks the raw blocks of each subset at every trial,
from size 1 up, under its own subset cap.
Both stack every level up to the oracle's depth cap at the oracle's own
points (``full_depth_blocks``), so they do not share the chain's stop rule.
``hyperobs.mon`` must return the same results. ``all_trials_rank`` is
``NomOracle.rank`` the same way, with no stop at the twin ceiling, and
``twin_ceiling`` that ceiling from twin classes found here.

``canonical_edges``, ``edge_degrees``, ``edge_incidence`` and
``edge_twin_classes`` build a hypergraph's structure one edge at a time in
Python, and ``cells_and_sets`` the Jacobian cells and leave-one-out sets
over a given incidence; ``hyperobs.hypergraph`` builds the same from one
edge array with numpy.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, lcm
from typing import Any, Sequence

import numpy as np

from hyperobs.correlation import TimeSeriesMatrix
from hyperobs.dynamics import MAX_DENSE_SLOTS, DynamicsSpec
from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import UniformHypergraph
from hyperobs.linalg import Echelon, modp_rank
from hyperobs.mon import MonResult
from hyperobs.observability import NomOracle, RankConfig, node_blocks
from hyperobs.scalars import PRIME, derive_seed

DEFAULT_RECURSION_BUDGET = 500_000

_INT64_SAFE = 1 << 62


def residue(q: int | Fraction) -> int:
    """The image of an integer or a rational in F_P: the numerator times the
    inverse of the denominator, mod P."""
    q = Fraction(q)
    if q.denominator % PRIME == 0:
        raise ZeroDivisionError(f"{q} has no residue mod P")
    return q.numerator * pow(q.denominator, -1, PRIME) % PRIME


class Dual:
    """a + sum_j eps_j e_j with every e_i e_j = 0, over any Python numbers.

    Multiplication applies the product rule to every partial at once, and a
    plain number acts as a constant. Evaluating a polynomial at the seeded
    variables x_j = (a_j, e_j) therefore yields its value and its whole
    gradient in one pass.
    """

    __slots__ = ("value", "eps")

    def __init__(self, value: Any, eps: Any):
        self.value = value
        self.eps = tuple(eps)

    @classmethod
    def variable(cls, value: Any, j: int, n: int) -> Dual:
        """value as coordinate j (0-based) of an n-point: eps is e_j."""
        return cls(value, [int(i == j) for i in range(n)])

    def __add__(self, other: Any) -> Dual:
        if isinstance(other, Dual):
            return Dual(
                self.value + other.value,
                [a + b for a, b in zip(self.eps, other.eps)],
            )
        return Dual(self.value + other, self.eps)

    __radd__ = __add__

    def __mul__(self, other: Any) -> Dual:
        if isinstance(other, Dual):
            a, b = self.value, other.value
            return Dual(
                a * b, [a * db + da * b for da, db in zip(self.eps, other.eps)]
            )
        return Dual(self.value * other, [d * other for d in self.eps])

    __rmul__ = __mul__


def columns(dyn: DynamicsSpec) -> list[list[int]]:
    """The adjacency unfolding A, row by row, as its nonzero columns.

    Entry i - 1 holds the sorted 0-based column of every ordering
    (j_1, ..., j_{k-1}) of every hyperedge remainder through node i,
    flattened with the first factor most significant:
    sum_t (j_t - 1) n**(k-1-t), the digit order of the Kronecker product and
    of numpy's row-major reshapes. Each listed entry of A is 1 / (k-1)!,
    and every other entry is zero. Callers build vectors of n**(k-1) slots
    against it, so more than MAX_DENSE_SLOTS columns is refused.
    """
    n, k = dyn.n, dyn.k
    if n ** (k - 1) > MAX_DENSE_SLOTS:
        raise ResourceLimitError(
            f"unfolding has n^(k-1) = {n ** (k - 1)} columns, "
            f"cap is {MAX_DENSE_SLOTS}"
        )
    rows: list[list[int]] = [[] for _ in range(n)]
    for e in dyn.graph.edges:
        for i in e:
            for order in permutations(j for j in e if j != i):
                col = 0
                for j in order:
                    col = col * n + j - 1
                rows[i - 1].append(col)
    return [sorted(cols) for cols in rows]


@dataclass
class RecursionStats:
    """Instrumentation for the factor-list recursion."""

    calls: int = 0
    max_kron_len: int = 0


def _kron(vectors: Sequence[Sequence[Any]], stats: RecursionStats) -> list[Any]:
    out = list(vectors[0])
    stats.max_kron_len = max(stats.max_kron_len, len(out))
    for v in vectors[1:]:
        out = [a * b for a in out for b in v]
        stats.max_kron_len = max(stats.max_kron_len, len(out))
    return out


def _apply_columns(
    table: list[list[int]], w: Sequence[Any], entry: Fraction
) -> list[Any]:
    """A w: each row sums w over its columns, then scales once by the entry
    of A."""
    zero = 0 * w[0]  # a zero of the entries' own type, Dual included
    return [sum((w[c] for c in cols), zero) * entry for cols in table]


def lie_derivative_recursive(
    dyn: DynamicsSpec,
    p: int,
    x: Sequence[Any],
    stats: RecursionStats | None = None,
    max_calls: int = DEFAULT_RECURSION_BUDGET,
) -> list[Any]:
    """J_p by recursion on a list of factor vectors.

    The list starts as p(k-2)+1 copies of x. One step picks each window of
    k-1 adjacent factors, contracts it through A into a single n-vector,
    and recurses with the shortened list; the results over all windows sum.
    The branch count grows factorially in p, so a call budget guards the
    recursion.
    """
    if p < 0:
        raise ValueError(f"derivative order must be nonnegative, got {p}")
    if len(x) != dyn.n:
        raise ValueError(f"point has {len(x)} coordinates for {dyn.n} nodes")
    if stats is None:
        stats = RecursionStats()
    if p == 0:
        return list(x)
    table = columns(dyn)
    entry = Fraction(1, factorial(dyn.k - 1))
    start = [list(x)] * (p * (dyn.k - 2) + 1)
    return _recurse_factors(dyn.k, table, entry, p, start, stats, max_calls)


def _recurse_factors(
    k: int,
    table: list[list[int]],
    entry: Fraction,
    p: int,
    factors: list[Sequence[Any]],
    stats: RecursionStats,
    max_calls: int,
) -> list[Any]:
    stats.calls += 1
    if stats.calls > max_calls:
        raise ResourceLimitError(
            f"factor-list recursion exceeded its call budget "
            f"({stats.calls} > {max_calls})"
        )
    if p == 1:
        return _apply_columns(table, _kron(factors, stats), entry)
    windows = (p - 1) * (k - 2) + 1
    out = None
    for i in range(windows):
        merged = _apply_columns(table, _kron(factors[i : i + k - 1], stats), entry)
        shorter = factors[:i] + [merged] + factors[i + k - 1 :]
        sub = _recurse_factors(k, table, entry, p - 1, shorter, stats, max_calls)
        out = sub if out is None else [a + b for a, b in zip(out, sub)]
    return out


def lie_derivative_naive_scaled(
    dyn: DynamicsSpec,
    p: int,
    x: Sequence[int],
    max_slots: int = MAX_DENSE_SLOTS,
) -> tuple[list[int], int]:
    """Integer form of the operator-product evaluation.

    Works over Z with the unfolding scaled by (k-1)!, so that every listed
    entry is 1; returns (values, scale) with J_p = values / scale and
    scale = ((k-1)!)**p. Vectorized with int64 when a priori bounds permit,
    otherwise with exact object arrays. Coordinates must be integers.
    """
    if any(not isinstance(v, int) for v in x):
        raise ValueError("integer evaluation needs integer coordinates")
    if p < 0:
        raise ValueError(f"derivative order must be nonnegative, got {p}")
    n, k = dyn.n, dyn.k
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates for {n} nodes")
    if p == 0:
        return [int(v) for v in x], 1
    m = p * (k - 2) + 1
    if n**m > max_slots:
        raise ResourceLimitError(
            f"naive evaluation needs {n}**{m} = {n**m} slots (cap {max_slots})"
        )
    cols_by_row = columns(dyn)
    max_mult = max((len(c) for c in cols_by_row), default=0)

    # A priori magnitude bound, stage by stage, to pick a safe dtype.
    bound = max((abs(int(v)) for v in x), default=1) ** m
    for q in range(p, 1, -1):
        bound *= ((q - 1) * (k - 2) + 1) * max(max_mult, 1)
    bound *= max(max_mult, 1)
    dtype: Any = np.int64 if bound < _INT64_SAFE else object

    xv = np.asarray([int(v) for v in x], dtype=dtype)
    w = xv
    for _ in range(m - 1):
        w = (w[:, None] * xv[None, :]).reshape(-1)
    for q in range(p, 1, -1):
        width = (q - 1) * (k - 2) + 1
        out = np.zeros(n**width, dtype=dtype)
        for slot in range(width):
            lhs = n**slot
            rhs = n ** (width - 1 - slot)
            w3 = w.reshape(lhs, n ** (k - 1), rhs)
            out3 = out.reshape(lhs, n, rhs)
            for row in range(n):
                cols = cols_by_row[row]
                if len(cols):
                    out3[:, row, :] += w3[:, cols, :].sum(axis=1)
        w = out
    final = []
    for row in range(n):
        cols = cols_by_row[row]
        total = int(w[cols].sum()) if len(cols) else 0
        final.append(total)
    return final, factorial(k - 1) ** p


def _integer_rows(rows: Sequence[Sequence[int | Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators. Rank is unchanged."""
    out = []
    for row in rows:
        scale = lcm(
            *(v.denominator for v in row if isinstance(v, Fraction)), 1
        )
        out.append([int(v * scale) for v in row])
    return out


def bareiss_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of an integer or rational matrix by fraction-free elimination.

    Every intermediate value is an integer (a minor of the scaled matrix);
    the interior division is exact by the Bareiss identity. Pivoting is
    deterministic: first usable row per column.
    """
    mat = _integer_rows(rows)
    if not mat:
        return 0
    nrows = len(mat)
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    prev = 1
    rank = 0
    for col in range(ncols):
        sel = next(
            (r for r in range(rank, nrows) if mat[r][col] != 0), None
        )
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, nrows):
            mrc = mat[r][col]
            row_r = mat[r]
            row_p = mat[rank]
            for c in range(col + 1, ncols):
                num = pivot * row_r[c] - mrc * row_p[c]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError(
                        "fraction-free elimination produced a remainder"
                    )
                row_r[c] = q
            row_r[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def read_timeseries_csv_per_cell(text: str) -> TimeSeriesMatrix:
    """``read_timeseries_csv`` converting each cell with ``float()`` as it
    goes, and reporting the first failure with its line."""
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


def _standardized(series: TimeSeriesMatrix, index: int) -> np.ndarray:
    """Column ``index`` (1-based) at zero mean and unit sample standard
    deviation, divided first by its largest magnitude when its squares
    over- or underflow."""
    col = series.values[:, series.offset(index)]
    with np.errstate(over="ignore", invalid="ignore"):
        sd = col.std(ddof=1)
    if not 0.0 < sd < np.inf:
        col = col / np.abs(col).max()
        sd = col.std(ddof=1)
    return (col - col.mean()) / sd


def pearson_dot(series: TimeSeriesMatrix, i: int, j: int) -> float:
    """Pearson correlation of two signal columns (1-based), as the 1-D dot
    of their standardized forms over m - 1."""
    a = _standardized(series, i)
    b = _standardized(series, j)
    return float(a @ b) / (series.num_samples - 1)


def block_rows(blocks: np.ndarray, nodes: Sequence[int]) -> list[list[int]]:
    """The rows of the given nodes' blocks, from ``node_blocks``' array, as
    ints."""
    return [row for i in nodes for row in blocks[i - 1].tolist()]


def full_depth_blocks(oracle: NomOracle, trial: int) -> np.ndarray:
    """Every node's block at the oracle's trial point, with every level up
    to its depth cap: ``node_blocks`` without a stop test."""
    return node_blocks(oracle.dyn, oracle.point(trial), oracle.depth)


def eager_greedy(
    g: UniformHypergraph,
    config: RankConfig | None = None,
    tie_break: str = "degree",
) -> MonResult:
    """``mon.greedy_mon`` with every configured trial evaluated up front,
    to the depth cap, and every candidate scored at every trial, at k = 2
    too, where the oracle evaluates one. A tie goes to the node first in the
    tie-break's order: by degree then label, by label, or by a seeded
    shuffle of the labels."""
    oracle = NomOracle(g, config)
    n = g.n
    trials = range(oracle.config.trials)
    echelons = [Echelon(n) for _ in trials]
    evaluations = [full_depth_blocks(oracle, t) for t in trials]
    degrees = g.degrees()
    shuffled = list(range(1, n + 1))
    random.Random(derive_seed(oracle.seed, "tie-break")).shuffle(shuffled)
    key_fn = {
        "degree": lambda s: (-degrees[s], s),
        "index": lambda s: s,
        "random": shuffled.index,
    }[tie_break]
    selected: list[int] = []
    trace: list[int] = []
    remaining = list(range(1, n + 1))
    rank = 0
    while rank < n and remaining:
        scored = []
        for s in remaining:
            reach = max(
                ech.rank + ech.probe(block_rows(ev, [s]))
                for ech, ev in zip(echelons, evaluations)
            )
            scored.append((reach - rank, s))
        best_gain = max(gain for gain, _ in scored)
        if best_gain <= 0:
            break
        pick = min(
            (s for gain, s in scored if gain == best_gain), key=key_fn
        )
        selected.append(pick)
        remaining.remove(pick)
        for ech, ev in zip(echelons, evaluations):
            ech.add_rows(block_rows(ev, [pick]))
        rank = max(ech.rank for ech in echelons)
        trace.append(rank)
    return MonResult(
        selected=tuple(selected), rank_trace=tuple(trace), depth=oracle.depth
    )


NAIVE_SUBSET_CAP = 200_000


def naive_brute_force(
    g: UniformHypergraph,
    config: RankConfig | None = None,
    max_subsets: int = NAIVE_SUBSET_CAP,
) -> MonResult:
    """``mon.brute_force_mon`` ranking each subset's raw blocks at every
    configured trial, all evaluated up front to the depth cap, past
    max_subsets subsets from size 1 up, ResourceLimitError."""
    oracle = NomOracle(g, config)
    n = g.n
    evaluations = [
        full_depth_blocks(oracle, t) for t in range(oracle.config.trials)
    ]
    tried = 0
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            tried += 1
            if tried > max_subsets:
                raise ResourceLimitError(
                    f"exhaustive search exceeded {max_subsets} subsets"
                )
            rank = max(
                modp_rank(block_rows(ev, subset), n) for ev in evaluations
            )
            if rank == n:
                return MonResult(
                    selected=subset, rank_trace=(rank,), depth=oracle.depth
                )
    raise AssertionError("the full node set has rank n at trial 0")


def all_trials_rank(
    g: UniformHypergraph,
    nodes: Sequence[int],
    config: RankConfig | None = None,
) -> int:
    """``NomOracle.rank``: the best rank of the nodes' raw blocks over
    every configured trial, each evaluated to the depth cap."""
    oracle = NomOracle(g, config)
    return max(
        modp_rank(block_rows(full_depth_blocks(oracle, t), nodes), oracle.dyn.n)
        for t in range(oracle.config.trials)
    )


def twin_ceiling(g: UniformHypergraph, nodes: Sequence[int]) -> int:
    """n less, for every class of nodes with equal nonempty neighbourhoods
    (the hyperedges through a node, with the node taken out), one for each
    member past the first that the nodes leave unmeasured."""
    rests: dict[int, set[frozenset[int]]] = {i: set() for i in range(1, g.n + 1)}
    for e in g.edges:
        for i in e:
            rests[i].add(frozenset(e) - {i})
    classes: dict[frozenset[frozenset[int]], int] = {}
    for i, rest in rests.items():
        if rest and i not in nodes:
            classes[frozenset(rest)] = classes.get(frozenset(rest), 0) + 1
    return g.n - sum(m - 1 for m in classes.values())


def canonical_edges(
    edges: Sequence[Sequence[int]], n: int, k: int
) -> tuple[tuple[int, ...], ...]:
    """``UniformHypergraph.edges``, one edge at a time: each sorted, checked
    to be k distinct nodes of 1..n, and the set of them sorted."""
    canon = set()
    for e in edges:
        tup = tuple(sorted(e))
        if len(set(tup)) != k or len(tup) != k:
            raise ValueError(f"edge {tuple(e)} must have {k} distinct nodes")
        if tup[0] < 1 or tup[-1] > n:
            raise ValueError(f"edge {tup} outside node range 1..{n}")
        canon.add(tup)
    return tuple(sorted(canon))


def edge_degrees(g: UniformHypergraph) -> dict[int, int]:
    """``UniformHypergraph.degrees``: one count per node of every edge."""
    out = {i: 0 for i in range(1, g.n + 1)}
    for e in g.edges:
        for i in e:
            out[i] += 1
    return out


def edge_incidence(g: UniformHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """``UniformHypergraph.incidence`` and ``incidence_starts``: each node's
    remainders appended edge by edge, 0-based, then the offsets from the
    degrees."""
    per_node: list[list[list[int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        for i in e:
            per_node[i - 1].append([j - 1 for j in e if j != i])
    rows = [rest for rests in per_node for rest in rests]
    degrees = edge_degrees(g)
    starts = np.cumsum(
        [0] + [degrees[i] for i in range(1, g.n + 1)], dtype=np.intp
    )
    return np.array(rows, dtype=np.intp).reshape(-1, g.k - 1), starts


def edge_twin_classes(g: UniformHypergraph) -> tuple[tuple[int, ...], ...]:
    """``UniformHypergraph.twin_classes``: nodes grouped by their set of
    remainders, in node order, classes of two or more."""
    rests: dict[int, set[tuple[int, ...]]] = {}
    for e in g.edges:
        for p, i in enumerate(e):
            rests.setdefault(i, set()).add(e[:p] + e[p + 1 :])
    groups: dict[frozenset[tuple[int, ...]], list[int]] = {}
    for i in sorted(rests):
        groups.setdefault(frozenset(rests[i]), []).append(i)
    return tuple(tuple(c) for c in groups.values() if len(c) > 1)


def cells_and_sets(
    incidence: np.ndarray, starts: np.ndarray, n: int
) -> tuple[tuple[np.ndarray, ...], tuple[list[Any], np.ndarray] | None]:
    """``DynamicsSpec.jacobian_cells`` and, for k >= 3 (None below),
    ``leave_one_out`` over a given incidence, each leave-one-out set
    sorted on its own."""
    owners = np.repeat(np.arange(n), np.diff(starts))
    cells = (incidence * n + owners[:, None]).ravel()
    order = np.argsort(cells, kind="stable")
    distinct, runs = np.unique(cells[order], return_index=True)
    jacobian = (order, distinct % n, distinct // n, runs)
    m = incidence.shape[1]
    if m < 2:
        return jacobian, None
    sets = np.stack(
        [np.sort(np.delete(incidence, s, 1), 1) for s in range(m)], axis=1
    ).reshape(-1, m - 1)
    columns, count, stages = sets[:, 0], n, []
    for z in range(1, m - 1):
        distinct, inverse = np.unique(
            columns * n + sets[:, z], return_inverse=True
        )
        stages.append((distinct // n, distinct % n))
        columns = count + inverse.ravel()
        count += len(distinct)
    return jacobian, (stages, columns[order])
