"""Rank routines: the incremental echelon mod P, and the fraction-free
elimination that the tests use as an exact reference."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs.linalg import Echelon, modp_rank
from hyperobs.scalars import PRIME

from oracles import bareiss_rank


def _gauss_rank(rows):
    """Plain Fraction Gaussian elimination, kept independent on purpose."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        piv = mat[rank][col]
        mat[rank] = [v / piv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                coef = mat[r][col]
                mat[r] = [a - coef * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_modp_rank_examples():
    assert modp_rank([[1, 0], [0, 1]], 2) == 2
    assert modp_rank([[1, 2], [2, 4]], 2) == 1
    assert modp_rank([[0, 0], [0, 0]], 2) == 0
    assert modp_rank([], 3) == 0
    # wraparound: P and 0 are the same residue
    assert modp_rank([[PRIME, 0]], 2) == 0
    assert modp_rank([[PRIME + 1, 0]], 2) == 1
    assert bareiss_rank([[2, 0], [0, 1]]) == 2


def test_echelon_probe_matches_add():
    rng = random.Random(3)
    for _ in range(30):
        width = rng.randint(1, 6)
        rows = [
            [rng.randrange(-9, 10) for _ in range(width)]
            for _ in range(rng.randint(1, 8))
        ]
        split = rng.randint(0, len(rows))
        ech = Echelon(width)
        ech.add_rows(rows[:split])
        before = dict(ech.pivots)
        stored = {j: list(row) for j, row in ech.pivots.items()}
        probed = ech.probe(rows[split:])
        # probing commits nothing and changes no stored row
        assert ech.pivots == before
        assert ech.pivots == stored
        gained = ech.add_rows(rows[split:])
        assert probed == gained


def test_echelon_validation():
    ech = Echelon(3)
    with pytest.raises(ValueError):
        ech.add_rows([[1, 2]])
    with pytest.raises(ValueError):
        Echelon(-1)
    assert Echelon(0).rank == 0


def test_rows_past_full_rank_are_only_length_checked(monkeypatch):
    reduced = []
    original = Echelon._reduce

    def counting(self, row, pivots):
        reduced.append(row)
        return original(self, row, pivots)

    monkeypatch.setattr(Echelon, "_reduce", counting)
    rows = [[1, 2, 3], [2, 4, 7], [0, 1, 5], [4, 5, 6], [1, 1, 1]]
    ech = Echelon(3)
    assert ech.add_rows(rows) == Echelon(3).add_rows(rows[:3]) == 3
    # the first three rows reached full rank; the rest were not reduced
    assert len(reduced) == 3 + 3
    assert ech.add_rows([[7, 8, 9]]) == 0
    with pytest.raises(ValueError):
        ech.add_rows([[7, 8]])
    with pytest.raises(ValueError):
        ech.probe([[7, 8, 9, 10]])
    assert modp_rank(rows, 3) == 3

    # probe stops once its own pivots fill the width
    reduced.clear()
    half = Echelon(3)
    half.add_rows(rows[:1])
    assert half.probe(rows[1:]) == 2
    assert len(reduced) == 1 + 2
    assert half.rank == 1


def _plain_fold(pivots, rows, width):
    """Fold rows into pivots by a full-width elimination that reduces
    every entry mod P at every step; how many pivots they added."""
    gained = 0
    for row in rows:
        if len(pivots) == width:
            break
        r = [v % PRIME for v in row]
        for j in range(width):
            if r[j] == 0:
                continue
            if j not in pivots:
                inv = pow(r[j], -1, PRIME)
                pivots[j] = [v * inv % PRIME for v in r]
                gained += 1
                break
            coef = r[j]
            r = [(a - coef * b) % PRIME for a, b in zip(r, pivots[j])]
    return gained


_ENTRIES = st.one_of(
    st.sampled_from([0, 1, -1, PRIME - 1, PRIME, PRIME + 1, -PRIME, 2**64]),
    st.integers(min_value=-3 * PRIME, max_value=3 * PRIME),
)


@st.composite
def _row_batches(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    unit = st.builds(
        lambda j, c: [c if t == j else 0 for t in range(width)],
        st.integers(min_value=0, max_value=width - 1),
        _ENTRIES,
    )
    dense = st.lists(_ENTRIES, min_size=width, max_size=width)
    zero = st.just([0] * width)
    rows = draw(st.lists(st.one_of(unit, dense, zero), max_size=9))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = draw(st.permutations(rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)))
    bounds = [0, *cuts, len(rows)]
    return width, [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@given(_row_batches())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_a_plain_elimination(case):
    # rows of residues past P, negative ints, zero, unit and duplicate
    # rows, folded batch by batch: probe and add_rows give the gains of an
    # elimination that reduces every entry at every step, add_rows stores
    # its pivot rows in the same order, and probe changes nothing
    width, batches = case
    ech, plain = Echelon(width), {}
    for batch in batches:
        rows = [list(row) for row in batch]
        pivots = {j: list(row) for j, row in ech.pivots.items()}
        tails = {j: list(tail) for j, tail in ech.tails.items()}
        assert ech.probe(rows) == _plain_fold(dict(plain), rows, width)
        assert ech.pivots == pivots and ech.tails == tails
        assert rows == [list(row) for row in batch]
        assert ech.add_rows(rows) == _plain_fold(plain, rows, width)
        assert list(ech.pivots.items()) == list(plain.items())
        assert ech.rank == len(plain)
    for j, row in ech.pivots.items():
        assert ech.tails[j] == [(t, v) for t, v in enumerate(row) if v and t > j]
    twin = ech.copy()
    assert twin.pivots == ech.pivots and twin.tails == ech.tails


def test_a_unit_pivot_row_stores_an_empty_tail():
    # eliminating against e_1 touches no other column
    ech = Echelon(4)
    assert ech.add_rows([[0, 5, 0, 0], [0, 3, 4, 1]]) == 2
    quarter = pow(4, -1, PRIME)
    assert ech.pivots == {1: [0, 1, 0, 0], 2: [0, 0, 1, quarter]}
    assert ech.tails == {1: [], 2: [(3, quarter)]}
    assert ech.probe([[0, 7, 0, 0], [0, PRIME + 2, 8, -2]]) == 1


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_ranks_agree_on_random_integer_matrices(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 6)
    ncols = rng.randint(1, 6)
    rows = [
        [rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(nrows)
    ]
    expected = _gauss_rank(rows)
    assert bareiss_rank(rows) == expected
    # small entries cannot collide mod a 61-bit prime
    assert modp_rank(rows, ncols) == expected


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_ranks_agree_on_rank_deficient_matrices(seed):
    rng = random.Random(seed)
    ncols = rng.randint(2, 5)
    base = [
        [rng.randrange(-5, 6) for _ in range(ncols)]
        for _ in range(rng.randint(1, 3))
    ]
    # extra rows are integer combinations of the base, so rank <= len(base)
    rows = list(base)
    for _ in range(rng.randint(1, 4)):
        coefs = [rng.randrange(-3, 4) for _ in base]
        rows.append(
            [sum(c * b[j] for c, b in zip(coefs, base)) for j in range(ncols)]
        )
    rng.shuffle(rows)
    expected = _gauss_rank(rows)
    assert expected <= len(base)
    assert bareiss_rank(rows) == expected
    assert modp_rank(rows, ncols) == expected


def test_bareiss_rank_fraction_rows():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2)],
        [Fraction(0), Fraction(0)],
    ]
    assert bareiss_rank(rows) == _gauss_rank(rows) == 2
    # a scaled copy of an existing row adds nothing
    assert bareiss_rank(rows[:1] + [[Fraction(3, 2), Fraction(1)]]) == 1
    assert bareiss_rank([[Fraction(2, 7)]]) == 1
    assert bareiss_rank([]) == 0


def test_bareiss_rank_ragged():
    with pytest.raises(ValueError):
        bareiss_rank([[1, 2], [1]])
