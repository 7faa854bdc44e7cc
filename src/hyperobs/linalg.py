"""Exact rank computation over the prime field F_P, P = 2**61 - 1.

The probabilistic observability checks reduce everything to row ranks of
integer matrices mod P; those go through an incremental row-echelon basis
so that candidate rows can be scored without repeating the elimination.
One loop folds rows into a dict of pivot tails, the whole basis: its own
to commit them, a copy to probe them. A tail holds only the nonzero
entries of its pivot row past the pivot, so eliminating against a unit
row costs nothing, and a row being reduced takes unreduced products and
is reduced mod P only where it is read: each coefficient once, and the
row once when it is normalized. Once a basis reaches full rank no row can
add a pivot, so further rows are only checked for length, never reduced.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import PRIME


class Echelon:
    """Incremental row-echelon basis over integers mod P.

    Each row is stored normalized (pivot 1) as its tail, the (column,
    value) pairs of its nonzero entries past the pivot, indexed by pivot
    column and never changed in place; the tail is all that eliminating
    against the row touches, and ``rows`` rebuilds the dense rows from
    it. ``add_rows`` folds rows in; ``probe`` scores rows without
    committing them. Elimination order is deterministic: columns are
    scanned left to right and the first nonzero entry pivots.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self.tails: dict[int, list[tuple[int, int]]] = {}

    @property
    def rank(self) -> int:
        return len(self.tails)

    def copy(self) -> Echelon:
        """A basis with the same pivot rows, to extend apart from this
        one."""
        twin = Echelon(self.width)
        twin.tails.update(self.tails)
        return twin

    def rows(self) -> list[list[int]]:
        """The normalized pivot rows, dense, in the order they were added."""
        out = [[0] * self.width for _ in self.tails]
        for row, (j, tail) in zip(out, self.tails.items()):
            row[j] = 1
            for t, v in tail:
                row[t] = v
        return out

    def _check(self, row: Sequence[int]) -> None:
        if len(row) != self.width:
            raise ValueError(
                f"row length {len(row)} does not match width {self.width}"
            )

    def _reduce(
        self, row: Sequence[int], tails: dict[int, list[tuple[int, int]]]
    ) -> tuple[int, list[tuple[int, int]]] | None:
        """Reduce a row against the pivot rows' tails; return (pivot
        column, its normalized tail) if a new pivot remains, else None.

        Entries are left unreduced while products are subtracted from
        them: an entry is reduced mod P once, when it is read as the
        coefficient of its column, and the row once more when it is
        normalized. Every column before the pivot is then 0 mod P."""
        self._check(row)
        m = PRIME
        r = list(row)
        for j in range(self.width):
            coef = r[j]
            if not coef:
                continue
            coef %= m
            if not coef:
                continue
            tail = tails.get(j)
            if tail is None:
                inv = pow(coef, -1, m)
                return j, [
                    (t, u)
                    for t, v in enumerate(r[j + 1 :], j + 1)
                    if (u := v * inv % m)
                ]
            for t, v in tail:
                r[t] -= coef * v
        return None

    def _fold(
        self,
        rows: Iterable[Sequence[int]],
        tails: dict[int, list[tuple[int, int]]],
    ) -> int:
        """Fold rows into tails; return how many pivots they added."""
        gained = 0
        for row in rows:
            if len(tails) < self.width:
                hit = self._reduce(row, tails)
                if hit is not None:
                    tails[hit[0]] = hit[1]
                    gained += 1
            else:
                self._check(row)
        return gained

    def add_rows(self, rows: Iterable[Sequence[int]]) -> int:
        """Fold rows in; return how many pivots they added."""
        return self._fold(rows, self.tails)

    def probe(self, rows: Iterable[Sequence[int]]) -> int:
        """How many pivots the rows would add, without committing them."""
        return self._fold(rows, dict(self.tails))


def modp_rank(rows: Iterable[Sequence[int]], width: int) -> int:
    """Rank of a matrix given as an iterable of integer rows, mod P."""
    ech = Echelon(width)
    ech.add_rows(rows)
    return ech.rank
