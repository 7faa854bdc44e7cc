"""Exact rank computation over the prime field F_P, P = 2**61 - 1.

The probabilistic observability checks reduce everything to row ranks of
integer matrices mod P; those go through an incremental row-echelon basis
so that candidate rows can be scored without repeating the elimination.
One loop folds rows into a pivot dict: the basis's own to commit them, a
copy of it to probe them. Once a basis reaches full rank no row can add a
pivot, so further rows are only checked for length, never reduced.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import PRIME


class Echelon:
    """Incremental row-echelon basis over integers mod P.

    Rows are stored normalized (pivot 1) and indexed by pivot column, and
    never changed in place. ``add_rows`` folds rows in; ``probe`` scores
    rows without committing them. Elimination order is deterministic:
    columns are scanned left to right and the first nonzero entry pivots.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _check(self, row: Sequence[int]) -> None:
        if len(row) != self.width:
            raise ValueError(
                f"row length {len(row)} does not match width {self.width}"
            )

    def _reduce(
        self, row: Sequence[int], pivots: dict[int, list[int]]
    ) -> tuple[int, list[int]] | None:
        """Reduce a row against the pivot rows; return (pivot column,
        normalized row) if a new pivot remains, else None."""
        self._check(row)
        m = PRIME
        r = [v % m for v in row]
        for j in range(self.width):
            if r[j] == 0:
                continue
            basis_row = pivots.get(j)
            if basis_row is None:
                inv = pow(r[j], -1, m)
                return j, [(v * inv) % m for v in r]
            coef = r[j]
            for t in range(j, self.width):
                r[t] = (r[t] - coef * basis_row[t]) % m
        return None

    def _fold(
        self, rows: Iterable[Sequence[int]], pivots: dict[int, list[int]]
    ) -> int:
        """Fold rows into pivots; return how many pivots they added."""
        gained = 0
        for row in rows:
            if len(pivots) < self.width:
                hit = self._reduce(row, pivots)
                if hit is not None:
                    pivots[hit[0]] = hit[1]
                    gained += 1
            else:
                self._check(row)
        return gained

    def add_rows(self, rows: Iterable[Sequence[int]]) -> int:
        """Fold rows in; return how many pivots they added."""
        return self._fold(rows, self.pivots)

    def probe(self, rows: Iterable[Sequence[int]]) -> int:
        """How many pivots the rows would add, without committing them."""
        return self._fold(rows, dict(self.pivots))


def modp_rank(rows: Iterable[Sequence[int]], width: int) -> int:
    """Rank of a matrix given as an iterable of integer rows, mod P."""
    ech = Echelon(width)
    ech.add_rows(rows)
    return ech.rank
