"""Exact rank computation over the prime field F_P, P = 2**61 - 1.

The probabilistic observability checks reduce everything to row ranks of
integer matrices mod P; those go through an incremental row-echelon basis
so that candidate rows can be scored without repeating the elimination.
Once a basis reaches full rank no row can add a pivot, so further rows are
only checked for length, never reduced.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import PRIME


class Echelon:
    """Incremental row-echelon basis over integers mod P.

    Rows are stored normalized (pivot 1) and indexed by pivot column.
    ``add_row`` folds one row in; ``probe`` scores a batch of rows without
    committing them. Elimination order is deterministic: columns are scanned
    left to right and the first nonzero entry pivots.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> Echelon:
        """A basis with the same rows that grows on its own. Stored rows are
        never changed in place, so they are shared."""
        twin = Echelon(self.width)
        twin.pivots = dict(self.pivots)
        return twin

    def _check(self, row: Sequence[int]) -> None:
        if len(row) != self.width:
            raise ValueError(
                f"row length {len(row)} does not match width {self.width}"
            )

    def _reduce(
        self, row: Sequence[int], extra: dict[int, list[int]] | None = None
    ) -> tuple[int, list[int]] | None:
        """Reduce a row against the basis; return (pivot column, normalized row)
        if a new pivot remains, else None."""
        self._check(row)
        m = PRIME
        r = [v % m for v in row]
        for j in range(self.width):
            if r[j] == 0:
                continue
            basis_row = self.pivots.get(j)
            if basis_row is None and extra is not None:
                basis_row = extra.get(j)
            if basis_row is None:
                inv = pow(r[j], -1, m)
                return j, [(v * inv) % m for v in r]
            coef = r[j]
            for t in range(j, self.width):
                r[t] = (r[t] - coef * basis_row[t]) % m
        return None

    def add_row(self, row: Sequence[int]) -> bool:
        """Fold one row in; True if it added a pivot."""
        hit = self._reduce(row)
        if hit is None:
            return False
        j, r = hit
        self.pivots[j] = r
        return True

    def add_rows(self, rows: Iterable[Sequence[int]]) -> int:
        """Fold rows in; return how many pivots they added."""
        gained = 0
        for row in rows:
            if self.rank < self.width:
                gained += self.add_row(row)
            else:
                self._check(row)
        return gained

    def probe(self, rows: Iterable[Sequence[int]]) -> int:
        """How many pivots the rows would add, without committing them."""
        extra: dict[int, list[int]] = {}
        for row in rows:
            if self.rank + len(extra) < self.width:
                hit = self._reduce(row, extra)
                if hit is not None:
                    extra[hit[0]] = hit[1]
            else:
                self._check(row)
        return len(extra)


def modp_rank(rows: Iterable[Sequence[int]], width: int) -> int:
    """Rank of a matrix given as an iterable of integer rows, mod P."""
    ech = Echelon(width)
    ech.add_rows(rows)
    return ech.rank
