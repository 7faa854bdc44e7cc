"""Exact rank computation over the prime field F_P, P = 2**61 - 1.

The probabilistic observability checks reduce everything to row ranks of
integer matrices mod P; those go through an incremental row-echelon basis
so that candidate rows can be scored without repeating the elimination.
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

    def _reduce(
        self, row: Sequence[int], extra: dict[int, list[int]] | None = None
    ) -> tuple[int, list[int]] | None:
        """Reduce a row against the basis; return (pivot column, normalized row)
        if a new pivot remains, else None."""
        m = PRIME
        r = [v % m for v in row]
        if len(r) != self.width:
            raise ValueError(
                f"row length {len(r)} does not match width {self.width}"
            )
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
        return sum(self.add_row(row) for row in rows)

    def probe(self, rows: Iterable[Sequence[int]]) -> int:
        """How many pivots the rows would add, without committing them."""
        extra: dict[int, list[int]] = {}
        gained = 0
        for row in rows:
            hit = self._reduce(row, extra)
            if hit is not None:
                extra[hit[0]] = hit[1]
                gained += 1
        return gained


def modp_rank(rows: Iterable[Sequence[int]], width: int) -> int:
    """Rank of a matrix given as an iterable of integer rows, mod P."""
    ech = Echelon(width)
    ech.add_rows(rows)
    return ech.rank
