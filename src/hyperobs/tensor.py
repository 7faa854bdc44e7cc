"""Index vectorization and the sparse matrix that holds adjacency unfoldings.

``ivec`` flattens a multi-index with the first component fastest:
ivec(j, J) = j1 + sum_{t >= 2} (j_t - 1) * J_1 * ... * J_{t-1}. All public
indices are 1-based. Kronecker products elsewhere in the package order
blocks by the first factor (big-endian), the opposite digit order, which is
harmless: unfoldings of symmetric tensors are invariant under permuting the
flattened index digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

MAX_DENSE_SLOTS = 10**8


def ivec(j: Sequence[int], J: Sequence[int]) -> int:
    """Position of multi-index j within dimensions J, 1-based.

    The first index varies fastest: ivec((2, 3), (3, 4)) = 8.
    """
    if len(j) != len(J):
        raise ValueError(
            f"index has {len(j)} components but dimensions have {len(J)}"
        )
    if len(j) == 0:
        raise ValueError("empty multi-index")
    pos = 0
    stride = 1
    for jt, Jt in zip(j, J):
        if not 1 <= jt <= Jt:
            raise IndexError(f"index component {jt} outside [1, {Jt}]")
        pos += (jt - 1) * stride
        stride *= Jt
    return pos + 1


@dataclass(frozen=True)
class SparseMatrix:
    """Dictionary-of-keys sparse matrix with 1-based (row, col) keys.

    Zero values are dropped on construction; keys are validated against the
    shape.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean = {}
        for (r, c), value in self.entries.items():
            if not (1 <= r <= self.rows and 1 <= c <= self.cols):
                raise IndexError(
                    f"entry ({r}, {c}) outside {self.rows} x {self.cols}"
                )
            if value:
                clean[(r, c)] = value
        object.__setattr__(self, "entries", clean)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def matvec(self, x: Sequence[Any], zero: Any = 0) -> list[Any]:
        if len(x) != self.cols:
            raise ValueError(
                f"vector length {len(x)} does not match {self.cols} columns"
            )
        out = [zero] * self.rows
        for (r, c), v in self.entries.items():
            out[r - 1] = out[r - 1] + v * x[c - 1]
        return out

    def to_dense(self, zero: Any = 0) -> list[list[Any]]:
        dense = [[zero] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r - 1][c - 1] = v
        return dense
