"""Arithmetic in the prime field F_P, P = 2**61 - 1, on numpy lanes.

The derivative-chain kernel is the only arithmetic the package runs, and it
runs mod P: every lane holds a canonical residue in a uint64 array. A
product splits each operand into 32-bit halves, so the four partial
products fit in 64 bits, and folds the 2**64 and 2**32 carries with
2**61 = 1 (mod P). A sum over rows adds the 32-bit halves separately, so
up to 2**31 terms stay exact before the fold. Constants are uint64 scalars,
so no operand promotes to float64.

The product of two matrix series (``LimbProduct``) runs on float64
instead, and stays exact: it splits each residue it is given once into
three 21-bit limbs and keeps them as float32, one GEMM forms every limb
product, and the inner dimension goes in chunks of whole column blocks, at
most 2**11 rows, so every partial sum is an integer below
2**11 * 2**42 = 2**53 whatever order BLAS adds in. The module also
derives the seeded random evaluation points.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import numpy as np

PRIME = (1 << 61) - 1

_P = np.uint64(PRIME)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)
_LOW21 = np.uint64((1 << 21) - 1)
_MID21 = np.uint64(((1 << 21) - 1) << 21)
_SHIFT3, _SHIFT21, _SHIFT29, _SHIFT32, _SHIFT42, _SHIFT61 = (
    np.uint64(s) for s in (3, 21, 29, 32, 42, 61)
)
# 2**11 limb products below 2**42 sum to less than 2**53
_GEMM_CHUNK = 1 << 11
# the limb weights 2**(21 s), s = 0..4, as powers 2**e (mod P)
_FOLD = np.array([0, 21, 42, 2, 23], dtype=np.uint64).reshape(5, 1)
_FOLD_HIGH = np.uint64(61) - _FOLD
_FOLD_LOW = (np.uint64(1) << _FOLD_HIGH) - np.uint64(1)


def _canonical(s: np.ndarray) -> np.ndarray:
    """The residue of s < 2**64 in [0, P), computed in place in s."""
    high = s >> _SHIFT61
    s &= _P
    s += high
    # s - P wraps past s unless s >= P, so the minimum subtracts P at most once
    return np.minimum(s, np.subtract(s, _P, out=high), out=s)


def _join_halves(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """low + high * 2**32 mod P, for the sums low and high of the 32-bit
    halves of fewer than 2**31 residues."""
    # high * 2**32 = (high >> 29) * 2**61 + (high & (2**29 - 1)) * 2**32
    return _canonical(low + (high >> _SHIFT29) + ((high & _LOW29) << _SHIFT32))


def cast(values: Any) -> np.ndarray:
    """Integers, of any sign and size, as reduced lanes.

    Anything else raises ValueError: a float such as 1.5 would otherwise be
    truncated, and the chain evaluated at a point nobody asked for.
    """
    objects = np.asarray(values, dtype=object)
    if not all(isinstance(v, (int, np.integer)) for v in objects.flat):
        raise ValueError("field lanes take integer values only")
    return (objects % PRIME).astype(np.uint64)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_hi, a_lo = a >> _SHIFT32, a & _LOW32
    b_hi, b_lo = b >> _SHIFT32, b & _LOW32
    # a b = hh 2**64 + mid 2**32 + lo with hh < 2**58, mid < 2**62, and
    # s collects hh 8 + mid (folded) + lo (folded) < 2**63
    s = a_hi * b_hi
    s <<= _SHIFT3
    mid = a_hi * b_lo
    mid += a_lo * b_hi
    s += mid >> _SHIFT29
    mid &= _LOW29
    mid <<= _SHIFT32
    s += mid
    low = np.multiply(a_lo, b_lo, out=mid)
    s += low >> _SHIFT61
    low &= _P
    s += low
    return _canonical(s)


def row_sum(a: np.ndarray) -> np.ndarray:
    """The sum over axis 0."""
    return _join_halves(
        (a & _LOW32).sum(axis=0, dtype=np.uint64),
        (a >> _SHIFT32).sum(axis=0, dtype=np.uint64),
    )


def segment_sums(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of the row segments of a that begin at starts."""
    return _join_halves(
        np.add.reduceat(a & _LOW32, starts, axis=0),
        np.add.reduceat(a >> _SHIFT32, starts, axis=0),
    )


def _split_limbs(a: np.ndarray, out: np.ndarray) -> None:
    """Write the residues a as three 21-bit limbs, lowest first, into
    out[0], out[1] and out[2], each shaped like a.

    out may be float32: a limb is an integer below 2**21 < 2**24, and the
    middle limb is written as limb times 2**21 before it is scaled, so
    every value fits float32's 24-bit significand exactly.
    """
    # each ufunc casts as it writes
    np.bitwise_and(a, _LOW21, out=out[0], casting="unsafe")
    np.bitwise_and(a, _MID21, out=out[1], casting="unsafe")
    out[1] *= 2.0**-21
    np.right_shift(a, _SHIFT42, out=out[2], casting="unsafe")


def _fold(limbs: np.ndarray) -> np.ndarray:
    """The (m, w) residues sum over i, j of limbs[:, i, j] 2**(21 (i + j))
    mod P, for limbs (m, 3, 3, w) of entries below 2**62."""
    # the at most three products of one weight 2**(21 s) sum below 2**63
    same = np.zeros((len(limbs), 5, limbs.shape[3]), dtype=np.uint64)
    for i in range(3):
        same[:, i : i + 3] += limbs[:, i]
    # r 2**e = (r >> (61 - e)) + (r mod 2**(61 - e)) 2**e (mod P), below
    # 2**61 + 2**(e + 2), so the five weights sum below 2**64; the high
    # parts go to one scratch array, freed before the sum allocates, and
    # the low ones shift in place
    high = same >> _FOLD_HIGH
    same &= _FOLD_LOW
    same <<= _FOLD
    same += high
    del high
    return _canonical(same.sum(axis=1, dtype=np.uint64))


class LimbProduct:
    """Coefficient p, sum over q <= p of A_q B_{p-q} mod P, of the product
    of two matrix series of residues, A_q (m, width), nonzero only in fixed
    cells, and B_q (width, w), given level by level for p < blocks.

    ``push`` splits A_p's cell values and B_p's rows once each into three
    21-bit limbs and keeps them as float32: A_q's at [blocks - 1 - q] and
    B_q's at [q], so that coefficient p is the product
    [A_p ... A_0] @ [B_0; ...; B_p] of two slices. It widens each chunk of
    whole blocks, at most 2**11 inner rows, into two float64 buffers: B's
    rows are copied, A's cells scattered into a buffer that is kept zero
    elsewhere. One GEMM of the limb-stacked chunk (3m rows, 3w columns)
    then forms all nine limb products: entry (3 r + i, w j + c) is limb i
    of A's row r times limb j of B's column c, worth 2**(21 (i + j)) =
    2**(21 (i + j) mod 61) (mod P), since 2**63 = 4 and 2**84 = 2**23. A
    chunk's entries are sums of at most 2**11 products below 2**42, so
    every partial sum is an integer below 2**53, exact in float64 under
    any summation order, FMA or threading. A block wider than 2**11
    columns is refused; ``dynamics.check_lane_slots`` admits none.
    """

    def __init__(
        self,
        m: int,
        width: int,
        w: int,
        blocks: int,
        cell_rows: np.ndarray,
        cell_columns: np.ndarray,
    ) -> None:
        """The arrays of ``layout``, for up to blocks levels. The cells
        are given by row and column within a block, sorted by column, then
        row."""
        if width > _GEMM_CHUNK:
            raise ValueError(
                f"block of {width} columns is wider than {_GEMM_CHUNK}"
            )
        self.m, self.width = m, width
        self.group = _group(width, blocks)
        layout = self.layout(m, width, w, blocks, len(cell_rows))
        self.row_limbs, self.cell_limbs, self.left, self.right = (
            np.empty(shape, dtype) for shape, dtype in layout[:4]
        )
        # rows of left below this are zero outside the cells; a row is
        # first zeroed when a chunk first reaches it, so a pass that stops
        # early touches no more of the buffer than it uses
        self.clean = 0
        # the left buffer holds A's chunk transposed: limb l of cell (i, j)
        # of a chunk's block b sits at flat position (b width + j) 3m +
        # 3i + l. In the order of the cells' limbs the positions ascend,
        # which keeps the scatter local.
        self.at = (
            np.arange(self.group)[:, None, None] * (width * 3 * m)
            + (cell_columns * (3 * m) + 3 * cell_rows)[:, None]
            + np.arange(3)
        )

    @staticmethod
    def layout(
        m: int, width: int, w: int, blocks: int, cells: int
    ) -> tuple[tuple[tuple[int, ...], type], ...]:
        """The (shape, dtype) of every array a product of up to blocks
        levels holds: the kept limbs of B's rows and of A's cells, the two
        float64 buffers and the intp cell positions, all for the longest
        chunk, then the uint64 transients of one coefficient at its peak.

        A coefficient of one chunk peaks in the fold: the (3m, 3w) limb
        products and the fold's (m, 5, w) sums with one scratch array of
        their shape, 19 m w slots; its float64 result and uint64 copy,
        (3m, 3w) each, hold 18 m w before. A coefficient of several chunks
        peaks when a chunk's uint64 copy and the carry of the accumulator
        live beside it, 27 m w. A ``mul`` of the (m, w) coefficient holds
        about 6 m w afterwards."""
        group = _group(width, blocks)
        rows = group * width
        if blocks > group:
            peak: tuple[tuple[int, ...], ...] = ((3, 3 * m, 3 * w),)
        else:
            peak = (3 * m, 3 * w), (2, m, 5, w)
        return (
            ((blocks, width, 3 * w), np.float32),
            ((blocks, cells, 3), np.float32),
            ((rows, 3 * m), np.float64),
            ((rows, 3 * w), np.float64),
            ((group, cells, 3), np.intp),
            *((shape, np.uint64) for shape in peak),
        )

    def push(self, p: int, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Keep level p, A_p as its (C,) cell values in the cells' order and
        B_p as its (width, w) rows, and return coefficient p, (m, w); levels
        0..p-1 are the ones kept before."""
        width = self.width
        block = len(self.cell_limbs) - 1 - p
        _split_limbs(cells, self.cell_limbs[block].T)
        _split_limbs(
            rows, self.row_limbs[p].reshape(width, 3, -1).transpose(1, 0, 2)
        )
        a = self.cell_limbs[block:]
        b = self.row_limbs[: p + 1].reshape(-1, self.row_limbs.shape[2])
        flat = self.left.reshape(-1)
        acc = None
        for first in range(0, p + 1, self.group):
            count = min(self.group, p + 1 - first)
            inner = count * width
            if inner > self.clean:
                self.left[self.clean : inner] = 0
                self.clean = inner
            # widened first, as a scatter from float32 takes twice as long
            values = a[first : first + count].astype(float)
            flat[self.at[:count].ravel()] = values.ravel()
            start = first * width
            self.right[:inner] = b[start : start + inner]
            part = self.left[:inner].T @ self.right[:inner]
            part = part.astype(np.uint64)
            if acc is not None:
                # below 2**61 + 2**53
                part += _canonical(acc)
            acc = part
        return _fold(acc.reshape(self.m, 3, 3, -1))


def _group(width: int, blocks: int) -> int:
    """How many whole blocks of width columns one chunk holds."""
    return min(_GEMM_CHUNK // width, blocks)


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for a labelled consumer of the master seed.

    Hash based so that unrelated consumers never share a stream; independent
    of PYTHONHASHSEED and the platform.
    """
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def random_point(n: int, seed: int) -> list[int]:
    """A random evaluation point with all coordinates nonzero mod PRIME.

    Returned as raw residues for the kernel. Zero coordinates are excluded
    so that monomials never vanish for a trivial reason.
    """
    rng = random.Random(seed)
    return [rng.randrange(1, PRIME) for _ in range(n)]
