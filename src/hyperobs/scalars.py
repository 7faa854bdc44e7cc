"""Arithmetic in the prime field F_P, P = 2**61 - 1, on numpy lanes.

The derivative-chain kernel is the only arithmetic the package runs, and it
runs mod P: every lane holds a canonical residue in a uint64 array. A
product splits each operand into 32-bit halves, so the four partial
products fit in 64 bits, and folds the 2**64 and 2**32 carries with
2**61 = 1 (mod P). A sum over rows adds the 32-bit halves separately, so
up to 2**31 terms stay exact before the fold. Constants are uint64 scalars,
so no operand promotes to float64.

A matrix product runs on float64 instead, and stays exact: each residue
splits into three 21-bit limbs, one GEMM forms every limb product, and the
inner dimension goes in chunks of at most 2**11, so every partial sum is an
integer below 2**11 * 2**42 = 2**53 whatever order BLAS adds in. The module
also derives the seeded random evaluation points.
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


def scale(a: np.ndarray, c: int) -> np.ndarray:
    """a times the integer c, reduced mod P."""
    return mul(a, np.array([c % PRIME], dtype=np.uint64))


def _limbs(a: np.ndarray, axis: int, buffer: np.ndarray) -> np.ndarray:
    """The (m, w) residues a as float64 21-bit limbs, lowest first, stacked
    along axis, in the leading 3 m w slots of the flat buffer."""
    shape = list(a.shape)
    shape.insert(axis, 3)
    parts = buffer[: 3 * a.size].reshape(shape)
    limbs = np.moveaxis(parts, axis, 0)
    # each ufunc casts to float64 as it writes, exactly: every value < 2**53
    np.bitwise_and(a, _LOW21, out=limbs[0], casting="unsafe")
    np.bitwise_and(a, _MID21, out=limbs[1], casting="unsafe")
    limbs[1] *= 2.0**-21
    np.right_shift(a, _SHIFT42, out=limbs[2], casting="unsafe")
    shape = list(a.shape)
    shape[axis] *= 3
    return parts.reshape(shape)


def _times_power_of_two(r: np.ndarray, e: int) -> np.ndarray:
    """r 2**e up to a multiple of P, for r < 2**63 and 0 < e < 61: below
    2**61 + 2**(e + 2), since 2**61 = 1 (mod P)."""
    low = np.uint64((1 << (61 - e)) - 1)
    return (r >> np.uint64(61 - e)) + ((r & low) << np.uint64(e))


def limb_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B mod P for the residues a (m, K) and b (K, w).

    Each chunk of the inner dimension is split into limbs as it goes, so
    block (i, j) of its float64 product is limb i of A times limb j of B,
    worth 2**(21 (i + j)) = 2**(21 (i + j) mod 61) (mod P): 2**63 = 4 and
    2**84 = 2**23. A chunk gives integers below 2**53, exact in float64
    under any summation order, FMA or threading.
    """
    m, w = a.shape[0], b.shape[1]
    acc = np.zeros((3 * m, 3 * w), dtype=np.uint64)
    chunk = min(len(b), _GEMM_CHUNK)
    left, right = np.empty(3 * m * chunk), np.empty(3 * chunk * w)
    for lo in range(0, len(b), _GEMM_CHUNK):
        part = _limbs(a[:, lo : lo + chunk], 0, left) @ _limbs(
            b[lo : lo + chunk], 1, right
        )
        # below 2**61 + 2**53
        acc = _canonical(acc) + part.astype(np.uint64)
    blocks = acc.reshape(3, m, 3, w)
    out = blocks[0, :, 0].copy()
    for s in range(1, 5):
        # at most three blocks, so the sum stays below 2**63, and the five
        # terms of out below 2**64
        same = np.add.reduce(
            [blocks[i, :, s - i] for i in range(max(0, s - 2), min(s, 2) + 1)]
        )
        out += _times_power_of_two(same, 21 * s % 61)
    return _canonical(out)


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
