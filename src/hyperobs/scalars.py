"""Scalar arithmetic used across the package.

A domain object exposes arithmetic on unwrapped values through explicit
methods, which keeps inner loops free of wrapper allocation. Every domain
has the same six methods: ``zero``, ``one``, ``from_int``, ``add``, ``mul``
and ``inv_int``. Four domains exist:

* ``PRIME_FIELD``: residues modulo the Mersenne prime 2**61 - 1 as plain
  ints (probabilistic rank checks),
* ``RATIONALS``: exact ``fractions.Fraction`` values (reference
  computations),
* ``FLOATS``: IEEE doubles (finite-difference validation),
* ``DualDomain(base, n)``: truncated Taylor numbers a + sum_j b_j eps_j
  with every eps_i eps_j = 0, as (real, eps) pairs over any base domain,
  eps a tuple of n partials. Only the factor-list recursion oracle of
  ``dynamics`` evaluates over it.

The derivative-chain kernel runs on numpy arrays instead, one lane per
value. ``lanes_for`` gives the lane arithmetic of the first three domains:
``FieldLanes`` keeps residues mod P in uint64 lanes, and ``NumberLanes``
keeps ``Fraction`` values in object arrays and floats in float64 arrays.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import repeat
from typing import Any

import numpy as np

PRIME = (1 << 61) - 1


class PrimeFieldDomain:
    """Arithmetic on canonical residues represented as plain ints."""

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, i: int) -> int:
        return i % PRIME

    def add(self, a: int, b: int) -> int:
        return (a + b) % PRIME

    def mul(self, a: int, b: int) -> int:
        return (a * b) % PRIME

    def inv_int(self, i: int) -> int:
        if i % PRIME == 0:
            raise ZeroDivisionError("zero has no inverse in the prime field")
        return pow(i, -1, PRIME)


class NumberDomain:
    """Plain Python numbers of one type: exact ``Fraction`` or IEEE
    ``float``, the latter only where approximation is acceptable."""

    def __init__(self, kind: type):
        self.kind = kind

    def zero(self) -> Any:
        return self.kind(0)

    def one(self) -> Any:
        return self.kind(1)

    def from_int(self, i: int) -> Any:
        return self.kind(i)

    def add(self, a: Any, b: Any) -> Any:
        return a + b

    def mul(self, a: Any, b: Any) -> Any:
        return a * b

    def inv_int(self, i: int) -> Any:
        return self.kind(1) / i


class DualDomain:
    """Values with a gradient of n partials, as (real, eps) pairs over a base
    domain, eps being a tuple of n base values.

    Multiplication applies the product rule to every partial at once, and
    constants lift with an all-zero eps. Evaluating a polynomial at the
    seeded variables x_j = (a_j, e_j) therefore yields its value and its
    whole gradient in one pass. The factor-list recursion oracle uses it to
    check the kernel's Jacobians independently.
    """

    def __init__(self, base: Any, n: int):
        self.base = base
        self._zeros = (base.zero(),) * n

    def variable(self, a: Any, j: int) -> tuple[Any, tuple[Any, ...]]:
        """a as coordinate j (0-based) of the point: eps is e_j."""
        eps = list(self._zeros)
        eps[j] = self.base.one()
        return (a, tuple(eps))

    def zero(self) -> tuple[Any, tuple[Any, ...]]:
        return (self.base.zero(), self._zeros)

    def one(self) -> tuple[Any, tuple[Any, ...]]:
        return (self.base.one(), self._zeros)

    def from_int(self, i: int) -> tuple[Any, tuple[Any, ...]]:
        return (self.base.from_int(i), self._zeros)

    def add(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        add = self.base.add
        return (add(a[0], b[0]), tuple(map(add, a[1], b[1])))

    def mul(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        add, mul = self.base.add, self.base.mul
        a0, b0 = a[0], b[0]
        eps = map(add, map(mul, repeat(a0), b[1]), map(mul, a[1], repeat(b0)))
        return (mul(a0, b0), tuple(eps))

    def inv_int(self, i: int) -> tuple[Any, tuple[Any, ...]]:
        return (self.base.inv_int(i), self._zeros)


PRIME_FIELD = PrimeFieldDomain()
RATIONALS = NumberDomain(Fraction)
FLOATS = NumberDomain(float)

_P = np.uint64(PRIME)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)
_SHIFT3, _SHIFT29, _SHIFT32, _SHIFT61 = (np.uint64(s) for s in (3, 29, 32, 61))


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


class FieldLanes:
    """Residues mod P = 2**61 - 1 in uint64 numpy arrays.

    Every lane holds a canonical residue. A product splits each operand into
    32-bit halves, so the four partial products fit in 64 bits, and folds
    the 2**64 and 2**32 carries with 2**61 = 1 (mod P). A sum adds at most
    two residues before it folds. A sum over rows adds the 32-bit halves
    separately, so up to 2**31 terms stay exact before the fold. Constants
    are uint64 scalars, so no operand promotes to float64.
    """

    def __init__(self, domain: PrimeFieldDomain):
        self.domain = domain

    def cast(self, values: Any) -> np.ndarray:
        """Integers, of any sign and size, as reduced lanes."""
        return (np.asarray(values, dtype=object) % PRIME).astype(np.uint64)

    def empty(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dtype=np.uint64)

    def zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape, dtype=np.uint64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + b
        return np.minimum(s, np.subtract(s, _P), out=s)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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

    def sum(self, a: np.ndarray) -> np.ndarray:
        """The sum over axis 0."""
        return _join_halves(
            (a & _LOW32).sum(axis=0, dtype=np.uint64),
            (a >> _SHIFT32).sum(axis=0, dtype=np.uint64),
        )

    def reduceat(self, a: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Sums of the row segments of a that begin at starts."""
        return _join_halves(
            np.add.reduceat(a & _LOW32, starts, axis=0),
            np.add.reduceat(a >> _SHIFT32, starts, axis=0),
        )

    def scale(self, a: np.ndarray, c: int) -> np.ndarray:
        """a times the residue c."""
        return self.mul(a, np.array([c % PRIME], dtype=np.uint64))


class NumberLanes:
    """Values of a ``NumberDomain`` in numpy arrays: ``Fraction`` objects in
    object arrays, floats in float64 arrays, with numpy's own arithmetic."""

    def __init__(self, domain: NumberDomain):
        self.domain = domain
        self.dtype = np.float64 if domain.kind is float else object

    def cast(self, values: Any) -> np.ndarray:
        convert = np.frompyfunc(self.domain.kind, 1, 1)
        return np.asarray(
            convert(np.asarray(values, dtype=object)), dtype=self.dtype
        )

    def empty(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dtype=self.dtype)

    def zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        return self.cast(np.zeros(shape, dtype=np.int64))

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def sum(self, a: np.ndarray) -> np.ndarray:
        """The sum over axis 0."""
        return a.sum(axis=0)

    def reduceat(self, a: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Sums of the row segments of a that begin at starts."""
        return np.add.reduceat(a, starts, axis=0)

    def scale(self, a: np.ndarray, c: Any) -> np.ndarray:
        return a * c


def lanes_for(domain: Any) -> FieldLanes | NumberLanes:
    """The numpy lane arithmetic of a scalar domain."""
    if isinstance(domain, PrimeFieldDomain):
        return FieldLanes(domain)
    if isinstance(domain, NumberDomain):
        return NumberLanes(domain)
    raise TypeError(f"no numpy lanes for {type(domain).__name__}")


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

    Returned as raw residues for the kernel domains. Zero coordinates are
    excluded so that monomials never vanish for a trivial reason.
    """
    rng = random.Random(seed)
    return [rng.randrange(1, PRIME) for _ in range(n)]
