"""Scalar arithmetic used across the package.

The evaluation kernels are generic over a domain object that exposes
arithmetic through explicit methods on unwrapped values, which keeps the
inner loops free of wrapper allocation. Four domains exist:

* ``PRIME_FIELD``: residues modulo the Mersenne prime 2**61 - 1 as plain
  ints (probabilistic rank checks),
* ``RATIONALS``: exact ``fractions.Fraction`` values (reference
  computations),
* ``FLOATS``: IEEE doubles (finite-difference validation),
* ``DualDomain(base)``: dual numbers a + b*eps with eps**2 = 0 as
  (real, eps) tuples over any base domain (forward-mode differentiation).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Any

PRIME = (1 << 61) - 1


class PrimeFieldDomain:
    """Arithmetic on canonical residues represented as plain ints."""

    name = "prime_field"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, i: int) -> int:
        return i % PRIME

    def add(self, a: int, b: int) -> int:
        return (a + b) % PRIME

    def sub(self, a: int, b: int) -> int:
        return (a - b) % PRIME

    def neg(self, a: int) -> int:
        return -a % PRIME

    def mul(self, a: int, b: int) -> int:
        return (a * b) % PRIME

    def is_zero(self, a: int) -> bool:
        return a == 0

    def inv_int(self, i: int) -> int:
        if i % PRIME == 0:
            raise ZeroDivisionError("zero has no inverse in the prime field")
        return pow(i, -1, PRIME)


class RationalDomain:
    """Exact rational arithmetic on fractions.Fraction values."""

    name = "rational"
    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, i: int) -> Fraction:
        return Fraction(i)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def inv_int(self, i: int) -> Fraction:
        return Fraction(1, i)


class FloatDomain:
    """IEEE double arithmetic, used only where approximation is acceptable."""

    name = "float"
    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def from_int(self, i: int) -> float:
        return float(i)

    def add(self, a: float, b: float) -> float:
        return a + b

    def sub(self, a: float, b: float) -> float:
        return a - b

    def neg(self, a: float) -> float:
        return -a

    def mul(self, a: float, b: float) -> float:
        return a * b

    def is_zero(self, a: float) -> bool:
        return a == 0.0

    def inv_int(self, i: int) -> float:
        return 1.0 / i


class DualDomain:
    """Dual numbers over a base domain, represented as (real, eps) tuples.

    Multiplication carries the product rule; constants lift with a zero eps
    part. Running any polynomial evaluation over this domain with a seeded
    eps component performs forward-mode differentiation in that direction.
    """

    def __init__(self, base: Any):
        self.base = base
        self.name = f"dual({base.name})"
        self._z = base.zero()

    def variable(self, a: Any, direction: Any) -> tuple[Any, Any]:
        return (a, direction)

    def zero(self) -> tuple[Any, Any]:
        return (self._z, self._z)

    def one(self) -> tuple[Any, Any]:
        return (self.base.one(), self._z)

    def from_int(self, i: int) -> tuple[Any, Any]:
        return (self.base.from_int(i), self._z)

    def add(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def sub(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        return (self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1]))

    def neg(self, a: tuple[Any, Any]) -> tuple[Any, Any]:
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        base = self.base
        return (
            base.mul(a[0], b[0]),
            base.add(base.mul(a[0], b[1]), base.mul(a[1], b[0])),
        )

    def is_zero(self, a: tuple[Any, Any]) -> bool:
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def inv_int(self, i: int) -> tuple[Any, Any]:
        return (self.base.inv_int(i), self._z)


PRIME_FIELD = PrimeFieldDomain()
RATIONALS = RationalDomain()
FLOATS = FloatDomain()


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
