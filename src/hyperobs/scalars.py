"""Scalar arithmetic used across the package.

The evaluation kernels are generic over a domain object that exposes
arithmetic through explicit methods on unwrapped values, which keeps the
inner loops free of wrapper allocation. Every domain has the same six
methods: ``zero``, ``one``, ``from_int``, ``add``, ``mul`` and ``inv_int``.
Four domains exist:

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
    """Dual numbers over a base domain, represented as (real, eps) tuples.

    Multiplication carries the product rule; constants lift with a zero eps
    part. Running any polynomial evaluation over this domain with a seeded
    eps component performs forward-mode differentiation in that direction.
    """

    def __init__(self, base: Any):
        self.base = base
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

    def mul(self, a: tuple[Any, Any], b: tuple[Any, Any]) -> tuple[Any, Any]:
        base = self.base
        return (
            base.mul(a[0], b[0]),
            base.add(base.mul(a[0], b[1]), base.mul(a[1], b[0])),
        )

    def inv_int(self, i: int) -> tuple[Any, Any]:
        return (self.base.inv_int(i), self._z)


PRIME_FIELD = PrimeFieldDomain()
RATIONALS = NumberDomain(Fraction)
FLOATS = NumberDomain(float)


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
