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
* ``DualDomain(base, n)``: truncated Taylor numbers a + sum_j b_j eps_j
  with every eps_i eps_j = 0, as (real, eps) pairs over any base domain,
  eps a tuple of n partials (vector-mode forward differentiation: one
  evaluation yields the whole gradient).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import repeat
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
    """Values with a gradient of n partials, as (real, eps) pairs over a base
    domain, eps being a tuple of n base values.

    Multiplication applies the product rule to every partial at once, and
    constants lift with an all-zero eps. Evaluating a polynomial at the
    seeded variables x_j = (a_j, e_j) therefore yields its value and its
    whole gradient in one pass.
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
