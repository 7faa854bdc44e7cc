"""A fixed reference loop that measures how fast this machine runs right now.

On a shared host the same CLI call can take twice as long a minute later,
and its speed drifts within a call too: the processor itself slows (process
CPU time grows with wall time), so no clock inside the process can tell the
program's cost from the machine's speed. ``reference_s`` times a fixed,
small piece of work of the kinds the package spends its time on:
dual-number products through domain methods, modular row reduction over
2**61 - 1, and small numpy reductions. ``SpeedProbe`` runs it just before a
call, every ``interval`` seconds during it (from a SIGALRM handler, in the
calling thread) and just after it, so the call's time can be divided by the
mean reference time over the same stretch. The loop never touches hyperobs,
so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import time
from typing import Any

import numpy as np

PRIME = (1 << 61) - 1
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9


class _Field:
    def add(self, a: int, b: int) -> int:
        return (a + b) % PRIME

    def mul(self, a: int, b: int) -> int:
        return (a * b) % PRIME


class _Dual:
    def __init__(self, base: _Field) -> None:
        self.base = base

    def add(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        base = self.base
        return (
            base.mul(a[0], b[0]),
            base.add(base.mul(a[0], b[1]), base.mul(a[1], b[0])),
        )


def _dual_products(rounds: int = 2) -> int:
    dual = _Dual(_Field())
    mul, add = dual.mul, dual.add
    xs = [((i * _MIX_A) % PRIME, (i * _MIX_B) % PRIME) for i in range(1, 61)]
    for _ in range(rounds):
        out = []
        for i in range(len(xs)):
            acc = (0, 0)
            for j in (i - 1, i - 2, i - 3):
                acc = add(acc, mul(mul(xs[i], xs[j]), xs[j - 1]))
            out.append(acc)
        xs = out
    return xs[0][0]


def _row_reduction(rounds: int = 2, m: int = 20) -> int:
    rank = 0
    for rnd in range(rounds):
        pivots: dict[int, list[int]] = {}
        for i in range(m):
            r = [((i + rnd) * _MIX_A + j * _MIX_B + i * j) % PRIME for j in range(m)]
            for j in range(m):
                if r[j] == 0:
                    continue
                basis = pivots.get(j)
                if basis is None:
                    inv = pow(r[j], -1, PRIME)
                    pivots[j] = [(v * inv) % PRIME for v in r]
                    break
                c = r[j]
                for t in range(j, m):
                    r[t] = (r[t] - c * basis[t]) % PRIME
        rank += len(pivots)
    return rank


_SIGNALS = np.random.default_rng(0).normal(size=(8, 600))


def _correlations(rounds: int = 5) -> float:
    total = 0.0
    for _ in range(rounds):
        for i in range(8):
            col = _SIGNALS[i]
            z = (col - col.mean()) / col.std(ddof=1)
            total += float(z @ _SIGNALS[(i + 1) % 8])
    return total


def reference_s() -> float:
    """Seconds the reference loop takes now (about 3.5 ms on a 2.1 GHz Xeon)."""
    started = time.perf_counter()
    _dual_products()
    _row_reduction()
    _correlations()
    return time.perf_counter() - started


class SpeedProbe:
    """Reference times sampled before, during and after a block of code.

    ``samples`` holds every reference time; ``inside_s`` is the time the
    samples taken during the block added to it, which the caller subtracts
    from the block's time.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._previous: Any = None

    def _sample(self, *_: Any) -> None:
        started = time.perf_counter()
        self.samples.append(reference_s())
        self.inside_s += time.perf_counter() - started

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def __enter__(self) -> SpeedProbe:
        self.samples.append(reference_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())
