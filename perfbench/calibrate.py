"""Machine-speed calibration, timed between the operations of a run.

The host is shared: the same code runs up to 2x slower for minutes at a time
when other tenants are busy, and kinds of work slow down by different
amounts.  A fixed loop that does not use fdmarch, doing the kinds of work
its workload does, is timed before and after every operation, each time for
a share of the operation's time.  Times reported as seconds are scaled by
(loop's reference time) / (mean loop time), so they read as seconds at the
speed at which one loop takes its reference time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

# calibration time on each side of an operation, as a share of its time
SHARE = 0.1

_KS = np.arange(-4, 5, dtype=float)
_WS = np.full(9, 1.0 / 9.0)
_THETA = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)


def _mixed():
    """Exact rational arithmetic, numpy calls on 100 and 10^4 values, and a
    complex exponential with a matrix-vector product as in the growth scan."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1) ** 3
    u = np.linspace(0.0, 1.0, 100)
    for _ in range(120):
        u = 0.5 * np.roll(u, 1) + 0.5 * u
    v = np.linspace(0.0, 1.0, 10_000)
    for _ in range(12):
        v = 0.5 * np.roll(v, 1) + 0.5 * v * v
    g = np.exp(1j * np.multiply.outer(_THETA, _KS)) @ _WS
    return acc, u, v, g


def _arrays():
    """Powers and shifted sums on 10^4 values, as in the layered Burgers update."""
    v = np.linspace(0.0, 1.0, 10_000)
    out = np.zeros_like(v)
    for _ in range(10):
        for p in (1, 2, 3, 4):
            d = (-1.0) ** p * v**p / p
            out += 0.25 * np.roll(d, 1) + 0.25 * np.roll(d, -1)
    return out


@dataclass(frozen=True)
class Loop:
    run: Callable[[], object]
    reference_s: float  # median of 50 loop times on the machine in README.md; a scale only


MIXED = Loop(_mixed, 0.0075)
ARRAYS = Loop(_arrays, 0.0036)


class Speed:
    """Calibration loops run so far, and the machine speed they imply."""

    def __init__(self, loop: Loop):
        self.loop = loop
        self.seconds = 0.0
        self.runs = 0

    def sample(self, work_seconds: float) -> None:
        """Run the loop for SHARE of work_seconds, and at least once."""
        start = time.perf_counter()
        while True:
            self.loop.run()
            self.runs += 1
            spent = time.perf_counter() - start
            if spent >= SHARE * work_seconds:
                break
        self.seconds += spent

    def scale(self) -> float:
        """Factor that turns measured seconds into reference seconds."""
        return self.loop.reference_s * self.runs / self.seconds
