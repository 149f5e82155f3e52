"""Scaling of timings to a nominal machine speed.

Co-tenant load on a shared machine changes its speed by half or more within
seconds, for every process alike.  So each timing is scaled to a nominal
speed: a fixed piece of pure-Python work (dict updates and Fraction
arithmetic, as in the program) is timed just before and just after it, in
the same process, and the timing is multiplied by REFERENCE_MS over the mean
of those two.  The work takes about REFERENCE_MS on an idle 2-core x86-64
machine, so scaled times read close to wall times there.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

REFERENCE_MS = 1.0


def reference_ms() -> float:
    """Time of the fixed reference work, in ms."""
    start = perf_counter_ns()
    acc: dict[tuple[int, int], Fraction] = {}
    step = Fraction(1, 3)
    for i in range(200):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, step) + step * i
    return (perf_counter_ns() - start) / 1e6


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier that scales a timing taken between two reference timings."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)
