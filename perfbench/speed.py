"""Machine-speed yardstick for normalising op times on a noisy host.

On a shared machine the same pure-Python work can take 20-30 % longer for
seconds at a time, which is more than the benchmark's bounds allow.  The
run therefore times a fixed piece of work that shares no code with
closure14 (Fraction arithmetic, 3x3 numpy products, dict updates: the kinds
of work closure14 does) in short bursts between ops, and scales each op's
time by ``REF_NOMINAL_S / reference time`` measured around it.  A
normalised time reads as the time on a machine where the yardstick takes
``REF_NOMINAL_S``; a program change moves it, a slow phase of the host
mostly does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# median of reference_work on a 2-core x86-64 container (Python 3.11)
REF_NOMINAL_S = 1.2e-3
REF_INTERVAL_S = 0.1
REF_BURST = 5

_M = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])


def reference_work() -> float:
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(1, k)
    m = np.eye(3)
    for _ in range(60):
        m = m @ _M
    table = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i * i
    return float(acc) + float(m[0, 0]) + len(table)


class Yardstick:
    """Speed factor from the latest burst of reference timings."""

    def __init__(self):
        self.samples = []
        self._last = -float("inf")
        self.factor = None

    def factor_now(self) -> float:
        """The current factor, timing a fresh burst at most every REF_INTERVAL_S."""
        if time.perf_counter() - self._last >= REF_INTERVAL_S:
            burst = []
            for _ in range(REF_BURST):
                t0 = time.perf_counter()
                reference_work()
                burst.append(time.perf_counter() - t0)
            self.samples.extend(burst)
            self.factor = REF_NOMINAL_S / statistics.median(burst)
            self._last = time.perf_counter()
        return self.factor
