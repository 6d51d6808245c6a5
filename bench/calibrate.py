"""Machine-speed calibration for the benchmark's timings.

On a 2-core virtual machine whose cores are shared with other guests (Xeon,
Python 3.11) the same pure-Python work took anywhere from 1x to 1.7x as long
from one minute to the next, in process CPU time as well as in wall time.
Every timing is therefore also reported in reference seconds: the measured
seconds times ``REFERENCE_S / k``, where ``k`` is the time the fixed kernel
below took just before and just after the measured stretch.  A change to
the package moves the measured time and leaves ``k`` alone; a slower
machine moves both.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Seconds the kernel takes at the reference speed (2-core Xeon VM, Python 3.11).
REFERENCE_S = 0.008


def kernel() -> float:
    """Seconds taken by a fixed pure-Python job of the package's kind: tuple
    keys in dicts and sets, bit masks, frozensets and exact fractions.  The
    cyclic collector is off meanwhile, so that the time does not depend on
    how many objects the benchmark holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    t0 = time.perf_counter()
    index: dict = {}
    seen = set()
    x = 12345
    for i in range(5000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, (x >> 6) & 63, (x >> 12) & 63)
        index.setdefault((key[0] | key[1], key[2]), []).append(key)
        seen.add((key[0] & ~key[2], frozenset(key)))
        if i % 8 == 0:
            Fraction(x & 1023, (x >> 10 & 1023) + 1) * Fraction(i + 1, 7)
    sorted(seen, key=lambda k: (k[0], len(k[1])))
    return time.perf_counter() - t0


class Clock:
    """Splits a timed stretch into segments of at least `segment_s`,
    running the kernel between segments (its time is kept out of the
    segments), and converts each segment to reference seconds."""

    def __init__(self, segment_s: float = 0.25):
        self.segment_s = segment_s
        self.kernel_s = [kernel()]
        self.segments: list[float] = []  # measured seconds per segment
        self.cal_spent = 0.0
        self._start = time.perf_counter()

    def tick(self) -> None:
        """End the current segment if it is long enough."""
        if time.perf_counter() - self._start >= self.segment_s:
            self.close()
            self._start = time.perf_counter()

    def close(self) -> None:
        """End the current segment and time the kernel after it."""
        t0 = time.perf_counter()
        self.segments.append(t0 - self._start)
        self.kernel_s.append(kernel())
        self.cal_spent += time.perf_counter() - t0

    def factors(self) -> list[float]:
        """Reference seconds per measured second, one per segment."""
        k = self.kernel_s
        return [2 * REFERENCE_S / (k[i] + k[i + 1]) for i in range(len(self.segments))]
