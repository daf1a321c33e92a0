"""Speed-normalised timing for a machine whose CPU speed drifts.

On a shared virtual machine the same pure-Python work can take twice as
long from one second to the next.  While a ``SpeedMeter`` is active, a
SIGALRM timer interrupts the benchmark every PERIOD seconds and times one
fixed calibration unit (exact Fraction elimination, the engine's kind of
work).  ``normalized(a, b)`` then rescales the time the engine spent in
[a, b] slice by slice: the ticks themselves are cut out, and each slice
between two ticks is multiplied by NOMINAL_S over the calibration time
measured at its ends.  The result reads in seconds at the speed where
one calibration unit takes NOMINAL_S; the raw times are reported too.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD = 0.01
NOMINAL_S = 0.0004
clock = time.perf_counter


def calibration_unit() -> list:
    """A fixed amount of exact row-reduction work."""
    row = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(16)]
    for k in range(4):
        pivot = row[k]
        row = [x * pivot - y for x, y in zip(row, row[1:] + row[:1])]
    return row


class SpeedMeter:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.units: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = clock()
        calibration_unit()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.units.append(end - start)

    def __enter__(self) -> "SpeedMeter":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def _factor(self, i: int) -> float:
        """Scale of the slice that ends at tick i (or after the last tick)."""
        lo, hi = max(i - 1, 0), min(i, len(self.units) - 1)
        return 2 * NOMINAL_S / (self.units[lo] + self.units[hi])

    def normalized(self, a: float, b: float) -> float:
        """Engine time in [a, b], ticks excluded, at the nominal speed."""
        i = bisect.bisect_right(self.ends, a)
        total, t = 0.0, a
        while True:
            stop = min(self.starts[i], b) if i < len(self.starts) else b
            total += max(stop - t, 0.0) * self._factor(i)
            if stop >= b:
                return total
            t = self.ends[i]
            i += 1

    def excluded(self, a: float, b: float) -> float:
        """Raw time in [a, b] with the ticks cut out."""
        i = bisect.bisect_right(self.ends, a)
        j = bisect.bisect_left(self.starts, b)
        return (b - a) - sum(min(e, b) - max(s, a) for s, e in
                             zip(self.starts[i:j], self.ends[i:j]))
