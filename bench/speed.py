"""Machine-speed sampling, so that timings measure the program, not the host.

The 2-core virtual machine this benchmark was tuned on shares its host, and the same
Python work there ran at one of two speeds, about 1.9x apart, switching
every 0.1 s to a few seconds.  A fixed exact-arithmetic probe loop slowed
down with the ops: over 90 s of orbit ops the mean op time moved by 45%
between 15 s windows, while the ratio of op time to probe time moved by 2%.

So while a run measures, a SIGALRM timer runs the probe loop every PERIOD_S
inside the process (2-4% of the time).  `calibrate(t0, t1)` removes the probe's own time from an
interval and scales the rest by the mean of NOMINAL_S over the readings taken
in it (the nearest readings, for an interval shorter than the period): the
result is seconds at the probe's nominal speed.  The wall-clock figures are
kept beside the calibrated ones.  A change that slowed the probe itself, by
running work in another thread say, would be masked; the package runs no
threads.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Tuple

PERIOD_S = 0.02
TERMS = 100
NOMINAL_S = 0.0005


def _loop():
    acc = Fraction(0)
    for i in range(1, TERMS):
        acc += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    return acc


class SpeedProbe:
    """Samples the probe loop on a timer between `start` and `stop`."""

    def __init__(self):
        self.times = array("d")      # perf_counter at the start of a reading
        self.readings = array("d")   # seconds the loop took

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        self.times.append(t0)
        self.readings.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self, t0: float, t1: float) -> Tuple[float, float]:
        """(wall seconds, seconds at nominal speed) of [t0, t1], both
        without the probe's own time."""
        i = bisect_left(self.times, t0)
        j = bisect_right(self.times, t1)
        inside = self.readings[i:j]
        wall = (t1 - t0) - sum(inside)
        near = inside or self.readings[max(i - 1, 0):i + 1]
        if not near:
            return wall, wall
        return wall, wall * statistics.fmean(NOMINAL_S / r for r in near)

    def speed(self) -> float:
        """Median speed over all readings, 1.0 being nominal."""
        return NOMINAL_S / statistics.median(self.readings) if self.readings else 1.0
