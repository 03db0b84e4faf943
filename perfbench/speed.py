"""Rescaling of measured times to a nominal interpreter speed.

On a shared 2-vCPU virtual machine the same Python code ran up to 1.8x
slower for stretches of several seconds, with no steal time reported: a
pure-Python loop timed for four minutes gave 30-second windows whose
medians differed by 36% (quartile spread).  No usable bound survives that.
So while a ``SpeedTrack`` is active, a SIGALRM timer interrupts the process
every ``PERIOD_S`` seconds and times one fixed reference loop.  An interval
measured on ``SpeedTrack.clock`` (which leaves out the sampling itself) is
rescaled piece by piece: each stretch between two samples by ``REFERENCE_S``
over the median reference time sampled within ``WINDOW_S`` of it.  A
rescaled time reads as the time the same work takes when one reference loop
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.05
WINDOW_S = 0.1
REFERENCE_S = 2.5e-4


def reference_loop() -> float:
    """Fixed interpreter work: float math, tuples and a small dict.

    This tracked the library's slowdowns better than a cache-missing walk
    over a large array: rescaled K+J times at N=400 gave 10-second-window
    medians spreading 3% with this loop and 21% with the walk.
    """
    d = {}
    s = 0.0
    for i in range(1000):
        x = math.sqrt(1.0 + (i & 15)) * 0.5
        d[i & 31] = (x, s)
        s += x * math.exp(-x)
    return s


class SpeedTrack:
    """Reference-loop samples taken from a timer signal while in a ``with``."""

    def __init__(self):
        self.at: list = []  # sample times, on ``clock``
        self.ref: list = []  # seconds of each sampled reference loop
        self.stolen = 0.0  # seconds spent sampling
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent sampling so far."""
        return time.perf_counter() - self.stolen

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.at.append(t0 - self.stolen)
        self.ref.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def _factor(self, k: int) -> float:
        """Factor of segment k, from sample k to sample k + 1: REFERENCE_S
        over the median reference time sampled within WINDOW_S of it."""
        end = self.at[min(k + 1, len(self.at) - 1)]
        lo = bisect_left(self.at, self.at[k] - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.ref[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that rescales a time measured in [t0, t1] (on ``clock``).

        It is the time-weighted mean of the factors of the segments the
        interval overlaps, so an interval over which the machine's speed
        changed is rescaled piece by piece.  One median over a whole
        two-second solve put it up to 13% off the sum of its rescaled parts.
        """
        k = max(bisect_right(self.at, t0) - 1, 0)
        if t1 <= t0:
            return self._factor(k)
        total, start = 0.0, t0
        while True:
            end = self.at[k + 1] if k + 1 < len(self.at) else t1
            end = min(max(end, start), t1)
            total += (end - start) * self._factor(k)
            if end >= t1:
                return total / (t1 - t0)
            start, k = end, k + 1
