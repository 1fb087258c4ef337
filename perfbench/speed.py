"""Host-speed sampling, so that timed work can be normalised to a fixed speed.

The benchmark runs on a few cores of a shared host. There the same
pure-Python work takes from 0.7x to 1.3x its usual time depending on when
it runs, in CPU time as well as wall time, and a drift can last minutes.
A whole 30-second run can land in a slow or a fast stretch, so the spread
between runs of the same code is larger than a change worth measuring.

``Sampler`` measures the host's speed while the program runs: an interval
timer interrupts the main thread every ``INTERVAL`` seconds, and the signal
handler times one reference slice, ``SLICE`` calls of ``reference_work``
(Fraction arithmetic, dict updates, sorting and small tuples: the kinds of
Python work openavg does). A timed region's normalised seconds are its wall
seconds, minus the time spent in the handler, times ``REFERENCE_S`` over
the mean slice time. That is the time the region would take on a host
where one slice takes ``REFERENCE_S``. Work and slices interleave every few
tens of milliseconds, so both see the same stretch of host speed, and their
ratio stays put where either alone drifts.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Seconds between two slices, calls of reference_work in one slice, and the
# nominal seconds of one slice: about its median on the 2-vCPU machine the
# first baseline was measured on. Normalised seconds are seconds of that
# machine at that speed. One slice costs under 4% of the time it samples.
INTERVAL = 0.05
SLICE = 15
REFERENCE_S = 0.0022


def reference_work() -> int:
    """A fixed bit of Fraction, dict, sort and tuple work."""
    acc = Fraction(0)
    table: dict[int, tuple] = {}
    for i in range(40):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        table[i * 7919 % 101] = (i, acc.numerator % 97)
    return sum(k for k, _ in sorted(table.items(), key=lambda kv: kv[1]))


class Sampler:
    """Takes reference slices on a timer inside ``with``; reusable."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.slices = 0
        self.slice_s = 0.0
        self._previous = None

    def take(self, *_signal) -> None:
        start = time.perf_counter()
        for _ in range(SLICE):
            reference_work()
        self.slice_s += time.perf_counter() - start
        self.slices += 1

    def __enter__(self) -> "Sampler":
        self.slices, self.slice_s = 0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall_s: float) -> float:
        """Normalised seconds of a region of ``wall_s`` wall seconds that
        ran inside the last ``with``. A region too short for the timer
        gets one slice taken here, after it."""
        if not self.slices:
            self.take()
            wall_s += self.slice_s
        return (wall_s - self.slice_s) * REFERENCE_S * self.slices / self.slice_s
