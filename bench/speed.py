"""Rescale wall time to a fixed machine speed.

On a shared host the same Python work can take up to 1.7 times longer from
one second to the next: the CPU switches between a fast and a slow state
that the process cannot see.  While a `Speedometer` is active, a SIGALRM
handler runs a fixed yardstick of exact `Fraction` arithmetic every `PERIOD`
seconds and records how long it took.  `engine_time(t0, t1)` removes the
handler's own time from the interval and rescales the rest by
`NOMINAL / yardstick`, the speed the yardstick saw during the interval (or,
for an interval too short to hold a sample, just before and after it).

The yardstick exercises the interpreter the way the engine does (small
`Fraction` objects, loops, calls), so the two slow down together: on a
shared 2-vCPU VM, one heavy corpus instance run six times had a spread
(standard deviation over mean) of 16% in wall time and 2% after rescaling.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD = 0.02
# about the yardstick's mean duration inside the handler on that VM
NOMINAL = 0.0004


def yardstick():
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i % 7 + 1) * Fraction(i % 5 + 1, 3)
    return total


class Speedometer:
    """Machine-speed samples taken while active; see the module docstring."""

    def __init__(self):
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        yardstick()
        self.stamps.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def engine_time(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1) without the samples taken in it, at the
        nominal yardstick speed."""
        if not self.costs:
            return t1 - t0
        i = bisect.bisect_left(self.stamps, t0)
        j = bisect.bisect_left(self.stamps, t1)
        inside = self.costs[i:j]
        if inside:
            handler = sum(inside)
            speed = handler / len(inside)
        else:
            handler = 0.0
            near = self.costs[max(i - 1, 0):i + 1]
            speed = sum(near) / len(near)
        return (t1 - t0 - handler) * NOMINAL / speed

    def mean_speed(self) -> float:
        """Mean yardstick speed relative to nominal (1.0 = nominal)."""
        return NOMINAL * len(self.costs) / sum(self.costs) if self.costs \
            else 1.0
