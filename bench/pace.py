"""The host's speed while a repetition runs, from a fixed reference loop.

A shared host changes the speed of the same code by up to a factor of
two, in phases that last from seconds to minutes (see BASELINE.md), and
the processor time of a process swings with it, so neither a time in
seconds nor its minimum over a run is steady from one run to the next.
While the serial request list runs, a SpeedMeter times the fixed
`reference_loop` every INTERVAL_S of wall time, from a SIGALRM handler.
The list's time multiplied by the mean rate of the loop (loops per
second) is the list's time in lengths of the loop: `wall_ref`.  The
loop is benchmark code, so a change to the package leaves it alone and
moves `wall_ref` in proportion to `wall_s`.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
_BIG = 3 ** 2000


def reference_loop() -> None:
    """About a millisecond of work mixed like the package's own:
    interpreted integer and dict operations, then big-integer
    multiplication and exact division."""
    x, d = 0, {}
    for i in range(4000):
        x += i * i % 7
        d[i & 63] = x
    for _ in range(15):
        (_BIG * _BIG) // (_BIG + 1)


class SpeedMeter:
    """Samples the reference loop's rate while it is entered.

    clock() is perf_counter less the time spent in samples, so request
    latencies taken with it leave the samples out.
    """

    def __init__(self):
        self.rates: list[float] = []
        self.spent = 0.0
        self._old = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def rate(self) -> float:
        """Mean rate of the loop, in loops per second.  The samples are
        evenly spaced in time, so a stretch of t seconds that they cover
        lasted t * rate() lengths of the loop."""
        return sum(self.rates) / len(self.rates)

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.rates.append(1.0 / dt)
        self.spent += dt

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False
