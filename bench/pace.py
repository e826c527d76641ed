"""Paced time: seconds at the machine's calm speed.

The machine the benchmark was built on is shared and changes speed by up
to a factor of two within minutes, so raw wall times of two sets of runs
differ by more than the benchmark's bounds (README.md has the figures).

`Probe` measures the speed of the CPU the program runs on, while it runs:
every `PERIOD_S` a SIGALRM handler times `_burst()`, a fixed piece of
`fractions.Fraction` arithmetic like the program's own inner loops.  A
measured interval is reported in paced seconds: its length outside the
bursts, each stretch scaled by `REF_BURST_S` over the burst time at that
moment (the median of five neighbouring bursts).  The burst shares no code
with `fermatosc`, so a change to the program cannot change the pace.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# _burst() time on the reference machine when it runs at its calm speed
REF_BURST_S = 0.001


def _burst():
    s = Fraction(0)
    for i in range(1, 180):
        s = s * Fraction(i, i + 2) + Fraction(2 * i + 1, 3 * i + 1)
    return s


class Probe:
    def __init__(self):
        self.starts = []
        self.durations = []
        self._smoothed = None

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        d = self.durations
        self._smoothed = [statistics.median(d[max(0, i - 2):i + 3])
                          for i in range(len(d))]

    def _fire(self, signum, frame):
        t0 = time.perf_counter()
        _burst()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def burst_median(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0

    def seconds(self, a: float, b: float) -> float:
        """Paced length of [a, b], in time.perf_counter() seconds; call
        after stop().  Without bursts it is the raw length."""
        starts, durs, smooth = self.starts, self.durations, self._smoothed
        if not starts:
            return b - a
        total = 0.0
        i = bisect.bisect_right(starts, a) - 1    # burst governing time a
        t = a
        while t < b:
            j = i + 1
            end = min(b, starts[j]) if j < len(starts) else b
            busy = 0.0
            if i >= 0:
                busy = max(0.0, min(starts[i] + durs[i], end) - t)
            total += (end - t - busy) * REF_BURST_S / smooth[max(i, 0)]
            t, i = end, j
        return total
