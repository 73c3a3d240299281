"""Host-speed sampling, so timings can be stated at a fixed reference speed.

On a shared host the same operation runs up to 2x slower for fractions
of a second, and the run-level average drifts by about 30% over
minutes (a fixed Python loop sampled every 100 ms took 63 to 118 ms on
the 2-core host this benchmark was tuned on). Wall time alone then
cannot tell a 10% change in the program from a change in the neighbours.

``SpeedProbe`` runs a fixed computation from an interval timer while the
workload runs. Python runs the handler in the main thread between
bytecodes, inside whatever program code is executing, so the samples
cover long operations too; the handler touches no program state. An
interval's reference seconds are its wall time, less the probe's own
time inside it, times PROBE_REFERENCE_S over the harmonic mean of the
probe times sampled during (or right next to) the interval: the work
done is the integral of the speed, the inverse of the probe time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PROBE_ITERATIONS = 1000
# The probe's time on an uncontended core of the reference host (2.1 GHz,
# Python 3.11); reference seconds are wall seconds on that host when quiet.
PROBE_REFERENCE_S = 1.5e-4
PROBE_INTERVAL_S = 0.025


def probe_work() -> float:
    """The fixed computation: scalar float math and calls, as in the program's hot loops."""
    x = 0.0
    for i in range(PROBE_ITERATIONS):
        x += math.exp(-1e-3 * i) * (i + 1.0)
    return x


class SpeedProbe:
    """Context manager that samples probe_work every PROBE_INTERVAL_S seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the reference speed."""
        inside = sum(self.durations[bisect_left(self.starts, start):bisect_right(self.starts, end)])
        lo = bisect_left(self.starts, start - PROBE_INTERVAL_S)
        hi = bisect_right(self.starts, end + PROBE_INTERVAL_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return (end - start - inside) * PROBE_REFERENCE_S / statistics.harmonic_mean(self.durations[lo:hi])
