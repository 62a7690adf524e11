"""Machine-speed probe, so that times are reported at a fixed reference speed.

On a shared virtual machine the speed of a vCPU drifts by a quarter or more
over tens of seconds, and the drift moves every pure-Python workload alike.
The probe runs a fixed reference task (Fraction and dict arithmetic, no
dslforge code) from a wall-clock timer signal every PERIOD_S seconds, in the
benchmark's own thread, and records how long each run of it took.  A
measured interval is then

    (wall time - time spent in the probe) * NOMINAL_S / median probe sample,

that is, seconds at the speed the machine had when NOMINAL_S was measured.
The probe's own time never counts: `clock()` is a perf_counter that stops
while the probe runs.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
# Typical time of reference_task() between operations on the 2-CPU,
# Python 3.11 machine the benchmark was tuned on; it only sets the scale of
# the reported seconds.
NOMINAL_S = 0.005


def reference_task() -> int:
    acc: dict = {}
    for i in range(1000):
        key = format(i * 7919 % 509, "b")
        acc[key] = acc.get(key, 0) + Fraction(i % 13 - 6, 1 + i % 7)
    return len(acc)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # total seconds spent inside the probe
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fires during a slow tick is dropped
            return
        self._busy = True
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # keep the task's cost independent of the heap's size
        try:
            start = perf_counter()
            reference_task()
            self.samples.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.spent += perf_counter() - entered
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def calibrate(self, count: int) -> None:
        """Take `count` samples now, back to back (only while stopped)."""
        if self._previous is not None:
            raise RuntimeError("calibrate() needs the timer stopped")
        for _ in range(count):
            self._tick(None, None)

    def clock(self) -> float:
        """perf_counter minus the time spent in the probe so far."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int, until: int | None = None) -> float:
        """Median probe sample between two marks, over NOMINAL_S (1.0 if
        none).  The median, because now and then a few percent of the
        samples take five times as long while the benchmark itself does not
        slow down as much."""
        window = self.samples[since:until]
        if not window:
            return 1.0
        return statistics.median(window) / NOMINAL_S
