"""Machine-speed probe, for timing on a shared CPU whose speed drifts.

On a small shared machine the same Python code can run 20-30% slower for
seconds at a time while neighbours are busy, which would show up as a
change in the program.  While the probe is running, a timer signal every
PERIOD_S runs a fixed calibration burst (a loop of bytecode and tiny numpy
calls, the mix qapool spends its time in) in the main thread and records
its cost.  ``normalize`` turns a measured interval into nominal seconds:
the interval's wall time minus the bursts inside it, scaled by
NOMINAL_BURST_S / (mean cost of those bursts).  An interval with no burst
inside uses the nearest burst before and after it.

The burst runs no program code, so a change to the program cannot change
the scale it is measured in.  Signal handlers run between bytecodes, so a
burst never splits a numpy call; system calls interrupted by the signal are
retried by the interpreter.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
BURST_ITERS = 400
# typical cost of one burst on the 2-vCPU Xeon VM the benchmark was written
# on; normalized times read as seconds on that machine at that speed
NOMINAL_BURST_S = 0.5e-3

_V = np.ones(3)


def burst() -> float:
    """Run the calibration loop once; return its cost in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(BURST_ITERS):
        s += float(_V @ _V) + i * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self) -> None:
        self.at = array("d")  # burst start times (perf_counter)
        self.cost = array("d")
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        cost = burst()
        self.at.append(t0)
        self.cost.append(cost)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        """Stop sampling, e.g. while a child process does the work."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def normalize(self, t0: float, t1: float) -> float:
        """Nominal seconds of work done in the interval [t0, t1]."""
        i = bisect_left(self.at, t0)
        j = bisect_left(self.at, t1)
        inside = self.cost[i:j]
        if inside:
            spent = sum(inside)
            return (t1 - t0 - spent) * NOMINAL_BURST_S * len(inside) / spent
        near = self.cost[max(i - 1, 0): j + 1]
        if not near:
            raise ValueError("no speed sample was taken")
        return (t1 - t0) * NOMINAL_BURST_S * len(near) / sum(near)

    def mean_cost(self) -> float:
        return sum(self.cost) / len(self.cost)
