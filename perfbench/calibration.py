"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's time metrics are wall times scaled to a reference host
speed.  A shared virtual machine can run the same code up to 2x slower,
in spells from a fraction of a second to minutes, while other tenants are
busy; that would swamp any change to sircontrol.  The kernel below does the
same kind of work as the solvers -- a Python RK4 loop over three-element
numpy arrays -- but it is the benchmark's own code and never imports
sircontrol, so a change to the program cannot change its time.

While a pass runs, a SIGALRM handler runs the kernel every
SAMPLE_INTERVAL_S of wall time, wherever the program is, so that the kernel
samples the same spells as the pass.  Every timed interval takes the kernel
time that fell inside it back out (``Clock.now`` and ``Clock.since``).  An
interval's time is reported as

    measured seconds * REFERENCE_S / mean kernel time over the interval

that is, as the time it would have taken had the kernel run in REFERENCE_S
throughout.  An interval with fewer than WINDOW_MARKS kernel runs inside it
borrows the nearest ones on both sides.  A kernel timed only at the ends
of a pass samples other spells than the pass, and adds noise instead of
removing it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# The kernel's time in quiet spells on a 2-vCPU Firecracker VM with
# Python 3.11 and numpy 2.4; any fixed value serves, as long as every run
# that is compared uses the same one.
REFERENCE_S = 0.01
KERNEL_STEPS = 1000
# Wall time between two kernel runs while sampling: about 4% of a pass.
SAMPLE_INTERVAL_S = 0.25
# Fewest kernel runs a scale factor is taken over (two seconds of them).
WINDOW_MARKS = 8


def _kernel(steps: int = KERNEL_STEPS) -> float:
    """RK4 of a controlled SIR model with a numpy array per stage."""
    beta, mu, dt = 0.3, 0.1, 100.0 / KERNEL_STEPS

    def rates(x, u):
        s, i = x[0], x[1]
        ds = -beta * s * i - u * s
        di = beta * s * i - mu * i
        return np.array([ds, di, -(ds + di)])

    x = np.array([0.95, 0.05, 0.0])
    out = np.empty((steps + 1, 3))
    out[0] = x
    for k in range(steps):
        u = 0.5 + (k % 7) / 14.0
        k1 = rates(x, u)
        k2 = rates(x + 0.5 * dt * k1, u)
        k3 = rates(x + 0.5 * dt * k2, u)
        k4 = rates(x + dt * k3, u)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return float(out[:, 1].max())


@dataclass(frozen=True)
class Interval:
    """A timed interval: its seconds less kernel time, and the kernel runs inside it."""

    seconds: float
    first: int  # index of the first kernel run at or after its start
    end: int  # one past the last kernel run before its end


class Clock:
    """Kernel times taken through a run, and the scale factors they give."""

    def __init__(self):
        _kernel(100)  # the first call pays one-off costs the later ones do not
        self.marks: list[float] = []
        # seconds spent in the kernel, to take back out of timed intervals
        self.spent = 0.0

    def mark(self) -> int:
        """Time the kernel once; return the index of this mark."""
        start = time.perf_counter()
        _kernel()
        self.marks.append(time.perf_counter() - start)
        self.spent += self.marks[-1]
        return len(self.marks) - 1

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every SAMPLE_INTERVAL_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def now(self) -> tuple[float, float, int]:
        """A start point for ``since``."""
        return time.perf_counter(), self.spent, len(self.marks)

    def since(self, start: tuple[float, float, int]) -> Interval:
        """The interval from ``start`` to now, less the kernel time in between."""
        seconds = time.perf_counter() - start[0] - (self.spent - start[1])
        return Interval(seconds, start[2], len(self.marks))

    def factor(self, first: int, end: int) -> float:
        """REFERENCE_S over the mean time of kernel runs ``first`` to ``end - 1``.

        The range is widened on both sides to WINDOW_MARKS runs where there
        are that many; take it once the runs after the interval are in.
        """
        while end - first < WINDOW_MARKS and (first > 0 or end < len(self.marks)):
            first, end = max(first - 1, 0), min(end + 1, len(self.marks))
        return REFERENCE_S / statistics.fmean(self.marks[first:end])

    def speed(self) -> float:
        """Median host speed over the run, 1.0 at the reference (for the log)."""
        return REFERENCE_S / statistics.median(self.marks)
