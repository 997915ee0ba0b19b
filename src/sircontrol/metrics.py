"""Figure-level quantities of a run: infected peak, infection period, terminal values.

Everything here is a pure function of a :class:`~sircontrol.integrate.Trajectory`;
serialization lives in the cli module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import Trajectory

__all__ = [
    "RunSummary",
    "peak_infected",
    "infection_period",
    "terminal_values",
    "summarize_run",
    "DEFAULT_PERIOD_THRESHOLD",
    "DEFAULT_PERIOD_WINDOW",
]

# infected fraction below which an epidemic is considered over (0.5% of the
# population); calibrated so the default uncontrolled run spans the full
# horizon -- see README
DEFAULT_PERIOD_THRESHOLD = 0.005

# a dip below the threshold only ends the epidemic if sustained this many
# days before the horizon closes: one mean infectious period (1/mu) at the
# default parameters, in the spirit of outbreak-over declarations that
# require a case-free window
DEFAULT_PERIOD_WINDOW = 10.0


@dataclass(frozen=True)
class RunSummary:
    """Finite headline numbers of one run, a period >= 0 (the sweep's floor bounds the peak,
    just below 0 for I0 < 0); ``objective`` is None for uncontrolled runs."""

    peak_infected: float
    t_peak: float
    infection_period: float
    s_end: float
    i_end: float
    r_end: float
    objective: float | None = None

    def __post_init__(self):
        for name in ("peak_infected", "t_peak", "infection_period", "s_end", "i_end", "r_end"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"summary field {name} must be finite, got {v}")
        if self.infection_period < 0:
            raise ValueError(f"infection_period must be non-negative, got {self.infection_period}")
        if self.objective is not None and not math.isfinite(self.objective):
            raise ValueError(f"objective must be finite or None, got {self.objective}")


def peak_infected(traj: Trajectory) -> tuple[float, float]:
    """Time and height of the infected curve's maximum (grid-node argmax).

    Ties break toward the earliest time.  Returns ``(t_peak, i_peak)``.
    """
    i = traj.i
    k = int(np.argmax(i))  # argmax returns the first maximizer
    return float(traj.grid.times()[k]), float(i[k])


def _check_threshold(threshold: float) -> None:
    """:class:`ValueError` unless ``threshold`` is finite and positive."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")


def infection_period(traj: Trajectory, threshold: float = DEFAULT_PERIOD_THRESHOLD) -> float:
    """Days until the infected fraction permanently falls below ``threshold``.

    The candidate end is the earliest grid time t* with I < threshold at
    every node >= t*.  A dip counts as permanent only when it is sustained:
    ``DEFAULT_PERIOD_WINDOW`` days of the horizon must remain below it,
    otherwise the epidemic is treated as ongoing and t_end is returned.
    Returns the start time (0 on default grids) when the curve never reaches
    the threshold at all.
    """
    _check_threshold(threshold)
    i = traj.i
    above = np.flatnonzero(i >= threshold)
    times = traj.grid.times()
    if above.size == 0:
        return float(times[0])
    last = int(above[-1])
    if last == i.size - 1:
        return float(traj.grid.t_end)
    t_star = float(times[last + 1])
    if traj.grid.t_end - t_star < DEFAULT_PERIOD_WINDOW:
        return float(traj.grid.t_end)
    return t_star


def terminal_values(traj: Trajectory) -> tuple[float, float, float]:
    """Compartment values at the final grid node."""
    s, i, r = traj.values[-1]
    return float(s), float(i), float(r)


def summarize_run(
    traj: Trajectory,
    threshold: float = DEFAULT_PERIOD_THRESHOLD,
    objective: float | None = None,
) -> RunSummary:
    """Bundle the headline metrics of one trajectory."""
    t_peak, i_peak = peak_infected(traj)
    s_end, i_end, r_end = terminal_values(traj)
    return RunSummary(
        peak_infected=i_peak,
        t_peak=t_peak,
        infection_period=infection_period(traj, threshold),
        s_end=s_end,
        i_end=i_end,
        r_end=r_end,
        objective=objective,
    )
