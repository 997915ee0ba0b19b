"""Fixed-step RK4 integration on a shared uniform grid, forward and backward.

The forward state sweep and the backward costate sweep of the optimal-control
solver must live on exactly the same grid nodes, so the step size is fixed
and non-adaptive.  Control (and, in the backward sweep, state) samples at the
RK4 half-stages are linearly interpolated between the bracketing node values;
the direct-transcription solver differentiates exactly this rule, so it must
not change independently.

Both sweeps run on plain Python floats.  Node values are turned into lists
once per call, and a single RK4 loop per direction calls the field once per
stage with floats and unpacks the 3-tuple it returns:

* forward:  ``dynamics(t, s, i, r, u1, u2) -> (ds, di, dr)``
* backward: ``adjoint_dynamics(t, lam_s, lam_i, lam_r, s, i, r, u1, u2)
  -> (dlam_s, dlam_i, dlam_r)``

Control channels a signal lacks (all of them when ``controls`` is None) are
passed as 0.0.  A step whose result is not finite raises
:class:`IntegrationError` naming the step's start time.

The loops keep the operation order of the classical 3-vector formulation
(one numpy RK4 step per interval, applied to a closure that interpolates at
``t``; the tests keep it as their reference), so every node agrees with it
bit for bit.  Operation-order rule: a stage at time ``t`` of the step that
starts at ``t_k`` interpolates with the weight ``(t - t_k) / dt`` as
rounded (``(t_k - t) / dt`` backward).  The weights
``((t_k + 0.5*dt) - t_k) / dt`` and ``((t_k + dt) - t_k) / dt`` must not be
replaced by 0.5 and 1; the first stage's weight is exactly 0, so it takes
the node values.  Stage times are ``t_k + 0.5*dt`` and ``t_k + dt``, with
``dt`` negated backward, and the update is
``x + (dt/6) * (((k1 + 2*k2) + 2*k3) + k4)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import EpidemicState

__all__ = [
    "IntegrationError",
    "TimeGrid",
    "Trajectory",
    "integrate_forward",
    "integrate_backward",
]


class IntegrationError(RuntimeError):
    """Raised when an integration produces a non-finite value (blow-up)."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [t0, t_end]."""

    t0: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not self.t_end > self.t0:
            raise ValueError(f"t_end={self.t_end} must exceed t0={self.t0}")
        if self.steps < 1:
            raise ValueError(f"steps={self.steps} must be >= 1")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.steps

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.n_nodes)


@dataclass(frozen=True)
class Trajectory:
    """Node values of a state (or costate) trajectory on a grid.

    ``values`` has one row per grid node.  For state trajectories the columns
    are (S, I, R); costate trajectories reuse the container with columns
    (lam_S, lam_I, lam_R).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{self.grid.n_nodes} grid nodes"
            )

    @property
    def s(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def i(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def r(self) -> np.ndarray:
        return self.values[:, 2]

    def state_at(self, k: int) -> EpidemicState:
        return EpidemicState.from_array(self.values[k])

    def conservation_error(self, n: float = 1.0) -> float:
        """Largest deviation of S+I+R from n over all nodes."""
        return float(np.max(np.abs(self.values.sum(axis=1) - n)))

    def min_component(self) -> float:
        return float(self.values.min())


def _check_controls(controls, grid: TimeGrid) -> None:
    if controls is not None and controls.grid != grid:
        raise ValueError("control signal is sampled on a different grid")


def _control_columns(controls, n_nodes: int) -> tuple[list, list]:
    """Node values of the two control channels as float lists; absent ones are 0.0."""
    columns = [] if controls is None else controls.values.T.tolist()
    while len(columns) < 2:
        columns.append([0.0] * n_nodes)
    return columns[0], columns[1]


def integrate_forward(
    dynamics: Callable[..., tuple[float, float, float]],
    x0: np.ndarray,
    grid: TimeGrid,
    controls=None,
) -> Trajectory:
    """Integrate ``dynamics(t, s, i, r, u1, u2)`` from x0 = (S, I, R) over the grid.

    ``controls`` is a node-sampled signal (or None for autonomous dynamics);
    its value at RK4 half-stages is the linear interpolant of the bracketing
    nodes.  States are never clipped; validity is the caller's post-hoc check.
    """
    _check_controls(controls, grid)
    times = grid.times().tolist()
    dt = grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    u1, u2 = _control_columns(controls, grid.n_nodes)
    s, i, r = np.asarray(x0, dtype=float).tolist()
    out = [(s, i, r)]
    for k in range(grid.steps):
        t_k = times[k]
        t_half = t_k + half
        t_full = t_k + dt
        w_half = (t_half - t_k) / dt
        w_full = (t_full - t_k) / dt
        a1 = u1[k]
        a2 = u2[k]
        d1 = u1[k + 1] - a1
        d2 = u2[k + 1] - a2
        m1 = a1 + w_half * d1
        m2 = a2 + w_half * d2

        k1s, k1i, k1r = dynamics(t_k, s, i, r, a1, a2)
        k2s, k2i, k2r = dynamics(
            t_half, s + half * k1s, i + half * k1i, r + half * k1r, m1, m2
        )
        k3s, k3i, k3r = dynamics(
            t_half, s + half * k2s, i + half * k2i, r + half * k2r, m1, m2
        )
        k4s, k4i, k4r = dynamics(
            t_full, s + dt * k3s, i + dt * k3i, r + dt * k3r,
            a1 + w_full * d1, a2 + w_full * d2,
        )
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        r = r + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        if not (isfinite(s) and isfinite(i) and isfinite(r)):
            raise IntegrationError(f"non-finite state after step at t={t_k}")
        out.append((s, i, r))
    return Trajectory(grid, np.array(out))


def integrate_backward(
    adjoint_dynamics: Callable[..., tuple[float, float, float]],
    lambda_end: np.ndarray,
    grid: TimeGrid,
    states: Trajectory,
    controls=None,
) -> Trajectory:
    """Integrate ``adjoint_dynamics`` (see the module docstring) from t_end down to t0.

    The stored terminal node is exactly ``lambda_end``.  State and control
    samples at the (negative) RK4 half-stages follow the same linear
    interpolation rule as the forward sweep.
    """
    if states.grid != grid:
        raise ValueError("state trajectory lives on a different grid")
    _check_controls(controls, grid)
    times = grid.times().tolist()
    dt = grid.dt
    back = -dt
    half = 0.5 * back
    sixth = back / 6.0
    isfinite = math.isfinite
    xs, xi, xr = states.values.T.tolist()
    u1, u2 = _control_columns(controls, grid.n_nodes)
    ls, li, lr = np.asarray(lambda_end, dtype=float).tolist()
    out = [(ls, li, lr)]
    for k in range(grid.steps, 0, -1):
        t_k = times[k]
        t_half = t_k + half
        t_full = t_k + back
        w_half = (t_k - t_half) / dt
        w_full = (t_k - t_full) / dt
        sa, ia, ra, a1, a2 = xs[k], xi[k], xr[k], u1[k], u2[k]
        ds = xs[k - 1] - sa
        di = xi[k - 1] - ia
        dr = xr[k - 1] - ra
        d1 = u1[k - 1] - a1
        d2 = u2[k - 1] - a2
        sm, im, rm = sa + w_half * ds, ia + w_half * di, ra + w_half * dr
        m1, m2 = a1 + w_half * d1, a2 + w_half * d2

        k1s, k1i, k1r = adjoint_dynamics(t_k, ls, li, lr, sa, ia, ra, a1, a2)
        k2s, k2i, k2r = adjoint_dynamics(
            t_half, ls + half * k1s, li + half * k1i, lr + half * k1r, sm, im, rm, m1, m2
        )
        k3s, k3i, k3r = adjoint_dynamics(
            t_half, ls + half * k2s, li + half * k2i, lr + half * k2r, sm, im, rm, m1, m2
        )
        k4s, k4i, k4r = adjoint_dynamics(
            t_full, ls + back * k3s, li + back * k3i, lr + back * k3r,
            sa + w_full * ds, ia + w_full * di, ra + w_full * dr,
            a1 + w_full * d1, a2 + w_full * d2,
        )
        ls = ls + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        li = li + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        lr = lr + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        if not (isfinite(ls) and isfinite(li) and isfinite(lr)):
            raise IntegrationError(f"non-finite state after step at t={t_k}")
        out.append((ls, li, lr))
    out.reverse()
    return Trajectory(grid, np.array(out))
