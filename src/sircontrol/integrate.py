"""Fixed-step RK4 integration on a shared uniform grid, forward and backward.

The forward state sweep and the backward costate sweep of the optimal-control
solver must live on exactly the same grid nodes, so the step size is fixed
and non-adaptive.  Control (and, in the backward sweep, state) samples at the
RK4 half-stages are linearly interpolated between the bracketing node values.
The direct-transcription gradient differentiates this rule with the midpoint
weight taken as exactly 0.5, while the sweeps use the rounded weight below;
the two half-stage controls can differ in the last bits, so the gradient is
that of the sweeps' map up to roundoff, and the rule must not change
without it.

Both sweeps serve every scenario with one loop per direction, on plain
Python floats.  Once per call, :func:`stage_samples` computes with numpy the
node, half-stage and full-stage samples of every step, from interpolation
weights each :class:`TimeGrid` computes once: of the drain rates
``a`` (S -> R) and ``v`` (I -> R) that a :class:`~sircontrol.model.Drains`
map picks from the control columns, and backward also of S and I.  Each loop
then runs over the zipped float lists:

* forward: ``integrate_forward(field, ...)`` takes a
  :class:`~sircontrol.model.DrainField` and writes its rate law inline as
  ``d = -dS = beta*S*I + a*S``, ``dI = beta*S*I - (mu + v)*I`` and
  ``-dR = dI - d`` (``mu + v`` sampled as one array).  IEEE negation is
  exact, so the steps ``S + (dt/6) * (-d1 - 2*d2 - ...)`` and
  ``R - (dt/6) * (...)`` keep the law's bits, and its signed zeros under
  in-box controls (``S - (dt/6) * (d1 + ...)`` would keep ``S = -0.0``);
* backward: from lam(t_end) = 0, one call per stage of
  ``costate(lam_s, lam_i, lam_r, s, i, a, v) -> (dlam_s, dlam_i, dlam_r)``,
  whose ``drains`` attribute, if any, names the control columns (see
  :func:`sircontrol.ocp.adjoint_field`).  The sweep solver runs it once per
  solve, for the costate it reports; its iterations take the same costate,
  to roundoff, from the affine scan of ``sircontrol.ocp._costate_scan``,
  for which this loop is the oracle.

A drain the layout lacks, or every drain when ``controls`` is None, has rate
0.0.  A control signal whose channel count differs from the layout's, or
that lives on another grid, raises ValueError.  Nodes are collected in one
flat list and reshaped once, and checked for finiteness once per sweep: a
non-finite node raises :class:`IntegrationError` naming the start time of
the first step that produced one.

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
``x + (dt/6) * (((k1 + 2*k2) + 2*k3) + k4)``.  Numpy's elementwise float64
arithmetic rounds as the scalar loop did, so the precomputed samples are the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import DrainField, Drains

__all__ = [
    "IntegrationError",
    "TimeGrid",
    "Trajectory",
    "stage_samples",
    "integrate_forward",
    "integrate_backward",
]


class IntegrationError(RuntimeError):
    """Raised when an integration produces a non-finite value (blow-up)."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [t0, t_end].

    The node times, and the stage weights of the forward and the backward
    steps (see :func:`stage_samples`), are computed once, at construction,
    as read-only arrays.
    """

    t0: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError(f"t0={self.t0} and t_end={self.t_end} must be finite")
        if not self.t_end > self.t0:
            raise ValueError(f"t_end={self.t_end} must exceed t0={self.t0}")
        if self.steps < 1:
            raise ValueError(f"steps={self.steps} must be >= 1")
        times = np.linspace(self.t0, self.t_end, self.n_nodes)
        weights = tuple(
            (((t_k + 0.5 * h) - t_k) / h, ((t_k + h) - t_k) / h)
            for t_k, h in ((times[:-1], self.dt), (times[:0:-1], -self.dt))
        )
        for array in (times, *weights[0], *weights[1]):
            array.flags.writeable = False
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_stage_weights", weights)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.steps

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return self._times


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

    def conservation_error(self, n: float = 1.0) -> float:
        """Largest deviation of S+I+R from n over all nodes."""
        return float(np.max(np.abs(self.values.sum(axis=1) - n)))

    def min_component(self) -> float:
        return float(self.values.min())


def stage_samples(grid: TimeGrid, nodes: np.ndarray, backward: bool = False):
    """Start, half-stage and full-stage samples of a node series, one per RK4 step.

    ``nodes`` is one series, or a stack of series on leading axes with the
    nodes on the last.  Steps come in sweep order: forward from node 0,
    backward from the last node.  Each sample is the linear interpolant of
    the step's bracketing nodes under the module's operation-order rule.
    """
    w_half, w_full = grid._stage_weights[backward]
    if backward:
        nodes = nodes[..., ::-1]
    start = nodes[..., :-1]
    delta = nodes[..., 1:] - start
    return start, start + w_half * delta, start + w_full * delta


def _drain_samples(drains: Drains, controls, grid: TimeGrid, backward: bool = False):
    """``(a, v)``: the stage samples of the two drain rates, each a triple of arrays."""
    if controls is not None:
        if controls.grid != grid:
            raise ValueError("control signal is sampled on a different grid")
        if controls.values.shape[1] != drains.channels:
            raise ValueError(
                f"the field reads {drains.channels} control channel(s), "
                f"the signal has {controls.values.shape[1]}"
            )
    zero = np.zeros(grid.steps)
    return tuple(
        (zero, zero, zero) if c is None or controls is None
        else stage_samples(grid, controls.values[:, c], backward)
        for c in drains
    )


def _finite_nodes(out: list, times: np.ndarray) -> np.ndarray:
    """The flat node list ``out`` as rows; :class:`IntegrationError` if one is not finite.

    The error names the step (``times`` in sweep order) of the first such
    row: a sweep's arithmetic never makes a non-finite value finite again.
    """
    nodes = np.array(out).reshape(-1, 3)
    if not np.isfinite(nodes).all():
        step = int(np.argmin(np.isfinite(nodes[1:]).all(axis=1)))
        raise IntegrationError(f"non-finite state after step at t={times[step].item()}")
    return nodes


def integrate_forward(
    field: DrainField,
    x0: np.ndarray,
    grid: TimeGrid,
    controls=None,
) -> Trajectory:
    """Integrate the drain-form ``field`` from x0 = (S, I, R) over the grid.

    ``controls`` is a node-sampled signal with one column per channel of
    ``field.drains`` (or None: no drain).  States are never clipped;
    validity is the caller's post-hoc check.
    """
    beta, mu = field.beta, field.mu
    (a1, am, a4), (v1, vm, v4) = _drain_samples(field.drains, controls, grid)
    dt = grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    s, i, r = np.asarray(x0, dtype=float).tolist()
    out = [s, i, r]
    for a, g, a_m, g_m, a_4, g_4 in zip(
        a1.tolist(), (mu + v1).tolist(),
        am.tolist(), (mu + vm).tolist(),
        a4.tolist(), (mu + v4).tolist(),
    ):
        # d = -dS = x + a*S, dI = x - (mu + v)*I with x = beta*S*I, -dR = dI - d
        x = beta * s * i
        d1 = x + a * s
        k1i = x - g * i
        ss = s - half * d1
        ii = i + half * k1i
        x = beta * ss * ii
        d2 = x + a_m * ss
        k2i = x - g_m * ii
        ss = s - half * d2
        ii = i + half * k2i
        x = beta * ss * ii
        d3 = x + a_m * ss
        k3i = x - g_m * ii
        ss = s - dt * d3
        ii = i + dt * k3i
        x = beta * ss * ii
        d4 = x + a_4 * ss
        k4i = x - g_4 * ii
        s = s + sixth * (-d1 - 2.0 * d2 - 2.0 * d3 - d4)
        i = i + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        r = r - sixth * ((k1i - d1) + 2.0 * (k2i - d2) + 2.0 * (k3i - d3) + (k4i - d4))
        out += (s, i, r)
    return Trajectory(grid, _finite_nodes(out, grid.times()))


def integrate_backward(
    adjoint_dynamics: Callable[..., tuple[float, float, float]],
    grid: TimeGrid,
    states: Trajectory,
    controls=None,
) -> Trajectory:
    """Integrate ``adjoint_dynamics`` (see the module docstring) from t_end down to t0.

    The sweep starts from lam(t_end) = 0, the transversality condition of a
    free terminal state, and stores that node exactly.  State and control
    samples at the (negative) RK4 half-stages follow the same linear
    interpolation rule as the forward sweep.  The control columns come from
    ``adjoint_dynamics.drains``; a callable without one reads no channel.
    """
    if states.grid != grid:
        raise ValueError("state trajectory lives on a different grid")
    drains = getattr(adjoint_dynamics, "drains", Drains())
    (a1, am, a4), (v1, vm, v4) = _drain_samples(drains, controls, grid, backward=True)
    (s1, i1), (sm, im), (s4, i4) = stage_samples(grid, states.values[:, :2].T, backward=True)
    back = -grid.dt
    half = 0.5 * back
    sixth = back / 6.0
    ls = li = lr = 0.0
    out = [ls, li, lr]
    for s, i, a, v, s_m, i_m, a_m, v_m, s_4, i_4, a_4, v_4 in zip(
        s1.tolist(), i1.tolist(), a1.tolist(), v1.tolist(),
        sm.tolist(), im.tolist(), am.tolist(), vm.tolist(),
        s4.tolist(), i4.tolist(), a4.tolist(), v4.tolist(),
    ):
        k1s, k1i, k1r = adjoint_dynamics(ls, li, lr, s, i, a, v)
        k2s, k2i, k2r = adjoint_dynamics(
            ls + half * k1s, li + half * k1i, lr + half * k1r, s_m, i_m, a_m, v_m
        )
        k3s, k3i, k3r = adjoint_dynamics(
            ls + half * k2s, li + half * k2i, lr + half * k2r, s_m, i_m, a_m, v_m
        )
        k4s, k4i, k4r = adjoint_dynamics(
            ls + back * k3s, li + back * k3i, lr + back * k3r, s_4, i_4, a_4, v_4
        )
        ls = ls + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        li = li + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        lr = lr + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        out += (ls, li, lr)
    return Trajectory(grid, _finite_nodes(out, grid.times()[::-1])[::-1].copy())
