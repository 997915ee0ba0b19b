"""Fixed-step RK4 integration on a shared uniform grid.

The forward state sweep and the backward costate scan of the optimal-control
solver (``sircontrol.ocp._costate_scan``) must live on exactly the same grid
nodes, so the step size is fixed and non-adaptive.  Control (and, for the
costate, state) samples at the RK4 half-stages are linearly interpolated
between the bracketing node values by :func:`stage_samples`, in either sweep
direction.  The direct-transcription gradient differentiates this rule with
the midpoint weight taken as exactly 0.5, while the sweeps use the rounded
weight below; the two half-stage controls can differ in the last bits, so
the gradient is that of the sweeps' map up to roundoff, and the rule must
not change without it.

The forward sweep serves every scenario with one loop on plain Python
floats.  Once per call, :func:`stage_samples` computes with numpy the node,
half-stage and full-stage samples of every step, from interpolation weights
each :class:`TimeGrid` computes once, of the drain rates ``a`` (S -> R) and
``v`` (I -> R) that a :class:`~sircontrol.model.Drains` map picks from the
control columns.  ``integrate_forward(params, drains, x0, ...)`` takes records,
``ModelParams`` and ``EpidemicState``, and writes the rate law inline as
``d = -dS = beta*S*I + a*S``, ``dI = beta*S*I - (mu + v)*I`` and
``-dR = dI - d`` (``mu + v`` sampled as one array).  IEEE negation is exact,
so the steps ``S + (dt/6) * (-d1 - 2*d2 - ...)`` and ``R - (dt/6) * (...)``
keep the law's bits, and its signed zeros under in-box controls
(``S - (dt/6) * (d1 + ...)`` would keep ``S = -0.0``).

A drain the layout lacks, or every drain when ``controls`` is None, is a
repeated constant rate 0.0 (``mu + 0.0`` for ``mu + v``).  A control signal
whose channel count differs from the layout's, or that lives on another grid,
raises ValueError (:func:`_check_signal`, which ``ocp`` shares).  The
samples are taken of the control's float64 values, and the loop iterates
them through memoryviews, so each float is made when its step reads it.
Nodes are collected in one flat list, packed into one new array in one
call (:func:`_float_array`, which ``ocp._affine_scan`` shares), reshaped,
and checked once per sweep: a non-finite node (:func:`_finite_nodes`,
which the costate scan shares) or a compartment below ``-_ADMISSIBLE_TOL``
times the population, the initial state's sum, raises
:class:`IntegrationError`; ``EpidemicState`` holds x0 to it.

The loop keeps the operation order of the classical 3-vector formulation
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
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import _ADMISSIBLE_TOL, Drains, EpidemicState, ModelParams

__all__ = [
    "IntegrationError",
    "TimeGrid",
    "Trajectory",
    "stage_samples",
    "integrate_forward",
]


class IntegrationError(RuntimeError):
    """Raised when an integration blows up: a non-finite value, or a negative compartment."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals on [t0, t_end].

    Construction raises ValueError unless ``t0 < t_end`` are finite and the
    step ``dt`` is finite and positive, and for a step count below 1, past
    the float range or whose arrays numpy cannot allocate ("steps = N is too
    large: ...").  It computes the node times and the stage weights of both
    sweep directions (see :func:`stage_samples`) once, as read-only arrays.
    """

    t0: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError(f"t_end={self.t_end} and t0={self.t0} must be finite")
        if not self.t_end > self.t0:
            raise ValueError(f"t_end={self.t_end} must exceed t0={self.t0}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        try:  # a step count past the float range
            dt = self.dt
        except OverflowError as e:
            raise ValueError(f"steps = {self.steps} is too large: {e}") from None
        if not 0.0 < dt < math.inf:
            raise ValueError(
                f"t_end={self.t_end} and steps={self.steps} give dt={dt}, not finite and positive"
            )
        try:  # or one whose arrays numpy cannot allocate
            times = np.linspace(self.t0, self.t_end, self.n_nodes)
            weights = tuple(
                (((t_k + 0.5 * h) - t_k) / h, ((t_k + h) - t_k) / h)
                for t_k, h in ((times[:-1], dt), (times[:0:-1], -dt))
            )
        except (ValueError, MemoryError) as e:
            raise ValueError(f"steps = {self.steps} is too large: {e}") from None
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
    """Node values of a state, costate or control series on a grid.

    ``values`` has one row per grid node.  The columns are (S, I, R) for a
    state series, which ``s``, ``i`` and ``r`` name, (lam_S, lam_I, lam_R)
    for a costate and one per channel, u1 then u2, for a control; a control
    is checked against its problem's channel count where it is used.
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


def stage_samples(grid: TimeGrid, nodes: np.ndarray, backward: bool = False, out=None):
    """Start, half-stage and full-stage samples of a node series, one per RK4 step.

    ``nodes`` is one series, or a stack of series on leading axes with the
    nodes on the last.  Steps come in sweep order: forward from node 0,
    backward from the last node.  Each sample is the linear interpolant of
    the step's bracketing nodes under the module's operation-order rule.
    Without ``out`` the start samples are a view of ``nodes``; ``out``, an
    array of shape ``(3, *nodes.shape[:-1], steps)``, receives all three
    (the full-stage row holds the node differences on the way).
    """
    w_half, w_full = grid._stage_weights[backward]
    if backward:
        nodes = nodes[..., ::-1]
    start = nodes[..., :-1]
    first, half, full = (start, None, None) if out is None else out
    delta = np.subtract(nodes[..., 1:], start, out=full)
    half = np.add(start, np.multiply(w_half, delta, out=half), out=half)
    full = np.add(start, np.multiply(w_full, delta, out=full), out=full)
    if out is not None:
        np.copyto(first, start)
    return first, half, full


def _check_signal(controls, grid: TimeGrid, channels: int) -> None:
    """:class:`ValueError` unless ``controls`` lie on ``grid`` with ``channels`` columns."""
    if controls.grid != grid:
        raise ValueError("control signal is sampled on a different grid")
    if controls.values.shape[1] != channels:
        raise ValueError(
            f"the problem expects {channels} control channel(s), "
            f"the signal has {controls.values.shape[1]}"
        )


def _drain_samples(drains: Drains, controls, grid: TimeGrid):
    """``(a, v)``: the stage samples of the two drain rates, triples of arrays; None: rate 0."""
    if controls is None:
        return None, None
    _check_signal(controls, grid, drains.channels)
    # float64 in native byte order, whatever the control's dtype: memoryviews take no other
    columns = drains.split(np.asarray(controls.values, float), None)
    return tuple(None if x is None else stage_samples(grid, x) for x in columns)


def _finite_nodes(out, times: np.ndarray) -> np.ndarray:
    """Node rows of the array ``out``; :class:`IntegrationError` if not finite.

    The error names the step (``times`` in sweep order) of the first such
    row: a sweep's arithmetic never makes a non-finite value finite again.
    """
    nodes = out.reshape(-1, 3)
    if not np.isfinite(nodes).all():
        step = int(np.argmin(np.isfinite(nodes[1:]).all(axis=1)))
        raise IntegrationError(f"non-finite state after step at t={times[step].item()}")
    return nodes


def _float_array(values) -> np.ndarray:
    """A new float64 array of the Python floats ``values``, packed in one call."""
    out = np.empty(len(values))
    struct.pack_into(f"{len(values)}d", out, 0, *values)
    return out


def integrate_forward(
    params: ModelParams, drains: Drains, x0: EpidemicState, grid: TimeGrid, controls=None
) -> Trajectory:
    """Integrate the drain-form field at rates ``params`` from the state ``x0`` over the grid.

    ``controls`` is a control :class:`Trajectory` with one column per
    channel of ``drains`` (or None: no drain).  States are never clipped: a node
    that is not finite, or below ``-_ADMISSIBLE_TOL * (S0 + I0 + R0)``,
    raises :class:`IntegrationError`; node 0, the record ``x0``, was held to it when built.
    The error blames RK4 only if x0 and the drain rates are >= 0, and else names what is not.
    """
    beta, mu = params.beta, params.mu
    a, v = _drain_samples(drains, controls, grid)
    n = grid.steps
    # one iterator per input; ModelParams keeps mu finite and positive, so mu + 0.0 == mu
    a1, am, a4 = map(memoryview, a) if a else (repeat(0.0, n) for _ in range(3))
    g1, gm, g4 = (memoryview(mu + x) for x in v) if v else (repeat(mu + 0.0, n) for _ in range(3))
    dt = grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    s, i, r = float(x0.s), float(x0.i), float(x0.r)
    floor = -_ADMISSIBLE_TOL * (s + i + r)
    out = [s, i, r]
    for a_1, g_1, a_m, g_m, a_4, g_4 in zip(a1, g1, am, gm, a4, g4):
        # d = -dS = x + a*S, dI = x - (mu + v)*I with x = beta*S*I, -dR = dI - d
        x = beta * s * i
        d1 = x + a_1 * s
        k1i = x - g_1 * i
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
    nodes = _finite_nodes(_float_array(out), grid.times())
    low = float(nodes.min())
    if low < floor:  # from x0 >= 0 at drain rates a, mu + v >= 0 the exact S, I and R stay >= 0
        rates = [min(map(np.min, a or [0.0])), mu + min(map(np.min, v or [0.0]))]
        inputs = zip(("s", "i", "r", "a", "mu+v"), (x0.s, x0.i, x0.r, *rates))
        negative = ", ".join(f"{name}={x:g}" for name, x in inputs if x < 0.0)
        causes = f"the exact dynamics allow it from {negative}", "RK4 is unstable on this grid"
        raise IntegrationError(f"a compartment fell to {low:.3g}: {causes[not negative]}")
    return Trajectory(grid, nodes)
