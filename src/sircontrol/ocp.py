"""Optimal-control problems on the SIR model and their solvers.

Three control strategies are supported, each minimizing an integral cost over
a fixed horizon subject to box bounds 0 <= u <= u_max:

* VACCINATION            cost  I + (nu/2) u^2          dynamics with  u S -> R
* VACCINATION_WEIGHTED   cost  a1 S + a2 I - a3 R + (tau/2) u^2,  same dynamics
* TREATMENT_EDUCATION    cost  kappa I + (b1/2) u1^2 + (b2/2) u2^2
                         with treatment u1 I -> R and education u2 S -> R

Each running cost is ``c_x . (S, I, R) + (w1/2) u1^2 + (w2/2) u2^2`` and each
control moves a compartment into R.  ``_weights(spec) -> (c_x, w)`` is the
only code that branches on the strategy; ``_LAYOUTS`` holds one entry per
control layout (u1 drains S; u1 drains I and u2 drains S) that builds the
dynamics field, the costate field ``-(c_x + f_x^T lam)`` and the products
``f_x^T k``, ``f_u^T k``.  The running cost, the control law
``clip(-(f_u^T lam)_c / w_c, 0, u_max)`` and the reverse gradient derive from
these two tables (see docs/costate_derivation.md).  Two solution routes:

``solve_fbsm``
    Forward-backward sweep: alternate forward state integration, backward
    costate integration from the transversality condition lam(t_end) = 0,
    and a relaxed update toward the pointwise control law.

``solve_direct``
    Direct transcription: projected-gradient descent on the control node
    values, with the exact reverse-mode gradient of the discrete scheme (RK4
    with linearly interpolated controls, trapezoid cost quadrature).

The two routes share the problem tables, Jacobians included, and the forward
integrator; the tables are checked independently by finite differences of the
discrete objective (reverse gradient) and of the Hamiltonian (costate field).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .integrate import (
    IntegrationError,
    TimeGrid,
    Trajectory,
    integrate_backward,
    integrate_forward,
)
from .model import (
    EpidemicState,
    ModelParams,
    treatment_education_rates,
    uncontrolled_rates,
    vaccination_rates,
)

__all__ = [
    "Strategy",
    "StrategySpec",
    "ControlSignal",
    "OcpSolution",
    "default_spec",
    "running_cost",
    "objective",
    "control_law",
    "dynamics_field",
    "uncontrolled_field",
    "adjoint_field",
    "objective_gradient",
    "solve_fbsm",
    "solve_direct",
    "DEFAULT_PARAMS",
    "DEFAULT_X0",
    "DEFAULT_T_END",
    "DEFAULT_STEPS",
    "DEFAULT_U_MAX",
]

logger = logging.getLogger(__name__)

DEFAULT_PARAMS = ModelParams(beta=0.2, mu=0.1, n=1.0)
DEFAULT_X0 = EpidemicState(0.95, 0.05, 0.0)
DEFAULT_T_END = 100.0
DEFAULT_STEPS = 1000
DEFAULT_U_MAX = 0.9

_WEIGHT_FIELDS = ("nu", "a1", "a2", "a3", "tau", "kappa", "b1", "b2")


class Strategy(IntEnum):
    """The three control problems, numbered as in the CLI."""

    VACCINATION = 1
    VACCINATION_WEIGHTED = 2
    TREATMENT_EDUCATION = 3

    @property
    def channels(self) -> int:
        return _LAYOUTS[self][0]


@dataclass(frozen=True)
class StrategySpec:
    """Full definition of one control problem instance.

    Weight fields not used by ``kind`` are carried with their defaults and
    ignored.  Defaults reproduce the reference scenario of the toolkit.
    """

    kind: Strategy
    params: ModelParams = DEFAULT_PARAMS
    x0: EpidemicState = DEFAULT_X0
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(0.0, DEFAULT_T_END, DEFAULT_STEPS))
    u_max: float = DEFAULT_U_MAX
    nu: float = 0.5
    a1: float = 0.1
    a2: float = 0.5
    a3: float = 0.002
    tau: float = 1.0
    kappa: float = 1.0
    b1: float = 0.2
    b2: float = 0.04

    def __post_init__(self):
        if not (np.isfinite(self.u_max) and 0.0 < self.u_max):
            raise ValueError(f"u_max must be in (0, inf), got {self.u_max}")
        for name in _WEIGHT_FIELDS:
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"weight {name} must be positive, got {v}")
        self.x0.validate(self.params.n)

    @property
    def channels(self) -> int:
        return self.kind.channels


def default_spec(kind: Strategy | int, steps: int = DEFAULT_STEPS) -> StrategySpec:
    """The reference problem instance for one strategy."""
    return StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, DEFAULT_T_END, steps))


@dataclass(frozen=True)
class ControlSignal:
    """Node-sampled control trajectory, one column per channel."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"control values shape {self.values.shape} does not match "
                f"{self.grid.n_nodes} grid nodes"
            )
        if self.values.shape[1] not in (1, 2):
            raise ValueError(f"controls must have 1 or 2 channels, got {self.values.shape[1]}")

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, grid: TimeGrid, channels: int) -> "ControlSignal":
        return cls(grid, np.zeros((grid.n_nodes, channels)))

    def max_bound_violation(self, u_max: float) -> float:
        return float(max(-self.values.min(), self.values.max() - u_max, 0.0))


@dataclass
class OcpSolution:
    """Solver output: state/control/costate trajectories and a convergence report."""

    trajectory: Trajectory
    control: ControlSignal
    adjoints: Trajectory
    objective: float
    iterations: int
    converged: bool
    objective_history: list[float]


# -- the problem tables --------------------------------------------------------


def _weights(spec: StrategySpec):
    """``(c_x, w)``: the running cost is ``c_x . (S, I, R) + (w1/2) u1^2 + (w2/2) u2^2``."""
    if spec.kind is Strategy.VACCINATION:
        return (0.0, 1.0, 0.0), (spec.nu, 0.0)
    if spec.kind is Strategy.VACCINATION_WEIGHTED:
        return (spec.a1, spec.a2, -spec.a3), (spec.tau, 0.0)
    return (0.0, spec.kappa, 0.0), (spec.b1, spec.b2)


# A layout builder takes (beta, mu, c_x) and returns float callables
# dynamics(t, s, i, r, u1, u2), costate(t, lam_s, lam_i, lam_r, s, i, r, u1, u2)
# and vjp(s, i, u1, u2, k_s, k_i, k_r) (see docs/costate_derivation.md).  The
# costate field is written out, not composed from vjp, so that it stays as
# fast as, and bit for bit equal to, the published equations; f_u^T k is
# written (k_R - k_X) x for a control moving X to R for the same reason.


def _drains_s(beta, mu, c_x):
    """u1 moves S to R (strategies 1 and 2); u2 is ignored."""
    ns, ni, nr = -c_x[0], -c_x[1], -c_x[2]

    def dynamics(t, s, i, r, u1, u2):
        return vaccination_rates(s, i, beta, mu, u1)

    def costate(t, ls, li, lr, s, i, r, u1, u2):
        return (
            ns + (ls - li) * beta * i + (ls - lr) * u1,
            ni + (ls - li) * beta * s + (li - lr) * mu,
            nr + 0.0 * lr,
        )

    def vjp(s, i, u1, u2, ks, ki, kr):
        return (
            (-beta * i - u1) * ks + beta * i * ki + u1 * kr,
            -beta * s * ks + (beta * s - mu) * ki + mu * kr,
            (kr - ks) * s,
            0.0,
        )

    return dynamics, costate, vjp


def _drains_i_and_s(beta, mu, c_x):
    """u1 moves I to R and u2 moves S to R (strategy 3)."""
    ns, ni, nr = -c_x[0], -c_x[1], -c_x[2]

    def dynamics(t, s, i, r, u1, u2):
        return treatment_education_rates(s, i, beta, mu, u1, u2)

    def costate(t, ls, li, lr, s, i, r, u1, u2):
        return (
            ns + (ls - li) * beta * i + (ls - lr) * u2,
            ni + (ls - li) * beta * s + (li - lr) * (mu + u1),
            nr + 0.0 * lr,
        )

    def vjp(s, i, u1, u2, ks, ki, kr):
        return (
            (-beta * i - u2) * ks + beta * i * ki + u2 * kr,
            -beta * s * ks + (beta * s - mu - u1) * ki + (mu + u1) * kr,
            (kr - ki) * i,
            (kr - ks) * s,
        )

    return dynamics, costate, vjp


# strategy -> (control channels, layout builder)
_LAYOUTS = {
    Strategy.VACCINATION: (1, _drains_s),
    Strategy.VACCINATION_WEIGHTED: (1, _drains_s),
    Strategy.TREATMENT_EDUCATION: (2, _drains_i_and_s),
}


def _fields(spec: StrategySpec):
    """``(dynamics, costate, vjp)`` of the spec's layout at its rates and weights."""
    c_x, _ = _weights(spec)
    return _LAYOUTS[spec.kind][1](spec.params.beta, spec.params.mu, c_x)


# -- derived problem functions -------------------------------------------------


def running_cost(spec: StrategySpec, s, i, r, u1, u2):
    """Cost integrand ``c_x . (S, I, R) + (w1/2) u1^2 + (w2/2) u2^2``, on floats or arrays."""
    (cs, ci, cr), (w1, w2) = _weights(spec)
    return cs * s + ci * i + cr * r + 0.5 * w1 * u1**2 + 0.5 * w2 * u2**2


def objective(spec: StrategySpec, traj: Trajectory, controls: ControlSignal) -> float:
    """Composite-trapezoid quadrature of the running cost over the horizon."""
    if traj.grid != spec.grid or controls.grid != spec.grid:
        raise ValueError("trajectory/controls are not on the problem grid")
    if controls.channels != spec.channels:
        raise ValueError(
            f"{spec.kind.name} expects {spec.channels} control channel(s), "
            f"got {controls.channels}"
        )
    u = controls.values
    c = running_cost(
        spec, traj.s, traj.i, traj.r, u[:, 0], u[:, 1] if controls.channels == 2 else 0.0
    )
    dt = spec.grid.dt
    return float(dt * (c.sum() - 0.5 * (c[0] + c[-1])))


def control_law(spec: StrategySpec, s, i, lam_s, lam_i, lam_r) -> np.ndarray:
    """Pointwise minimizer of H over the box, ``clip(-(f_u^T lam)_c / w_c, 0, u_max)``.

    Takes floats or node arrays; returns one column per control channel.
    """
    _, w = _weights(spec)
    f_u = _fields(spec)[2](s, i, 0.0, 0.0, lam_s, lam_i, lam_r)[2:]
    return np.column_stack(
        [np.clip(-f_u[c] / w[c], 0.0, spec.u_max) for c in range(spec.channels)]
    )


# -- dynamics/costate fields for the integrator ------------------------------


def uncontrolled_field(params: ModelParams):
    """Dynamics callable for :func:`integrate_forward` with no control."""
    beta, mu = params.beta, params.mu

    def f(t, s, i, r, u1, u2):
        return uncontrolled_rates(s, i, beta, mu)

    return f


def dynamics_field(spec: StrategySpec):
    """Controlled dynamics callable for :func:`integrate_forward`."""
    return _fields(spec)[0]


def adjoint_field(spec: StrategySpec):
    """Costate dynamics ``-(c_x + f_x^T lam)``, a callable for :func:`integrate_backward`."""
    return _fields(spec)[1]


# Smallest compartment, as a fraction of the population, of a solver's
# forward sweep that is not treated as a blow-up.
_ADMISSIBLE_TOL = 1e-9


def _admissible(traj: Trajectory, n: float) -> Trajectory:
    """``traj``, or :class:`IntegrationError` if a compartment is below ``-_ADMISSIBLE_TOL * n``.

    The exact dynamics keep every compartment non-negative, so such a state
    means RK4 is unstable on this grid (on 3 steps a trial reaches I = -1e12).
    """
    low = traj.min_component()
    if low < -_ADMISSIBLE_TOL * n:
        raise IntegrationError(f"a compartment fell to {low:.3g}: RK4 is unstable on this grid")
    return traj


def _admissible_forward(spec: StrategySpec, dynamics, signal: ControlSignal) -> Trajectory:
    """Forward sweep of a solver iterate, checked by :func:`_admissible`."""
    traj = integrate_forward(dynamics, spec.x0.as_array(), spec.grid, signal)
    return _admissible(traj, spec.params.n)


# -- forward-backward sweep --------------------------------------------------


def _trial_objective(spec, dynamics, signal):
    """Objective and forward trajectory of a trial control; +inf if it blew up."""
    try:
        traj = _admissible_forward(spec, dynamics, signal)
    except IntegrationError:
        return math.inf, None
    return objective(spec, traj, signal), traj


def solve_fbsm(
    spec: StrategySpec,
    *,
    tol: float = 1e-3,
    max_iterations: int = 500,
    relaxation: float = 0.5,
) -> OcpSolution:
    """Solve the control problem by forward-backward sweeping.

    Each iteration integrates the states forward under the current control,
    integrates the costates backward from lam(t_end) = 0, evaluates the
    pointwise control law, and blends toward it,
    ``u <- (1 - c) u + c u_law`` with ``c = relaxation``.  A blend that
    raises the objective is retried with ``c`` halved (the plain relaxed
    iteration limit-cycles on strongly state-weighted problems); ``c``
    resets to ``relaxation`` at the next iteration.  At ``relaxation/64``
    the blend is accepted as it is, unless it blew up (see
    :func:`_admissible_forward`): such a trial scores +inf and is never
    accepted, and when every damped trial of an iteration blows up the
    sweep stops.  A blow-up of the initial zero-control sweep, or of the
    costate sweep of an accepted iterate, still raises.  Convergence is declared
    when every channel satisfies the relative-L1 test
    ``tol * ||u_new||_1 - ||u_new - u_old||_1 >= 0``.

    On non-convergence the best iterate (lowest objective) is returned with
    ``converged=False``.
    """
    dynamics = dynamics_field(spec)
    adj_dynamics = adjoint_field(spec)

    u = np.zeros((spec.grid.n_nodes, spec.channels))
    signal = ControlSignal(spec.grid, u)
    traj = _admissible_forward(spec, dynamics, signal)
    lam = integrate_backward(adj_dynamics, np.zeros(3), spec.grid, traj, signal)
    j = objective(spec, traj, signal)
    history = [j]
    best = (j, traj, signal, lam)

    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        u_law = control_law(spec, traj.s, traj.i, *lam.values.T)

        damp = relaxation
        while True:
            u_new = (1.0 - damp) * u + damp * u_law
            signal_new = ControlSignal(spec.grid, u_new)
            j_new, traj_new = _trial_objective(spec, dynamics, signal_new)
            if j_new <= j + 1e-12 or damp <= relaxation / 64.0:
                break
            damp *= 0.5
        if not math.isfinite(j_new):
            logger.warning(
                "%s sweep: every damped trial blew up at iteration %d", spec.kind.name, iterations
            )
            break

        signal, traj, j = signal_new, traj_new, j_new
        lam = integrate_backward(adj_dynamics, np.zeros(3), spec.grid, traj, signal)
        history.append(j)
        if j < best[0]:
            best = (j, traj, signal, lam)
        # accepted steps descend by construction; log the forced exceptions
        if iterations > 5 and j > history[-2] + 1e-6:
            logger.warning(
                "%s sweep: objective rose by %.3e at iteration %d",
                spec.kind.name,
                j - history[-2],
                iterations,
            )

        ok = True
        for c in range(spec.channels):
            gap = tol * np.abs(u_new[:, c]).sum() - np.abs(u_new[:, c] - u[:, c]).sum()
            if gap < 0.0:
                ok = False
                break
        u = u_new
        if ok:
            converged = True
            break

    if not converged:
        j, traj, signal, lam = best
        logger.warning("%s sweep did not converge in %d iterations", spec.kind.name, iterations)
    return OcpSolution(traj, signal, lam, j, iterations, converged, history)


# -- direct transcription ----------------------------------------------------


def objective_gradient(spec: StrategySpec, u_values: np.ndarray):
    """Discretized objective and its exact gradient w.r.t. control node values.

    Reverse-mode differentiation of the actual discrete computation: RK4
    steps with linearly interpolated controls (half-stages see the node
    midpoint average) and trapezoid quadrature of the running cost.  Agrees
    with finite differences of :func:`objective` on the forward trajectory
    to roundoff.  The state adjoint obeys an affine recursion whose
    coefficients depend only on the trajectory and the controls: they come
    for every step at once from the layout's ``vjp`` on node arrays, and one
    float loop scans the adjoint's S and I components (its R component has
    a closed form; see docs/costate_derivation.md).

    Returns ``(objective_value, gradient)`` with the gradient shaped like
    ``u_values``.  Raises :class:`IntegrationError` when the forward sweep
    blows up (see :func:`_admissible_forward`).
    """
    signal = ControlSignal(spec.grid, u_values)
    dynamics, _, vjp = _fields(spec)
    traj = _admissible_forward(spec, dynamics, signal)
    j = objective(spec, traj, signal)

    (cs, ci, cr), w = _weights(spec)
    dt = spec.grid.dt
    n = spec.grid.steps
    half, third, sixth = 0.5 * dt, dt / 3.0, dt / 6.0
    u = u_values.T
    u1 = u[0]
    u2 = u[1] if spec.channels == 2 else np.zeros(n + 1)

    # stage states of every step, as the forward sweep built them
    t_k = spec.grid.times()[:-1]
    ua1, ua2, ub1, ub2 = u1[:-1], u2[:-1], u1[1:], u2[1:]
    um1, um2 = 0.5 * (ua1 + ub1), 0.5 * (ua2 + ub2)
    s1, i1, r1 = traj.values[:-1].T
    fs, fi, fr = dynamics(t_k, s1, i1, r1, ua1, ua2)
    s2, i2, r2 = s1 + half * fs, i1 + half * fi, r1 + half * fr
    fs, fi, fr = dynamics(t_k + half, s2, i2, r2, um1, um2)
    s3, i3, r3 = s1 + half * fs, i1 + half * fi, r1 + half * fr
    fs, fi, _ = dynamics(t_k + half, s3, i3, r3, um1, um2)
    s4, i4 = s1 + dt * fs, i1 + dt * fi

    # the unit seeds e_S, e_I, e_R on a leading axis, pulled back through the
    # four stages of every step: row j of a_X is (M_k e_j)_X, and to_a, mid
    # and to_b give the control weights of nodes k and k+1
    ks, ki, kr = np.eye(3)[:, :, None]
    a4s, a4i, e1, e2 = vjp(s4, i4, ub1, ub2, sixth * ks, sixth * ki, sixth * kr)
    to_b = (e1, e2)
    a3s, a3i, d1, d2 = vjp(
        s3, i3, um1, um2, third * ks + dt * a4s, third * ki + dt * a4i, third * kr
    )
    a2s, a2i, e1, e2 = vjp(
        s2, i2, um1, um2, third * ks + half * a3s, third * ki + half * a3i, third * kr
    )
    mid = (0.5 * (d1 + e1), 0.5 * (d2 + e2))
    a1s, a1i, e1, e2 = vjp(
        s1, i1, ua1, ua2, sixth * ks + half * a2s, sixth * ki + half * a2i, sixth * kr
    )
    to_a = (e1, e2)
    (m_ss, m_si, m_sr), (m_is, m_ii, m_ir) = a1s + a2s + a3s + a4s, a1i + a2i + a3i + a4i

    # node-cost weights of the trapezoid rule
    w_end, w_mid = 0.5 * dt, dt
    w_node = np.full(n + 1, w_mid)
    w_node[[0, -1]] = w_end

    # b_k, the adjoint of x[k+1]; its R component is c_R times a sum of node weights
    br = cr * (w_end + w_mid * np.arange(n - 1, -1, -1))
    p_ss, p_si, q_s = (1.0 + m_ss).tolist(), m_si.tolist(), (m_sr * br + w_mid * cs).tolist()
    p_is, p_ii, q_i = m_is.tolist(), (1.0 + m_ii).tolist(), (m_ir * br + w_mid * ci).tolist()
    bs, bi = [0.0] * n, [0.0] * n
    b_s, b_i = w_end * cs, w_end * ci
    for k in range(n - 1, 0, -1):
        bs[k], bi[k] = b_s, b_i
        b_s, b_i = p_ss[k] * b_s + p_si[k] * b_i + q_s[k], p_is[k] * b_s + p_ii[k] * b_i + q_i[k]
    bs[0], bi[0] = b_s, b_i
    b = np.array((bs, bi, br))

    grad = np.empty(u_values.shape)
    for c in range(spec.channels):
        g = w_node * (w[c] * u[c])
        g[:-1] += ((to_a[c] + mid[c]) * b).sum(axis=0)
        g[1:] += ((to_b[c] + mid[c]) * b).sum(axis=0)
        grad[:, c] = g
    return j, grad


def solve_direct(
    spec: StrategySpec,
    *,
    max_iterations: int = 500,
    gtol: float = 1e-7,
    max_backtracks: int = 40,
) -> OcpSolution:
    """Solve by projected gradient descent on the control node values.

    Spectral (Barzilai-Borwein) step lengths with a non-monotone Armijo
    backtracking line search; iterates are projected onto [0, u_max] after
    every trial step.  A trial that blows up (:func:`_admissible_forward`)
    scores +inf and is backtracked; only the initial zero-control evaluation
    raises.  Termination: sup-norm of the projected gradient residual
    ``P(u - g) - u`` below ``gtol``, or ``max_iterations``.

    Shares the problem tables and forward integrator with :func:`solve_fbsm`,
    but not its optimization route; used as its cross-check.
    """
    lo, hi = 0.0, spec.u_max
    u = np.zeros((spec.grid.n_nodes, spec.channels))
    j, g = objective_gradient(spec, u)
    history = [j]
    recent = [j]  # non-monotone line-search memory
    alpha = 1.0
    converged = False
    iterations = 0
    line_search_failed = False

    for iterations in range(1, max_iterations + 1):
        residual = float(np.max(np.abs(np.clip(u - g, lo, hi) - u)))
        if residual <= gtol:
            converged = True
            iterations -= 1
            break

        d = np.clip(u - alpha * g, lo, hi) - u
        slope = float((g * d).sum())
        if slope >= 0.0:  # safeguarded step produced a non-descent arc
            alpha = 1.0
            d = np.clip(u - alpha * g, lo, hi) - u
            slope = float((g * d).sum())

        j_ref = max(recent)
        lam_step = 1.0
        for _ in range(max_backtracks):
            u_trial = u + lam_step * d
            try:
                j_trial, g_trial = objective_gradient(spec, u_trial)
            except IntegrationError:
                j_trial = math.inf  # a trial that blows up is a rejected step
            if j_trial <= j_ref + 1e-4 * lam_step * slope:
                break
            lam_step *= 0.5
        else:
            line_search_failed = True

        if line_search_failed:
            break

        s = u_trial - u
        y = g_trial - g
        sty = float((s * y).sum())
        sts = float((s * s).sum())
        alpha = min(max(sts / sty, 1e-6), 1e6) if sty > 0.0 else 1e6

        u, j, g = u_trial, j_trial, g_trial
        history.append(j)
        recent.append(j)
        if len(recent) > 10:
            recent.pop(0)

    if line_search_failed:
        # at the numerical floor; accept if the residual is already tiny
        residual = float(np.max(np.abs(np.clip(u - g, lo, hi) - u)))
        converged = residual <= max(1e3 * gtol, 1e-6)
        if not converged:
            logger.warning(
                "%s direct solve: line search stalled at residual %.3e",
                spec.kind.name,
                residual,
            )
    elif not converged:
        logger.warning(
            "%s direct solve did not converge in %d iterations", spec.kind.name, max_iterations
        )

    signal = ControlSignal(spec.grid, u)
    traj = integrate_forward(dynamics_field(spec), spec.x0.as_array(), spec.grid, signal)
    lam = integrate_backward(adjoint_field(spec), np.zeros(3), spec.grid, traj, signal)
    return OcpSolution(traj, signal, lam, objective(spec, traj, signal), iterations, converged, history)
