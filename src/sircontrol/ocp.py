"""Optimal-control problems on the SIR model and their solvers.

Three control strategies are supported, each minimizing an integral cost over
a fixed horizon subject to box bounds 0 <= u <= u_max:

* VACCINATION            cost  I + (nu/2) u^2          dynamics with  u S -> R
* VACCINATION_WEIGHTED   cost  a1 S + a2 I - a3 R + (tau/2) u^2,  same dynamics
* TREATMENT_EDUCATION    cost  kappa I + (b1/2) u1^2 + (b2/2) u2^2
                         with treatment u1 I -> R and education u2 S -> R

Two independent solution routes are provided:

``solve_fbsm``
    Forward-backward sweep: alternate forward state integration, backward
    costate integration from the transversality condition lam(t_end) = 0,
    and a relaxed update toward the pointwise control law.  The costate
    systems and control laws are derived from the Hamiltonian of each
    problem; see docs/costate_derivation.md for the full derivation.

``solve_direct``
    Direct transcription: the control node values are the decision variables
    and a projected-gradient method descends the discretized objective.  The
    gradient is the exact reverse-mode derivative of the discrete scheme
    (RK4 with linearly interpolated controls, trapezoid cost quadrature), so
    it matches finite differences of the discretized objective to roundoff.

The two routes share only the problem definition and the forward integrator,
which makes their agreement a meaningful cross-check.
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
    _control_columns,
    integrate_backward,
    integrate_forward,
)
from .model import (
    ControlValue,
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
    "AdjointState",
    "OcpSolution",
    "default_spec",
    "running_cost",
    "objective",
    "hamiltonian",
    "adjoint_rhs",
    "optimal_control_characterization",
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


class Strategy(IntEnum):
    """The three control problems, numbered as in the CLI."""

    VACCINATION = 1
    VACCINATION_WEIGHTED = 2
    TREATMENT_EDUCATION = 3

    @property
    def channels(self) -> int:
        return 2 if self is Strategy.TREATMENT_EDUCATION else 1


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
        for name in ("nu", "a1", "a2", "a3", "tau", "kappa", "b1", "b2"):
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

    def value_at(self, k: int) -> ControlValue:
        row = self.values[k]
        return ControlValue(float(row[0]), float(row[1]) if self.channels == 2 else None)

    def max_bound_violation(self, u_max: float) -> float:
        return float(max(-self.values.min(), self.values.max() - u_max, 0.0))


@dataclass(frozen=True)
class AdjointState:
    """Costates (lam_S, lam_I, lam_R) at one instant; also used for derivatives."""

    lam_s: float
    lam_i: float
    lam_r: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lam_s, self.lam_i, self.lam_r], dtype=float)

    @classmethod
    def from_array(cls, x) -> "AdjointState":
        return cls(float(x[0]), float(x[1]), float(x[2]))


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


# -- problem definition ------------------------------------------------------


def _check_arity(spec: StrategySpec, channels: int) -> None:
    if channels != spec.channels:
        raise ValueError(
            f"{spec.kind.name} expects {spec.channels} control channel(s), got {channels}"
        )


def _cost_terms(spec: StrategySpec, s, i, r, u1, u2):
    """Running cost, vectorized over node columns (also works on scalars)."""
    if spec.kind is Strategy.VACCINATION:
        return i + 0.5 * spec.nu * u1**2
    if spec.kind is Strategy.VACCINATION_WEIGHTED:
        return spec.a1 * s + spec.a2 * i - spec.a3 * r + 0.5 * spec.tau * u1**2
    return spec.kappa * i + 0.5 * spec.b1 * u1**2 + 0.5 * spec.b2 * u2**2


def running_cost(spec: StrategySpec, state: EpidemicState, u: ControlValue) -> float:
    """Instantaneous cost integrand of the strategy's objective."""
    _check_arity(spec, u.channels)
    u2 = u.u2 if u.u2 is not None else 0.0
    return float(_cost_terms(spec, state.s, state.i, state.r, u.u1, u2))


def objective(spec: StrategySpec, traj: Trajectory, controls: ControlSignal) -> float:
    """Composite-trapezoid quadrature of the running cost over the horizon."""
    if traj.grid != spec.grid or controls.grid != spec.grid:
        raise ValueError("trajectory/controls are not on the problem grid")
    _check_arity(spec, controls.channels)
    u1 = controls.values[:, 0]
    u2 = controls.values[:, 1] if controls.channels == 2 else 0.0
    c = _cost_terms(spec, traj.s, traj.i, traj.r, u1, u2)
    dt = spec.grid.dt
    return float(dt * (c.sum() - 0.5 * (c[0] + c[-1])))


def hamiltonian(
    spec: StrategySpec, state: EpidemicState, adj: AdjointState, u: ControlValue
) -> float:
    """Running cost plus costate-weighted dynamics."""
    _check_arity(spec, u.channels)
    p = spec.params
    if spec.kind is Strategy.TREATMENT_EDUCATION:
        f = treatment_education_rates(state.s, state.i, p.beta, p.mu, u.u1, u.u2)
    else:
        f = vaccination_rates(state.s, state.i, p.beta, p.mu, u.u1)
    return running_cost(spec, state, u) + float(np.dot(adj.as_array(), f))


def _adjoint_terms(spec: StrategySpec, beta: float, mu: float):
    """Costate field ``g(t, lam_s, lam_i, lam_r, s, i, r, u1, u2)`` on floats.

    Returns the costate derivatives -dH/d(S,I,R) as a 3-tuple; see
    docs/costate_derivation.md.
    """
    if spec.kind is Strategy.VACCINATION:

        def g(t, ls, li, lr, s, i, r, u1, u2):
            return (
                (ls - li) * beta * i + (ls - lr) * u1,
                -1.0 + (ls - li) * beta * s + (li - lr) * mu,
                0.0 * lr,
            )

    elif spec.kind is Strategy.VACCINATION_WEIGHTED:
        a1, a2, a3 = spec.a1, spec.a2, spec.a3

        def g(t, ls, li, lr, s, i, r, u1, u2):
            return (
                -a1 + (ls - li) * beta * i + (ls - lr) * u1,
                -a2 + (ls - li) * beta * s + (li - lr) * mu,
                a3 + 0.0 * lr,
            )

    else:
        kappa = spec.kappa

        def g(t, ls, li, lr, s, i, r, u1, u2):
            return (
                (ls - li) * beta * i + (ls - lr) * u2,
                -kappa + (ls - li) * beta * s + (li - lr) * (mu + u1),
                0.0 * lr,
            )

    return g


def adjoint_rhs(
    spec: StrategySpec,
    state: EpidemicState,
    adj: AdjointState,
    u: ControlValue,
    params: ModelParams | None = None,
) -> AdjointState:
    """Costate derivative at one point of the state/control trajectory."""
    _check_arity(spec, u.channels)
    p = params if params is not None else spec.params
    u2 = u.u2 if u.u2 is not None else 0.0
    dls, dli, dlr = _adjoint_terms(spec, p.beta, p.mu)(
        0.0, adj.lam_s, adj.lam_i, adj.lam_r, state.s, state.i, state.r, u.u1, u2
    )
    return AdjointState(float(dls), float(dli), float(dlr))


def _characterize_terms(spec: StrategySpec, s, i, ls, li, lr):
    """Pointwise control law from Hamiltonian stationarity, clipped to the box."""
    if spec.kind is Strategy.VACCINATION:
        return (np.clip((ls - lr) * s / spec.nu, 0.0, spec.u_max),)
    if spec.kind is Strategy.VACCINATION_WEIGHTED:
        return (np.clip((ls - lr) * s / spec.tau, 0.0, spec.u_max),)
    return (
        np.clip((li - lr) * i / spec.b1, 0.0, spec.u_max),
        np.clip((ls - lr) * s / spec.b2, 0.0, spec.u_max),
    )


def optimal_control_characterization(
    spec: StrategySpec, state: EpidemicState, adj: AdjointState
) -> ControlValue:
    """Optimal control at one point given the costates."""
    ch = _characterize_terms(spec, state.s, state.i, adj.lam_s, adj.lam_i, adj.lam_r)
    if len(ch) == 1:
        return ControlValue(float(ch[0]))
    return ControlValue(float(ch[0]), float(ch[1]))


# -- dynamics/costate fields for the integrator ------------------------------


def uncontrolled_field(params: ModelParams):
    """Dynamics callable for :func:`integrate_forward` with no control."""
    beta, mu = params.beta, params.mu

    def f(t, s, i, r, u1, u2):
        return uncontrolled_rates(s, i, beta, mu)

    return f


def dynamics_field(spec: StrategySpec):
    """Controlled dynamics callable for :func:`integrate_forward`."""
    beta, mu = spec.params.beta, spec.params.mu
    if spec.kind is Strategy.TREATMENT_EDUCATION:

        def f(t, s, i, r, u1, u2):
            return treatment_education_rates(s, i, beta, mu, u1, u2)

    else:

        def f(t, s, i, r, u1, u2):
            return vaccination_rates(s, i, beta, mu, u1)

    return f


def adjoint_field(spec: StrategySpec):
    """Costate dynamics callable for :func:`integrate_backward`."""
    return _adjoint_terms(spec, spec.params.beta, spec.params.mu)


# -- forward-backward sweep --------------------------------------------------


def _sweep_once(spec, dynamics, adj_dynamics, u_values):
    signal = ControlSignal(spec.grid, u_values)
    traj = integrate_forward(dynamics, spec.x0.as_array(), spec.grid, signal)
    lam = integrate_backward(adj_dynamics, np.zeros(3), spec.grid, traj, signal)
    return signal, traj, lam


# Smallest compartment, as a fraction of the population, of a sweep trial
# that is not treated as a blow-up.
_ADMISSIBLE_TOL = 1e-9


def _trial_objective(spec, dynamics, signal):
    """Objective and forward trajectory of a trial control; +inf if it blew up.

    A trial blows up when its forward sweep raises :class:`IntegrationError`
    or a compartment falls below ``-_ADMISSIBLE_TOL * n``.  The exact
    dynamics keep every compartment non-negative, so such a state means the
    RK4 step is unstable on this grid and the trial's objective means
    nothing (on a 3-step grid it reaches -1e12).
    """
    try:
        traj = integrate_forward(dynamics, spec.x0.as_array(), spec.grid, signal)
    except IntegrationError:
        return math.inf, None
    if traj.min_component() < -_ADMISSIBLE_TOL * spec.params.n:
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
    :func:`_trial_objective`): such a trial scores +inf and is never
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
    signal, traj, lam = _sweep_once(spec, dynamics, adj_dynamics, u)
    j = objective(spec, traj, signal)
    history = [j]
    best = (j, traj, signal, lam)

    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        u_law = np.column_stack(
            _characterize_terms(
                spec, traj.s, traj.i, lam.values[:, 0], lam.values[:, 1], lam.values[:, 2]
            )
        )

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


def _reverse_terms(spec: StrategySpec):
    """Per-strategy pieces of the discrete reverse sweep, on floats.

    Returns ``(vjp, c_x, c_u)``.  ``vjp(s, i, u1, u2, k_s, k_i, k_r)`` is the
    Jacobian-transpose product with a stage adjoint ``k``: the S and I
    components of ``f_x^T k`` (its R component is 0, since R does not enter
    the rates) and both channels of ``f_u^T k``.  ``c_x`` is the constant
    state gradient of the running cost and ``c_u`` its control weights, so
    that the control gradient of the cost is ``(c_u[0]*u1, c_u[1]*u2)``.
    """
    beta, mu = spec.params.beta, spec.params.mu

    if spec.kind is Strategy.TREATMENT_EDUCATION:

        def vjp(s, i, u1, u2, ks, ki, kr):
            return (
                (-beta * i - u2) * ks + beta * i * ki + u2 * kr,
                -beta * s * ks + (beta * s - mu - u1) * ki + (mu + u1) * kr,
                -i * ki + i * kr,
                -s * ks + s * kr,
            )

        return vjp, (0.0, spec.kappa, 0.0), (spec.b1, spec.b2)

    def vjp(s, i, u1, u2, ks, ki, kr):
        return (
            (-beta * i - u1) * ks + beta * i * ki + u1 * kr,
            -beta * s * ks + (beta * s - mu) * ki + mu * kr,
            -s * ks + s * kr,
            0.0,
        )

    if spec.kind is Strategy.VACCINATION:
        return vjp, (0.0, 1.0, 0.0), (spec.nu, 0.0)
    return vjp, (spec.a1, spec.a2, -spec.a3), (spec.tau, 0.0)


def objective_gradient(spec: StrategySpec, u_values: np.ndarray):
    """Discretized objective and its exact gradient w.r.t. control node values.

    Reverse-mode differentiation of the actual discrete computation: RK4
    steps with linearly interpolated controls (half-stages see the node
    midpoint average) and trapezoid quadrature of the running cost.  Agrees
    with finite differences of :func:`objective` on the forward trajectory
    to roundoff.  The reverse loop runs on floats: each step recomputes its
    stage states with the dynamics field and pulls the state adjoint back
    through the four stages with the strategy's Jacobian-transpose products.

    Returns ``(objective_value, gradient)`` with the gradient shaped like
    ``u_values``.
    """
    signal = ControlSignal(spec.grid, u_values)
    dynamics = dynamics_field(spec)
    traj = integrate_forward(dynamics, spec.x0.as_array(), spec.grid, signal)
    j = objective(spec, traj, signal)

    vjp, (cs, ci, cr), (w1, w2) = _reverse_terms(spec)
    dt = spec.grid.dt
    n = spec.grid.steps
    half, third, sixth = 0.5 * dt, dt / 3.0, dt / 6.0
    times = spec.grid.times().tolist()
    xs, xi, xr = traj.values.T.tolist()
    u1, u2 = _control_columns(signal, spec.grid.n_nodes)
    g1 = [0.0] * (n + 1)
    g2 = [0.0] * (n + 1)

    # node-cost weights of the trapezoid rule
    w_end, w_mid = 0.5 * dt, dt

    # adjoint of the state node x[k+1], entering step k
    bs, bi, br = w_end * cs, w_end * ci, w_end * cr
    g1[n] += w_end * (w1 * u1[n])
    g2[n] += w_end * (w2 * u2[n])
    for k in range(n - 1, -1, -1):
        ua1, ua2, ub1, ub2 = u1[k], u2[k], u1[k + 1], u2[k + 1]
        um1, um2 = 0.5 * (ua1 + ub1), 0.5 * (ua2 + ub2)
        t_k = times[k]
        t_half = t_k + half
        s1, i1, r1 = xs[k], xi[k], xr[k]
        fs, fi, fr = dynamics(t_k, s1, i1, r1, ua1, ua2)
        s2, i2, r2 = s1 + half * fs, i1 + half * fi, r1 + half * fr
        fs, fi, fr = dynamics(t_half, s2, i2, r2, um1, um2)
        s3, i3, r3 = s1 + half * fs, i1 + half * fi, r1 + half * fr
        fs, fi, _ = dynamics(t_half, s3, i3, r3, um1, um2)
        s4, i4 = s1 + dt * fs, i1 + dt * fi

        a4s, a4i, e1, e2 = vjp(s4, i4, ub1, ub2, sixth * bs, sixth * bi, sixth * br)
        g1[k + 1] += e1
        g2[k + 1] += e2

        a3s, a3i, dm1, dm2 = vjp(
            s3, i3, um1, um2, third * bs + dt * a4s, third * bi + dt * a4i, third * br
        )
        a2s, a2i, e1, e2 = vjp(
            s2, i2, um1, um2, third * bs + half * a3s, third * bi + half * a3i, third * br
        )
        dm1 += e1
        dm2 += e2

        a1s, a1i, e1, e2 = vjp(
            s1, i1, ua1, ua2, sixth * bs + half * a2s, sixth * bi + half * a2i, sixth * br
        )
        g1[k] += e1
        g2[k] += e2

        g1[k] += 0.5 * dm1
        g2[k] += 0.5 * dm2
        g1[k + 1] += 0.5 * dm1
        g2[k + 1] += 0.5 * dm2

        bs = bs + a1s + a2s + a3s + a4s
        bi = bi + a1i + a2i + a3i + a4i
        w_node = w_end if k == 0 else w_mid
        bs += w_node * cs
        bi += w_node * ci
        br += w_node * cr
        g1[k] += w_node * (w1 * ua1)
        g2[k] += w_node * (w2 * ua2)

    return j, np.column_stack((g1, g2)[: spec.channels])


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
    every trial step.  A trial whose forward sweep blows up scores +inf and
    is backtracked; only the initial zero-control evaluation raises.  Termination: sup-norm of the projected gradient
    residual ``P(u - g) - u`` below ``gtol``, or ``max_iterations``.

    Independent of :func:`solve_fbsm` in its optimization route, sharing only
    the problem definition and forward integrator; used as its cross-check.
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
