"""Optimal-control problems on the SIR model and their solvers.

Three control strategies are supported, each minimizing an integral cost over
a fixed horizon subject to box bounds 0 <= u <= u_max:

* VACCINATION            cost  I + (nu/2) u^2          dynamics with  u S -> R
* VACCINATION_WEIGHTED   cost  a1 S + a2 I - a3 R + (tau/2) u^2,  same dynamics
* TREATMENT_EDUCATION    cost  kappa I + (b1/2) u1^2 + (b2/2) u2^2
                         with treatment u1 I -> R and education u2 S -> R

Each running cost is ``c_x . (S, I, R) + (w1/2) u1^2 + (w2/2) u2^2`` and each
control moves a compartment into R, so every strategy is the drain-form SIR
field of :mod:`sircontrol.model`.  ``_weights(spec) -> (c_x, w)`` and
``_DRAINS``, the channel map of each strategy (u1 drains S; u1 drains I and
u2 drains S), are the only code that branches on the strategy.  The
forward sweep, the running cost, the costate field ``-(c_x + f_x^T lam)``,
the control law ``clip(-(f_u^T lam)_c / w_c, 0, u_max)`` and the reverse
gradient read these two tables; ``_vjp`` gives the products ``f_x^T k``, ``f_u^T k`` in the
drain rates ``a`` and ``v`` (see docs/costate_derivation.md).  Two solution
routes:

``solve_fbsm``
    Forward-backward sweep: alternate forward state integration, backward
    costate integration from the transversality condition lam(t_end) = 0,
    and a relaxed update toward the pointwise control law.  The costate
    field is affine in lam, so each backward RK4 step is one affine map;
    ``_costate_scan`` scans those maps, sharing its float loop
    ``_affine_scan`` with the reverse gradient, and gives both the costate
    that steers each iteration and the one the solution reports.

``solve_direct``
    Direct transcription: projected-gradient descent on the control node
    values, with the exact reverse-mode gradient of the discrete scheme (RK4
    with linearly interpolated controls, trapezoid cost quadrature).  Its
    steps are measured in the control-cost metric ``D = w_node * w_c``
    (trapezoid node weight times channel weight), in which a unit step is
    the discrete control law ``clip(-(g - D u) / D, 0, u_max)``.  It starts
    from the zero control or from a given one, such as the sweep's result;
    it stops only on the discrete KKT residual, which the metric does not
    enter, so neither the start nor the metric changes which point it
    certifies, only how long it runs.

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
    _check_signal,
    _finite_nodes,
    integrate_forward,
    stage_samples,
)
from .model import Drains, EpidemicState, ModelParams, treatment_education_rates

__all__ = [
    "Strategy",
    "StrategySpec",
    "ControlSignal",
    "OcpSolution",
    "default_spec",
    "running_cost",
    "objective",
    "control_law",
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

DEFAULT_PARAMS = ModelParams(beta=0.2, mu=0.1)
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
        _check_weights(self, self.grid.dt)
        self.x0.validate()

    @property
    def channels(self) -> int:
        return _DRAINS[self.kind].channels


def _check_weights(problem, dt: float) -> None:
    """:class:`ValueError` unless ``u_max`` and the weights of ``problem`` (a spec or config)
    are finite and positive, and each weight's reciprocal (the control laws divide by it)
    and product with the step ``dt`` (the cost and its gradient weigh nodes by it) are finite.
    """
    for name in ("u_max",) + _WEIGHT_FIELDS:
        v = getattr(problem, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive, got {v}")
    for name in _WEIGHT_FIELDS:
        v = float(getattr(problem, name))
        if not math.isfinite(1.0 / v):
            raise ValueError(f"{name} is too small: its reciprocal overflows, got {v}")
        if not math.isfinite(dt * v):
            raise ValueError(f"{name} is too large: its product with the step overflows, got {v}")


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


@dataclass
class OcpSolution:
    """A solve of ``spec``: trajectories and convergence report; direct ones have no adjoints."""

    spec: StrategySpec
    trajectory: Trajectory
    control: ControlSignal
    adjoints: Trajectory | None
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


# strategy -> the control columns that drain S (rate a) and I (rate v) into R
_DRAINS = {
    Strategy.VACCINATION: Drains(s=0),
    Strategy.VACCINATION_WEIGHTED: Drains(s=0),
    Strategy.TREATMENT_EDUCATION: Drains(s=1, i=0),
}


def _state_jacobian(beta, mu, s, i, a, v, out=(None,) * 6):
    """S and I rows of ``f_x^T``: block ``((c_ss, c_si), (c_is, c_ii))``, R column ``(a, c_ir)``.

    ``out`` names the arrays that receive ``c_ss, c_si, c_is, c_ii, a, c_ir``;
    for a None entry the result is a new array (``a`` itself for the R column's).
    """
    o_ss, o_si, o_is, o_ii, o_sr, o_ir = out
    mul, sub = np.multiply, np.subtract
    return (
        (sub(mul(-beta, i, out=o_ss), a, out=o_ss), mul(beta, i, out=o_si)),
        (mul(-beta, s, out=o_is), sub(sub(mul(beta, s, out=o_ii), mu, out=o_ii), v, out=o_ii)),
    ), (a if o_sr is None else np.positive(a, out=o_sr), np.add(mu, v, out=o_ir))


def _drain_products(s, i, ks, ki, kr):
    """``(f_a^T k, f_v^T k)``: ``(k_R - k_S) s`` and ``(k_R - k_I) i``, on floats or arrays."""
    return (kr - ks) * s, (kr - ki) * i


def _vjp(beta, mu, s, i, a, v, ks, ki, kr):
    """``f_x^T k`` (S and I rows), ``f_a^T k`` and ``f_v^T k`` at drain rates ``a``, ``v``.

    On floats or arrays; a drain at rate 0 gives the bits of a field without it.
    """
    ((c_ss, c_si), (c_is, c_ii)), (c_sr, c_ir) = _state_jacobian(beta, mu, s, i, a, v)
    return (
        c_ss * ks + c_si * ki + c_sr * kr,
        c_is * ks + c_ii * ki + c_ir * kr,
        *_drain_products(s, i, ks, ki, kr),
    )


# -- derived problem functions -------------------------------------------------


def running_cost(spec: StrategySpec, s, i, r, u1, u2):
    """Cost integrand ``c_x . (S, I, R) + (w1/2) u1^2 + (w2/2) u2^2``, on floats or arrays."""
    (cs, ci, cr), (w1, w2) = _weights(spec)
    return cs * s + ci * i + cr * r + 0.5 * w1 * u1**2 + 0.5 * w2 * u2**2


def objective(spec: StrategySpec, traj: Trajectory, controls: ControlSignal) -> float:
    """Composite-trapezoid quadrature of the running cost; +inf if it overflows or is NaN."""
    if traj.grid != spec.grid:
        raise ValueError("trajectory is not on the problem grid")
    _check_signal(controls, spec.grid, spec.channels)
    u, dt = controls.values, spec.grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        c = running_cost(
            spec, traj.s, traj.i, traj.r, u[:, 0], u[:, 1] if controls.channels == 2 else 0.0
        )
        j = float(dt * (c.sum() - 0.5 * (c[0] + c[-1])))
    return math.inf if math.isnan(j) else j


def control_law(spec: StrategySpec, s, i, lam_s, lam_i, lam_r) -> np.ndarray:
    """Pointwise minimizer of H over the box, ``clip(-(f_u^T lam)_c / w_c, 0, u_max)``.

    Takes floats or node arrays; returns one column per control channel.
    """
    _, w = _weights(spec)
    with np.errstate(over="ignore"):  # a product or quotient that overflows saturates
        f_u = _DRAINS[spec.kind].join(*_drain_products(s, i, lam_s, lam_i, lam_r))
        return np.column_stack(
            [np.clip(-f_u[c] / w[c], 0.0, spec.u_max) for c in range(spec.channels)]
        )


def adjoint_field(spec: StrategySpec):
    """Costate field ``costate(lam_s, lam_i, lam_r, s, i, a, v) -> -(c_x + f_x^T lam)``.

    Written out, not composed from :func:`_vjp`, so that it is bit for bit
    the published equations (docs/costate_derivation.md).  At the origin it
    is the constant term of the scanned costate's steps.
    """
    (cs, ci, cr), _ = _weights(spec)
    ns, ni, nr = -cs, -ci, -cr
    beta, mu = spec.params.beta, spec.params.mu

    def costate(ls, li, lr, s, i, a, v):
        return (
            ns + (ls - li) * beta * i + (ls - lr) * a,
            ni + (ls - li) * beta * s + (li - lr) * (mu + v),
            nr + 0.0 * lr,
        )

    return costate


# -- affine scans ------------------------------------------------------------


def _affine_scan(x_s: float, x_i: float, coef: np.ndarray) -> np.ndarray:
    """``x_0 = (x_s, x_i)`` and ``x_{j+1} = P_j x_j + q_j``, one row per ``j``.

    Column ``j`` of ``coef`` holds ``(P_ss, P_si, q_s, P_is, P_ii, q_i)`` of
    step ``j``.  One float loop of four multiply-adds per step; the
    operation order is part of the bits of the reverse gradient.
    """
    out = [x_s, x_i]
    for p_ss, p_si, q_s, p_is, p_ii, q_i in zip(*coef.tolist()):
        x_s, x_i = p_ss * x_s + p_si * x_i + q_s, p_is * x_s + p_ii * x_i + q_i
        out += (x_s, x_i)
    return np.fromiter(out, float, len(out)).reshape(-1, 2)


class _CostateWork:
    """What :func:`_costate_steps` needs of ``spec``: its constants and the arrays it writes into.

    A solve makes one and hands it to each of its scans.  What depends only
    on the spec and its grid is made here, once: lam_R, the seeds, their R
    values ``y_r`` and the field's constant share ``n_si``, all read-only,
    the step fractions, and every view the build writes through.  So a
    build allocates nothing the size of the grid and the heap it uses stays
    put between iterations.  It belongs to that solve: two never share one.
    """

    __slots__ = ("spec", "back", "half", "sixth", "lam_r", "y_r", "y0", "n_si", "states", "controls",
                 "jacobian_args", "jacobian_out", "products", "p_si", "p_r", "stages", "acc", "k", "y")

    def __init__(self, spec: StrategySpec):
        n = spec.grid.steps
        self.spec = spec
        # the field's constant term; its R entry nr + 0.0 is the R rate of every
        # stage, as lam_R holds no -0.0 (its sum starts at +0.0)
        ns, ni, kr = adjoint_field(spec)(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self.back = back = -spec.grid.dt
        self.half, self.sixth = half, sixth = 0.5 * back, back / 6.0
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is diagnosed by the scan
            self.lam_r = lam_r = np.full(n + 1, sixth * (kr + 2.0 * kr + 2.0 * kr + kr))
            lam_r[0] = 0.0
            np.cumsum(lam_r, out=lam_r)
            # the seeds' S and I rows, their share of the constant (the last seed
            # carries it) and their R values at the three sample sets; as lam_R
            # holds no -0.0, the first set's + 0.0 keeps its bits
            self.y0 = np.eye(3)[:2, :, None]
            self.n_si = np.zeros((2, 3, 1))
            self.n_si[:, 2, 0] = ns, ni
            self.y_r = np.zeros((3, 3, n))  # the S and I rows stay 0
            np.add(lam_r[:-1], np.array((0.0, half * kr, back * kr))[:, None], out=self.y_r[:, 2])
        for array in (lam_r, self.y0, self.n_si, self.y_r):
            array.flags.writeable = False
        # s, i and the control columns at the three sample sets, then each
        # stage's products: never live at the same time; a drain the layout
        # lacks is rate 0.0, as the samples of zero nodes are
        self.products = p = np.empty((2, 2, 3, n))
        samples = p.reshape(4, 3, -1)
        self.states = samples[:2].swapaxes(0, 1)  # sample set, s or i, step
        self.controls = samples[2 : 2 + spec.channels].swapaxes(0, 1)  # ..., control column, ...
        a, v = _DRAINS[spec.kind].split(self.controls, 0.0)
        self.jacobian_args = (spec.params.beta, spec.params.mu, samples[0], samples[1], a, v)
        # the (2, 2, 3, n) block and the (2, 3, n) R column, and each stage's
        # sample set of them with the seeds' R values
        block, col_r = np.empty((2, 2, 3, n)), np.empty((2, 3, n))
        self.jacobian_out = (*block.reshape(4, 3, -1), *col_r)
        self.p_si, self.p_r = (p[:, 0], p[:, 1]), p[0]
        self.stages = [(block[:, :, j, None], col_r[:, j, None], self.y_r[j]) for j in range(3)]
        # separate arrays, so that the scan of a fresh work area holds only acc
        self.acc, self.k, self.y = (np.empty((2, 3, n)) for _ in range(3))


def _costate_scan(
    spec: StrategySpec, traj: Trajectory, signal: ControlSignal, work: _CostateWork | None = None
) -> Trajectory:
    """The costate of ``traj`` under ``signal``: backward RK4 from lam(t_end) = 0, as a scan.

    The costate field is affine in lam, so one backward RK4 step of it is
    ``(lam_S, lam_I)_k = M_k (lam_S, lam_I)_{k+1} + m_k``, with coefficients
    from :func:`_costate_steps`, built in ``work`` (a new
    :class:`_CostateWork` if None, of which only the results' arrays
    outlive the build); a work area built for a spec that is not ``spec``
    raises :class:`ValueError`.  lam_R adds the same increment at every
    step (see docs/costate_derivation.md).  The costate shares no memory
    with ``work``.  A costate that is not finite raises
    :class:`IntegrationError`, naming the start time of the first step,
    in sweep order, whose node is not finite.
    """
    if work is None:
        work = _CostateWork(spec)
    elif work.spec is not spec and work.spec != spec:
        raise ValueError("the costate work area was built for another problem")
    coef, lam_r = _costate_steps(traj, signal, work)
    del work  # a new one is freed here, all but the results' arrays
    lam = np.column_stack((_affine_scan(0.0, 0.0, coef), lam_r))
    return Trajectory(spec.grid, _finite_nodes(lam, spec.grid.times()[::-1])[::-1])


def _costate_steps(traj: Trajectory, signal: ControlSignal, work: _CostateWork):
    """``(coef, lam_R)``: lam_S and lam_I's backward steps for :func:`_affine_scan`, and lam_R.

    Seeds ``e_S``, ``e_I`` give the columns of ``M_k``, and ``(0, 0, lam_R)``
    with the field's constant gives ``m_k``; both come from ``work``, which
    holds the spec's constants.  :func:`_state_jacobian` runs once, on the
    three sample sets stacked; a stage is one broadcast product of its 2x2
    block with both rows of all seeds, plus its R column times the seeds' R
    values, in :func:`_vjp`'s order.  The RK4 sum accumulates in place.
    Every array the size of the grid is one of ``work``'s, written with
    ``out=``; both results are views of it.
    """
    grid = work.spec.grid
    back, half, sixth, y0, n_si = work.back, work.half, work.sixth, work.y0, work.n_si
    p, (p_s, p_i), p_r, stages = work.products, work.p_si, work.p_r, work.stages
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is diagnosed by the scan
        stage_samples(grid, traj.values[:, :2].T, True, out=work.states)
        stage_samples(grid, signal.values.T, True, out=work.controls)
        _state_jacobian(*work.jacobian_args, out=work.jacobian_out)  # the samples are spent

        def stage(j, y, out):
            block, col_r, y_r = stages[j]
            np.multiply(block, y, out=p)
            np.add(p_s, p_i, out=out)
            out += np.multiply(col_r, y_r, out=p_r)
            return np.subtract(n_si, out, out=out)

        acc, k, y = work.acc, work.k, work.y
        stage(0, y0, acc)
        stage(1, np.add(y0, np.multiply(half, acc, out=y), out=y), k)
        np.add(y0, np.multiply(half, k, out=y), out=y)
        k *= 2.0
        acc += k
        stage(1, y, k)
        np.add(y0, np.multiply(back, k, out=y), out=y)
        k *= 2.0
        acc += k
        acc += stage(2, y, k)
        acc *= sixth
        acc += y0
    return acc.reshape(6, -1), work.lam_r


# -- forward-backward sweep --------------------------------------------------


def _check_settings(max_iterations: int, tol: float = 1.0, relaxation: float = 1.0) -> None:
    """:class:`ValueError` unless ``max_iterations >= 1``, ``tol`` is finite and positive and
    ``relaxation`` lies in (0, 1]; the defaults pass, so the direct solve checks only the first.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not 0.0 < relaxation <= 1.0:
        raise ValueError(f"relaxation must be in (0, 1], got {relaxation}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")


def _trial_objective(spec, signal):
    """Objective and forward trajectory of a trial control; +inf if it blew up."""
    try:
        traj = integrate_forward(
            spec.params, _DRAINS[spec.kind], spec.x0.as_array(), spec.grid, signal
        )
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
    integrates the costates backward from lam(t_end) = 0
    (:func:`_costate_scan`), evaluates the pointwise control law, and blends
    toward it, ``u <- (1 - c) u + c u_law`` with ``c = relaxation``; the
    settings must pass :func:`_check_settings`, or :class:`ValueError` is
    raised.  The solution's ``adjoints`` are the scanned costate of the
    returned iterate.  A blend that raises the objective is retried with
    ``c`` halved (the plain relaxed iteration limit-cycles on strongly
    state-weighted problems); ``c`` resets to ``relaxation`` at the next
    iteration.  At ``relaxation/64`` the blend
    is accepted as it is, unless it blew up (see
    :func:`integrate_forward`): such a trial scores +inf and is never
    accepted, and when every damped trial of an iteration blows up the
    sweep stops.  A blow-up of the initial zero-control sweep, or of the
    costate of an iterate the sweep steers from or returns, raises
    :class:`IntegrationError`, as does a cost that overflows at every iterate.
    Convergence is declared when every channel satisfies the relative-L1
    test ``tol * ||u_new||_1 - ||u_new - u_old||_1 >= 0``.

    On non-convergence the best iterate (lowest objective) is returned with
    ``converged=False``.
    """
    _check_settings(max_iterations, tol, relaxation)
    u = np.zeros((spec.grid.n_nodes, spec.channels))
    signal = ControlSignal(spec.grid, u)
    traj = integrate_forward(spec.params, _DRAINS[spec.kind], spec.x0.as_array(), spec.grid, signal)
    j = objective(spec, traj, signal)
    history, rises = [j], []
    best = (j, traj, signal)

    converged = False
    iterations = 0
    work = _CostateWork(spec)
    for iterations in range(1, max_iterations + 1):
        lam = _costate_scan(spec, traj, signal, work)
        u_law = control_law(spec, traj.s, traj.i, *lam.values.T)

        damp = relaxation
        while True:
            u_new = (1.0 - damp) * u + damp * u_law
            signal_new = ControlSignal(spec.grid, u_new)
            j_new, traj_new = _trial_objective(spec, signal_new)
            if j_new <= j + 1e-12 or damp <= relaxation / 64.0:
                break
            damp *= 0.5
        if not math.isfinite(j_new):
            logger.warning(
                "%s sweep: every damped trial blew up at iteration %d: the grid may be too coarse"
                " for RK4 at these rates", spec.kind.name, iterations,
            )
            break

        signal, traj, j = signal_new, traj_new, j_new
        history.append(j)
        if j < best[0]:
            best = (j, traj, signal)
        # accepted steps descend by construction; count the forced exceptions
        if iterations > 5 and j > history[-2] + 1e-6:
            rises.append(j - history[-2])

        # tol * ||u_new||_1 in float arithmetic, where an overflow is inf without a warning
        gaps = [
            tol * float(np.abs(u_new[:, c]).sum()) - np.abs(u_new[:, c] - u[:, c]).sum()
            for c in range(spec.channels)
        ]
        u = u_new
        if not any(gap < 0.0 for gap in gaps):
            converged = True
            break

    if rises:
        logger.warning(
            "%s sweep: objective rose at %d of %d iterations, by at most %.3e",
            spec.kind.name, len(rises), iterations, max(rises),
        )
    if not converged:
        j, traj, signal = best
        logger.warning("%s sweep did not converge in %d iterations", spec.kind.name, iterations)
    if j == math.inf:
        raise IntegrationError("the cost of every iterate overflows")
    lam = _costate_scan(spec, traj, signal, work)
    return OcpSolution(spec, traj, signal, lam, j, iterations, converged, history)


# -- direct transcription ----------------------------------------------------


def _node_weights(grid: TimeGrid) -> np.ndarray:
    """Trapezoid-rule weights of the grid nodes: ``dt/2`` at the ends, ``dt`` inside."""
    w_node = np.full(grid.n_nodes, grid.dt)
    w_node[[0, -1]] = 0.5 * grid.dt
    return w_node


def objective_gradient(spec: StrategySpec, u_values: np.ndarray):
    """Discretized objective and its exact gradient w.r.t. control node values ``u_values``.

    ``(objective, gradient)``: :func:`objective` and :func:`_reverse_gradient` on the forward
    sweep; :class:`IntegrationError` if the sweep blows up or the gradient is not finite.
    """
    signal = ControlSignal(spec.grid, u_values)
    traj = integrate_forward(spec.params, _DRAINS[spec.kind], spec.x0.as_array(), spec.grid, signal)
    return objective(spec, traj, signal), _reverse_gradient(spec, u_values, traj)


@np.errstate(over="ignore", invalid="ignore")  # a gradient that is not finite raises below
def _reverse_gradient(spec: StrategySpec, u_values: np.ndarray, traj: Trajectory) -> np.ndarray:
    """The objective's gradient w.r.t. ``u_values``, given their forward trajectory ``traj``.

    Reverse-mode differentiation of the actual discrete computation: RK4
    steps with linearly interpolated controls (half-stages see the node
    midpoint average) and trapezoid quadrature of the running cost.  Agrees
    with finite differences of :func:`objective` on the forward trajectory
    to roundoff.  The state adjoint obeys an affine recursion whose
    coefficients depend only on the trajectory and the controls: they come
    for every step at once from :func:`_vjp` on node arrays, and
    :func:`_affine_scan` scans the adjoint's S and I components (its R
    component has a closed form; see docs/costate_derivation.md).  The
    stage states come from :func:`treatment_education_rates` on node arrays.
    A gradient that is not finite raises :class:`IntegrationError`.
    """
    (cs, ci, cr), w = _weights(spec)
    beta, mu, drains = spec.params.beta, spec.params.mu, _DRAINS[spec.kind]
    dt, n = spec.grid.dt, spec.grid.steps
    half, third, sixth = 0.5 * dt, dt / 3.0, dt / 6.0
    u = u_values.T
    a, v = drains.split(u_values, np.zeros(n + 1))

    # stage states of every step, as the forward sweep built them
    aa, va, ab, vb = a[:-1], v[:-1], a[1:], v[1:]
    am, vm = 0.5 * (aa + ab), 0.5 * (va + vb)
    s1, i1 = traj.values[:-1, :2].T
    fs, fi, _ = treatment_education_rates(s1, i1, beta, mu, va, aa)
    s2, i2 = s1 + half * fs, i1 + half * fi
    fs, fi, _ = treatment_education_rates(s2, i2, beta, mu, vm, am)
    s3, i3 = s1 + half * fs, i1 + half * fi
    fs, fi, _ = treatment_education_rates(s3, i3, beta, mu, vm, am)
    s4, i4 = s1 + dt * fs, i1 + dt * fi

    # the unit seeds e_S, e_I, e_R on a leading axis, pulled back through the
    # four stages of every step: row j of a_X is (M_k e_j)_X, and to_a, mid
    # and to_b give the control weights of nodes k and k+1, by channel
    ks, ki, kr = np.eye(3)[:, :, None]
    a4s, a4i, e1, e2 = _vjp(beta, mu, s4, i4, ab, vb, sixth * ks, sixth * ki, sixth * kr)
    to_b = drains.join(e1, e2)
    a3s, a3i, d1, d2 = _vjp(
        beta, mu, s3, i3, am, vm, third * ks + dt * a4s, third * ki + dt * a4i, third * kr
    )
    a2s, a2i, e1, e2 = _vjp(
        beta, mu, s2, i2, am, vm, third * ks + half * a3s, third * ki + half * a3i, third * kr
    )
    mid = drains.join(0.5 * (d1 + e1), 0.5 * (d2 + e2))
    a1s, a1i, e1, e2 = _vjp(
        beta, mu, s1, i1, aa, va, sixth * ks + half * a2s, sixth * ki + half * a2i, sixth * kr
    )
    to_a = drains.join(e1, e2)
    (m_ss, m_si, m_sr), (m_is, m_ii, m_ir) = a1s + a2s + a3s + a4s, a1i + a2i + a3i + a4i

    w_node = _node_weights(spec.grid)
    w_end, w_mid = 0.5 * dt, dt

    # b_k, the adjoint of x[k+1]; its R component is c_R times a sum of node weights
    br = cr * (w_end + w_mid * np.arange(n - 1, -1, -1))
    coef = np.array((
        1.0 + m_ss, m_si, m_sr * br + w_mid * cs, m_is, 1.0 + m_ii, m_ir * br + w_mid * ci
    ))
    b_si = _affine_scan(w_end * cs, w_end * ci, coef[:, :0:-1])[::-1]
    b = np.vstack((b_si.T, br))

    grad = np.empty(u_values.shape)
    for c in range(spec.channels):
        g = w_node * (w[c] * u[c])
        g[:-1] += ((to_a[c] + mid[c]) * b).sum(axis=0)
        g[1:] += ((to_b[c] + mid[c]) * b).sum(axis=0)
        grad[:, c] = g
    if not np.isfinite(grad).all():
        raise IntegrationError("the discrete gradient is not finite")
    return grad


_MAX_BACKTRACKS = 40  # Armijo halvings of one direct-solve step before the search fails


def solve_direct(
    spec: StrategySpec,
    *,
    start: ControlSignal | OcpSolution | None = None,
    max_iterations: int = 500,
    gtol: float = 1e-7,
) -> OcpSolution:
    """Solve by projected gradient descent on the control node values.

    Spectral (Barzilai-Borwein) step lengths with a non-monotone Armijo
    backtracking line search (Birgin, Martinez & Raydan, SIAM J. Optim. 10,
    2000); iterates are projected onto [0, u_max] after every trial step.
    Steps are measured in the diagonal metric ``D = w_node * w_c``, the
    curvature of the control cost: the trial direction is
    ``P(u - alpha D^-1 g) - u`` and the spectral length is
    ``alpha = s^T D s / s^T y``.  At ``alpha = 1``, where the descent starts
    and where a non-descent direction resets it, the trial point is the
    discrete control law ``clip(-(g - D u) / D, 0, u_max)``, whose fixed
    points are the discrete KKT points.
    A trial is scored by its forward sweep and objective alone; only the
    accepted one is differentiated, on that sweep.  A trial that blows up
    (:func:`integrate_forward`) scores +inf and is backtracked, and a
    stalled search's warning counts such trials.  A blow-up of the start, or
    a gradient that is not finite there or at an accepted point, raises
    :class:`IntegrationError`.
    Termination: sup-norm of the projected gradient residual
    ``P(u - g) - u`` below ``gtol`` (the discrete KKT condition; Hager,
    Numer. Math. 87, 2000), or ``max_iterations``; the residual is in raw
    gradient units, not in the metric.  ``gtol`` must be finite and
    positive and ``max_iterations`` at least 1, or :class:`ValueError` is raised.

    The descent starts from the zero control, or from the control of
    ``start`` (a signal or a solution) projected onto the box; it must lie
    on the spec's grid, carry its channel count and be finite, or
    :class:`ValueError` is raised.  A solution of ``spec`` whose control the
    projection leaves bit for bit lends its trajectory.  The stop test does
    not depend on the start, so a start near the optimum, such as the
    sweep's, shortens the descent but certifies the same discrete KKT point.

    Returns the objective and trajectory of the last accepted trial, and no
    costate: the adjoint is the discrete one in :func:`_reverse_gradient`.
    Shares the problem tables and forward integrator with :func:`solve_fbsm`,
    but not its optimization route; used as its cross-check.
    """
    if not (math.isfinite(gtol) and gtol > 0.0):
        raise ValueError(f"gtol must be finite and positive, got {gtol}")
    _check_settings(max_iterations)
    lo, hi = 0.0, spec.u_max
    control = start.control if isinstance(start, OcpSolution) else start
    if control is None:
        u = np.zeros((spec.grid.n_nodes, spec.channels))
    else:
        _check_signal(control, spec.grid, spec.channels)
        if not np.isfinite(control.values).all():
            raise ValueError("start control has a non-finite value")
        u = np.clip(control.values, lo, hi)
    signal = ControlSignal(spec.grid, u)
    own = isinstance(start, OcpSolution) and start.spec == spec  # a solution holds its sweep
    unmoved = own and u.tobytes() == control.values.tobytes()
    traj = start.trajectory if unmoved else integrate_forward(
        spec.params, _DRAINS[spec.kind], spec.x0.as_array(), spec.grid, signal
    )
    j, g = objective(spec, traj, signal), _reverse_gradient(spec, u, traj)
    _, w = _weights(spec)
    metric = _node_weights(spec.grid)[:, None] * np.array(w[: spec.channels])
    history, blown = [j], []  # blown: per trial, whether it blew up
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

        with np.errstate(over="ignore"):  # a quotient that overflows saturates at the bound
            d = np.clip(u - alpha * g / metric, lo, hi) - u
            slope = float((g * d).sum())
            if slope >= 0.0:  # safeguarded step produced a non-descent arc
                alpha = 1.0
                d = np.clip(u - g / metric, lo, hi) - u
                slope = float((g * d).sum())

        j_ref = max(history[-10:])  # non-monotone line-search memory
        lam_step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            u_trial = u + lam_step * d
            j_trial, traj_trial = _trial_objective(spec, ControlSignal(spec.grid, u_trial))
            blown.append(traj_trial is None)
            if not blown[-1] and j_trial <= j_ref + 1e-4 * lam_step * slope:
                break
            lam_step *= 0.5
        else:
            line_search_failed = True
            break
        g_trial = _reverse_gradient(spec, u_trial, traj_trial)

        s = u_trial - u
        y = g_trial - g
        sty = float((s * y).sum())
        sds = float((s * metric * s).sum())
        alpha = min(max(sds / sty, 1e-6), 1e6) if sty > 0.0 else 1e6

        u, j, g, traj = u_trial, j_trial, g_trial, traj_trial
        history.append(j)

    if line_search_failed:
        # at the numerical floor; accept if the residual is already tiny
        residual = float(np.max(np.abs(np.clip(u - g, lo, hi) - u)))
        converged = residual <= max(1e3 * gtol, 1e-6)
        if not converged:
            logger.warning(
                "%s direct solve: line search stalled at residual %.3e%s", spec.kind.name, residual,
                f"; {sum(blown)} of {len(blown)} trials blew up: the grid may be too coarse for"
                " RK4 at these rates" if any(blown) else "",
            )
    elif not converged:
        logger.warning(
            "%s direct solve did not converge in %d iterations", spec.kind.name, max_iterations
        )

    signal = ControlSignal(spec.grid, u)
    return OcpSolution(spec, traj, signal, None, j, iterations, converged, history)
