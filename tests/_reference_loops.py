"""Reference numpy implementations of the RK4 sweeps and the reverse gradient.

These are the 3-vector numpy loops the package used before its sweeps ran on
plain floats: ``rk4_step``-based forward and backward integrators driven by
per-step closures, numpy dynamics and costate fields, and the reverse-mode
objective gradient built from 3x3 stage Jacobians.  Only the tests use them,
as an oracle.  The float forward sweep must reproduce every state node bit
for bit, and the gradient must agree to roundoff.  The backward integrator
is the one step-by-step costate loop left: the package's scanned costate
(``ocp._costate_scan``) must match its nodes to roundoff, its lam_R and
lam(t_end) = 0 bit for bit, and report its blow-ups.  The scanned costate's
first coefficient build, which called the layout's full ``vjp`` at every
stage, is kept too, with that ``vjp``'s rows typed out as they were first
written: ``ocp._costate_scan`` must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from sircontrol import ocp
from sircontrol.integrate import IntegrationError, Trajectory, stage_samples
from sircontrol.ocp import ControlSignal, Strategy, objective


def rk4_step(f, t, x, dt):
    """One classical RK4 step; dt may be negative (backward sweep)."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow here is a diagnosed failure mode, not a warning condition
        k1 = f(t, x)
        k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = f(t + dt, x + dt * k3)
        out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(f"non-finite state after step at t={t}")
    return out


def _check_controls(controls, grid):
    if controls is not None and controls.grid != grid:
        raise ValueError("control signal is sampled on a different grid")


def integrate_forward(dynamics, x0, grid, controls=None):
    """Forward RK4 of ``dynamics(t, x, u)`` with interpolated node controls."""
    _check_controls(controls, grid)
    times = grid.times()
    dt = grid.dt
    out = np.empty((grid.n_nodes, len(x0)))
    out[0] = x0
    x = np.asarray(x0, dtype=float)
    for k in range(grid.steps):
        t_k = times[k]
        if controls is None:
            f = lambda t, y: dynamics(t, y, None)  # noqa: E731
        else:
            u_a, u_b = controls.values[k], controls.values[k + 1]

            def f(t, y, u_a=u_a, u_b=u_b, t_k=t_k):
                w = (t - t_k) / dt
                return dynamics(t, y, u_a + w * (u_b - u_a))

        x = rk4_step(f, t_k, x, dt)
        out[k + 1] = x
    return Trajectory(grid, out)


def integrate_backward(adjoint_dynamics, lambda_end, grid, states, controls=None):
    """Backward RK4 of ``adjoint_dynamics(t, lam, x, u)`` from t_end to t0."""
    if states.grid != grid:
        raise ValueError("state trajectory lives on a different grid")
    _check_controls(controls, grid)
    times = grid.times()
    dt = grid.dt
    out = np.empty((grid.n_nodes, len(lambda_end)))
    out[-1] = lambda_end
    lam = np.asarray(lambda_end, dtype=float)
    for k in range(grid.steps, 0, -1):
        t_k = times[k]
        x_a, x_b = states.values[k], states.values[k - 1]
        if controls is None:

            def g(t, l, x_a=x_a, x_b=x_b, t_k=t_k):
                w = (t_k - t) / dt
                return adjoint_dynamics(t, l, x_a + w * (x_b - x_a), None)

        else:
            u_a, u_b = controls.values[k], controls.values[k - 1]

            def g(t, l, x_a=x_a, x_b=x_b, u_a=u_a, u_b=u_b, t_k=t_k):
                w = (t_k - t) / dt
                return adjoint_dynamics(
                    t, l, x_a + w * (x_b - x_a), u_a + w * (u_b - u_a)
                )

        lam = rk4_step(g, t_k, lam, -dt)
        out[k - 1] = lam
    return Trajectory(grid, out)


# -- numpy model rates and fields ---------------------------------------------


def uncontrolled_rates(x, beta, mu):
    s, i = x[0], x[1]
    infection = beta * s * i
    ds = -infection
    di = infection - mu * i
    return np.array([ds, di, -(ds + di)])


def vaccination_rates(x, beta, mu, u):
    s, i = x[0], x[1]
    infection = beta * s * i
    ds = -infection - u * s
    di = infection - mu * i
    return np.array([ds, di, -(ds + di)])


def treatment_education_rates(x, beta, mu, u1, u2):
    s, i = x[0], x[1]
    infection = beta * s * i
    ds = -infection - u2 * s
    di = infection - (mu + u1) * i
    return np.array([ds, di, -(ds + di)])


def uncontrolled_field(params):
    def f(t, x, u):
        return uncontrolled_rates(x, params.beta, params.mu)

    return f


def dynamics_field(spec):
    beta, mu = spec.params.beta, spec.params.mu
    if spec.kind is Strategy.TREATMENT_EDUCATION:

        def f(t, x, u):
            return treatment_education_rates(x, beta, mu, u[0], u[1])

    else:

        def f(t, x, u):
            return vaccination_rates(x, beta, mu, u[0])

    return f


def _adjoint_terms(spec, beta, mu, s, i, ls, li, lr, u1, u2):
    if spec.kind is Strategy.VACCINATION:
        dls = (ls - li) * beta * i + (ls - lr) * u1
        dli = -1.0 + (ls - li) * beta * s + (li - lr) * mu
        dlr = 0.0 * lr
    elif spec.kind is Strategy.VACCINATION_WEIGHTED:
        dls = -spec.a1 + (ls - li) * beta * i + (ls - lr) * u1
        dli = -spec.a2 + (ls - li) * beta * s + (li - lr) * mu
        dlr = spec.a3 + 0.0 * lr
    else:
        dls = (ls - li) * beta * i + (ls - lr) * u2
        dli = -spec.kappa + (ls - li) * beta * s + (li - lr) * (mu + u1)
        dlr = 0.0 * lr
    return dls, dli, dlr


def adjoint_field(spec):
    beta, mu = spec.params.beta, spec.params.mu

    def g(t, lam, x, u):
        u2 = u[1] if len(u) == 2 else 0.0
        dls, dli, dlr = _adjoint_terms(
            spec, beta, mu, x[0], x[1], lam[0], lam[1], lam[2], u[0], u2
        )
        return np.array([dls, dli, dlr])

    return g


# -- reverse-mode gradient with 3x3 stage Jacobians ----------------------------


def _stage_jacobians(spec):
    beta, mu = spec.params.beta, spec.params.mu

    if spec.kind is Strategy.TREATMENT_EDUCATION:

        def f(x, u):
            return treatment_education_rates(x, beta, mu, u[0], u[1])

        def fx(x, u):
            s, i = x[0], x[1]
            return np.array(
                [
                    [-beta * i - u[1], -beta * s, 0.0],
                    [beta * i, beta * s - mu - u[0], 0.0],
                    [u[1], mu + u[0], 0.0],
                ]
            )

        def fu(x, u):
            s, i = x[0], x[1]
            return np.array([[0.0, -s], [-i, 0.0], [i, s]])

        def cx(x, u):
            return np.array([0.0, spec.kappa, 0.0])

        def cu(x, u):
            return np.array([spec.b1 * u[0], spec.b2 * u[1]])

    else:
        if spec.kind is Strategy.VACCINATION:
            cost_x = np.array([0.0, 1.0, 0.0])
            u_weight = spec.nu
        else:
            cost_x = np.array([spec.a1, spec.a2, -spec.a3])
            u_weight = spec.tau

        def f(x, u):
            return vaccination_rates(x, beta, mu, u[0])

        def fx(x, u):
            s, i = x[0], x[1]
            return np.array(
                [
                    [-beta * i - u[0], -beta * s, 0.0],
                    [beta * i, beta * s - mu, 0.0],
                    [u[0], mu, 0.0],
                ]
            )

        def fu(x, u):
            s = x[0]
            return np.array([[-s], [0.0], [s]])

        def cx(x, u):
            return cost_x

        def cu(x, u):
            return np.array([u_weight * u[0]])

    return f, fx, fu, cx, cu


def objective_gradient(spec, u_values):
    """Discrete objective and its reverse-mode gradient w.r.t. the control nodes."""
    signal = ControlSignal(spec.grid, u_values)
    traj = integrate_forward(dynamics_field(spec), spec.x0.as_array(), spec.grid, signal)
    j = objective(spec, traj, signal)

    f, fx, fu, cx, cu = _stage_jacobians(spec)
    x = traj.values
    dt = spec.grid.dt
    n = spec.grid.steps
    grad = np.zeros_like(u_values)

    w_end, w_mid = 0.5 * dt, dt

    xbar = w_end * cx(x[n], u_values[n])
    grad[n] += w_end * cu(x[n], u_values[n])
    for k in range(n - 1, -1, -1):
        u_a, u_b = u_values[k], u_values[k + 1]
        um = 0.5 * (u_a + u_b)
        x1 = x[k]
        f1 = f(x1, u_a)
        x2 = x1 + 0.5 * dt * f1
        f2 = f(x2, um)
        x3 = x1 + 0.5 * dt * f2
        f3 = f(x3, um)
        x4 = x1 + dt * f3

        kbar4 = (dt / 6.0) * xbar
        a4 = fx(x4, u_b).T @ kbar4
        grad[k + 1] += fu(x4, u_b).T @ kbar4

        kbar3 = (dt / 3.0) * xbar + dt * a4
        a3 = fx(x3, um).T @ kbar3
        dmid = fu(x3, um).T @ kbar3

        kbar2 = (dt / 3.0) * xbar + 0.5 * dt * a3
        a2 = fx(x2, um).T @ kbar2
        dmid += fu(x2, um).T @ kbar2

        kbar1 = (dt / 6.0) * xbar + 0.5 * dt * a2
        a1 = fx(x1, u_a).T @ kbar1
        grad[k] += fu(x1, u_a).T @ kbar1

        grad[k] += 0.5 * dmid
        grad[k + 1] += 0.5 * dmid

        xbar = xbar + a1 + a2 + a3 + a4
        w_node = w_end if k == 0 else w_mid
        xbar += w_node * cx(x1, u_a)
        grad[k] += w_node * cu(x1, u_a)

    return j, grad


# -- the scanned costate with one full vjp call per stage ----------------------


def state_vjp(beta, mu, s, i, a, v, ks, ki, kr):
    """The S and I rows of the layout's ``vjp``, ``f_x^T k``, as first written."""
    return (
        (-beta * i - a) * ks + beta * i * ki + a * kr,
        -beta * s * ks + (beta * s - mu - v) * ki + (mu + v) * kr,
    )


def costate_scan(spec, traj, signal):
    """``ocp._costate_scan`` as first written: the layout's ``vjp`` on three seeds per stage."""
    beta, mu = spec.params.beta, spec.params.mu
    (cs, ci, cr), _ = ocp._weights(spec)
    grid = spec.grid
    n = grid.steps
    back = -grid.dt
    half, sixth = 0.5 * back, back / 6.0
    zero = np.zeros(grid.n_nodes)
    nodes = np.array((traj.s, traj.i, *ocp._DRAINS[spec.kind].split(signal.values, zero)))
    (s1, i1, a1, v1), (sm, im, am, vm), (s4, i4, a4, v4) = stage_samples(grid, nodes, True)
    kr = -cr + 0.0
    lam_r = np.full(n + 1, sixth * (kr + 2.0 * kr + 2.0 * kr + kr))
    lam_r[0] = 0.0
    lam_r = lam_r.cumsum()
    ys, yi = np.eye(3)[:2, :, None]
    yr = np.zeros((3, n))
    yr[2] = lam_r[:-1]
    ns, ni, nr = np.zeros((3, 3, 1))
    ns[2], ni[2], nr[2] = -cs, -ci, kr

    def stage(s, i, a, v, y_s, y_i, y_r):
        f_s, f_i = state_vjp(beta, mu, s, i, a, v, y_s, y_i, y_r)
        return ns - f_s, ni - f_i

    with np.errstate(over="ignore", invalid="ignore"):
        k1s, k1i = stage(s1, i1, a1, v1, ys, yi, yr)
        yr_m = yr + half * nr
        k2s, k2i = stage(sm, im, am, vm, ys + half * k1s, yi + half * k1i, yr_m)
        k3s, k3i = stage(sm, im, am, vm, ys + half * k2s, yi + half * k2i, yr_m)
        k4s, k4i = stage(s4, i4, a4, v4, ys + back * k3s, yi + back * k3i, yr + back * nr)
        coef = np.concatenate((
            ys + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
            yi + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i),
        ))
        lam = ocp._affine_scan(0.0, 0.0, coef)
    return Trajectory(grid, np.column_stack((lam, lam_r))[::-1])
