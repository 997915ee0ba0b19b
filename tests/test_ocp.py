"""Optimal-control tests: functionals, costates, control laws, both solvers."""

import logging
import math

import numpy as np
import pytest

from sircontrol import ocp
from sircontrol.integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from sircontrol.metrics import peak_infected
from sircontrol.model import ControlValue, EpidemicState, ModelParams
from sircontrol.ocp import (
    AdjointState,
    ControlSignal,
    Strategy,
    StrategySpec,
    adjoint_rhs,
    default_spec,
    dynamics_field,
    hamiltonian,
    objective,
    objective_gradient,
    optimal_control_characterization,
    running_cost,
    solve_direct,
    solve_fbsm,
)

X0 = EpidemicState(0.95, 0.05, 0.0)


def random_point(rng, channels):
    """A random valid (state, adjoint, control) triple."""
    state = EpidemicState(*rng.dirichlet(np.ones(3)))
    adj = AdjointState(*rng.normal(0.0, 2.0, size=3))
    if channels == 1:
        u = ControlValue(rng.uniform(0.0, 0.9))
    else:
        u = ControlValue(rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9))
    return state, adj, u


# -- problem definition -----------------------------------------------------------


def test_default_spec_pins_reference_values():
    spec = default_spec(1)
    assert (spec.params.beta, spec.params.mu, spec.params.n) == (0.2, 0.1, 1.0)
    assert (spec.x0.s, spec.x0.i, spec.x0.r) == (0.95, 0.05, 0.0)
    assert (spec.grid.t_end, spec.grid.steps) == (100.0, 1000)
    assert spec.u_max == 0.9
    assert spec.nu == 0.5
    assert (spec.a1, spec.a2, spec.a3, spec.tau) == (0.1, 0.5, 0.002, 1.0)
    assert (spec.kappa, spec.b1, spec.b2) == (1.0, 0.2, 0.04)


def test_spec_validation():
    with pytest.raises(ValueError, match="u_max"):
        StrategySpec(kind=Strategy.VACCINATION, u_max=0.0)
    with pytest.raises(ValueError, match="nu"):
        StrategySpec(kind=Strategy.VACCINATION, nu=-1.0)
    with pytest.raises(ValueError, match="sum to"):
        StrategySpec(kind=Strategy.VACCINATION, x0=EpidemicState(0.5, 0.1, 0.1))


def test_strategy_channel_counts():
    assert Strategy.VACCINATION.channels == 1
    assert Strategy.VACCINATION_WEIGHTED.channels == 1
    assert Strategy.TREATMENT_EDUCATION.channels == 2


def test_control_signal_validation():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="does not match"):
        ControlSignal(grid, np.zeros((10, 1)))
    with pytest.raises(ValueError, match="channels"):
        ControlSignal(grid, np.zeros((11, 3)))
    signal = ControlSignal(grid, np.full((11, 2), 0.5))
    assert signal.channels == 2
    assert signal.max_bound_violation(0.9) == 0.0
    assert signal.max_bound_violation(0.4) == pytest.approx(0.1)


# -- running cost and objective ---------------------------------------------------


def test_running_cost_examples():
    assert running_cost(default_spec(1), X0, ControlValue(0.0)) == pytest.approx(0.05)
    assert running_cost(default_spec(2), X0, ControlValue(0.0)) == pytest.approx(0.12)
    assert running_cost(
        default_spec(3), X0, ControlValue(0.9, 0.9)
    ) == pytest.approx(0.1472)


def test_running_cost_rejects_wrong_arity():
    with pytest.raises(ValueError, match="channel"):
        running_cost(default_spec(1), X0, ControlValue(0.1, 0.1))
    with pytest.raises(ValueError, match="channel"):
        running_cost(default_spec(3), X0, ControlValue(0.1))


def test_objective_is_exact_on_constant_integrand():
    spec = default_spec(1)
    values = np.tile([0.7, 0.2, 0.1], (spec.grid.n_nodes, 1))
    traj = Trajectory(spec.grid, values)
    u = ControlSignal.zeros(spec.grid, 1)
    assert objective(spec, traj, u) == pytest.approx(100.0 * 0.2, rel=1e-13)


def test_objective_of_uncontrolled_run_is_infected_burden(uncontrolled_traj):
    spec = default_spec(1)
    u = ControlSignal.zeros(spec.grid, 1)
    burden = np.trapezoid(uncontrolled_traj.i, uncontrolled_traj.grid.times())
    assert objective(spec, uncontrolled_traj, u) == pytest.approx(burden, rel=1e-13)


def test_trapezoid_matches_simpson_oracle(uncontrolled_traj):
    """Independent quadrature route: composite Simpson on the infected curve."""
    i = uncontrolled_traj.i
    dt = uncontrolled_traj.grid.dt
    simpson = (dt / 3.0) * (
        i[0] + i[-1] + 4.0 * i[1:-1:2].sum() + 2.0 * i[2:-1:2].sum()
    )
    spec = default_spec(1)
    trap = objective(spec, uncontrolled_traj, ControlSignal.zeros(spec.grid, 1))
    assert trap == pytest.approx(simpson, rel=1e-4)


def test_objective_rejects_grid_mismatch(uncontrolled_traj):
    spec = default_spec(1)
    other = ControlSignal.zeros(TimeGrid(0.0, 100.0, 500), 1)
    with pytest.raises(ValueError, match="grid"):
        objective(spec, uncontrolled_traj, other)


# -- costate system ----------------------------------------------------------------


def test_adjoint_rhs_with_zero_costates_is_cost_gradient():
    d1 = adjoint_rhs(default_spec(1), X0, AdjointState(0, 0, 0), ControlValue(0.3))
    assert (d1.lam_s, d1.lam_i, d1.lam_r) == (0.0, -1.0, 0.0)

    d2 = adjoint_rhs(default_spec(2), X0, AdjointState(0, 0, 0), ControlValue(0.3))
    assert (d2.lam_s, d2.lam_i, d2.lam_r) == (-0.1, -0.5, 0.002)

    d3 = adjoint_rhs(default_spec(3), X0, AdjointState(0, 0, 0), ControlValue(0.3, 0.1))
    assert (d3.lam_s, d3.lam_i, d3.lam_r) == (0.0, -1.0, 0.0)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_adjoint_rhs_matches_hamiltonian_gradient(kind):
    """Central differences of H in (S, I, R) reproduce -adjoint_rhs."""
    spec = default_spec(kind)
    rng = np.random.default_rng(100 + kind)
    h = 1e-6
    for _ in range(5):
        state, adj, u = random_point(rng, spec.channels)
        d = adjoint_rhs(spec, state, adj, u).as_array()
        x = state.as_array()
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            dh = (
                hamiltonian(spec, EpidemicState.from_array(xp), adj, u)
                - hamiltonian(spec, EpidemicState.from_array(xm), adj, u)
            ) / (2.0 * h)
            assert d[j] == pytest.approx(-dh, abs=1e-6)


def test_adjoint_rhs_rejects_wrong_arity():
    with pytest.raises(ValueError, match="channel"):
        adjoint_rhs(default_spec(3), X0, AdjointState(0, 0, 0), ControlValue(0.1))


# -- control characterization --------------------------------------------------------


def test_characterization_zero_switch_gives_zero_control():
    adj = AdjointState(0.4, -1.0, 0.4)  # lam_S == lam_R
    for kind in (1, 2):
        u = optimal_control_characterization(default_spec(kind), X0, adj)
        assert u.u1 == 0.0


def test_characterization_clamps_to_bound():
    # (lam_S - lam_R) * S / tau = 5 with S = 0.95 -> clamp at u_max
    adj = AdjointState(5.0 / 0.95, 0.0, 0.0)
    u = optimal_control_characterization(default_spec(2), X0, adj)
    assert u.u1 == 0.9


def test_characterization_interior_is_stationary():
    """Unclamped control zeroes dH/du to machine precision."""
    rng = np.random.default_rng(23)
    for kind in (1, 2, 3):
        spec = default_spec(kind)
        for _ in range(20):
            state, adj, _ = random_point(rng, spec.channels)
            u = optimal_control_characterization(spec, state, adj)
            h = 1e-5
            for ch, val in enumerate([u.u1] + ([u.u2] if u.u2 is not None else [])):
                if not 1e-6 < val < spec.u_max - 1e-6:
                    continue  # clamped: stationarity does not apply
                up = [u.u1, u.u2][: spec.channels]
                um = list(up)
                up[ch] += h
                um[ch] -= h
                dh = (
                    hamiltonian(spec, state, adj, ControlValue(*up))
                    - hamiltonian(spec, state, adj, ControlValue(*um))
                ) / (2.0 * h)
                assert abs(dh) <= 1e-9


# -- sweep solver ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fbsm_converges_on_defaults(kind, fbsm_solutions):
    sol = fbsm_solutions[kind]
    assert sol.converged
    assert sol.iterations <= 500
    # history holds the starting objective plus one entry per iteration
    assert len(sol.objective_history) == sol.iterations + 1
    assert sol.objective == min(sol.objective_history)
    assert math.isfinite(sol.objective)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fbsm_transversality_is_exact(kind, fbsm_solutions):
    assert np.array_equal(fbsm_solutions[kind].adjoints.values[-1], np.zeros(3))


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fbsm_controls_are_admissible(kind, fbsm_solutions):
    sol = fbsm_solutions[kind]
    assert sol.control.values.min() >= 0.0
    assert sol.control.values.max() <= default_spec(kind).u_max


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fbsm_objective_is_recomputable(kind, fbsm_solutions):
    sol = fbsm_solutions[kind]
    again = objective(default_spec(kind), sol.trajectory, sol.control)
    assert sol.objective == pytest.approx(again, rel=1e-12)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fbsm_objective_descends_after_warmup(kind, fbsm_solutions):
    hist = np.asarray(fbsm_solutions[kind].objective_history)
    if len(hist) > 5:
        assert np.all(np.diff(hist[5:]) <= 1e-6)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fbsm_stationarity_at_tight_tolerance(kind, fbsm_tight_solutions):
    """Interior nodes of a well-converged sweep satisfy |dH/du| <= 1e-4."""
    sol = fbsm_tight_solutions[kind]
    assert sol.converged
    spec = default_spec(kind)
    u = sol.control.values
    s, i = sol.trajectory.s, sol.trajectory.i
    lam_s, lam_i, lam_r = sol.adjoints.values.T
    if kind == 1:
        residuals = [(spec.nu * u[:, 0] - (lam_s - lam_r) * s, u[:, 0])]
    elif kind == 2:
        residuals = [(spec.tau * u[:, 0] - (lam_s - lam_r) * s, u[:, 0])]
    else:
        residuals = [
            (spec.b1 * u[:, 0] - (lam_i - lam_r) * i, u[:, 0]),
            (spec.b2 * u[:, 1] - (lam_s - lam_r) * s, u[:, 1]),
        ]
    for res, channel in residuals:
        interior = (channel > 1e-9) & (channel < spec.u_max - 1e-9)
        assert np.max(np.abs(res[interior])) <= 1e-4


def test_fbsm_with_huge_control_cost_approaches_uncontrolled(uncontrolled_traj):
    spec = StrategySpec(kind=Strategy.VACCINATION, nu=1e6)
    sol = solve_fbsm(spec)
    assert sol.converged
    assert sol.control.values.max() <= 1e-3
    gap = np.max(np.abs(sol.trajectory.values - uncontrolled_traj.values))
    assert gap <= 1e-3


def test_fbsm_nonconvergence_is_reported_not_raised():
    sol = solve_fbsm(default_spec(1), max_iterations=1)
    assert not sol.converged
    assert sol.iterations == 1


def test_fbsm_strategy_dominance(fbsm_solutions, uncontrolled_traj):
    """More aggressive strategies cannot produce a higher infected peak."""
    _, peak_unc = peak_infected(uncontrolled_traj)
    _, peak_s1 = peak_infected(fbsm_solutions[1].trajectory)
    _, peak_s3 = peak_infected(fbsm_solutions[3].trajectory)
    assert peak_s3 <= peak_s1 <= peak_unc


# -- direct solver and gradients ---------------------------------------------------------


def test_direct_agrees_with_fbsm_on_strategy1(fbsm_solutions, direct_solutions):
    j_sweep = fbsm_solutions[1].objective
    j_direct = direct_solutions[1].objective
    assert abs(j_sweep - j_direct) / abs(j_direct) <= 0.01


def test_direct_with_negligible_state_cost_keeps_control_off():
    spec = StrategySpec(
        kind=Strategy.VACCINATION_WEIGHTED, a1=1e-15, a2=1e-15, a3=1e-15
    )
    sol = solve_direct(spec)
    assert sol.converged
    assert np.max(np.abs(sol.control.values)) <= 1e-9


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_direct_solutions_are_admissible_and_converged(kind, direct_solutions):
    sol = direct_solutions[kind]
    assert sol.converged
    assert sol.control.values.min() >= 0.0
    assert sol.control.values.max() <= default_spec(kind).u_max
    assert np.array_equal(sol.adjoints.values[-1], np.zeros(3))


def test_adjoint_gradient_matches_finite_differences():
    """Exact discrete gradient vs central differences on a coarse grid."""
    spec = default_spec(1, steps=100)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.05, 0.85, size=(spec.grid.n_nodes, 1))
    _, grad = objective_gradient(spec, u)
    dynamics = dynamics_field(spec)
    h = 1e-6

    def j_of(values):
        signal = ControlSignal(spec.grid, values)
        traj = integrate_forward(dynamics, spec.x0.as_array(), spec.grid, signal)
        return objective(spec, traj, signal)

    for k in rng.choice(spec.grid.n_nodes, size=8, replace=False):
        up, um = u.copy(), u.copy()
        up[k, 0] += h
        um[k, 0] -= h
        fd = (j_of(up) - j_of(um)) / (2.0 * h)
        assert grad[k, 0] == pytest.approx(fd, rel=1e-4)


def test_gradient_descent_direction_reduces_objective():
    """Sanity: a small step against the gradient lowers the discrete objective."""
    spec = default_spec(2, steps=200)
    u = np.full((spec.grid.n_nodes, 1), 0.4)
    j0, grad = objective_gradient(spec, u)
    j1, _ = objective_gradient(spec, u - 1e-3 * grad)
    assert j1 < j0


def fail_calls(monkeypatch, name, fails):
    """Make each call ``n`` (from 1) of ``ocp.<name>`` with ``fails(n)`` raise IntegrationError."""
    original = getattr(ocp, name)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if fails(len(calls)):
            raise IntegrationError("non-finite state after step at t=0.0")
        return original(*args, **kwargs)

    monkeypatch.setattr(ocp, name, flaky)
    return calls


def test_fbsm_rejects_a_trial_that_blows_up(monkeypatch):
    spec = default_spec(1, steps=200)
    expected = solve_fbsm(spec)
    calls = fail_calls(monkeypatch, "integrate_forward", lambda n: n == 2)  # the first trial
    sol = solve_fbsm(spec)
    assert len(calls) > 2
    assert sol.converged
    assert sol.objective == pytest.approx(expected.objective, rel=1e-3)


def test_fbsm_stops_with_its_best_iterate_when_every_trial_blows_up(monkeypatch):
    spec = default_spec(1, steps=200)
    calls = fail_calls(monkeypatch, "integrate_forward", lambda n: n > 1)
    sol = solve_fbsm(spec)
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.objective == sol.objective_history[0]
    assert np.array_equal(sol.control.values, np.zeros((spec.grid.n_nodes, 1)))
    assert len(calls) == 1 + 7  # the zero-control sweep, then damping 1/2 ... 1/128


def test_fbsm_initial_blowup_still_raises():
    spec = StrategySpec(
        kind=Strategy.VACCINATION,
        params=ModelParams(beta=1e8, mu=0.1),
        grid=TimeGrid(0.0, 100.0, 10),
    )
    with pytest.raises(IntegrationError):
        solve_fbsm(spec)


def test_direct_rejects_a_trial_that_blows_up(monkeypatch):
    spec = default_spec(1, steps=200)
    expected = solve_direct(spec)
    calls = fail_calls(monkeypatch, "objective_gradient", lambda n: n == 2)  # the first trial
    sol = solve_direct(spec)
    assert len(calls) > 2
    assert sol.converged
    assert sol.objective == pytest.approx(expected.objective, rel=1e-9)


def test_fbsm_full_relaxation_still_terminates(caplog):
    """relaxation=1 (no averaging) is rescued by the step damping; any
    objective rise is logged as a diagnostic, never raised."""
    spec = default_spec(2, steps=200)
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        sol = solve_fbsm(spec, relaxation=1.0, max_iterations=60)
    assert math.isfinite(sol.objective)
    for record in caplog.records:
        msg = record.getMessage()
        assert ("objective rose" in msg) or ("did not converge" in msg)
