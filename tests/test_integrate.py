"""Integrator tests: RK4 accuracy/order, grid handling, forward/backward sweeps."""

import math

import numpy as np
import pytest

from sircontrol.integrate import (
    IntegrationError,
    TimeGrid,
    Trajectory,
    integrate_backward,
    integrate_forward,
)
from sircontrol.ocp import (
    DEFAULT_PARAMS,
    DEFAULT_X0,
    ControlSignal,
    adjoint_field,
    default_spec,
    uncontrolled_field,
)

from _reference_loops import rk4_step

GRID = TimeGrid(0.0, 100.0, 1000)


# -- TimeGrid / Trajectory containers ------------------------------------------


def test_grid_basic_quantities():
    g = TimeGrid(0.0, 10.0, 4)
    assert g.dt == 2.5
    assert g.n_nodes == 5
    assert np.allclose(g.times(), [0.0, 2.5, 5.0, 7.5, 10.0])


def test_grid_rejects_degenerate_spans():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(5.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_trajectory_shape_must_match_grid():
    with pytest.raises(ValueError):
        Trajectory(TimeGrid(0.0, 1.0, 10), np.zeros((5, 3)))


# -- single RK4 steps of the numpy reference stepper -------------------------------


def test_rk4_zero_dynamics_is_identity():
    x = np.array([1.0, 2.0, 3.0])
    out = rk4_step(lambda t, y: np.zeros(3), 0.0, x, 0.1)
    assert np.array_equal(out, x)


def test_rk4_exponential_decay_single_step():
    out = rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_rk4_negative_step_runs_backward():
    out = rk4_step(lambda t, y: -y, 0.1, np.array([math.exp(-0.1)]), -0.1)
    assert out[0] == pytest.approx(1.0, abs=1e-7)


def test_rk4_rejects_zero_dt():
    with pytest.raises(ValueError):
        rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.0)


def test_rk4_fourth_order_on_closed_form():
    """Global error on x' = -x over [0,1] shrinks ~16x per dt halving."""
    errs = []
    for dt in (0.2, 0.1, 0.05):
        n = round(1.0 / dt)
        x = np.array([1.0])
        for k in range(n):
            x = rk4_step(lambda t, y: -y, k * dt, x, dt)
        errs.append(abs(x[0] - math.exp(-1.0)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 8.0 <= coarse / fine <= 32.0  # within a factor 2 of the ideal 16


# -- forward integration ----------------------------------------------------------


def test_forward_keeps_initial_state_and_length():
    traj = integrate_forward(
        uncontrolled_field(DEFAULT_PARAMS), DEFAULT_X0.as_array(), GRID
    )
    assert traj.values.shape == (1001, 3)
    assert np.array_equal(traj.values[0], DEFAULT_X0.as_array())


def test_forward_conserves_population(uncontrolled_traj):
    assert uncontrolled_traj.conservation_error() <= 1e-9
    assert uncontrolled_traj.min_component() >= -1e-9


def test_forward_blowup_raises():
    with pytest.raises(IntegrationError):
        integrate_forward(
            lambda t, s, i, r, u1, u2: (s * s, 0.0, 0.0),
            np.array([1.0, 0.0, 0.0]),
            TimeGrid(0.0, 5.0, 10),
        )


def test_forward_rejects_mismatched_control_grid():
    signal = ControlSignal(TimeGrid(0.0, 100.0, 10), np.zeros((11, 1)))
    with pytest.raises(ValueError, match="different grid"):
        integrate_forward(
            uncontrolled_field(DEFAULT_PARAMS), DEFAULT_X0.as_array(), GRID, signal
        )


def test_linear_control_interpolation_is_exact():
    """x' = u(t) with u linear between nodes integrates to the exact area."""
    grid = TimeGrid(0.0, 2.0, 4)
    u_nodes = (3.0 * grid.times() + 1.0).reshape(-1, 1)  # u(t) = 3t + 1
    signal = ControlSignal(grid, u_nodes)
    traj = integrate_forward(
        lambda t, s, i, r, u1, u2: (u1, 0.0, 0.0), np.zeros(3), grid, signal
    )
    assert traj.values[-1, 0] == pytest.approx(8.0, rel=1e-13)  # int_0^2 (3t+1) dt


# -- backward integration ----------------------------------------------------------


def zero_costate_field(t, ls, li, lr, s, i, r, u1, u2):
    return 0.0, 0.0, 0.0


def test_backward_zero_terminal_zero_dynamics_stays_zero(uncontrolled_traj):
    adj = integrate_backward(
        zero_costate_field, np.zeros(3), GRID, uncontrolled_traj
    )
    assert np.array_equal(adj.values, np.zeros((1001, 3)))


def test_backward_terminal_node_is_stored_exactly(uncontrolled_traj):
    lam_end = np.array([0.5, -0.25, 0.125])
    adj = integrate_backward(
        zero_costate_field, lam_end, GRID, uncontrolled_traj
    )
    assert np.array_equal(adj.values[-1], lam_end)


def test_backward_grid_matches_forward(uncontrolled_traj):
    adj = integrate_backward(
        zero_costate_field, np.zeros(3), GRID, uncontrolled_traj
    )
    assert adj.grid == uncontrolled_traj.grid
    assert adj.values.shape[0] == uncontrolled_traj.values.shape[0]


def test_backward_recovers_exponential():
    """lam' = lam backward from lam(1)=1 must give lam(0)=e^-1."""
    grid = TimeGrid(0.0, 1.0, 100)
    states = Trajectory(grid, np.zeros((101, 3)))
    adj = integrate_backward(
        lambda t, ls, li, lr, s, i, r, u1, u2: (ls, li, lr), np.ones(3), grid, states
    )
    assert adj.values[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_strategy1_costate_for_recovered_is_constant(fbsm_solutions):
    lam_r = fbsm_solutions[1].adjoints.values[:, 2]
    assert np.max(np.abs(lam_r)) <= 1e-12  # lam_R' = 0 with lam_R(t_end) = 0


def test_backward_on_spec_grid_is_reproducible(fbsm_solutions):
    """Re-running the final backward sweep reproduces the stored costates."""
    sol = fbsm_solutions[1]
    spec = default_spec(1)
    again = integrate_backward(
        adjoint_field(spec), np.zeros(3), spec.grid, sol.trajectory, sol.control
    )
    assert np.array_equal(again.values, sol.adjoints.values)
