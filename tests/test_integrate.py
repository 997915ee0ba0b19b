"""Integrator tests: RK4 accuracy/order, grid handling, stage samples, the forward sweep."""

import math
import re

import numpy as np
import pytest

from sircontrol import ocp
from sircontrol.integrate import (
    IntegrationError,
    TimeGrid,
    Trajectory,
    integrate_forward,
    stage_samples,
)
from sircontrol.model import Drains, EpidemicState, ModelParams
from sircontrol.ocp import (
    DEFAULT_PARAMS,
    DEFAULT_X0,
    default_spec,
)

from _reference_loops import rk4_step

GRID = TimeGrid(0.0, 100.0, 1000)


# -- TimeGrid / Trajectory containers ------------------------------------------


def test_grid_basic_quantities():
    g = TimeGrid(0.0, 10.0, 4)
    assert g.dt == 2.5
    assert g.n_nodes == 5
    assert np.allclose(g.times(), [0.0, 2.5, 5.0, 7.5, 10.0])


def test_grid_times_are_computed_once_and_read_only():
    g = TimeGrid(0.0, 100.0, 1000)
    assert np.array_equal(g.times(), g.times())
    assert np.array_equal(g.times(), np.linspace(0.0, 100.0, 1001))
    assert not g.times().flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g.times()[0] = 1.0


def test_grid_stage_weights_are_computed_once_and_read_only():
    g = TimeGrid(0.0, 100.0, 1000)
    for backward in (False, True):
        w_half, w_full = g._stage_weights[backward]
        assert g._stage_weights[backward][0] is w_half
        assert w_half.shape == w_full.shape == (1000,)
        for w in (w_half, w_full):
            assert not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 0.5


def test_grid_rejects_degenerate_spans():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(5.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    # a span whose step underflows to 0.0, or overflows to inf
    for t0, t_end, steps in ((0.0, 5e-324, 20), (-1e308, 1e308, 1)):
        with pytest.raises(ValueError, match="dt="):
            TimeGrid(t0, t_end, steps)
    for t0, t_end in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t0, t_end, 10)
    # a step count past numpy's maximum array size, or past the float range of dt
    for steps in (10**23, 10**400):
        with pytest.raises(ValueError, match=f"^steps = {steps} is too large: "):
            TimeGrid(0.0, 1.0, steps)


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
    traj = integrate_forward(DEFAULT_PARAMS, Drains(), DEFAULT_X0, GRID)
    assert traj.values.shape == (1001, 3)
    assert traj.values[0].tolist() == [DEFAULT_X0.s, DEFAULT_X0.i, DEFAULT_X0.r]


def test_forward_conserves_population(uncontrolled_traj):
    assert np.max(np.abs(uncontrolled_traj.values.sum(axis=1) - 1.0)) <= 1e-9
    assert uncontrolled_traj.values.min() >= -1e-9


def test_forward_blowup_raises():
    with pytest.raises(IntegrationError):
        integrate_forward(
            ModelParams(beta=1e300, mu=0.1),  # beta*S*I overflows within a step
            Drains(),
            EpidemicState(0.5, 0.5, 0.0),
            TimeGrid(0.0, 5.0, 10),
        )


def test_forward_rejects_a_sweep_that_drives_a_compartment_negative():
    """On 2 steps of 50 days even the uncontrolled sweep reaches S = -1.15."""
    with pytest.raises(IntegrationError, match="a compartment fell to -1.15: RK4 is unstable"):
        integrate_forward(DEFAULT_PARAMS, Drains(), DEFAULT_X0, TimeGrid(0.0, 100.0, 2))


@pytest.mark.parametrize(
    "drains, rate", [(Drains(s=0), "a=-0.5"), (Drains(i=0), "mu+v=-0.4")], ids=["a", "mu+v"]
)
def test_a_negative_drain_rate_is_named_as_the_cause_of_a_negative_compartment(drains, rate):
    """From x0 >= 0 a negative drain rate drives R below 0 in the exact dynamics too."""
    grid = TimeGrid(0.0, 1.0, 10)
    control = Trajectory(grid, np.full((grid.n_nodes, 1), -0.5))
    message = f": the exact dynamics allow it from {rate}"
    with pytest.raises(IntegrationError, match=re.escape(message) + "$"):
        integrate_forward(DEFAULT_PARAMS, drains, DEFAULT_X0, grid, control)


def test_forward_rejects_a_compartment_below_the_population_tolerance():
    """The floor is -1e-9 times the initial state's sum, whatever the population.

    An initial state below it is rejected by the record, before any step; a
    later node below it by the sweep (see the test above).
    """
    for n in (1.0, 1e6):
        params = ModelParams(DEFAULT_PARAMS.beta / n, DEFAULT_PARAMS.mu)  # the same epidemic
        s0, i0 = n * DEFAULT_X0.s, n * DEFAULT_X0.i
        x0 = EpidemicState(s0, i0, -0.9e-9 * n)
        integrate_forward(params, Drains(), x0, TimeGrid(0.0, 1.0, 1))
        with pytest.raises(ValueError, match=f"compartment r=.* is below {-1e-9 * n:g} "):
            EpidemicState(s0, i0, -1.1e-9 * n)


def test_forward_rejects_mismatched_control_grid():
    signal = Trajectory(TimeGrid(0.0, 100.0, 10), np.zeros((11, 1)))
    with pytest.raises(ValueError, match="different grid"):
        integrate_forward(DEFAULT_PARAMS, Drains(), DEFAULT_X0, GRID, signal)


def test_linear_control_interpolation_is_exact():
    """RK4 of x' = u(t) on the stage samples of a linear u gives the exact area."""
    grid = TimeGrid(0.0, 2.0, 4)
    u_nodes = 3.0 * grid.times() + 1.0  # u(t) = 3t + 1
    for backward, area in ((False, 8.0), (True, -8.0)):  # int_0^2 (3t+1) dt
        node, half, full = stage_samples(grid, u_nodes, backward)
        h = -grid.dt if backward else grid.dt
        x = float(np.sum((h / 6.0) * (node + 2.0 * half + 2.0 * half + full)))
        assert x == pytest.approx(area, rel=1e-13)


@pytest.mark.parametrize("backward", [False, True])
def test_stage_samples_of_a_stack_are_those_of_each_series(backward):
    """On GRID the half-stage weights round away from 0.5, so the bits are telling."""
    stack = np.random.default_rng(7).uniform(size=(2, 3, GRID.n_nodes))
    samples = stage_samples(GRID, stack, backward)
    for row in np.ndindex(stack.shape[:-1]):
        for stacked, single in zip(samples, stage_samples(GRID, stack[row], backward)):
            assert stacked[row].tobytes() == single.tobytes()


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("steps", [1, 7, 100, 1000])
def test_stage_samples_equal_the_inline_formula(steps, backward):
    """The per-grid weights give the bits of the weights rebuilt on every call."""
    grid = TimeGrid(0.0, 100.0, steps)
    nodes = np.random.default_rng(steps).uniform(size=(2, grid.n_nodes))
    times, h, series = grid.times(), grid.dt, nodes
    if backward:
        times, h, series = times[::-1], -h, nodes[..., ::-1]
    t_k, start = times[:-1], series[..., :-1]
    delta = series[..., 1:] - start
    expected = (
        start,
        start + (((t_k + 0.5 * h) - t_k) / h) * delta,
        start + (((t_k + h) - t_k) / h) * delta,
    )
    for got, want in zip(stage_samples(grid, nodes, backward), expected, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backward", [False, True])
def test_stage_samples_written_to_out_are_those_returned(backward):
    """``out`` receives the plain call's bits, here from a strided view such as a state column."""
    nodes = np.random.default_rng(8).uniform(size=(GRID.n_nodes, 3))[:, :2].T
    out = np.full((3, 2, GRID.steps), np.nan)
    got = stage_samples(GRID, nodes, backward, out=out)
    for written, returned, want in zip(out, got, stage_samples(GRID, nodes, backward), strict=True):
        assert np.shares_memory(returned, written)
        assert written.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, channels", [(1, 2), (3, 1)])
def test_sweeps_reject_a_signal_with_the_wrong_channel_count(kind, channels):
    """Strategy 1 reads one control column and strategy 3 two; neither takes the other's."""
    spec = default_spec(kind, steps=10)
    signal = Trajectory(spec.grid, np.zeros((spec.grid.n_nodes, channels)))
    with pytest.raises(ValueError, match="control channel"):
        integrate_forward(
            spec.params, ocp._DRAINS[spec.kind], spec.x0, spec.grid, signal
        )


def test_uncontrolled_field_rejects_any_control_signal():
    grid = TimeGrid(0.0, 100.0, 10)
    with pytest.raises(ValueError, match="control channel"):
        integrate_forward(
            DEFAULT_PARAMS, Drains(), DEFAULT_X0, grid,
            Trajectory(grid, np.zeros((grid.n_nodes, 1))),
        )


# -- the costate of the sweep solver --------------------------------------------


def test_strategy1_costate_for_recovered_is_constant(fbsm_solutions):
    lam_r = fbsm_solutions[1].adjoints.values[:, 2]
    assert np.max(np.abs(lam_r)) <= 1e-12  # lam_R' = 0 with lam_R(t_end) = 0


def test_backward_on_spec_grid_is_reproducible(fbsm_solutions):
    """Re-running the costate scan of the returned iterate reproduces the stored costates."""
    sol = fbsm_solutions[1]
    again = ocp._costate_scan(default_spec(1), sol.trajectory, sol.control)
    assert np.array_equal(again.values, sol.adjoints.values)
