"""The float RK4 sweeps and reverse gradient against the numpy reference loops.

``_reference_loops`` holds the 3-vector numpy integrators and the 3x3
stage-Jacobian gradient that the float loops replaced.  The float sweeps must
reproduce every state and costate node bit for bit; the gradient sums its
Jacobian-transpose products in a different order, so it must agree to
``1e-12 * max|g|``.
"""

import numpy as np
import pytest

import _reference_loops as ref
from sircontrol.integrate import IntegrationError, TimeGrid, integrate_backward, integrate_forward
from sircontrol.model import ModelParams
from sircontrol.ocp import (
    DEFAULT_PARAMS,
    DEFAULT_T_END,
    DEFAULT_X0,
    ControlSignal,
    Strategy,
    StrategySpec,
    adjoint_field,
    default_spec,
    dynamics_field,
    objective_gradient,
    uncontrolled_field,
)

GRADIENT_RTOL = 1e-12
STEPS = (100, 1000)
KINDS = (1, 2, 3)


def random_controls(spec, seed):
    """Seeded in-box controls on the spec's grid."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, spec.u_max, size=(spec.grid.n_nodes, spec.channels))
    return ControlSignal(spec.grid, values)


def raised_message(fn, *args):
    with pytest.raises(IntegrationError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_forward_sweep_is_bit_identical(kind, steps):
    spec = default_spec(kind, steps=steps)
    signal = random_controls(spec, seed=100 * kind + steps)
    x0 = spec.x0.as_array()
    new = integrate_forward(dynamics_field(spec), x0, spec.grid, signal)
    old = ref.integrate_forward(ref.dynamics_field(spec), x0, spec.grid, signal)
    assert np.array_equal(new.values, old.values)


@pytest.mark.parametrize("steps", STEPS)
def test_uncontrolled_forward_sweep_is_bit_identical(steps):
    grid = TimeGrid(0.0, 100.0, steps)
    x0 = DEFAULT_X0.as_array()
    new = integrate_forward(uncontrolled_field(DEFAULT_PARAMS), x0, grid)
    old = ref.integrate_forward(ref.uncontrolled_field(DEFAULT_PARAMS), x0, grid)
    assert np.array_equal(new.values, old.values)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_backward_sweep_is_bit_identical(kind, steps):
    spec = default_spec(kind, steps=steps)
    signal = random_controls(spec, seed=100 * kind + steps + 1)
    states = ref.integrate_forward(
        ref.dynamics_field(spec), spec.x0.as_array(), spec.grid, signal
    )
    lam_end = np.zeros(3)
    new = integrate_backward(adjoint_field(spec), lam_end, spec.grid, states, signal)
    old = ref.integrate_backward(ref.adjoint_field(spec), lam_end, spec.grid, states, signal)
    assert np.array_equal(new.values, old.values)


@pytest.mark.parametrize("steps", STEPS)
def test_uncontrolled_backward_sweep_is_bit_identical(steps):
    """No control signal: the float loop passes 0.0, the reference None."""
    spec = default_spec(1, steps=steps)
    states = ref.integrate_forward(
        ref.uncontrolled_field(DEFAULT_PARAMS), DEFAULT_X0.as_array(), spec.grid
    )
    old_field = ref.adjoint_field(spec)
    lam_end = np.array([0.5, -0.25, 0.125])
    new = integrate_backward(adjoint_field(spec), lam_end, spec.grid, states)
    old = ref.integrate_backward(
        lambda t, lam, x, u: old_field(t, lam, x, np.zeros(1)), lam_end, spec.grid, states
    )
    assert np.array_equal(new.values, old.values)


# (steps, t_end): the default horizon, and short grids at the edges of the
# reverse scan (on 1 step it is empty and both nodes carry the end weight)
GRADIENT_GRIDS = [
    pytest.param(100, DEFAULT_T_END, id="100"),
    pytest.param(1000, DEFAULT_T_END, id="1000"),
    pytest.param(1, 1.0, id="1-step-1-day"),
    pytest.param(7, 10.0, id="7-steps-10-days"),
]


@pytest.mark.parametrize("steps, t_end", GRADIENT_GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_gradient_matches_the_stage_jacobian_reference(kind, steps, t_end):
    spec = StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, t_end, steps))
    u = random_controls(spec, seed=100 * kind + steps + 2).values
    j, grad = objective_gradient(spec, u)
    j_ref, grad_ref = ref.objective_gradient(spec, u)
    assert j == j_ref
    assert grad.shape == u.shape
    scale = np.max(np.abs(grad_ref))
    assert np.max(np.abs(grad - grad_ref)) <= GRADIENT_RTOL * scale


def test_forward_blowup_names_the_same_step():
    params = ModelParams(beta=1e8, mu=0.1)
    grid = TimeGrid(0.0, 100.0, 10)
    x0 = DEFAULT_X0.as_array()
    new = raised_message(integrate_forward, uncontrolled_field(params), x0, grid)
    old = raised_message(ref.integrate_forward, ref.uncontrolled_field(params), x0, grid)
    assert new == old
    assert "t=" in new


def test_backward_blowup_names_the_same_step():
    spec = StrategySpec(kind=Strategy.VACCINATION, params=ModelParams(beta=1e8, mu=0.1))
    signal = ControlSignal.zeros(spec.grid, 1)
    states = ref.integrate_forward(
        ref.dynamics_field(default_spec(1)), spec.x0.as_array(), spec.grid, signal
    )
    lam_end = np.zeros(3)
    new = raised_message(
        integrate_backward, adjoint_field(spec), lam_end, spec.grid, states, signal
    )
    old = raised_message(
        ref.integrate_backward, ref.adjoint_field(spec), lam_end, spec.grid, states, signal
    )
    assert new == old
    assert "t=" in new
