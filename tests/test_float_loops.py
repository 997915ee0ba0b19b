"""The sweeps and reverse gradient against the numpy reference loops.

``_reference_loops`` holds the 3-vector numpy integrators and the 3x3
stage-Jacobian gradient that the package's loops replaced.  The float
forward sweep must reproduce every state node bit for bit.  The scanned
costate (``ocp._costate_scan``) evaluates each backward RK4 step as one
affine map, so its lam_S and lam_I must agree with the reference loop's to
``1e-13 * max|lam|``, its lam_R and lam(t_end) = 0 bit for bit, and a
blow-up must name the reference's step.  The gradient sums its
Jacobian-transpose products in a different order, so it must agree to
``1e-12 * max|g|``.  The loops take their inputs through memoryviews and
pack their outputs in one call: any control dtype, byte order, strides or
write flag must give the sweep of its float64 values, and the packing must
keep every bit.
"""

import numpy as np
import pytest

import _reference_loops as ref
from sircontrol import ocp
from sircontrol.integrate import (
    IntegrationError,
    TimeGrid,
    Trajectory,
    _float_array,
    integrate_forward,
)
from sircontrol.model import Drains, EpidemicState, ModelParams
from sircontrol.ocp import (
    DEFAULT_PARAMS,
    DEFAULT_T_END,
    DEFAULT_X0,
    Strategy,
    StrategySpec,
    default_spec,
    objective_gradient,
)

GRADIENT_RTOL = 1e-12
SCAN_RTOL = 1e-13
STEPS = (100, 1000)
KINDS = (1, 2, 3)


def forward_rates(spec):
    """The spec's rates and drain map, the first two arguments of ``integrate_forward``."""
    return spec.params, ocp._DRAINS[spec.kind]


def random_controls(spec, seed):
    """Seeded in-box controls on the spec's grid."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, spec.u_max, size=(spec.grid.n_nodes, spec.channels))
    return Trajectory(spec.grid, values)


def reference_costate(spec, traj, signal):
    """The reference loop's costate of ``traj`` under ``signal``, from lam(t_end) = 0."""
    return ref.integrate_backward(ref.adjoint_field(spec), np.zeros(3), spec.grid, traj, signal)


def assert_costate_matches_the_reference(lam, spec, traj, signal):
    """``lam`` is the reference costate to roundoff, with lam_R and lam(t_end) = 0 exact."""
    scan, loop = lam.values, reference_costate(spec, traj, signal).values
    assert scan.shape == loop.shape
    assert np.max(np.abs(scan - loop)) <= SCAN_RTOL * np.max(np.abs(loop))
    assert scan[:, 2].tobytes() == loop[:, 2].tobytes()
    assert scan[-1].tobytes() == np.zeros(3).tobytes()


def raised_message(fn, *args):
    with pytest.raises(IntegrationError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_forward_sweep_is_bit_identical(kind, steps):
    spec = default_spec(kind, steps=steps)
    signal = random_controls(spec, seed=100 * kind + steps)
    x0 = spec.x0
    new = integrate_forward(*forward_rates(spec), x0, spec.grid, signal)
    old = ref.integrate_forward(ref.dynamics_field(spec), x0, spec.grid, signal)
    assert np.array_equal(new.values, old.values)


SIGNED_ZERO_STARTS = [
    pytest.param((1.0, 0.0, 0.0), id="I0=0"),
    pytest.param((1.0, 0.0, -0.0), id="I0=0-R0=-0"),
    pytest.param((-0.0, 0.1, 0.9), id="S0=-0"),
]


@pytest.mark.parametrize("x0", SIGNED_ZERO_STARTS)
@pytest.mark.parametrize("kind", KINDS)
def test_forward_sweep_keeps_the_signs_of_zeros(kind, x0):
    """I = 0 or S = -0.0 makes the infection a zero at every stage; controls of -0.0 add more.

    The loop folds the signs of dS and dR into its updates; the nodes must
    still be the reference's bytes, signs of zeros included.
    """
    x0 = EpidemicState(*x0)
    spec = StrategySpec(kind=Strategy(kind), x0=x0, grid=TimeGrid(0.0, DEFAULT_T_END, 100))
    values = random_controls(spec, seed=10 * kind).values
    values[::2] = -0.0
    for u in (values, np.full_like(values, -0.0)):
        signal = Trajectory(spec.grid, u)
        new = integrate_forward(*forward_rates(spec), x0, spec.grid, signal)
        old = ref.integrate_forward(ref.dynamics_field(spec), x0, spec.grid, signal)
        assert new.values.tobytes() == old.values.tobytes()


@pytest.mark.parametrize("steps", STEPS)
def test_uncontrolled_forward_sweep_is_bit_identical(steps):
    grid = TimeGrid(0.0, 100.0, steps)
    x0 = DEFAULT_X0
    new = integrate_forward(DEFAULT_PARAMS, Drains(), x0, grid)
    old = ref.integrate_forward(ref.uncontrolled_field(DEFAULT_PARAMS), x0, grid)
    assert np.array_equal(new.values, old.values)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_backward_sweep_is_bit_identical(kind, steps):
    """The scanned costate of the reference's states: lam_R and lam(t_end) bit for bit."""
    spec = default_spec(kind, steps=steps)
    signal = random_controls(spec, seed=100 * kind + steps + 1)
    states = ref.integrate_forward(
        ref.dynamics_field(spec), spec.x0, spec.grid, signal
    )
    assert_costate_matches_the_reference(
        ocp._costate_scan(spec, states, signal), spec, states, signal
    )


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
    x0 = DEFAULT_X0
    new = raised_message(integrate_forward, params, Drains(), x0, grid)
    old = raised_message(ref.integrate_forward, ref.uncontrolled_field(params), x0, grid)
    assert new == old
    assert "t=" in new


def test_backward_blowup_names_the_same_step():
    """A costate at ``beta = 1e8`` on the default run's states overflows near t_end."""
    spec = StrategySpec(kind=Strategy.VACCINATION, params=ModelParams(beta=1e8, mu=0.1))
    signal = Trajectory(spec.grid, np.zeros((spec.grid.n_nodes, 1)))
    states = ref.integrate_forward(
        ref.dynamics_field(default_spec(1)), spec.x0, spec.grid, signal
    )
    new = raised_message(ocp._costate_scan, spec, states, signal)
    assert new == raised_message(reference_costate, spec, states, signal)
    assert new == "non-finite state after step at t=98.7"


@pytest.mark.parametrize("backward", [False, True])
def test_controlled_blowup_mid_grid_names_the_same_step(backward):
    """Strategy-3 rates of 50 and 25 on [20, 80], far past RK4's stability limit at dt = 1.

    The package's sweeps check finiteness once per sweep, after the loop;
    the reference raises at the step itself.
    """
    spec = default_spec(3, steps=100)
    t = spec.grid.times()
    u = np.where((t >= 20.0) & (t <= 80.0), 50.0, 0.0)
    signal = Trajectory(spec.grid, np.column_stack((u, 0.5 * u)))
    x0 = spec.x0
    if backward:
        zero = Trajectory(spec.grid, np.zeros((spec.grid.n_nodes, 2)))
        states = ref.integrate_forward(ref.dynamics_field(spec), x0, spec.grid, zero)
        new = raised_message(ocp._costate_scan, spec, states, signal)
        old = raised_message(reference_costate, spec, states, signal)
    else:
        new = raised_message(integrate_forward, *forward_rates(spec), x0, spec.grid, signal)
        old = raised_message(ref.integrate_forward, ref.dynamics_field(spec), x0, spec.grid, signal)
    assert new == old
    assert 20.0 < float(new.rpartition("t=")[2]) < 80.0


# -- the hand-off between numpy and the float loops ----------------------------


def sweep_bytes(spec, values):
    """The node bytes of the forward sweep of ``spec`` under the control ``values``."""
    signal = Trajectory(spec.grid, values)
    return integrate_forward(*forward_rates(spec), spec.x0, spec.grid, signal).values.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "int64", "bool", "object", ">f8"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_control_of_any_dtype_is_swept_and_differentiated_as_its_float_values(kind, dtype):
    """Samples are taken of the control's float64 values; bool and int64 controls are on/off.

    ``objective_gradient`` casts too: the reverse pass's scan takes native
    float64 rows only, and its node midpoints ``0.5 * (a + b)`` would be a
    logical or on bools.
    """
    spec = default_spec(kind, steps=100)
    u = random_controls(spec, seed=10 * kind + 5).values
    if np.dtype(dtype).kind in "bi":
        u = u > 0.5 * spec.u_max
    u = u.astype(dtype)
    assert sweep_bytes(spec, u) == sweep_bytes(spec, u.astype(float))
    (j, g), (j_float, g_float) = (objective_gradient(spec, x) for x in (u, u.astype(float)))
    assert j == j_float
    assert g.tobytes() == g_float.tobytes()


@pytest.mark.parametrize("layout", ["read-only", "strided"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_control_of_any_memory_layout_gives_the_same_nodes(kind, layout):
    """A read-only control, and the columns of a wider array (a stride of two floats)."""
    spec = default_spec(kind, steps=100)
    u = random_controls(spec, seed=10 * kind + 6).values
    if layout == "read-only":
        control = u.copy()
        control.flags.writeable = False
    else:
        wide = np.zeros((u.shape[0], 2 * u.shape[1]))
        wide[:, ::2] = u
        control = wide[:, ::2]
    assert sweep_bytes(spec, control) == sweep_bytes(spec, u)


def test_a_reversed_scan_input_gives_the_bits_of_a_contiguous_one():
    """The reverse gradient scans ``coef[:, :0:-1]``, a view with negative strides."""
    coef = np.random.default_rng(7).uniform(-0.5, 0.5, (6, 300))
    scans = [
        f(0.25, -0.75, c)
        for f in (ocp._affine_scan, ref.affine_scan)
        for c in (coef[:, ::-1], np.ascontiguousarray(coef[:, ::-1]))
    ]
    assert len({scan.tobytes() for scan in scans}) == 1


def test_both_loops_return_float64_c_contiguous_writable_arrays():
    spec = default_spec(3, steps=50)
    traj = integrate_forward(*forward_rates(spec), spec.x0, spec.grid, random_controls(spec, 8))
    scan = ocp._affine_scan(0.0, 0.0, np.full((6, 50), 0.5))
    for out in (traj.values, scan):
        assert out.dtype == np.float64
        assert out.flags.c_contiguous and out.flags.writeable


def test_float_array_keeps_every_bit_of_nan_signed_zero_and_inf():
    """NaNs with payloads and either sign, +-0.0 and +-inf survive the packing bit for bit."""
    bits = np.array(
        [0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000001, 0x8000000000000000,
         0x0000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x3FF0000000000000],
        dtype=np.uint64,
    )
    out = _float_array(bits.view(np.float64).tolist())
    assert out.dtype == np.float64
    assert out.view(np.uint64).tolist() == bits.tolist()
