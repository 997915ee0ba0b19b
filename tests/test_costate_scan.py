"""The sweep's scanned costate against the float loop it stands in for.

``ocp._costate_scan`` computes the costate of ``integrate_backward`` as one
affine map per RK4 step.  It must equal its first coefficient build, kept in
``_reference_loops``, bit for bit, and peak no higher in memory; agree with
the float loop to roundoff, carry the loop's lam_R bit for bit and name the
same step when it blows up.  A sweep steered by it must take the same path
as one steered by the loop, and both must report the loop's costate of the
iterate they return.
"""

import tracemalloc

import numpy as np
import pytest

import _reference_loops as ref
from sircontrol import integrate, ocp
from sircontrol.integrate import IntegrationError, TimeGrid, integrate_forward
from sircontrol.model import ModelParams
from sircontrol.ocp import ControlSignal, Strategy, StrategySpec, adjoint_field, default_spec
from test_float_loops import GRADIENT_GRIDS, KINDS, random_controls

SCAN_RTOL = 1e-13

# the larger grids of the benchmark's sweep pool
POOL_GRIDS = [
    pytest.param(200, 100.0, id="200"),
    pytest.param(400, 100.0, id="400"),
]


def float_loop_costate(spec, traj, signal):
    return integrate.integrate_backward(adjoint_field(spec), spec.grid, traj, signal)


def raised_message(fn, *args):
    with pytest.raises(IntegrationError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("steps, t_end", GRADIENT_GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_scan_matches_the_float_loop(kind, steps, t_end):
    spec = StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, t_end, steps))
    signal = random_controls(spec, seed=100 * kind + steps + 3)
    traj = integrate_forward(ocp.dynamics_field(spec), spec.x0.as_array(), spec.grid, signal)
    scan = ocp._costate_scan(spec, traj, signal).values
    loop = float_loop_costate(spec, traj, signal).values
    assert scan.shape == loop.shape
    assert np.max(np.abs(scan - loop)) <= SCAN_RTOL * np.max(np.abs(loop))
    assert scan[:, 2].tobytes() == loop[:, 2].tobytes()


def scan_problem(kind, steps, t_end, controls="random"):
    """``(spec, traj, signal)``: a problem on the grid and its forward sweep under ``controls``."""
    spec = StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, t_end, steps))
    if controls == "zero":
        signal = ControlSignal.zeros(spec.grid, spec.channels)
    else:
        signal = random_controls(spec, seed=100 * kind + steps + 4)
    traj = integrate_forward(ocp.dynamics_field(spec), spec.x0.as_array(), spec.grid, signal)
    return spec, traj, signal


# random controls on every grid, and the zero control, which the sweep's
# first iteration scans
FULL_VJP_CASES = [
    *(pytest.param(*p.values, "random", id=p.id) for p in GRADIENT_GRIDS + POOL_GRIDS),
    *(pytest.param(*p.values, "zero", id=f"{p.id}-zero") for p in GRADIENT_GRIDS + POOL_GRIDS),
]


@pytest.mark.parametrize("steps, t_end, controls", FULL_VJP_CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_scan_equals_the_full_vjp_build_bit_for_bit(kind, steps, t_end, controls):
    """One f_x^T per stage sample gives the bits of one full vjp call per stage."""
    spec, traj, signal = scan_problem(kind, steps, t_end, controls)
    scan = ocp._costate_scan(spec, traj, signal).values
    assert scan.tobytes() == ref.costate_scan(spec, traj, signal).values.tobytes()


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_scan_peak_memory_is_no_higher_than_the_full_vjp_build(kind):
    """One 1000-step scan."""
    problem = scan_problem(kind, 1000, 100.0)
    for fn in (ocp._costate_scan, ref.costate_scan):  # warm both up
        fn(*problem)
    assert traced_peak(ocp._costate_scan, *problem) <= traced_peak(ref.costate_scan, *problem)


@pytest.mark.parametrize("kind", KINDS)
def test_vjp_state_rows_equal_the_written_out_rows_bit_for_bit(kind):
    """The reverse gradient's ``vjp`` keeps its first operation order through ``_state_jacobian``."""
    spec = default_spec(kind)
    field, _, vjp = ocp._fields(spec)
    s, i, a, v, ks, ki, kr = np.random.default_rng(40 + kind).uniform(-2.0, 2.0, (7, 500))
    rows = np.array(vjp(s, i, a, v, ks, ki, kr)[:2])
    expected = np.array(ref.state_vjp(field.beta, field.mu, s, i, a, v, ks, ki, kr))
    assert rows.tobytes() == expected.tobytes()


def test_scan_blowup_names_the_same_step():
    spec = StrategySpec(kind=Strategy.VACCINATION, params=ModelParams(beta=1e8, mu=0.1))
    signal = ControlSignal.zeros(spec.grid, 1)
    states = integrate_forward(
        ocp.dynamics_field(default_spec(1)), spec.x0.as_array(), spec.grid, signal
    )
    scanned = raised_message(ocp._costate_scan, spec, states, signal)
    assert scanned == raised_message(float_loop_costate, spec, states, signal)
    assert scanned.startswith("non-finite state after step at t=")


def solve_counting_float_loops(monkeypatch, spec, tol, steer_with_loop):
    """``solve_fbsm`` and the number of its own calls of ``integrate_backward``."""
    calls = []
    original = ocp.integrate_backward

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ocp, "integrate_backward", counting)
        if steer_with_loop:
            m.setattr(ocp, "_costate_scan", float_loop_costate)
        sol = ocp.solve_fbsm(spec, tol=tol)
    return sol, len(calls)


@pytest.mark.parametrize("tol", [1e-3, 1e-4])
@pytest.mark.parametrize("steps", [100, 1000])
@pytest.mark.parametrize("kind", KINDS)
def test_sweep_steered_by_the_scan_follows_the_float_loop(monkeypatch, kind, steps, tol):
    spec = default_spec(kind, steps=steps)
    scanned, scanned_calls = solve_counting_float_loops(monkeypatch, spec, tol, False)
    looped, looped_calls = solve_counting_float_loops(monkeypatch, spec, tol, True)
    assert scanned.converged and looped.converged
    assert scanned.iterations == looped.iterations
    assert scanned.objective == pytest.approx(looped.objective, rel=1e-12, abs=0.0)
    assert np.max(np.abs(scanned.control.values - looped.control.values)) <= 1e-10
    for sol, calls in ((scanned, scanned_calls), (looped, looped_calls)):
        assert calls == 1
        again = float_loop_costate(spec, sol.trajectory, sol.control)
        assert sol.adjoints.values.tobytes() == again.values.tobytes()
