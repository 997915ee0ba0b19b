"""The sweep's scanned costate against the backward RK4 loop it stands for.

``ocp._costate_scan`` computes the costate of one backward RK4 sweep from
lam(t_end) = 0 as one affine map per step.  It must equal its first
coefficient build, kept in ``_reference_loops``, bit for bit, and peak no
higher in memory.  Against the step-by-step numpy loop of
``_reference_loops.integrate_backward`` (the float loop of the test names)
it must agree to roundoff, carry lam_R bit for bit, and report its
blow-ups: the same ones, at the same step or a later one in sweep order.  A
sweep steered by the scan must take the same path as one steered by that
loop, and report the scan of the iterate it returns.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import _reference_loops as ref
from sircontrol import ocp
from sircontrol.integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from sircontrol.model import ModelParams
from sircontrol.ocp import Strategy, StrategySpec, default_spec
from test_float_loops import (
    GRADIENT_GRIDS,
    KINDS,
    assert_costate_matches_the_reference,
    forward_rates,
    random_controls,
    raised_message,
    reference_costate,
)

# the larger grids of the benchmark's sweep pool
POOL_GRIDS = [
    pytest.param(200, 100.0, id="200"),
    pytest.param(400, 100.0, id="400"),
]


@pytest.mark.parametrize("steps, t_end", GRADIENT_GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_scan_matches_the_float_loop(kind, steps, t_end):
    spec = StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, t_end, steps))
    signal = random_controls(spec, seed=100 * kind + steps + 3)
    traj = integrate_forward(*forward_rates(spec), spec.x0, spec.grid, signal)
    lam = ocp._costate_scan(spec, traj, signal)
    assert_costate_matches_the_reference(lam, spec, traj, signal)


def scan_problem(kind, steps, t_end, controls="random"):
    """``(spec, traj, signal)``: a problem on the grid and its forward sweep under ``controls``."""
    spec = StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, t_end, steps))
    if controls == "zero":
        signal = Trajectory(spec.grid, np.zeros((spec.grid.n_nodes, spec.channels)))
    else:
        signal = random_controls(spec, seed=100 * kind + steps + 4)
    traj = integrate_forward(*forward_rates(spec), spec.x0, spec.grid, signal)
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


def work_arrays(work):
    """Every array a work area holds, views in its tuples and lists included."""
    values = [getattr(work, name) for name in ocp._CostateWork.__slots__]
    while values:
        value = values.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            values.extend(value)


@pytest.mark.parametrize("steps", [100, 200, 400, 1000])
@pytest.mark.parametrize("kind", KINDS)
def test_a_reused_work_area_gives_the_bits_of_a_fresh_one(kind, steps):
    """Consecutive scans in one work area, on different iterates, leak nothing between calls.

    The zero control, then seeded in-box controls, then the zero control
    again; the seeded problem's spec is an equal object, not the work
    area's own.  The spec's constants in the work area are read-only and
    keep their bits.
    """
    zero, seeded = (scan_problem(kind, steps, 100.0, c) for c in ("zero", "random"))
    assert seeded[0] == zero[0] and seeded[0] is not zero[0]
    work = ocp._CostateWork(zero[0])
    constants = {name: getattr(work, name).tobytes() for name in ("lam_r", "y_r")}
    for problem in (zero, seeded, zero):
        lam = ocp._costate_scan(*problem, work).values
        assert lam.tobytes() == ocp._costate_scan(*problem).values.tobytes()
        for array in work_arrays(work):
            assert not np.shares_memory(lam, array)
    for name, bits in constants.items():
        assert not getattr(work, name).flags.writeable, name
        assert getattr(work, name).tobytes() == bits, name


@pytest.mark.parametrize(
    "other",
    [
        pytest.param(StrategySpec(kind=Strategy(1), grid=TimeGrid(0.0, 100.0, 100)), id="strategy-1"),
        pytest.param(StrategySpec(kind=Strategy(2), grid=TimeGrid(0.0, 100.0, 200)), id="200-steps"),
    ],
)
def test_a_work_area_built_for_another_problem_is_refused(other):
    """A strategy-1 work area would give a strategy-2 scan on its grid a wrong costate."""
    spec, traj, signal = scan_problem(2, 100, 100.0)
    with pytest.raises(ValueError, match="another problem"):
        ocp._costate_scan(spec, traj, signal, ocp._CostateWork(other))


def test_a_sweep_hands_one_work_area_to_every_scan(monkeypatch):
    scan, works = ocp._costate_scan, []

    def recording(spec, traj, signal, work):
        works.append(work)
        return scan(spec, traj, signal, work)

    monkeypatch.setattr(ocp, "_costate_scan", recording)
    sol = ocp.solve_fbsm(default_spec(3, steps=100))
    assert len(works) == sol.iterations + 1
    assert isinstance(works[0], ocp._CostateWork)
    assert all(work is works[0] for work in works)


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
    """The reverse gradient's ``_vjp`` keeps its first operation order via ``_state_jacobian``."""
    spec = default_spec(kind)
    beta, mu = spec.params.beta, spec.params.mu
    s, i, a, v, ks, ki = np.random.default_rng(40 + kind).uniform(-2.0, 2.0, (6, 500))
    rows = np.array(ocp._vjp(beta, mu, s, i, a, v, ks, ki)[:2])
    expected = np.array(ref.state_vjp(beta, mu, s, i, a, v, ks, ki, 0.0))
    assert rows.tobytes() == expected.tobytes()


def test_scan_blowup_names_the_same_step():
    """A sweep whose costate overflows at its first step raises the reference loop's error.

    At ``kappa = 5e307`` the RK4 sum ``k1 + 2 k2 + ...`` of lam_I overflows,
    while the objective, on a 10-day horizon, stays finite.
    """
    grid = TimeGrid(0.0, 10.0, 10)
    spec = StrategySpec(kind=Strategy.TREATMENT_EDUCATION, grid=grid, kappa=5e307)
    with pytest.raises(IntegrationError) as info:
        ocp.solve_fbsm(spec)
    signal = Trajectory(spec.grid, np.zeros((spec.grid.n_nodes, 2)))
    states = integrate_forward(*forward_rates(spec), spec.x0, spec.grid, signal)
    assert str(info.value) == raised_message(reference_costate, spec, states, signal)
    assert str(info.value) == "non-finite state after step at t=10.0"


def blowup_step(fn, spec, *args):
    """The sweep-order index of the step ``fn``'s IntegrationError names; ``steps`` if none."""
    try:
        fn(spec, *args)
    except IntegrationError as e:
        t = float(str(e).rpartition("t=")[2])
        return spec.grid.steps - int(np.flatnonzero(spec.grid.times() == t)[0])
    return spec.grid.steps


def blowup_problem(rng):
    """A small problem whose costate may blow up, or None if its states do first.

    The states are an admissible forward sweep of the default rates under
    random in-box controls; the costate reads them at a rate ``beta`` drawn
    log-uniformly from 1 to 1e40, mostly far past RK4's stability limit.
    From ``beta * dt`` of about 1e77 on, one step's RK4 polynomial overflows
    by itself, and the scan can name an earlier step than the loop or a
    blow-up the loop does not have (docs/costate_derivation.md); the draws
    stay below that.
    """
    spec = StrategySpec(
        kind=Strategy(int(rng.integers(1, 4))),
        grid=TimeGrid(0.0, rng.uniform(1.0, 30.0), int(rng.integers(1, 31))),
    )
    values = rng.uniform(0.0, spec.u_max, (spec.grid.n_nodes, spec.channels))
    signal = Trajectory(spec.grid, values)
    try:
        traj = integrate_forward(*forward_rates(spec), spec.x0, spec.grid, signal)
    except IntegrationError:
        return None
    beta = 10.0 ** rng.uniform(0.0, 40.0)
    return replace(spec, params=ModelParams(beta=beta, mu=0.1)), traj, signal


def test_scan_reports_the_blowups_of_the_reference_loop():
    """The scan names the reference loop's step or the next one, never an earlier one.

    The loop's stages can overflow while the step's result, which the scan
    forms as one affine map, is still finite; the scan then overflows one
    step later.  At the last step there is no later one, so a finite scan
    there is the one blow-up it misses.  A blow-up the loop does not
    report, the scan never reports.
    """
    rng = np.random.default_rng(14)
    lags = Counter()
    for _ in range(600):
        problem = blowup_problem(rng)
        if problem is None:
            continue
        looped = blowup_step(reference_costate, *problem)
        lag = blowup_step(ocp._costate_scan, *problem) - looped
        assert 0 <= lag <= 1, problem[0]
        if looped < problem[0].grid.steps:
            lags[lag] += 1
    assert lags[0] >= 300


def solve_counting_costates(monkeypatch, spec, tol, steer_with_reference):
    """``solve_fbsm`` steered by the scan or by the reference loop, and its costate count."""
    scan = ocp._costate_scan
    calls = []

    def counting(*args):  # the scan's arguments and the solve's work area
        calls.append(args)
        return reference_costate(*args[:3]) if steer_with_reference else scan(*args)

    with monkeypatch.context() as m:
        m.setattr(ocp, "_costate_scan", counting)
        sol = ocp.solve_fbsm(spec, tol=tol)
    return sol, len(calls)


@pytest.mark.parametrize("tol", [1e-3, 1e-4])
@pytest.mark.parametrize("steps", [100, 1000])
@pytest.mark.parametrize("kind", KINDS)
def test_sweep_steered_by_the_scan_follows_the_float_loop(monkeypatch, kind, steps, tol):
    """The reference loop steers a sweep on 100 steps only: a 1000-step call takes ~50 ms."""
    spec = default_spec(kind, steps=steps)
    scanned, calls = solve_counting_costates(monkeypatch, spec, tol, False)
    assert scanned.converged
    assert calls == scanned.iterations + 1  # one per iteration, one for the returned iterate
    again = ocp._costate_scan(spec, scanned.trajectory, scanned.control)
    assert scanned.adjoints.values.tobytes() == again.values.tobytes()
    assert_costate_matches_the_reference(
        scanned.adjoints, spec, scanned.trajectory, scanned.control
    )
    if steps == 100:
        looped, _ = solve_counting_costates(monkeypatch, spec, tol, True)
        assert looped.converged
        assert scanned.iterations == looped.iterations
        assert scanned.objective == pytest.approx(looped.objective, rel=1e-12, abs=0.0)
        assert np.max(np.abs(scanned.control.values - looped.control.values)) <= 1e-10
