"""Optimal-control tests: functionals, costates, control laws, both solvers."""

import dataclasses
import json
import logging
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from sircontrol import ocp
from sircontrol.integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from sircontrol.metrics import peak_infected
from sircontrol.model import EpidemicState, ModelParams, treatment_education_rates
from sircontrol.ocp import (
    Strategy,
    StrategySpec,
    adjoint_field,
    control_law,
    default_spec,
    objective,
    objective_gradient,
    running_cost,
    solve_direct,
    solve_fbsm,
)

X0 = EpidemicState(0.95, 0.05, 0.0)


def random_point(rng, channels):
    """A random valid (state, costate, control) point as float 3-, 3- and 2-tuples.

    Channels the strategy lacks are 0.0, as the integrators pass them.
    """
    x = tuple(rng.dirichlet(np.ones(3)).tolist())
    lam = tuple(rng.normal(0.0, 2.0, size=3).tolist())
    u = tuple(rng.uniform(0.0, 0.9, size=channels).tolist()) + (0.0,) * (2 - channels)
    return x, lam, u


def drain_rates(spec, u):
    """``(a, v)``: the S and I drain rates of a channel-ordered control point under the spec."""
    return tuple(0.0 if c is None else u[c] for c in ocp._DRAINS[spec.kind])


def rates(spec, x, u):
    """``(dS, dI, dR)`` at state ``x`` and channel-ordered control ``u``."""
    a, v = drain_rates(spec, u)
    return treatment_education_rates(x[0], x[1], spec.params.beta, spec.params.mu, v, a)


def zero_control(grid, channels=1):
    return Trajectory(grid, np.zeros((grid.n_nodes, channels)))


# -- problem definition -----------------------------------------------------------


def test_default_spec_pins_reference_values():
    spec = default_spec(1)
    assert (spec.params.beta, spec.params.mu) == (0.2, 0.1)
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
        StrategySpec(kind=Strategy.VACCINATION, x0=EpidemicState(0.0, 0.0, 0.0))


def test_a_spec_accepts_every_state_of_a_large_population():
    """The population is x0's sum, so rounding in the compartments cannot reject a state.

    Against a separate population n and an absolute 1e-9 tolerance, 65 of these
    1000 states failed, for example with a sum of 495939652.00484896.
    """
    rng = random.Random(1)
    grid = TimeGrid(0.0, 100.0, 10)
    for _ in range(1000):
        n, f = rng.uniform(1e6, 1e9), rng.uniform(0.5, 0.99)
        x0 = EpidemicState(n * f, n * (1.0 - f), 0.0)
        StrategySpec(kind=Strategy.VACCINATION, x0=x0, grid=grid)


@pytest.mark.parametrize("x0", [(-1e-10, 0.0, 0.0), (1e308, 1e308, 0.0)])
def test_a_spec_rejects_a_state_that_is_no_population(x0):
    with pytest.raises(ValueError, match="not a finite positive population"):
        StrategySpec(kind=Strategy.VACCINATION, x0=EpidemicState(*x0))


@pytest.mark.parametrize("kind, name, value", [(1, "nu", 5e-324), (3, "b1", 1e-310)])
def test_spec_rejects_a_weight_whose_reciprocal_overflows(kind, name, value):
    with pytest.raises(ValueError, match=f"{name} .* reciprocal overflows"):
        StrategySpec(kind=Strategy(kind), **{name: value})


@pytest.mark.parametrize("kind, name, value", [(1, "nu", 5e307), (2, "a1", 1.7e308)])
def test_spec_rejects_a_weight_whose_product_with_the_step_overflows(kind, name, value):
    """On 20 steps of 5 days; the cost and its gradient weigh every node by dt."""
    grid = TimeGrid(0.0, 100.0, 20)
    with pytest.raises(ValueError, match=f"{name} is too large: its product with the step"):
        StrategySpec(kind=Strategy(kind), grid=grid, **{name: value})
    StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, 100.0, 1000), **{name: value})


def test_strategy_channel_counts():
    assert default_spec(Strategy.VACCINATION).channels == 1
    assert default_spec(Strategy.VACCINATION_WEIGHTED).channels == 1
    assert default_spec(Strategy.TREATMENT_EDUCATION).channels == 2


def test_control_signal_validation():
    """A control is a Trajectory: its rows are checked when it is made, its channels where used."""
    spec = default_spec(3, steps=100)
    drains, x0, grid = ocp._DRAINS[spec.kind], spec.x0, spec.grid
    with pytest.raises(ValueError, match="does not match"):
        Trajectory(grid, np.zeros((100, 2)))
    three = Trajectory(grid, np.full((101, 3), 0.5))
    traj = integrate_forward(spec.params, drains, x0, grid)
    for use in (
        lambda: integrate_forward(spec.params, drains, x0, grid, three),
        lambda: objective(spec, traj, three),
        lambda: solve_direct(spec, start=three),
    ):
        with pytest.raises(ValueError, match="expects 2 control channel"):
            use()


# -- running cost and objective ---------------------------------------------------


def test_running_cost_examples():
    x = (X0.s, X0.i, X0.r)
    assert running_cost(default_spec(1), *x, 0.0, 0.0) == pytest.approx(0.05)
    assert running_cost(default_spec(2), *x, 0.0, 0.0) == pytest.approx(0.12)
    assert running_cost(default_spec(3), *x, 0.9, 0.9) == pytest.approx(0.1472)


def test_objective_is_exact_on_constant_integrand():
    spec = default_spec(1)
    values = np.tile([0.7, 0.2, 0.1], (spec.grid.n_nodes, 1))
    traj = Trajectory(spec.grid, values)
    u = zero_control(spec.grid)
    assert objective(spec, traj, u) == pytest.approx(100.0 * 0.2, rel=1e-13)


def test_objective_rejects_a_trajectory_on_another_grid(uncontrolled_traj):
    spec = default_spec(1, steps=100)
    with pytest.raises(ValueError, match="trajectory is not on the problem grid"):
        objective(spec, uncontrolled_traj, zero_control(spec.grid))


def test_objective_of_uncontrolled_run_is_infected_burden(uncontrolled_traj):
    spec = default_spec(1)
    u = zero_control(spec.grid)
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
    trap = objective(spec, uncontrolled_traj, zero_control(spec.grid))
    assert trap == pytest.approx(simpson, rel=1e-4)


def test_objective_of_a_cost_that_is_not_representable_is_inf():
    """Each node's cost overflows to +inf, so the trapezoid sum is inf - inf: it scores +inf."""
    spec = StrategySpec(kind=Strategy(2), a1=1.7e308, a2=1.7e308)
    traj = Trajectory(spec.grid, np.tile([0.6, 0.6, 0.0], (spec.grid.n_nodes, 1)))
    assert objective(spec, traj, zero_control(spec.grid)) == math.inf


def test_sweep_raises_when_the_cost_of_every_iterate_overflows():
    """On a horizon of 2e-308 days no control moves S, and a1 S sums past the float limit."""
    spec = StrategySpec(kind=Strategy(2), a1=1e307, grid=TimeGrid(0.0, 2e-308, 20))
    with pytest.raises(IntegrationError, match="cost of every iterate overflows"):
        solve_fbsm(spec)


def test_objective_rejects_grid_mismatch(uncontrolled_traj):
    spec = default_spec(1)
    other = zero_control(TimeGrid(0.0, 100.0, 500))
    with pytest.raises(ValueError, match="grid"):
        objective(spec, uncontrolled_traj, other)


# -- costate system and control law ---------------------------------------------


def test_adjoint_rhs_with_zero_costates_is_cost_gradient():
    x = (X0.s, X0.i)
    # (a, v): u1 = 0.3 drains S in strategies 1-2; in strategy 3 u1 = 0.3 drains I, u2 = 0.1 S
    assert adjoint_field(default_spec(1))(0, 0, 0, *x, 0.3, 0.0) == (0.0, -1.0, 0.0)
    assert adjoint_field(default_spec(2))(0, 0, 0, *x, 0.3, 0.0) == (-0.1, -0.5, 0.002)
    assert adjoint_field(default_spec(3))(0, 0, 0, *x, 0.1, 0.3) == (0.0, -1.0, 0.0)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_adjoint_rhs_matches_hamiltonian_gradient(kind):
    """Central differences of H = L + lam . f in (S, I, R) reproduce the costate field."""
    spec = default_spec(kind)
    costate = adjoint_field(spec)
    rng = np.random.default_rng(100 + kind)
    h = 1e-6
    for _ in range(5):
        x, lam, u = random_point(rng, spec.channels)

        def h_of(y):
            return running_cost(spec, *y, *u) + float(np.dot(lam, rates(spec, y, u)))

        d = costate(*lam, x[0], x[1], *drain_rates(spec, u))
        for j in range(3):
            xp, xm = list(x), list(x)
            xp[j] += h
            xm[j] -= h
            dh = (h_of(xp) - h_of(xm)) / (2.0 * h)
            assert d[j] == pytest.approx(-dh, abs=1e-6)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_costate_field_is_minus_cost_gradient_minus_vjp(kind):
    """The costate field and ``_vjp`` are written out separately; they agree."""
    spec = default_spec(kind)
    (cs, ci, cr), _ = ocp._weights(spec)
    costate = adjoint_field(spec)
    beta, mu = spec.params.beta, spec.params.mu
    rng = np.random.default_rng(200 + kind)
    for _ in range(20):
        x, lam, u = random_point(rng, spec.channels)
        a, v = drain_rates(spec, u)
        # the columns of f_x sum to zero, so f_x^T lam is f_x^T (lam - lam_R (1, 1, 1))
        ls, li, lr = lam
        fx_s, fx_i, _, _ = ocp._vjp(beta, mu, x[0], x[1], a, v, ls - lr, li - lr)
        expected = (-(cs + fx_s), -(ci + fx_i), -cr)  # R does not enter f
        assert costate(*lam, x[0], x[1], a, v) == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_tables_reproduce_the_derivation():
    """The costate equations and control laws of docs/costate_derivation.md, typed out.

    The fields and the sweep's law evaluate them in the same operation order,
    so they agree bit for bit.
    """
    rng = np.random.default_rng(29)
    for kind in (1, 2, 3):
        spec = default_spec(kind)
        beta, mu, u_max = spec.params.beta, spec.params.mu, spec.u_max
        for _ in range(20):
            (S, I, R), (lS, lI, lR), (u1, u2) = random_point(rng, spec.channels)
            a, v = (u2, u1) if kind == 3 else (u1, 0.0)  # the S and I drain rates
            if kind == 1:
                lam_dot = (
                    (lS - lI) * beta * I + (lS - lR) * u1,
                    -1.0 + (lS - lI) * beta * S + (lI - lR) * mu,
                    0.0,
                )
                law = [(lS - lR) * S / spec.nu]
            elif kind == 2:
                lam_dot = (
                    -spec.a1 + (lS - lI) * beta * I + (lS - lR) * u1,
                    -spec.a2 + (lS - lI) * beta * S + (lI - lR) * mu,
                    spec.a3,
                )
                law = [(lS - lR) * S / spec.tau]
            else:
                lam_dot = (
                    (lS - lI) * beta * I + (lS - lR) * u2,
                    -spec.kappa + (lS - lI) * beta * S + (lI - lR) * (mu + u1),
                    0.0,
                )
                law = [(lI - lR) * I / spec.b1, (lS - lR) * S / spec.b2]
            assert adjoint_field(spec)(lS, lI, lR, S, I, a, v) == lam_dot
            expected = [min(max(v, 0.0), u_max) for v in law]
            assert control_law(spec, S, I, lS, lI, lR)[0].tolist() == expected


def test_characterization_zero_switch_gives_zero_control():
    lam = (0.4, -1.0, 0.4)  # lam_S == lam_R
    for kind in (1, 2):
        assert control_law(default_spec(kind), X0.s, X0.i, *lam)[0, 0] == 0.0


def test_characterization_clamps_to_bound():
    # (lam_S - lam_R) * S / tau = 5 with S = 0.95 -> clamp at u_max
    lam = (5.0 / 0.95, 0.0, 0.0)
    assert control_law(default_spec(2), X0.s, X0.i, *lam)[0, 0] == 0.9


def test_characterization_interior_is_stationary():
    """Unclamped control zeroes dH/du to machine precision."""
    rng = np.random.default_rng(23)
    for kind in (1, 2, 3):
        spec = default_spec(kind)
        for _ in range(20):
            x, lam, _ = random_point(rng, spec.channels)
            u = control_law(spec, x[0], x[1], *lam)[0].tolist() + [0.0] * (2 - spec.channels)

            def h_of(v):
                return running_cost(spec, *x, *v) + float(np.dot(lam, rates(spec, x, v)))

            h = 1e-5
            for ch in range(spec.channels):
                if not 1e-6 < u[ch] < spec.u_max - 1e-6:
                    continue  # clamped: stationarity does not apply
                up, um = list(u), list(u)
                up[ch] += h
                um[ch] -= h
                dh = (h_of(up) - h_of(um)) / (2.0 * h)
                assert abs(dh) <= 1e-9


# -- sweep solver ---------------------------------------------------------------------


SWEEP_POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)["sweep_pool"]


@pytest.mark.parametrize(
    "problem, expected",
    [
        pytest.param(p, j, id=f"{k}-s{p['kind']}-{p['steps']}-{p['tol']:g}")
        for k, (p, j) in enumerate(zip(SWEEP_POOL["problems"], SWEEP_POOL["objective"]))
    ],
)
def test_the_benchmark_sweep_pool_converges_to_its_reference_objectives(problem, expected):
    """The ``scenario_sweep`` gate: each pool problem within 1e-9 relative of its objective."""
    spec = StrategySpec(
        kind=Strategy(problem["kind"]),
        params=ModelParams(problem["beta"], problem["mu"]),
        x0=EpidemicState(1.0 - problem["i0"], problem["i0"], 0.0),
        grid=TimeGrid(0.0, 100.0, problem["steps"]),
        u_max=problem["u_max"],
        **{name: problem[name] for name in ocp._WEIGHT_FIELDS},
    )
    sol = solve_fbsm(spec, tol=problem["tol"])
    assert sol.converged
    assert abs(sol.objective - expected) <= 1e-9 * max(abs(expected), 1e-12)


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


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_direct_returns_its_last_accepted_evaluation(kind, direct_solutions):
    """No continuous costate, and the objective of the certified control, bit for bit."""
    sol = direct_solutions[kind]
    assert sol.adjoints is None
    assert sol.objective == sol.objective_history[-1]
    assert sol.objective == objective(default_spec(kind), sol.trajectory, sol.control)


@pytest.fixture(scope="module")
def warm_direct_solutions(fbsm_solutions):
    """Direct solutions started from the converged sweeps, as ``--cross-check`` runs them."""
    return {k: solve_direct(default_spec(k), start=fbsm_solutions[k].control) for k in (1, 2, 3)}


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_direct_from_the_sweep_reaches_the_cold_optimum_sooner(
    kind, warm_direct_solutions, direct_solutions
):
    warm, cold = warm_direct_solutions[kind], direct_solutions[kind]
    assert warm.converged
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.iterations < cold.iterations


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_direct_from_a_bad_sweep_still_reaches_the_cold_optimum(kind, direct_solutions):
    """A start far from the optimum does not move the point the stop test certifies."""
    spec = default_spec(kind)
    cold = direct_solutions[kind].objective
    bad = solve_fbsm(spec, max_iterations=2)
    assert not bad.converged
    assert abs(bad.objective - cold) / cold > 0.1
    warm = solve_direct(spec, start=bad.control)
    assert warm.converged
    assert warm.objective == pytest.approx(cold, rel=1e-9)


def test_direct_start_must_match_the_problem():
    spec = default_spec(3, steps=100)
    grid = spec.grid
    one_nan = np.full((grid.n_nodes, 2), 0.1)
    one_nan[7, 1] = np.nan
    for start, match in (
        (zero_control(TimeGrid(0.0, 100.0, 50), 2), "grid"),
        (zero_control(TimeGrid(0.0, 50.0, 100), 2), "grid"),
        (zero_control(grid), "channel"),
        (Trajectory(grid, one_nan), "non-finite"),
        (Trajectory(grid, np.full((grid.n_nodes, 2), np.inf)), "non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            solve_direct(spec, start=start)


def test_direct_start_is_projected_onto_the_box():
    spec = default_spec(1, steps=100)
    values = np.where(np.arange(spec.grid.n_nodes) % 2 == 0, -1.0, 5.0)[:, None]
    sol = solve_direct(spec, start=Trajectory(spec.grid, values), max_iterations=1)
    j_projected, _ = objective_gradient(spec, np.clip(values, 0.0, spec.u_max))
    assert sol.objective_history[0] == j_projected
    assert 0.0 <= sol.control.values.min() <= sol.control.values.max() <= spec.u_max
    assert values.min() == -1.0 and values.max() == 5.0  # the start is not modified


def record_evaluations(monkeypatch):
    """Record the controls of every trial (``ocp._trial_objective``) and every reverse pass."""
    trials, gradients = [], []
    trial, gradient = ocp._trial_objective, ocp._reverse_gradient

    def trying(spec, signal):
        trials.append(signal.values.copy())
        return trial(spec, signal)

    def differentiating(spec, u_values, traj):
        gradients.append(u_values.copy())
        return gradient(spec, u_values, traj)

    monkeypatch.setattr(ocp, "_trial_objective", trying)
    monkeypatch.setattr(ocp, "_reverse_gradient", differentiating)
    return trials, gradients


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_direct_unit_step_is_the_discrete_control_law(kind, monkeypatch):
    """Steps are measured in the control-cost metric ``w_node * w_c``.

    From the zero control the first trial is the discrete control law
    ``clip(-g0 / (w_node * w_c), 0, u_max)``, not ``clip(-g0, 0, u_max)``.
    """
    spec = default_spec(kind)
    zero = np.zeros((spec.grid.n_nodes, spec.channels))
    _, g0 = objective_gradient(spec, zero)
    w_node = np.full(spec.grid.n_nodes, spec.grid.dt)
    w_node[[0, -1]] = 0.5 * spec.grid.dt
    w = {1: [spec.nu], 2: [spec.tau], 3: [spec.b1, spec.b2]}[kind]
    law = np.clip(-g0 / (w_node[:, None] * np.array(w)), 0.0, spec.u_max)

    trials, gradients = record_evaluations(monkeypatch)
    solve_direct(spec, max_iterations=1)
    assert gradients and trials
    assert np.array_equal(gradients[0], zero)
    np.testing.assert_allclose(trials[0], law, rtol=1e-12, atol=0.0)


def test_direct_converges_fast_on_disparate_control_weights():
    """Channel weights 500x apart: a short descent that stops near the optimum."""
    spec = dataclasses.replace(default_spec(3), b2=4e-4)
    sol = solve_direct(spec)
    assert sol.converged
    assert sol.iterations <= 40
    tight = solve_direct(spec, gtol=1e-10, max_iterations=3000)
    assert tight.converged
    assert abs(sol.objective - tight.objective) / tight.objective <= 1e-8


def test_direct_from_the_sweep_takes_few_gradients(monkeypatch, fbsm_solutions, direct_solutions):
    _, calls = record_evaluations(monkeypatch)
    for kind in (1, 2, 3):
        warm = solve_direct(default_spec(kind), start=fbsm_solutions[kind].control)
        cold = direct_solutions[kind].objective
        assert warm.converged
        assert abs(warm.objective - cold) / cold <= 2e-11
    assert len(calls) <= 25


def assert_same_solve(got, expected):
    """Objective, history, iterations, control and trajectory agree bit for bit."""
    assert got.iterations == expected.iterations
    for attribute in (
        lambda sol: np.array([sol.objective, *sol.objective_history]),
        lambda sol: sol.control.values,
        lambda sol: sol.trajectory.values,
    ):
        assert attribute(got).tobytes() == attribute(expected).tobytes()


def test_direct_from_a_solution_is_the_solve_from_its_control(fbsm_solutions):
    for kind in (1, 2, 3):
        sol = fbsm_solutions[kind]
        assert sol.spec == default_spec(kind)
        from_solution = solve_direct(sol.spec, start=sol)
        assert from_solution.spec is sol.spec
        assert_same_solve(from_solution, solve_direct(sol.spec, start=sol.control))


@pytest.mark.parametrize("kind, steps", [(1, 20), (2, 200), (3, 200)])
def test_direct_from_a_solution_integrates_each_trial_once(monkeypatch, kind, steps):
    """One forward sweep per trial, none at the start or the end; a reverse pass
    at the start and at each accepted trial only (on 20 steps most trials blow up).
    """
    spec = default_spec(kind, steps)
    sol = solve_fbsm(spec)
    forwards = fail_calls(monkeypatch, "integrate_forward", lambda n: False)  # counts only
    trials, gradients = record_evaluations(monkeypatch)
    direct = solve_direct(spec, start=sol)
    assert len(forwards) == len(trials) >= direct.iterations > 0
    assert len(gradients) == len(direct.objective_history)
    if steps == 20:
        assert len(trials) > 10 * len(gradients)


def test_direct_integrates_a_start_it_cannot_vouch_for(monkeypatch, fbsm_solutions):
    """A solution of another problem, or one whose control the projection moves, is no
    trajectory of the start: the solve integrates it, as from a bare control.
    """
    sol = fbsm_solutions[1]
    other = dataclasses.replace(sol.spec, params=ModelParams(beta=0.25, mu=0.1))
    values = sol.control.values.copy()
    values[::7] = -0.25
    moved = dataclasses.replace(sol, control=Trajectory(sol.spec.grid, values))
    cases = [(other, sol), (sol.spec, moved)]
    expected = [solve_direct(spec, start=start.control) for spec, start in cases]
    forwards = fail_calls(monkeypatch, "integrate_forward", lambda n: False)  # counts only
    trials, _ = record_evaluations(monkeypatch)
    for (spec, start), reference in zip(cases, expected):
        forwards.clear()
        trials.clear()
        assert_same_solve(solve_direct(spec, start=start), reference)
        assert len(forwards) == len(trials) + 1


def test_a_stalled_direct_solve_counts_the_trials_that_blew_up(monkeypatch, caplog):
    """On 20 steps most trials from the sweep's control blow up: the grid is too coarse."""
    spec = default_spec(1, 20)
    sol = solve_fbsm(spec)
    trials, _ = record_evaluations(monkeypatch)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        direct = solve_direct(spec, start=sol)
    assert not direct.converged
    (message,) = [r.getMessage() for r in caplog.records]
    found = re.fullmatch(
        r"VACCINATION direct solve: line search stalled at residual \S+; (\d+) of (\d+) trials"
        r" blew up: the grid may be too coarse for RK4 at these rates",
        message,
    )
    assert found
    blown, total = map(int, found.groups())
    assert 0 < blown < total == len(trials)


def test_a_direct_solve_that_runs_out_of_iterations_says_so(caplog):
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        direct = solve_direct(default_spec(1, steps=100), max_iterations=2)
    assert not direct.converged
    assert direct.iterations == 2
    assert [r.getMessage() for r in caplog.records] == [
        "VACCINATION direct solve did not converge in 2 iterations"
    ]


def test_a_stall_at_the_numerical_floor_is_accepted_without_a_warning(monkeypatch, caplog):
    """From a converged point every trial blows up: the search stalls at a residual below
    the floor ``max(1e3 * gtol, 1e-6)``, so the solve is converged after one iteration.
    """
    spec = default_spec(1, steps=100)
    start = solve_direct(spec)
    assert start.converged
    calls = fail_calls(monkeypatch, "integrate_forward", lambda n: True)
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        direct = solve_direct(spec, start=start, gtol=1e-13)
    assert len(calls) == ocp._MAX_BACKTRACKS == 40
    assert direct.converged
    assert direct.iterations == 1
    assert direct.objective == start.objective
    assert caplog.records == []


def test_a_gradient_that_is_not_finite_raises_without_a_warning():
    """At a population near the float limit the reverse pass overflows at the zero control.

    A RuntimeWarning is an error under the suite's filter.  Such a gradient raises
    IntegrationError, in the public composition and at the start of a direct solve.
    """
    spec = StrategySpec(
        kind=Strategy.VACCINATION_WEIGHTED,
        params=ModelParams(beta=5e-324, mu=0.1),
        x0=EpidemicState(1e307, 0.05, 0.0),
        grid=TimeGrid(0.0, 100.0, 20),
    )
    with pytest.raises(IntegrationError, match="gradient is not finite"):
        objective_gradient(spec, np.zeros((spec.grid.n_nodes, 1)))
    with pytest.raises(IntegrationError, match="gradient is not finite"):
        solve_direct(spec)


def test_adjoint_gradient_matches_finite_differences():
    """Exact discrete gradient vs central differences on a coarse grid."""
    spec = default_spec(1, steps=100)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.05, 0.85, size=(spec.grid.n_nodes, 1))
    _, grad = objective_gradient(spec, u)
    h = 1e-6

    def j_of(values):
        signal = Trajectory(spec.grid, values)
        traj = integrate_forward(
            spec.params, ocp._DRAINS[spec.kind], spec.x0, spec.grid, signal
        )
        return objective(spec, traj, signal)

    for k in rng.choice(spec.grid.n_nodes, size=8, replace=False):
        up, um = u.copy(), u.copy()
        up[k, 0] += h
        um[k, 0] -= h
        fd = (j_of(up) - j_of(um)) / (2.0 * h)
        assert grad[k, 0] == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("steps", [100, 1000])
def test_gradient_sees_the_r_weight_only_through_its_differences(steps):
    """R = N - S - I, so the R weight enters the gradient as c_S - c_R and c_I - c_R only.

    The two strategy-2 specs share a1 + a3 and a2 + a3 exactly in binary;
    their running costs differ by (a3' - a3) N, a constant.
    """
    first = dataclasses.replace(default_spec(2, steps=steps), a1=0.125, a2=0.5, a3=0.5)
    second = dataclasses.replace(first, a1=0.375, a2=0.75, a3=0.25)
    u = np.random.default_rng(steps + 7).uniform(0.0, first.u_max, (first.grid.n_nodes, 1))
    j, grad = objective_gradient(first, u)
    j2, grad2 = objective_gradient(second, u)
    assert grad.tobytes() == grad2.tobytes()
    x0, grid = first.x0, first.grid
    shift = (second.a3 - first.a3) * (x0.s + x0.i + x0.r) * (grid.t_end - grid.t0)
    assert shift == -25.0
    assert j - j2 == pytest.approx(shift, rel=1e-12)


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


NEAR_LIMIT_WEIGHTS = [
    pytest.param(1, {"nu": 1e-308}, id="nu=1e-308"),
    pytest.param(1, {"nu": 3e-308}, id="nu=3e-308"),
    pytest.param(3, {"b1": 1e-308, "b2": 1e-308}, id="b1=b2=1e-308"),
]


@pytest.mark.parametrize("kind, weights", NEAR_LIMIT_WEIGHTS)
def test_both_solvers_saturate_at_near_limit_weights(kind, weights):
    """1/w is finite, but -f_u/w and g/(w_node w) overflow: the control saturates at u_max.

    A RuntimeWarning is an error under the suite's filter.  The sweep's
    relaxed iterates approach the bound geometrically; the direct solves land on it.
    """
    spec = StrategySpec(kind=Strategy(kind), grid=TimeGrid(0.0, 100.0, 100), **weights)
    sweep = solve_fbsm(spec)
    direct = solve_direct(spec, start=sweep.control)
    cold = solve_direct(spec)
    early = slice(0, spec.grid.steps // 2)
    assert sweep.converged and direct.converged and cold.converged
    assert np.all(sweep.control.values[early] >= (1.0 - 2e-3) * spec.u_max)
    assert np.all(direct.control.values[early] == spec.u_max)
    assert np.array_equal(cold.control.values, direct.control.values)
    assert direct.objective <= sweep.objective


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


def test_fbsm_logs_its_objective_rises_once(caplog):
    """On 20 steps strategy 1's accepted iterates often raise the objective; one line counts it."""
    spec = default_spec(1, steps=20)
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        sol = solve_fbsm(spec)
    h = sol.objective_history  # h[k] is the objective accepted at iteration k
    rises = [h[k] - h[k - 1] for k in range(6, len(h)) if h[k] > h[k - 1] + 1e-6]
    assert len(rises) > 1
    messages = [r.getMessage() for r in caplog.records if "objective rose" in r.getMessage()]
    assert messages == [
        f"VACCINATION sweep: objective rose at {len(rises)} of {sol.iterations} iterations,"
        f" by at most {max(rises):.3e}"
    ]


def test_fbsm_warns_that_a_grid_where_every_trial_blows_up_may_be_too_coarse(
    monkeypatch, caplog
):
    fail_calls(monkeypatch, "integrate_forward", lambda n: n > 1)
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        solve_fbsm(default_spec(1, steps=200))
    assert (
        "VACCINATION sweep: every damped trial blew up at iteration 1: the grid may be too coarse"
        " for RK4 at these rates"
    ) in [r.getMessage() for r in caplog.records]


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
    calls = fail_calls(monkeypatch, "integrate_forward", lambda n: n == 2)  # the first trial
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


@pytest.mark.parametrize(
    "settings",
    [
        {"relaxation": 0.0},  # would stop at once, "converged" at the zero control
        {"relaxation": -0.5},
        {"relaxation": 1.5},
        {"relaxation": math.nan},
        {"tol": math.nan},  # would pass the stop test after one iteration
        {"tol": 0.0},
        {"tol": -1e-3},
        {"tol": math.inf},
    ],
    ids=lambda settings: "-".join(f"{k}={v}" for k, v in settings.items()),
)
def test_fbsm_rejects_settings_outside_their_range(settings):
    """``relaxation`` must lie in (0, 1] and ``tol`` be finite and positive."""
    with pytest.raises(ValueError, match=next(iter(settings))):
        solve_fbsm(default_spec(1, steps=100), **settings)


@pytest.mark.parametrize("solver", [solve_fbsm, solve_direct], ids=["fbsm", "direct"])
@pytest.mark.parametrize("max_iterations", [0, -3])
def test_solvers_reject_fewer_than_one_iteration(solver, max_iterations):
    """Without an iteration the zero control would come back as an unconverged solution."""
    with pytest.raises(ValueError, match=f"max_iterations must be >= 1, got {max_iterations}"):
        solver(default_spec(1, steps=50), max_iterations=max_iterations)


@pytest.mark.parametrize("gtol", [math.inf, math.nan, 0.0, -1e-7])
def test_direct_rejects_a_gtol_outside_its_range(gtol):
    """At ``gtol = inf`` the zero control would pass the stop test; at nan none would."""
    with pytest.raises(ValueError, match="gtol"):
        solve_direct(default_spec(1, steps=100), gtol=gtol)
