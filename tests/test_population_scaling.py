"""Metamorphic tests: a problem stated for a population N times larger has the same optimum.

Scaling S, I and R by N and beta by 1/N leaves the epidemic in fractions
unchanged: every rate of the drain-form field scales by N.  Scaling the
state-cost weights by 1/N as well (a1, a2, a3 of strategy 2, kappa of
strategy 3) leaves the running cost unchanged, so the optimal control and
the objective do not move, and the trajectory scales by N.  Strategy 1's I
weight is fixed at 1, so it has no such case.  At a power of two every
product above is exact, so both solvers must give the same bits; at other
factors, the same iteration counts and agreement to a few ulps.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from sircontrol.integrate import TimeGrid, integrate_forward
from sircontrol.model import Drains, EpidemicState, ModelParams
from sircontrol.ocp import (
    DEFAULT_PARAMS,
    DEFAULT_X0,
    Strategy,
    default_spec,
    solve_direct,
    solve_fbsm,
)

KINDS = (2, 3)
STEPS = (100, 1000)
SOLVERS = {"fbsm": (solve_fbsm, {}), "direct": (solve_direct, {"gtol": 1e-9})}
# ulps of each quantity's scale: u_max for controls, the unit population for
# states, the objective for itself (at most 9.5 seen on these problems)
ULPS = 16


def scaled_params(params, n):
    return ModelParams(params.beta / n, params.mu)


def scaled_x0(x0, n):
    return EpidemicState(n * x0.s, n * x0.i, n * x0.r)


def scaled_spec(spec, n):
    """``spec`` for a population ``n`` times larger, in the same fractions and at the same cost."""
    if spec.kind is Strategy.VACCINATION_WEIGHTED:
        weights = {"a1": spec.a1 / n, "a2": spec.a2 / n, "a3": spec.a3 / n}
    else:
        weights = {"kappa": spec.kappa / n}
    return replace(spec, params=scaled_params(spec.params, n), x0=scaled_x0(spec.x0, n), **weights)


@functools.cache
def solve(solver, kind, steps, n=1.0):
    fn, settings = SOLVERS[solver]
    spec = default_spec(kind, steps)
    return fn(spec if n == 1.0 else scaled_spec(spec, n), **settings)


@pytest.mark.parametrize("steps", STEPS)
def test_uncontrolled_sweep_scales_exactly_at_a_power_of_two(steps):
    n, grid = 2.0**20, TimeGrid(0.0, 100.0, steps)
    base = integrate_forward(DEFAULT_PARAMS, Drains(), DEFAULT_X0.as_array(), grid)
    x0 = scaled_x0(DEFAULT_X0, n).as_array()
    big = integrate_forward(scaled_params(DEFAULT_PARAMS, n), Drains(), x0, grid)
    assert big.values.tobytes() == (n * base.values).tobytes()


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_solution_scales_exactly_at_a_power_of_two(solver, kind, steps):
    n = 2.0**20
    base, big = solve(solver, kind, steps), solve(solver, kind, steps, n)
    assert big.iterations == base.iterations
    assert big.converged == base.converged
    assert big.objective == base.objective
    assert big.control.values.tobytes() == base.control.values.tobytes()
    assert big.trajectory.values.tobytes() == (n * base.trajectory.values).tobytes()


@pytest.mark.parametrize("n", [1e3, 1e6])
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_solution_scales_to_a_few_ulps(solver, kind, steps, n):
    base, big = solve(solver, kind, steps), solve(solver, kind, steps, n)
    assert big.iterations == base.iterations
    assert big.converged == base.converged
    assert abs(big.objective - base.objective) <= ULPS * np.spacing(base.objective)
    u_max = base.spec.u_max
    assert np.abs(big.control.values - base.control.values).max() <= ULPS * np.spacing(u_max)
    error = np.abs(big.trajectory.values / n - base.trajectory.values).max()
    assert error <= ULPS * np.spacing(1.0)
