"""Metamorphic tests: a problem stated for a population N times larger has the same optimum.

Scaling S, I and R by N and beta by 1/N leaves the epidemic in fractions
unchanged: every rate of the drain-form field scales by N.  Scaling the
state-cost weights by 1/N as well (a1, a2, a3 of strategy 2, kappa of
strategy 3) leaves the running cost unchanged, so the optimal control and
the objective do not move, and the trajectory scales by N.  Strategy 1's I
weight is fixed at 1, so it has no such case.  At a power of two every
product above is exact, so both solvers must give the same bits; at other
factors, the same iteration counts and agreement to a few ulps.  Besides the
default problems, a seeded draw of problems from the ranges of the benchmark's
sweep pool must give the same bits at a power of two.  An initial state is
accepted at every population or at none: its floor scales with N.
"""

import functools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from sircontrol.integrate import TimeGrid, integrate_forward
from sircontrol.model import Drains, EpidemicState, ModelParams
from sircontrol.ocp import (
    _WEIGHT_FIELDS,
    DEFAULT_PARAMS,
    DEFAULT_X0,
    Strategy,
    StrategySpec,
    default_spec,
    solve_direct,
    solve_fbsm,
)

KINDS = (2, 3)
STEPS = (100, 1000)
SOLVERS = {"fbsm": (solve_fbsm, {}), "direct": (solve_direct, {"gtol": 1e-9})}
# problems drawn per strategy and solver, from one seed, by pool_like_specs
POOL_DRAWS = 6
POOL_SEED = 2015
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


def pool_like_specs(kind, steps=100):
    """Problems drawn from the ranges of the benchmark's sweep pool (perfbench/workloads.py).

    Each weight is its default scaled by a factor in [1/2, 2]; beta, mu, i0
    and u_max are uniform in [0.15, 0.35], [0.07, 0.14], [0.01, 0.1] and [0.5, 1].
    """
    rng = random.Random(POOL_SEED + kind)
    base = StrategySpec(kind=Strategy(kind))
    for _ in range(POOL_DRAWS):
        weights = {
            name: getattr(base, name) * math.exp(rng.uniform(-math.log(2.0), math.log(2.0)))
            for name in _WEIGHT_FIELDS
        }
        params = ModelParams(rng.uniform(0.15, 0.35), rng.uniform(0.07, 0.14))
        i0 = rng.uniform(0.01, 0.1)
        yield replace(
            base,
            params=params,
            x0=EpidemicState(1.0 - i0, i0, 0.0),
            grid=TimeGrid(0.0, 100.0, steps),
            u_max=rng.uniform(0.5, 1.0),
            **weights,
        )


def assert_same_bits(base, big, n):
    """``big``, the solve at population ``n`` times larger, is ``base`` with states scaled by n."""
    assert big.iterations == base.iterations
    assert big.converged == base.converged
    assert big.objective == base.objective
    assert big.control.values.tobytes() == base.control.values.tobytes()
    assert big.trajectory.values.tobytes() == (n * base.trajectory.values).tobytes()


@functools.cache
def solve(solver, kind, steps, n=1.0):
    fn, settings = SOLVERS[solver]
    spec = default_spec(kind, steps)
    return fn(spec if n == 1.0 else scaled_spec(spec, n), **settings)


def accepts(*x0):
    try:
        EpidemicState(*x0)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("k", [-0.5, -0.9, -1.1, -2.0])
def test_state_rule_is_invariant_under_scaling(k, slot):
    """One compartment at k * 1e-9 of the population, the others holding 0.95 and 0.05 of it."""
    x0 = [0.95, 0.05]
    x0.insert(slot, k * 1e-9)
    assert accepts(*x0) == (k > -1.0)
    for n in (2.0**20, 2.0**-20):
        assert accepts(*(n * x for x in x0)) == accepts(*x0)


@pytest.mark.parametrize("steps", STEPS)
def test_uncontrolled_sweep_scales_exactly_at_a_power_of_two(steps):
    n, grid = 2.0**20, TimeGrid(0.0, 100.0, steps)
    base = integrate_forward(DEFAULT_PARAMS, Drains(), DEFAULT_X0, grid)
    x0 = scaled_x0(DEFAULT_X0, n)
    big = integrate_forward(scaled_params(DEFAULT_PARAMS, n), Drains(), x0, grid)
    assert big.values.tobytes() == (n * base.values).tobytes()


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("kind", KINDS)
def test_solution_scales_exactly_at_a_power_of_two(solver, kind, steps):
    n = 2.0**20
    assert_same_bits(solve(solver, kind, steps), solve(solver, kind, steps, n), n)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("kind", KINDS)
def test_drawn_problems_scale_exactly_at_a_power_of_two(solver, kind):
    n = 2.0**20
    fn, settings = SOLVERS[solver]
    for spec in pool_like_specs(kind):
        assert_same_bits(fn(spec, **settings), fn(scaled_spec(spec, n), **settings), n)


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
