"""Unit tests for the compartment model: rates, reductions, conservation.

``treatment_education_rates(s, i, beta, mu, v, a)`` is the one rate law: S
drains into R at rate ``a`` and I at ``mu + v``.  The uncontrolled law is
the one with no drain (``v = a = 0``), the vaccination law the one with
``v = 0``.
"""

import numpy as np
import pytest

from sircontrol.integrate import Trajectory
from sircontrol.model import EpidemicState, ModelParams, treatment_education_rates
from sircontrol.ocp import default_spec, objective

X0 = EpidemicState(0.95, 0.05, 0.0)
PARAMS = ModelParams(beta=0.2, mu=0.1)
BETA, MU = PARAMS.beta, PARAMS.mu


def uncontrolled_rates(s, i, beta, mu):
    return treatment_education_rates(s, i, beta, mu, 0.0, 0.0)


def vaccination_rates(s, i, beta, mu, u):
    return treatment_education_rates(s, i, beta, mu, 0.0, u)


def random_states(rng, count):
    """Valid random states: non-negative fractions summing to 1."""
    raw = rng.dirichlet(np.ones(3), size=count)
    return [EpidemicState(*row) for row in raw]


# -- hand-computed rate values ------------------------------------------------


def test_uncontrolled_rates_default_point():
    ds, di, dr = uncontrolled_rates(X0.s, X0.i, BETA, MU)
    assert ds == pytest.approx(-0.0095, rel=1e-12)
    assert di == pytest.approx(0.0045, rel=1e-12)
    assert dr == pytest.approx(0.005, rel=1e-12)


def test_uncontrolled_rates_disease_free_point_is_static():
    assert uncontrolled_rates(1.0, 0.0, BETA, MU) == (0.0, 0.0, 0.0)


def test_uncontrolled_rates_without_transmission():
    p = ModelParams(beta=1e-300, mu=0.1)  # beta must stay positive; make it negligible
    ds, di, dr = uncontrolled_rates(0.5, 0.5, p.beta, p.mu)
    assert ds == pytest.approx(0.0, abs=1e-300)
    assert di == pytest.approx(-0.05, rel=1e-12)
    assert dr == pytest.approx(0.05, rel=1e-12)


def test_vaccination_rates_at_full_rate():
    ds, di, dr = vaccination_rates(X0.s, X0.i, BETA, MU, 0.9)
    assert ds == pytest.approx(-0.8645, rel=1e-12)
    assert di == pytest.approx(0.0045, rel=1e-12)
    assert dr == pytest.approx(0.86, rel=1e-12)


def test_vaccination_term_vanishes_without_susceptibles():
    ds, _, dr = vaccination_rates(0.0, 0.6, BETA, MU, 0.9)
    assert ds == 0.0
    assert dr == pytest.approx(0.06, rel=1e-12)


def test_treatment_education_rates_at_full_treatment():
    ds, di, dr = treatment_education_rates(X0.s, X0.i, BETA, MU, 0.9, 0.0)
    assert ds == pytest.approx(-0.0095, rel=1e-12)
    assert di == pytest.approx(-0.0405, rel=1e-12)
    assert dr == pytest.approx(0.05, rel=1e-12)


def test_education_only_transfers_susceptibles():
    ds, di, dr = treatment_education_rates(0.7, 0.0, BETA, MU, 0.9, 0.5)
    assert di == 0.0
    assert ds == pytest.approx(-0.35, rel=1e-12)
    assert dr == pytest.approx(0.35, rel=1e-12)


# -- reductions and algebraic properties ---------------------------------------


def test_controls_off_reduce_to_uncontrolled():
    """A drain at rate 0 gives the bits of the law written without its term."""
    rng = np.random.default_rng(7)
    for state in random_states(rng, 25):
        s, i = state.s, state.i
        u = rng.uniform(0.0, 0.9)
        infection = BETA * s * i
        ds, di = -infection, infection - MU * i
        assert uncontrolled_rates(s, i, BETA, MU) == (ds, di, -(ds + di))
        ds = -infection - u * s
        assert vaccination_rates(s, i, BETA, MU, u) == (ds, di, -(ds + di))


def test_rate_components_sum_to_exact_zero():
    rng = np.random.default_rng(11)
    for state in random_states(rng, 50):
        s, i = state.s, state.i
        u1, u2 = rng.uniform(0.0, 0.9, size=2).tolist()
        for d in (
            uncontrolled_rates(s, i, 0.2, 0.1),
            vaccination_rates(s, i, 0.2, 0.1, u1),
            treatment_education_rates(s, i, 0.2, 0.1, u1, u2),
        ):
            assert sum(d) == 0.0  # exact: third component balances the others


def test_recovered_inflow_is_never_negative():
    rng = np.random.default_rng(13)
    for state in random_states(rng, 50):
        s, i = state.s, state.i
        u1, u2 = rng.uniform(0.0, 0.9, size=2).tolist()
        assert uncontrolled_rates(s, i, 0.2, 0.1)[2] >= 0.0
        assert vaccination_rates(s, i, 0.2, 0.1, u1)[2] >= 0.0
        assert treatment_education_rates(s, i, 0.2, 0.1, u1, u2)[2] >= 0.0


# -- arity and validation -------------------------------------------------------
# The rate law takes both drain rates; a control signal's channel count is
# checked against the strategy where the problem is posed, in ocp.objective,
# and against the field's layout in the sweeps (tests/test_integrate.py).


def constant_run(kind, channels):
    spec = default_spec(kind, steps=10)
    traj = Trajectory(spec.grid, np.tile((X0.s, X0.i, X0.r), (spec.grid.n_nodes, 1)))
    return spec, traj, Trajectory(spec.grid, np.full((spec.grid.n_nodes, channels), 0.1))


def test_vaccination_rejects_two_channel_control():
    spec, traj, controls = constant_run(1, 2)
    with pytest.raises(ValueError, match="expects 1 control channel"):
        objective(spec, traj, controls)


def test_treatment_education_rejects_one_channel_control():
    spec, traj, controls = constant_run(3, 1)
    with pytest.raises(ValueError, match="expects 2 control channel"):
        objective(spec, traj, controls)


def test_state_rejects_negative_compartment():
    with pytest.raises(ValueError, match="compartment i"):
        EpidemicState(0.5, -0.1, 0.6)


def test_state_rejects_bad_total():
    with pytest.raises(ValueError, match="sum to"):
        EpidemicState(0.0, 0.0, 0.0)


def test_state_accepts_tolerance_sized_noise():
    EpidemicState(0.95, 0.05, -1e-12)


def test_params_reject_nonpositive_rates():
    with pytest.raises(ValueError, match="beta"):
        ModelParams(beta=-1.0, mu=0.1)
    with pytest.raises(ValueError, match="mu"):
        ModelParams(beta=0.2, mu=0.0)

