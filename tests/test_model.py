"""Unit tests for the compartment model: rates, reductions, conservation."""

import numpy as np
import pytest

from sircontrol.model import (
    ControlValue,
    EpidemicState,
    ModelParams,
    rhs_treatment_education,
    rhs_uncontrolled,
    rhs_vaccination,
    treatment_education_rates,
    uncontrolled_rates,
    vaccination_rates,
)

X0 = EpidemicState(0.95, 0.05, 0.0)
PARAMS = ModelParams(beta=0.2, mu=0.1)


def random_states(rng, count):
    """Valid random states: non-negative fractions summing to 1."""
    raw = rng.dirichlet(np.ones(3), size=count)
    return [EpidemicState(*row) for row in raw]


# -- hand-computed rate values ------------------------------------------------


def test_uncontrolled_rates_default_point():
    d = rhs_uncontrolled(X0, PARAMS)
    assert d.s == pytest.approx(-0.0095, rel=1e-12)
    assert d.i == pytest.approx(0.0045, rel=1e-12)
    assert d.r == pytest.approx(0.005, rel=1e-12)


def test_uncontrolled_rates_disease_free_point_is_static():
    d = rhs_uncontrolled(EpidemicState(1.0, 0.0, 0.0), PARAMS)
    assert (d.s, d.i, d.r) == (0.0, 0.0, 0.0)


def test_uncontrolled_rates_without_transmission():
    p = ModelParams(beta=1e-300, mu=0.1)  # beta must stay positive; make it negligible
    d = rhs_uncontrolled(EpidemicState(0.5, 0.5, 0.0), p)
    assert d.s == pytest.approx(0.0, abs=1e-300)
    assert d.i == pytest.approx(-0.05, rel=1e-12)
    assert d.r == pytest.approx(0.05, rel=1e-12)


def test_vaccination_rates_at_full_rate():
    d = rhs_vaccination(X0, PARAMS, ControlValue(0.9))
    assert d.s == pytest.approx(-0.8645, rel=1e-12)
    assert d.i == pytest.approx(0.0045, rel=1e-12)
    assert d.r == pytest.approx(0.86, rel=1e-12)


def test_vaccination_term_vanishes_without_susceptibles():
    d = rhs_vaccination(EpidemicState(0.0, 0.6, 0.4), PARAMS, ControlValue(0.9))
    assert d.s == 0.0
    assert d.r == pytest.approx(0.06, rel=1e-12)


def test_treatment_education_rates_at_full_treatment():
    d = rhs_treatment_education(X0, PARAMS, ControlValue(0.9, 0.0))
    assert d.s == pytest.approx(-0.0095, rel=1e-12)
    assert d.i == pytest.approx(-0.0405, rel=1e-12)
    assert d.r == pytest.approx(0.05, rel=1e-12)


def test_education_only_transfers_susceptibles():
    d = rhs_treatment_education(EpidemicState(0.7, 0.0, 0.3), PARAMS, ControlValue(0.9, 0.5))
    assert d.i == 0.0
    assert d.s == pytest.approx(-0.35, rel=1e-12)
    assert d.r == pytest.approx(0.35, rel=1e-12)


# -- reductions and algebraic properties ---------------------------------------


def test_controls_off_reduce_to_uncontrolled():
    rng = np.random.default_rng(7)
    for state in random_states(rng, 25):
        base = rhs_uncontrolled(state, PARAMS)
        vac = rhs_vaccination(state, PARAMS, ControlValue(0.0))
        ted = rhs_treatment_education(state, PARAMS, ControlValue(0.0, 0.0))
        assert (vac.s, vac.i, vac.r) == (base.s, base.i, base.r)
        assert (ted.s, ted.i, ted.r) == (base.s, base.i, base.r)


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


def test_vaccination_rejects_two_channel_control():
    with pytest.raises(ValueError, match="single control channel"):
        rhs_vaccination(X0, PARAMS, ControlValue(0.1, 0.2))


def test_treatment_education_rejects_one_channel_control():
    with pytest.raises(ValueError, match="two control channels"):
        rhs_treatment_education(X0, PARAMS, ControlValue(0.1))


def test_state_validate_rejects_negative_compartment():
    with pytest.raises(ValueError, match="compartment i"):
        EpidemicState(0.5, -0.1, 0.6).validate()


def test_state_validate_rejects_bad_total():
    with pytest.raises(ValueError, match="sum to"):
        EpidemicState(0.5, 0.2, 0.2).validate(n=1.0)


def test_state_validate_accepts_tolerance_sized_noise():
    EpidemicState(0.95, 0.05, -1e-12).validate()


def test_params_reject_nonpositive_rates():
    with pytest.raises(ValueError, match="beta"):
        ModelParams(beta=-1.0, mu=0.1)
    with pytest.raises(ValueError, match="mu"):
        ModelParams(beta=0.2, mu=0.0)
    with pytest.raises(ValueError, match="n"):
        ModelParams(beta=0.2, mu=0.1, n=0.0)


def test_control_value_channels_and_bounds():
    assert ControlValue(0.3).channels == 1
    assert ControlValue(0.3, 0.1).channels == 2
    ControlValue(0.0, 0.9).validate(0.9)
    with pytest.raises(ValueError, match="u1"):
        ControlValue(1.0).validate(0.9)
    with pytest.raises(ValueError, match="u2"):
        ControlValue(0.5, -0.01).validate(0.9)


def test_state_array_round_trip():
    x = X0.as_array()
    assert EpidemicState.from_array(x) == X0
    assert x.dtype == float
