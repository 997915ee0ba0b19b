"""Metric extraction tests: peaks, infection periods, summaries, orderings."""

import math

import numpy as np
import pytest

from sircontrol.integrate import TimeGrid, Trajectory
from sircontrol.metrics import (
    DEFAULT_PERIOD_THRESHOLD,
    DEFAULT_PERIOD_WINDOW,
    RunSummary,
    infection_period,
    peak_infected,
    summarize_run,
    terminal_values,
)


def synthetic(i_values, t_end=100.0):
    """Trajectory with a prescribed infected curve; S and R fill the balance."""
    i = np.asarray(i_values, dtype=float)
    grid = TimeGrid(0.0, t_end, len(i) - 1)
    values = np.column_stack([0.5 - i / 2.0, i, 0.5 - i / 2.0])
    return Trajectory(grid, values)


# -- peak ------------------------------------------------------------------------


def test_peak_on_uncontrolled_run(uncontrolled_traj):
    t_peak, i_peak = peak_infected(uncontrolled_traj)
    assert i_peak == pytest.approx(0.179, abs=2e-3)
    assert 20.0 < t_peak < 35.0


def test_peak_dominates_every_sample(uncontrolled_traj):
    _, i_peak = peak_infected(uncontrolled_traj)
    assert np.all(uncontrolled_traj.i <= i_peak)


def test_peak_of_decreasing_curve_is_at_start():
    traj = synthetic(np.linspace(0.3, 0.0, 11))
    t_peak, i_peak = peak_infected(traj)
    assert t_peak == 0.0
    assert i_peak == 0.3


def test_peak_tie_breaks_to_earliest_node():
    traj = synthetic([0.1, 0.3, 0.2, 0.3, 0.0])
    t_peak, _ = peak_infected(traj)
    assert t_peak == 25.0  # first of the two maxima on 5 nodes over 100 days


# -- infection period ---------------------------------------------------------------


def test_period_of_uncontrolled_run_is_full_horizon(uncontrolled_traj):
    assert infection_period(uncontrolled_traj, 0.005) == 100.0


def test_period_zero_when_never_above_threshold():
    traj = synthetic(np.zeros(11))
    assert infection_period(traj, 0.005) == 0.0


def test_period_finds_permanent_crossing():
    # crosses below 0.1 at node 6 of 10 (t=60), stays below for 40 > window
    traj = synthetic([0.3, 0.4, 0.3, 0.25, 0.2, 0.15, 0.05, 0.04, 0.03, 0.02, 0.01])
    assert infection_period(traj, 0.1) == 60.0


def test_period_ignores_short_lived_dips():
    # on a 5-day grid, a dip below threshold from t=95 leaves 5 days, fewer
    # than the 10-day window -> t_end; one from t=85 leaves 15 and counts
    i = np.full(21, 0.2)
    i[19:] = 0.01
    assert infection_period(synthetic(i), 0.1) == 100.0
    i[17:] = 0.01
    assert infection_period(synthetic(i), 0.1) == 85.0


def test_period_counts_brief_rebounds_as_ongoing():
    # below threshold mid-run, back above near the end: period = t_end
    i = np.array([0.3, 0.2, 0.05, 0.04, 0.03, 0.02, 0.02, 0.02, 0.02, 0.3, 0.3])
    traj = synthetic(i)
    assert infection_period(traj, 0.1) == 100.0


def test_period_monotone_in_threshold(fbsm_solutions):
    traj = fbsm_solutions[1].trajectory
    thresholds = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05]
    periods = [infection_period(traj, th) for th in thresholds]
    assert all(a >= b for a, b in zip(periods, periods[1:]))


def test_period_rejects_bad_arguments(uncontrolled_traj):
    with pytest.raises(ValueError, match="threshold"):
        infection_period(uncontrolled_traj, 0.0)


def test_default_calibration_constants():
    assert DEFAULT_PERIOD_THRESHOLD == 0.005
    assert DEFAULT_PERIOD_WINDOW == 10.0


# -- terminal values and summaries -----------------------------------------------------


def test_terminal_values_of_static_run():
    traj = synthetic(np.full(11, 0.05))
    s_end, i_end, r_end = terminal_values(traj)
    assert (s_end, i_end, r_end) == (0.475, 0.05, 0.475)


def test_summarize_run_collects_all_fields(uncontrolled_traj):
    summary = summarize_run(uncontrolled_traj, objective=12.5)
    assert summary.peak_infected == pytest.approx(0.179, abs=2e-3)
    assert summary.infection_period == 100.0
    assert summary.s_end + summary.i_end + summary.r_end == pytest.approx(1.0, abs=1e-9)
    assert summary.objective == 12.5


def test_summarize_run_objective_defaults_to_none(uncontrolled_traj):
    assert summarize_run(uncontrolled_traj).objective is None


def test_run_summary_validation():
    with pytest.raises(ValueError, match="infection_period must be non-negative, got -1.0"):
        RunSummary(
            peak_infected=0.1,
            t_peak=0.0,
            infection_period=-1.0,
            s_end=0.5,
            i_end=0.0,
            r_end=0.5,
        )
    # an initial I of rounding noise below 0 peaks just below 0; the sweep's floor bounds it
    assert RunSummary(-1e-12, 0.0, 0.0, 0.3, -1e-12, 0.7).peak_infected == -1e-12
    with pytest.raises(ValueError):
        RunSummary(
            peak_infected=float("nan"),
            t_peak=0.0,
            infection_period=10.0,
            s_end=0.5,
            i_end=0.0,
            r_end=0.5,
        )
    with pytest.raises(ValueError, match="objective must be finite or None, got inf"):
        RunSummary(0.1, 10.0, 10.0, 0.5, 0.0, 0.5, objective=math.inf)


# -- orderings ------------------------------------------------------------------------


def test_comparison_orderings_on_real_solutions(fbsm_solutions, uncontrolled_traj):
    """Orderings that the solved problems genuinely satisfy."""
    runs = {k: summarize_run(sol.trajectory) for k, sol in fbsm_solutions.items()}
    unc = summarize_run(uncontrolled_traj)
    assert runs[3].peak_infected <= runs[1].peak_infected <= unc.peak_infected
    assert runs[3].peak_infected <= runs[2].peak_infected <= unc.peak_infected
    assert unc.r_end < min(r.r_end for r in runs.values())
    assert max(r.r_end for r in runs.values()) == runs[2].r_end