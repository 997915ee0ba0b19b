"""Shared fixtures: the default solves are expensive, so compute them once.

Also prints a per-criterion PASS/FAIL table for the acceptance suite at the
end of the run (see tests/_acceptance_log.py).
"""

import re

import pytest

from sircontrol.integrate import TimeGrid, integrate_forward
from sircontrol.model import Drains
from sircontrol.ocp import (
    DEFAULT_PARAMS,
    DEFAULT_X0,
    default_spec,
    solve_direct,
    solve_fbsm,
)

import _acceptance_log


@pytest.fixture(scope="session")
def uncontrolled_traj():
    """Default uncontrolled run: beta=0.2, mu=0.1, x0=(0.95,0.05,0), dt=0.1."""
    grid = TimeGrid(0.0, 100.0, 1000)
    return integrate_forward(DEFAULT_PARAMS, Drains(), DEFAULT_X0.as_array(), grid)


@pytest.fixture(scope="session")
def fbsm_solutions():
    """Sweep solutions for all three strategies at the default settings."""
    return {k: solve_fbsm(default_spec(k)) for k in (1, 2, 3)}


@pytest.fixture(scope="session")
def direct_solutions():
    """Direct-transcription solutions, the independent cross-check route."""
    return {k: solve_direct(default_spec(k)) for k in (1, 2, 3)}


@pytest.fixture(scope="session")
def fbsm_tight_solutions():
    """Sweep solutions at stop tolerance 1e-5.

    The default 1e-3 stop leaves a stationarity residual of a few 1e-4 on
    Strategy 2; the tighter stop drives every interior |dH/du| below 1e-4.
    """
    return {k: solve_fbsm(default_spec(k), tol=1e-5) for k in (1, 2, 3)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = _acceptance_log.LINES
    if not lines:
        return
    outcomes: dict[int, str] = {}
    for status, mark in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m:
                outcomes[int(m.group(1))] = mark
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(lines):
        verdict = outcomes.get(num, "SKIP")
        terminalreporter.write_line(f"criterion {num:>2}  {verdict}  {lines[num]}")
