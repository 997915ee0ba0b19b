"""SIR epidemic simulation and optimal-control strategy toolkit.

Library layout:

* :mod:`sircontrol.model` -- compartment states, parameters, the drain-form rate law
* :mod:`sircontrol.integrate` -- grids, node series (state, costate, control), RK4, stage samples
* :mod:`sircontrol.ocp` -- the three control problems and their two solvers
* :mod:`sircontrol.metrics` -- peak, infection period, terminal values
* :mod:`sircontrol.cli` -- the ``sircontrol`` command-line tool
"""

from .integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from .metrics import (
    RunSummary,
    infection_period,
    peak_infected,
    summarize_run,
    terminal_values,
)
from .model import Drains, EpidemicState, ModelParams
from .ocp import (
    OcpSolution,
    Strategy,
    StrategySpec,
    default_spec,
    objective,
    objective_gradient,
    running_cost,
    solve_direct,
    solve_fbsm,
)

__all__ = [
    "IntegrationError",
    "TimeGrid",
    "Trajectory",
    "integrate_forward",
    "Drains",
    "EpidemicState",
    "ModelParams",
    "OcpSolution",
    "Strategy",
    "StrategySpec",
    "default_spec",
    "objective",
    "objective_gradient",
    "running_cost",
    "solve_direct",
    "solve_fbsm",
    "RunSummary",
    "infection_period",
    "peak_infected",
    "summarize_run",
    "terminal_values",
]
