"""SIR epidemic simulation and optimal-control strategy toolkit.

Library layout:

* :mod:`sircontrol.model` -- compartment states, parameters, the drain-form rate law
* :mod:`sircontrol.integrate` -- fixed-step RK4 integration and stage sampling
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
from .model import DrainField, Drains, EpidemicState, ModelParams
from .ocp import (
    ControlSignal,
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
    "DrainField",
    "Drains",
    "EpidemicState",
    "ModelParams",
    "ControlSignal",
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
