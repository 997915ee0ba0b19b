"""Each record stores its numbers in the form its readers use.

``ModelParams``, ``EpidemicState``, ``TimeGrid`` and ``StrategySpec`` hold
Python floats (``steps`` a Python int), and ``Trajectory`` holds native
float64, whatever numpy scalar or array a caller passes; a str is still a
TypeError.  The float loops then take one path, so a problem given as numpy
scalars gives the bits of the same problem given as the scalars' Python
float values: numpy 2 would run ``float32 * float`` in float32.
"""

import numpy as np
import pytest

from sircontrol import ocp
from sircontrol.integrate import TimeGrid, Trajectory, integrate_forward
from sircontrol.model import EpidemicState, ModelParams
from sircontrol.ocp import Strategy, StrategySpec, objective, objective_gradient

NUMPY_TYPES = [np.float64, np.float32, np.int64]
KINDS = (1, 2, 3)
STEPS = 100
SPEC_FLOATS = ("u_max",) + ocp._WEIGHT_FIELDS


def numpy_form(numpy_type):
    """A number as a ``numpy_type`` scalar; an int64 only where that keeps its value."""

    def form(value):
        x = numpy_type(value)
        return x if x == value or numpy_type is not np.int64 else value

    return form


def python_form(numpy_type):
    """The Python float of a number's :func:`numpy_form`."""
    form = numpy_form(numpy_type)
    return lambda value: float(form(value))


def problem(kind, form, steps):
    """Strategy ``kind``'s reference problem on ``steps``, each float passed through ``form``."""
    return StrategySpec(
        kind=Strategy(kind),
        params=ModelParams(*map(form, (0.2, 0.1))),
        x0=EpidemicState(*map(form, (0.95, 0.05, 0.0))),
        grid=TimeGrid(form(0.0), form(100.0), steps),
        **{name: form(getattr(StrategySpec, name)) for name in SPEC_FLOATS},
    )


def problems(kind, numpy_type):
    """The problem as numpy scalars (an int64 step count), and as their Python values."""
    return (
        problem(kind, numpy_form(numpy_type), np.int64(STEPS)),
        problem(kind, python_form(numpy_type), STEPS),
    )


def controls(spec, seed):
    values = np.random.default_rng(seed).uniform(0.0, 0.9, (spec.grid.n_nodes, spec.channels))
    return Trajectory(spec.grid, values)


@pytest.mark.parametrize("numpy_type", NUMPY_TYPES)
def test_records_hold_python_floats_and_an_int_step_count(numpy_type):
    spec, _ = problems(3, numpy_type)
    numbers = [
        spec.params.beta, spec.params.mu, spec.x0.s, spec.x0.i, spec.x0.r,
        spec.grid.t0, spec.grid.t_end, spec.grid.dt,
        *(getattr(spec, name) for name in SPEC_FLOATS),
    ]
    assert [type(x) for x in numbers] == [float] * len(numbers)
    assert type(spec.grid.steps) is int


def test_a_native_float64_trajectory_keeps_its_array():
    grid = TimeGrid(0.0, 1.0, 4)
    u = np.linspace(0.0, 1.0, 10).reshape(5, 2)
    assert Trajectory(grid, u).values is u
    column = u[:, :1]  # a strided view is kept too
    assert Trajectory(grid, column).values is column


@pytest.mark.parametrize("dtype", ["float32", "int64", "bool", "object", ">f8"])
def test_a_trajectory_holds_native_float64(dtype):
    grid = TimeGrid(0.0, 1.0, 4)
    u = np.arange(10).reshape(5, 2).astype(dtype)
    values = Trajectory(grid, u).values
    assert values.dtype == np.dtype(float) and values.dtype.isnative
    assert values.tobytes() == u.astype(float).tobytes()


STRINGS = [
    pytest.param(lambda: ModelParams("0.2", 0.1), id="beta"),
    pytest.param(lambda: ModelParams(0.2, "0.1"), id="mu"),
    pytest.param(lambda: EpidemicState(0.95, "0.05", 0.0), id="i"),
    pytest.param(lambda: TimeGrid("0", 100.0, 100), id="t0"),
    pytest.param(lambda: TimeGrid(0.0, "100", 100), id="t_end"),
    pytest.param(lambda: TimeGrid(0.0, 100.0, "100"), id="steps"),
    pytest.param(lambda: TimeGrid(0.0, 100.0, 100.5), id="steps-non-integral"),
    pytest.param(lambda: StrategySpec(Strategy.VACCINATION, u_max="0.9"), id="u_max"),
    pytest.param(lambda: StrategySpec(Strategy.VACCINATION, nu="0.5"), id="nu"),
]


@pytest.mark.parametrize("build", STRINGS)
def test_a_string_is_still_a_type_error(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("numpy_type", NUMPY_TYPES)
@pytest.mark.parametrize("kind", KINDS)
def test_numpy_scalars_give_the_bits_of_their_python_values(kind, numpy_type):
    """The forward sweep, objective and gradient, and both solvers' objectives."""
    spec, reference = problems(kind, numpy_type)
    signal = controls(reference, seed=kind)
    drains = ocp._DRAINS[spec.kind]
    sweeps = [integrate_forward(p.params, drains, p.x0, p.grid, signal) for p in (spec, reference)]
    assert sweeps[0].values.tobytes() == sweeps[1].values.tobytes()
    assert objective(spec, sweeps[0], signal) == objective(reference, sweeps[1], signal)
    (j, g), (j_ref, g_ref) = (objective_gradient(p, signal.values) for p in (spec, reference))
    assert j == j_ref
    assert g.tobytes() == g_ref.tobytes()
    fbsm = [ocp.solve_fbsm(p).objective for p in (spec, reference)]
    assert fbsm[0] == fbsm[1]
    direct = [ocp.solve_direct(p, max_iterations=20).objective for p in (spec, reference)]
    assert direct[0] == direct[1]
