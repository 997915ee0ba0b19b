"""A seeded fuzzer for the CLI's exit-code contract, and the inputs it has broken.

Each draw writes a config that sets one to three float fields to adversarial
values, on a 20-step grid with at most 5 solver iterations, and runs it
through ``compare`` or ``optimize``, with or without ``--cross-check``, in
this process and with every warning raised as an error.  A second generator
also draws 400-digit numbers (the step count among them), empty keys and
values, and duplicate keys, and runs ``simulate`` too.  A third draws initial
states with one compartment just above or below the floor ``-1e-9 N`` at
populations N of 1e-3, 1 and 1e6.  The contract:

* the exit code is 0, 2, 3 or 4, and nothing raises;
* exit 2 leaves no output file;
* exit 0 writes every output: the scenario's CSV and JSON, and for
  ``compare`` the comparison table;
* exit 4 still writes the scenario's CSV and JSON;
* every JSON file written parses as strict JSON (no NaN or Infinity).
"""

import json
import random
import warnings
from dataclasses import fields

import pytest

from sircontrol.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRATION,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ScenarioConfig,
    load_config,
    main,
)
from sircontrol.model import EpidemicState

FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type == "float"]

# subnormals, values near the float limit, a literal that overflows to inf,
# non-positive values, NaN, and literals float() reads in unusual ways
POOL = (
    "5e-324", "1e-310", "2e-308",
    "1e306", "1e307", "5e307", "1e308", "1.7e308",
    "1e400", "-1", "0", "nan", "1_0", "0x10",
)


# 400-digit literals: float() reads them as inf, 0.0 and -inf
LONG = ("9" * 400, "0." + "0" * 399 + "1", "-" + "9" * 400)


# populations, and multiples k of the floor -1e-9 N for the one small compartment
POPULATIONS = (1e-3, 1.0, 1e6)
FLOOR_MULTIPLES = (-0.5, -0.9, -1.1, -2.0, -1e-3)


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def run_contract(tmp_path, name, command, text, cross_check):
    """Exit code of the CLI on config ``text``, after asserting the contract."""
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    out = tmp_path / name
    argv = [command, "--config", str(path), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--cross-check"] * cross_check)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INTEGRATION, EXIT_NO_CONVERGENCE)
    written = sorted(out.iterdir()) if out.exists() else []
    if code == EXIT_CONFIG:
        assert written == []
    if code in (EXIT_OK, EXIT_NO_CONVERGENCE):
        label = load_config(str(path), {}).label
        expected = {f"{label}.csv", f"{label}.json"}
        if code == EXIT_OK and command == "compare":
            expected |= {"comparison.csv", "comparison.json"}
        assert {p.name for p in written} == expected
    for json_path in out.glob("*.json"):
        json.loads(json_path.read_text(), parse_constant=_strict)
    return code


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_compare_keeps_the_exit_code_contract_on_adversarial_configs(tmp_path, seed):
    rng = random.Random(seed)
    broken = []
    for k in range(100):
        strategy = rng.choice(("none", "1", "2", "3"))
        keys = rng.sample(FLOAT_FIELDS, rng.randint(1, 3))
        text = f"strategy = {strategy}\nsteps = 20\nmax_iterations = 5\n" + "".join(
            f"{key} = {rng.choice(POOL)}\n" for key in keys
        )
        cross_check = rng.random() < 0.5
        # optimize takes strategies 1-3 only; it runs the strategies compare draws
        command = "compare" if strategy == "none" or rng.random() < 0.5 else "optimize"
        try:
            run_contract(tmp_path, f"draw{k}", command, text, cross_check)
        except Exception as e:  # noqa: BLE001 -- every break is collected and reported
            broken.append(f"{command} cross_check={cross_check} {text!r}: {e!r}")
    assert broken == []


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_every_command_keeps_the_exit_code_contract_on_malformed_configs(tmp_path, seed):
    rng = random.Random(seed)
    broken = []
    for k in range(100):
        strategy = rng.choice(("none", "1", "2", "3"))
        # a step count that must be rejected may break the cap; an iteration count may not
        keys = ["strategy", "steps", "max_iterations", *rng.sample(FLOAT_FIELDS, 2)]
        values = [strategy, LONG[0] if rng.random() < 0.1 else "20", "5"]
        values += [rng.choice(POOL + LONG) for _ in keys[3:]]
        lines = [f"{key} = {value}" for key, value in zip(keys, values)]
        if rng.random() < 0.2:  # a key set twice
            lines.append(f"{rng.choice(keys[1:])} = {rng.choice(POOL)}")
        if rng.random() < 0.2:  # an empty key or value
            lines.insert(rng.randrange(len(lines) + 1), rng.choice((" = 1", "beta =", "=")))
        text = "".join(line + "\n" for line in lines)
        if strategy == "none":
            command, cross_check = rng.choice(("simulate", "compare")), False
        else:
            command, cross_check = rng.choice(("optimize", "compare")), rng.random() < 0.5
        try:
            run_contract(tmp_path, f"draw{k}", command, text, cross_check)
        except Exception as e:  # noqa: BLE001 -- every break is collected and reported
            broken.append(f"{command} cross_check={cross_check} {text!r}: {e!r}")
    assert broken == []


def test_every_command_keeps_the_contract_at_the_negative_compartment_floor(tmp_path):
    """Exit 2 exactly when ``EpidemicState`` rejects the state, at every population."""
    rng = random.Random(24)
    broken = []
    for k in range(50):
        n, share = rng.choice(POPULATIONS), rng.choice((0.3, 0.95))
        x0 = [share * n, (1.0 - share) * n]  # the other two compartments hold the population
        x0.insert(rng.randrange(3), rng.choice(FLOOR_MULTIPLES) * 1e-9 * n)
        try:
            EpidemicState(*x0)
            rejected = False
        except ValueError:
            rejected = True
        text = "s0 = {!r}\ni0 = {!r}\nr0 = {!r}\n".format(*x0)
        text += f"beta = {0.2 / n!r}\nsteps = 20\nmax_iterations = 5\n"
        if rng.random() < 0.5:
            command, cross_check = "simulate", False
        else:
            command, cross_check = "optimize", rng.random() < 0.5
            text += f"strategy = {rng.choice('123')}\n"
        try:
            code = run_contract(tmp_path, f"draw{k}", command, text, cross_check)
            assert (code == EXIT_CONFIG) == rejected, code
        except Exception as e:  # noqa: BLE001 -- every break is collected and reported
            broken.append(f"{command} cross_check={cross_check} {text!r}: {e!r}")
    assert broken == []


# an initial I of rounding noise below 0: the sweep must reach a summary
NEGATIVE_I0 = "s0 = 0.3\ni0 = -1e-12\nr0 = 0.7\nsteps = 20\nmax_iterations = 5"
SOLVED = (EXIT_OK, EXIT_NO_CONVERGENCE)


@pytest.mark.parametrize(
    "text, cross_check, expected",
    [
        # trapezoid sum inf - inf: the cost cannot be represented and scores +inf
        ("strategy = 2\na1 = 1.7e308\na2 = 1.7e308\ntau = 1.7e308\nsteps = 100", True, None),
        # the same weights overflow when weighed by a node of a 20-step grid
        ("strategy = 2\na1 = 1.7e308\na2 = 1.7e308\ntau = 1.7e308\nsteps = 20", True, EXIT_CONFIG),
        # the costate's lam_R sum overflows, and is diagnosed by the scan
        ("strategy = 2\na3 = 1e307\nsteps = 20", False, EXIT_INTEGRATION),
        # tol * ||u||_1 overflows in the sweep's stop test
        ("strategy = 3\ntol = 5e307\nsteps = 20", False, None),
        # a horizon whose step underflows to 0.0
        ("strategy = 1\nt_end = 5e-324\nsteps = 20", False, EXIT_CONFIG),
        # the direct solve's metric dt * nu overflows
        ("strategy = 1\nnu = 5e307\nsteps = 20", True, EXIT_CONFIG),
        # the cost of every iterate overflows, so no objective can be reported
        ("strategy = 2\nt_end = 2e-308\na1 = 1e307\nsteps = 20", False, EXIT_INTEGRATION),
        # the costate's Jacobian overflows at a population near the float limit
        ("strategy = 1\ns0 = 0\nbeta = 10\ni0 = 5e307\nsteps = 20", False, EXIT_INTEGRATION),
        # the reverse pass overflows at a population near the float limit
        ("strategy = 2\nbeta = 5e-324\ns0 = 1e307\nsteps = 20\nmax_iterations = 5", True, None),
        # a step count past the float range overflows in the step t_end / steps
        ("strategy = 1\nsteps = " + LONG[0], False, EXIT_CONFIG),
        # -a3 R overflows downward at every iterate: a cost of -inf scores +inf, too
        (
            "strategy = 2\nbeta = 1e-8\nmu = 1e-300\ns0 = 10\ni0 = 10\nr0 = 1000\nt_end = 1e6\n"
            "steps = 20\nu_max = 1e-300\na2 = 1e300\na3 = 1e300\nmax_iterations = 5",
            False,
            EXIT_INTEGRATION,
        ),
        # the direct solve's Barzilai-Borwein products s.y and s.D.s overflow
        (
            "strategy = 2\nbeta = 1e-300\nmu = 1.0\ns0 = 1e300\ni0 = 1e150\nr0 = 1e-300\n"
            "t_end = 1.0\nsteps = 5\nu_max = 10\na1 = 1e-8\na2 = 1e-300\na3 = 1e8\ntau = 1.0\n"
            "max_iterations = 5",
            True,
            EXIT_NO_CONVERGENCE,
        ),
        *((f"strategy = {kind}\n" + NEGATIVE_I0, True, SOLVED) for kind in (1, 2, 3)),
    ],
    ids=[
        "nan-objective", "weight-times-step", "lam_r-sum", "stop-test", "zero-step", "metric",
        "no-finite-cost", "jacobian", "reverse-overflow", "400-digit-steps",
        "negative-infinite-cost", "spectral-length-overflow",
        "negative-i0-1", "negative-i0-2", "negative-i0-3",
    ],
)
def test_optimize_keeps_the_contract_on_inputs_that_broke_it(
    tmp_path, text, cross_check, expected
):
    code = run_contract(tmp_path, "run", "optimize", text + "\n", cross_check)
    assert expected is None or code in (expected if isinstance(expected, tuple) else (expected,))
