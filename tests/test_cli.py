"""Command-line front end tests: config parsing, file outputs, exit codes."""

import csv
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import sircontrol
from sircontrol import cli, metrics, ocp
from sircontrol.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INTEGRATION,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ConfigError,
    ScenarioConfig,
    cmd_compare,
    config_from_entries,
    load_config,
    main,
    parse_config_text,
    write_comparison,
    write_plot_bundles,
    write_timeseries_csv,
)
from sircontrol.integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from sircontrol.metrics import RunSummary
from sircontrol.model import Drains, EpidemicState, ModelParams
from sircontrol.ocp import Strategy, StrategySpec, default_spec


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- config parsing -----------------------------------------------------------------


def test_parse_config_text_basics():
    entries = parse_config_text(
        """
        # scenario
        strategy = 2
        beta = 0.25   # inline comment
        steps = 400
        """
    )
    assert entries == {"strategy": "2", "beta": "0.25", "steps": "400"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("beta = 1\nbeta = 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("this is not a key value pair\n")


@pytest.mark.parametrize("line", ["beta =", "= 1", " = "])
def test_parse_config_rejects_an_empty_key_or_value(line):
    with pytest.raises(ConfigError, match="line 2: empty key or value"):
        parse_config_text(f"strategy = 1\n{line}\n")


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_entries({"bogus": "1"})


def test_config_rejects_bad_numbers():
    with pytest.raises(ConfigError, match="beta"):
        config_from_entries({"beta": "-1"})
    with pytest.raises(ConfigError, match="steps"):
        config_from_entries({"steps": "0"})
    with pytest.raises(ConfigError, match="strategy"):
        config_from_entries({"strategy": "5"})
    with pytest.raises(ConfigError, match="max_iterations must be >= 1, got 0"):
        ScenarioConfig(max_iterations=0)
    # each value is finite, but the population they sum to is not
    with pytest.raises(ConfigError, match="fields s0, i0, r0: compartments sum to inf"):
        config_from_entries({"s0": "1e308", "i0": "1e308"})
    # each weight is positive, but the control law divides by it
    with pytest.raises(ConfigError, match="nu is too small"):
        config_from_entries({"strategy": "1", "nu": "5e-324"})
    with pytest.raises(ConfigError, match="b1 is too small"):
        config_from_entries({"strategy": "3", "b1": "1e-310"})


NUMPY_VALUES = {
    "beta": np.float32(0.25), "s0": np.float64(0.9), "i0": np.float32(0.1), "r0": np.int64(0),
    "t_end": np.int64(50), "steps": np.int64(100), "nu": np.float32(0.5), "tol": np.float32(1e-3),
    "max_iterations": np.int64(50), "threshold": np.float64(0.005),
}


def test_config_fields_hold_their_declared_types():
    """Numpy scalars and config strings alike are stored as the field's Python type."""
    for cfg in (ScenarioConfig(strategy="1", **NUMPY_VALUES), ScenarioConfig(steps="100", nu="2")):
        for f in fields(ScenarioConfig):
            assert type(getattr(cfg, f.name)).__name__ == f.type, f.name
    cfg = ScenarioConfig(strategy="1", **NUMPY_VALUES)
    assert (cfg.beta, cfg.steps, cfg.nu) == (float(np.float32(0.25)), 100, float(np.float32(0.5)))


def test_compare_writes_the_json_of_numpy_valued_configs(tmp_path):
    cfg = ScenarioConfig(strategy="1", **NUMPY_VALUES, out=str(tmp_path))
    assert cmd_compare([cfg]) == EXIT_OK
    payload = json.loads((tmp_path / "strategy1.json").read_text())
    assert payload["config"] == asdict(cfg)
    assert payload["config"]["steps"] == 100


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("steps", 100.5, "steps must be an integer, got 100.5"),
        ("steps", "1e3", "steps must be an integer, got '1e3'"),
        ("max_iterations", np.float64(5.0), "max_iterations must be an integer"),
        ("beta", "fast", "beta must be a number, got 'fast'"),
        ("mu", None, "mu must be a number, got None"),
        ("t_end", 10**400, "t_end must be a number"),
        ("out", None, "out must be a string, got None"),
        ("strategy", 1, "strategy must be a string, got 1"),
    ],
    ids=[
        "steps-100.5", "steps-1e3", "max_iterations-5.0", "beta-str", "mu-None", "t_end-10**400",
        "out-None", "strategy-1",
    ],
)
def test_a_field_value_that_does_not_convert_is_a_config_error_naming_it(field, value, message):
    with pytest.raises(ConfigError, match=f"^config field {message}"):
        ScenarioConfig(**{field: value})


def test_a_path_is_an_out_directory_held_as_its_string(tmp_path):
    cfg = ScenarioConfig(out=tmp_path)
    assert type(cfg.out) is str and cfg.out == str(tmp_path)


# one bad value per key, and a call of the one owner of its rule on that value
OWNED_RULES = [
    pytest.param("beta", "-1", lambda: ModelParams(-1.0, 0.1), id="beta"),
    pytest.param("mu", "0", lambda: ModelParams(0.2, 0.0), id="mu"),
    pytest.param("tol", "0", lambda: ocp._check_settings(1, 0.0), id="tol"),
    pytest.param("relaxation", "2", lambda: ocp._check_settings(1, 1.0, 2.0), id="relaxation"),
    pytest.param("max_iterations", "0", lambda: ocp._check_settings(0), id="max_iterations"),
    pytest.param("nu", "5e-324", lambda: StrategySpec(Strategy.VACCINATION, nu=5e-324), id="nu"),
    pytest.param("t_end", "-1", lambda: TimeGrid(0.0, -1.0, 1000), id="t_end"),
    pytest.param("steps", "0", lambda: TimeGrid(0.0, 100.0, 0), id="steps-0"),
    pytest.param("steps", str(10**23), lambda: TimeGrid(0.0, 100.0, 10**23), id="steps-1e23"),
    pytest.param("steps", str(10**400), lambda: TimeGrid(0.0, 100.0, 10**400), id="steps-1e400"),
    pytest.param("threshold", "inf", lambda: metrics._check_threshold(math.inf), id="threshold"),
]


@pytest.mark.parametrize("key, value, owner", OWNED_RULES)
def test_config_error_is_the_owners_message(tmp_path, capsys, key, value, owner):
    """The CLI reports the owner's ValueError text behind one prefix, and nothing else."""
    with pytest.raises(ValueError) as info:
        owner()
    path = write_cfg(tmp_path, "bad.cfg", f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config field {info.value}\n"
    assert not out.exists()


FLOAT_KEYS = (
    "beta", "mu", "s0", "i0", "r0", "t_end", "u_max", "nu", "a1", "a2", "a3",
    "tau", "kappa", "b1", "b2", "tol", "relaxation", "threshold",
)


def test_float_keys_are_every_float_field():
    assert set(FLOAT_KEYS) == {f.name for f in fields(ScenarioConfig) if f.type == "float"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_config_value_is_a_config_error(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, "nonfinite.cfg", f"{key} = {value}\n")
    rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err


@pytest.mark.parametrize(
    "x0, beta, accepted",
    [
        ((0.95, 0.05, -1e-12), 0.2, True),
        ((0.95, 0.05, -2e-9), 0.2, False),
        ((0, 0, 0), 0.2, False),
        ((1e308, 1e308, 0), 0.2, False),
        ((0.001, 0.0001, -1e-9), 0.2, False),
        ((1e6, 1e3, -1e-6), 2e-7, True),
        ((0.3, -1e-12, 0.7), 0.2, True),
    ],
    ids=[
        "noise", "below-tolerance", "empty", "sum-overflows", "small-population",
        "large-population", "negative-i0",
    ],
)
def test_the_cli_accepts_the_initial_states_the_library_accepts(
    tmp_path, capsys, x0, beta, accepted
):
    """One rule, ``EpidemicState``'s: a finite positive sum N, each compartment at least -1e-9 N."""
    try:
        EpidemicState(*map(float, x0))  # the values the config parser reads
    except ValueError as e:
        assert not accepted
        message = f"config fields s0, i0, r0: {e}"
    else:
        assert accepted
    text = "s0 = {}\ni0 = {}\nr0 = {}\nbeta = {}\nsteps = 10\n".format(*x0, beta)
    path, out = write_cfg(tmp_path, "x0.cfg", text), tmp_path / "o"
    assert main(["simulate", "--config", path, "--out", str(out)]) == (
        EXIT_OK if accepted else EXIT_CONFIG
    )
    assert out.exists() == accepted
    err = capsys.readouterr().err
    assert err == "" if accepted else message in err


def test_defaults_are_the_reference_scenario():
    cfg = ScenarioConfig()
    assert cfg.strategy == "none"
    assert (cfg.beta, cfg.mu) == (0.2, 0.1)
    assert (cfg.s0, cfg.i0, cfg.r0) == (0.95, 0.05, 0.0)
    assert (cfg.t_end, cfg.steps, cfg.u_max) == (100.0, 1000, 0.9)
    assert (cfg.nu, cfg.tau, cfg.kappa) == (0.5, 1.0, 1.0)
    assert (cfg.a1, cfg.a2, cfg.a3) == (0.1, 0.5, 0.002)
    assert (cfg.b1, cfg.b2) == (0.2, 0.04)
    assert (cfg.tol, cfg.max_iterations, cfg.relaxation) == (1e-3, 500, 0.5)
    assert cfg.threshold == 0.005


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_config_defaults_are_the_default_spec(kind):
    assert ScenarioConfig(strategy=str(kind)).spec() == default_spec(kind)


def test_cli_flags_override_config_file(tmp_path):
    path = write_cfg(tmp_path, "s.cfg", "steps = 100\nstrategy = none\n")
    cfg = load_config(path, {"steps": 50, "out": str(tmp_path)})
    assert cfg.steps == 50
    assert cfg.out == str(tmp_path)


# -- simulate -----------------------------------------------------------------------


def test_simulate_writes_series_and_summary(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path), "--steps", "1000"])
    assert rc == EXIT_OK

    rows = read_csv(tmp_path / "uncontrolled.csv")
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 1 + 1001
    peak = max(float(r[2]) for r in rows[1:])
    assert peak == pytest.approx(0.179, abs=2e-3)
    # no controls or costates on an uncontrolled run: empty fields
    assert all(r[4] == "" and r[6] == "" for r in rows[1:])

    payload = json.loads((tmp_path / "uncontrolled.json").read_text())
    assert payload["label"] == "uncontrolled"
    assert payload["summary"]["objective"] is None
    assert payload["summary"]["infection_period"] == 100.0
    assert payload["config"]["steps"] == 1000
    assert "meta" in payload
    assert "uncontrolled" in capsys.readouterr().out


def test_simulate_row_count_follows_steps(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path), "--steps", "10"])
    assert rc == EXIT_OK
    assert len(read_csv(tmp_path / "uncontrolled.csv")) == 1 + 11


def test_simulate_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--out", str(b)]) == EXIT_OK
    assert (a / "uncontrolled.csv").read_bytes() == (b / "uncontrolled.csv").read_bytes()


def test_simulate_rejects_invalid_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "bad.cfg", "beta = -1\n")
    rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "beta" in capsys.readouterr().err


def test_simulate_rejects_optimize_strategy(tmp_path, capsys):
    rc = main(["simulate", "--strategy", "2", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "strategy" in capsys.readouterr().err


def test_simulate_reports_integration_blowup(tmp_path, capsys):
    path = write_cfg(tmp_path, "blowup.cfg", "beta = 1e8\nsteps = 10\n")
    rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc == EXIT_INTEGRATION
    assert "integration failure" in capsys.readouterr().err


# -- optimize -----------------------------------------------------------------------


def test_optimize_writes_full_columns(tmp_path):
    rc = main(["optimize", "--strategy", "1", "--out", str(tmp_path), "--steps", "250"])
    assert rc == EXIT_OK

    rows = read_csv(tmp_path / "strategy1.csv")
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 1 + 251
    u1 = [float(r[4]) for r in rows[1:]]
    assert all(0.0 <= v <= 0.9 for v in u1)
    assert all(r[5] == "" for r in rows[1:])  # single-channel strategy
    assert all(r[6] != "" for r in rows[1:])  # costates always written

    payload = json.loads((tmp_path / "strategy1.json").read_text())
    assert payload["strategy"] == "1"
    assert payload["convergence"]["converged"] is True
    assert payload["summary"]["objective"] == pytest.approx(
        payload["convergence"]["objective"]
    )


def test_optimize_two_channel_strategy(tmp_path):
    rc = main(["optimize", "--strategy", "3", "--out", str(tmp_path), "--steps", "250"])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "strategy3.csv")
    for r in rows[1:]:
        assert 0.0 <= float(r[4]) <= 0.9
        assert 0.0 <= float(r[5]) <= 0.9


def test_optimize_emit_plot_data_writes_one_column_bundles(tmp_path):
    argv = ["optimize", "--strategy", "3", "--steps", "100", "--emit-plot-data"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "strategy3.csv")
    for col, name in enumerate("SIR", start=1):
        bundle = read_csv(tmp_path / f"fig_{name}_compare.csv")
        assert bundle == [["t", "strategy3"]] + [[r[0], r[col]] for r in rows[1:]]


def test_optimize_requires_a_strategy(tmp_path, capsys):
    rc = main(["optimize", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "strategy" in capsys.readouterr().err


def test_optimize_cross_check_reports_gap(tmp_path, capsys):
    rc = main(
        [
            "optimize",
            "--strategy",
            "1",
            "--out",
            str(tmp_path),
            "--steps",
            "250",
            "--cross-check",
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "strategy1.json").read_text())
    cross = payload["cross_check"]
    assert list(cross) == [
        "objective_sweep", "objective_direct", "relative_gap", "direct_converged",
        "direct_iterations",
    ]
    assert cross["relative_gap"] <= 0.01
    assert cross["direct_converged"] is True
    assert cross["direct_iterations"] >= 0
    assert "cross-check" in capsys.readouterr().out


def test_optimize_nonconvergence_exit_code(tmp_path):
    path = write_cfg(
        tmp_path, "short.cfg", "strategy = 1\nmax_iterations = 2\nsteps = 250\n"
    )
    rc = main(["optimize", "--config", path, "--out", str(tmp_path)])
    assert rc == EXIT_NO_CONVERGENCE
    # outputs are still written for inspection
    payload = json.loads((tmp_path / "strategy1.json").read_text())
    assert payload["convergence"]["converged"] is False
    assert (tmp_path / "strategy1.csv").exists()


@pytest.mark.parametrize(
    "strategy, flags",
    [(s, []) for s in "123"] + [(s, ["--cross-check"]) for s in "123"],
    ids=["1", "2", "3", "1-cross-check", "2-cross-check", "3-cross-check"],
)
def test_optimize_survives_trials_that_blow_up(tmp_path, monkeypatch, strategy, flags):
    """On 3 steps the first trials of either solver blow up; they are rejected steps.

    The direct solver meets them even when it starts from the sweep's control,
    and differentiates only the trials it accepts.
    """
    events = []
    trial, gradient = ocp._trial_objective, ocp._reverse_gradient

    def trying(*args):
        j, traj = trial(*args)
        events.append("blowup" if traj is None else "trial")
        return j, traj

    def differentiating(*args):
        events.append("gradient")
        return gradient(*args)

    monkeypatch.setattr(ocp, "_trial_objective", trying)
    monkeypatch.setattr(ocp, "_reverse_gradient", differentiating)
    argv = ["optimize", "--strategy", strategy, "--steps", "3", "--out", str(tmp_path)]
    assert main(argv + flags) in (EXIT_OK, EXIT_NO_CONVERGENCE)
    if flags:
        direct = events[events.index("gradient"):]  # from the direct solve's start
        assert "blowup" in direct and "trial" in direct
        assert all(e == "trial" for e, f in zip(direct, direct[1:]) if f == "gradient")
    else:
        assert "gradient" not in events
    label = f"strategy{strategy}"
    rows = read_csv(tmp_path / f"{label}.csv")
    assert len(rows) == 1 + 4
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row if v)
    payload = json.loads((tmp_path / f"{label}.json").read_text())
    assert math.isfinite(payload["summary"]["objective"])
    if flags:
        assert math.isfinite(payload["cross_check"]["objective_direct"])


@pytest.mark.parametrize(
    "command",
    [
        ["optimize", "--strategy", "1"],
        ["optimize", "--strategy", "1", "--cross-check"],
        ["simulate"],
        ["compare"],
    ],
    ids=["sweep", "cross-check", "simulate", "compare"],
)
def test_optimize_reports_a_grid_unstable_without_control(tmp_path, capsys, command):
    """On 2 steps even the zero control drives a compartment negative."""
    assert main(command + ["--steps", "2", "--out", str(tmp_path)]) == EXIT_INTEGRATION
    assert "integration failure" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [20, 1000])
@pytest.mark.parametrize("command", [["simulate"], ["optimize", "--strategy", "1"]])
def test_a_negative_initial_i_that_grows_is_not_called_an_rk4_failure(
    tmp_path, capsys, command, steps
):
    """With R0 > 1 the exact I from i0 = -1e-12 reaches -1e-12 * e**9 = -8.1e-9, below -1e-9 N
    on any grid: the floor error names the negative input, not RK4.
    """
    path = write_cfg(tmp_path, "neg.cfg", "s0 = 0.95\ni0 = -1e-12\nr0 = 0.05\n")
    args = ["--config", path, "--steps", str(steps), "--out", str(tmp_path / "o")]
    assert main(command + args) == EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert "the exact dynamics allow it from i=-1e-12" in err
    assert "RK4 is unstable" not in err


def test_optimize_threshold_flag_changes_period(tmp_path):
    argv = ["optimize", "--strategy", "3", "--out", str(tmp_path), "--steps", "250"]
    assert main(argv) == EXIT_OK
    base = json.loads((tmp_path / "strategy3.json").read_text())
    assert main(argv + ["--threshold", "1e-6"]) == EXIT_OK
    tight = json.loads((tmp_path / "strategy3.json").read_text())
    assert tight["summary"]["infection_period"] >= base["summary"]["infection_period"]


# -- compare ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_compare(tmp_path_factory):
    """The output directory of ``compare --emit-plot-data`` on the default scenarios and grid."""
    out = tmp_path_factory.mktemp("compare")
    assert main(["compare", "--out", str(out), "--emit-plot-data"]) == EXIT_OK
    return out


def test_compare_default_bundle(default_compare):
    tmp_path = default_compare
    rows = read_csv(tmp_path / "comparison.csv")
    assert rows[0][0] == "label"
    labels = [r[0] for r in rows[1:]]
    assert labels == ["uncontrolled", "strategy1", "strategy2", "strategy3"]

    table = {r[0]: dict(zip(rows[0], r)) for r in rows[1:]}
    r_end = {k: float(v["r_end"]) for k, v in table.items()}
    peak = {k: float(v["peak_infected"]) for k, v in table.items()}
    assert r_end["uncontrolled"] < min(
        r_end["strategy1"], r_end["strategy2"], r_end["strategy3"]
    )
    assert max(r_end.values()) == r_end["strategy2"]
    assert peak["strategy3"] <= peak["strategy1"] <= peak["uncontrolled"]
    assert peak["strategy3"] <= peak["strategy2"] <= peak["uncontrolled"]

    # per-scenario series plus figure bundles
    for name in ("uncontrolled", "strategy1", "strategy2", "strategy3"):
        assert (tmp_path / f"{name}.csv").exists()
        assert (tmp_path / f"{name}.json").exists()
    for fig in ("fig_S_compare.csv", "fig_I_compare.csv", "fig_R_compare.csv"):
        bundle = read_csv(tmp_path / fig)
        assert bundle[0] == ["t", "uncontrolled", "strategy1", "strategy2", "strategy3"]
        assert len(bundle) == 1 + 1001

    payload = json.loads((tmp_path / "comparison.json").read_text())
    assert len(payload["rows"]) == 4


def test_compare_csv_bytes_equal_the_benchmark_reference(default_compare):
    """The CSV files hash, by sorted name, NUL and bytes, to the benchmark's ``csv_sha256``."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    h = hashlib.sha256()
    for path in sorted(default_compare.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == json.loads(reference.read_text())["compare"]["csv_sha256"]


def test_compare_single_scenario_degenerates(tmp_path):
    path = write_cfg(tmp_path, "one.cfg", "strategy = none\nsteps = 100\n")
    rc = main(["compare", "--config", path, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "comparison.csv")
    assert len(rows) == 2


def test_compare_aborts_with_partial_results_note(tmp_path, capsys):
    ok = write_cfg(tmp_path, "ok.cfg", "strategy = none\nsteps = 100\n")
    stuck = write_cfg(
        tmp_path, "stuck.cfg", "strategy = 1\nmax_iterations = 2\nsteps = 100\n"
    )
    rc = main(["compare", "--config", ok, "--config", stuck, "--out", str(tmp_path)])
    assert rc == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "partial results: 1 of 2" in err
    assert not (tmp_path / "comparison.csv").exists()


def test_compare_notes_partial_results_of_an_integration_failure(tmp_path, capsys):
    ok = write_cfg(tmp_path, "ok.cfg", "strategy = none\nsteps = 100\n")
    bad = write_cfg(tmp_path, "bad.cfg", "strategy = 1\nsteps = 2\n")  # RK4 unstable
    rc = main(["compare", "--config", ok, "--config", bad, "--out", str(tmp_path)])
    assert rc == EXIT_INTEGRATION
    err = capsys.readouterr().err
    assert "integration failure: " in err
    assert "partial results: 1 of 2 scenarios completed before strategy1 failed" in err
    assert (tmp_path / "uncontrolled.csv").exists()
    assert (tmp_path / "uncontrolled.json").exists()
    assert not (tmp_path / "strategy1.csv").exists()
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize(
    "command", [["simulate"], ["compare"], ["optimize", "--strategy", "1", "--emit-plot-data"]]
)
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_output_path_that_cannot_be_created_is_a_config_error(tmp_path, capsys, command, out):
    (tmp_path / "afile").write_text("")
    argv = command + ["--steps", "10", "--out", str(tmp_path / out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot write output")
    assert (tmp_path / "afile").read_text() == ""


def test_an_output_file_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    (tmp_path / "uncontrolled.csv").mkdir()
    assert main(["simulate", "--steps", "10", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot write output")


def test_compare_checks_every_output_path_before_writing(tmp_path, capsys):
    b_out = tmp_path / "afile"
    b_out.write_text("")
    a = write_cfg(tmp_path, "a.cfg", f"strategy = none\nsteps = 10\nout = {tmp_path / 'o'}\n")
    b = write_cfg(tmp_path, "b.cfg", f"strategy = 1\nsteps = 10\nout = {b_out}\n")
    assert main(["compare", "--config", a, "--config", b]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot write output: [Errno 17] File exists: '{b_out}'\n"
    assert list((tmp_path / "o").iterdir()) == []


def test_compare_unreadable_config_path(tmp_path, capsys):
    rc = main(["compare", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"strategy = 1\xff\n")
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec")
    assert not (tmp_path / "o").exists()


def test_a_weight_whose_reciprocal_overflows_is_a_config_error(tmp_path, capsys):
    """1/nu overflows, and so would the control law's division by nu: exit 2, no output."""
    path = write_cfg(tmp_path, "tiny.cfg", "strategy = 1\nnu = 5e-324\nsteps = 10\n")
    out = tmp_path / "o"
    assert main(["optimize", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config field nu is too small")
    assert not out.exists()


@pytest.mark.parametrize(
    "weights",
    [
        "strategy = 1\nnu = 1e-308",
        "strategy = 1\nnu = 3e-308",
        "strategy = 3\nb1 = 1e-308\nb2 = 1e-308",
    ],
    ids=["nu=1e-308", "nu=3e-308", "b1=b2=1e-308"],
)
def test_a_weight_near_the_reciprocal_limit_is_solved(tmp_path, capsys, weights):
    """1/w is finite, but the control law's quotient overflows: it saturates, with no warning."""
    path = write_cfg(tmp_path, "tiny.cfg", f"{weights}\nsteps = 100\n")
    argv = ["optimize", "--cross-check", "--config", path, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_an_objective_that_overflows_is_solved_without_a_warning(tmp_path, capsys):
    """At ``kappa = 1e307`` the zero control's cost sum overflows to +inf; the sweep descends."""
    path = write_cfg(tmp_path, "huge.cfg", "strategy = 3\nkappa = 1e307\n")
    argv = ["optimize", "--cross-check", "--config", path, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    cross = json.loads((tmp_path / "o" / "strategy3.json").read_text())["cross_check"]
    assert math.isfinite(cross["objective_sweep"]) and math.isfinite(cross["objective_direct"])


def test_a_cost_that_overflows_at_every_iterate_is_not_called_a_blow_up(tmp_path, caplog):
    """-a3 R overflows to -inf at every iterate; no forward sweep blows up (exit 3)."""
    path = write_cfg(
        tmp_path,
        "overflow.cfg",
        "strategy = 2\nbeta = 1e-8\nmu = 1e-300\ns0 = 10\ni0 = 10\nr0 = 1000\nt_end = 1e6\n"
        "steps = 20\nu_max = 1e-300\na2 = 1e300\na3 = 1e300\nmax_iterations = 5\n",
    )
    with caplog.at_level(logging.WARNING, logger="sircontrol.ocp"):
        code = main(["optimize", "--config", path, "--out", str(tmp_path / "o")])
    assert code == EXIT_INTEGRATION
    messages = [r.getMessage() for r in caplog.records]
    assert "VACCINATION_WEIGHTED sweep: the trial's cost overflows at iteration 1" in messages
    assert not any("blew up" in m for m in messages)
    assert not any("did not converge" in m for m in messages)


def test_a_step_count_numpy_refuses_is_a_config_error(tmp_path, capsys):
    """10**23 nodes exceed numpy's maximum array size; nothing is allocated."""
    path = write_cfg(tmp_path, "huge.cfg", f"steps = {10**23}\n")
    out = tmp_path / "o"
    assert main(["compare", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field steps = {10**23} is too large")
    assert not out.exists()


def test_a_step_count_that_cannot_be_allocated_is_a_config_error(tmp_path, capsys, monkeypatch):
    """10**12 steps would take 8 TB: numpy raises MemoryError, here without trying."""
    linspace = np.linspace

    def refusing_linspace(start, stop, num):
        if num > 10**6:
            raise MemoryError("Unable to allocate 7.28 TiB")
        return linspace(start, stop, num)

    monkeypatch.setattr(np, "linspace", refusing_linspace)
    out = tmp_path / "o"
    assert main(["simulate", "--steps", str(10**12), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        f"config error: config field steps = {10**12} is too large: Unable to allocate 7.28 TiB\n"
    )
    assert not out.exists()


def test_compare_rejects_two_scenarios_with_one_output(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.cfg", "strategy = none\nsteps = 10\n")
    b = write_cfg(tmp_path, "b.cfg", "strategy = none\nsteps = 20\n")
    out = tmp_path / "out"
    rc = main(["compare", "--config", a, "--config", b, "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "uncontrolled" in err
    assert str(out) in err
    assert not out.exists()

    # the same label in two directories writes two sets of files
    a = write_cfg(tmp_path, "a.cfg", f"strategy = none\nsteps = 10\nout = {tmp_path / 'a'}\n")
    b = write_cfg(tmp_path, "b.cfg", f"strategy = none\nsteps = 20\nout = {tmp_path / 'b'}\n")
    assert main(["compare", "--config", a, "--config", b]) == EXIT_OK
    assert len(read_csv(tmp_path / "a" / "uncontrolled.csv")) == 1 + 11
    assert len(read_csv(tmp_path / "b" / "uncontrolled.csv")) == 1 + 21


# -- comparison table -----------------------------------------------------------------


def summary_fixture(peak, r_end, objective=None):
    return RunSummary(
        peak_infected=peak,
        t_peak=10.0,
        infection_period=50.0,
        s_end=1.0 - r_end,
        i_end=0.0,
        r_end=r_end,
        objective=objective,
    )


def read_comparison(out_dir):
    """comparison.csv as rows of fields, and the rows of comparison.json."""
    return (
        read_csv(out_dir / "comparison.csv"),
        json.loads((out_dir / "comparison.json").read_text())["rows"],
    )


def test_comparison_of_one_run_without_objective(tmp_path):
    write_comparison(tmp_path, ["only"], [summary_fixture(0.1, 0.8)])
    rows, json_rows = read_comparison(tmp_path)
    assert len(rows) == 2
    assert rows[1][0] == "only"
    assert rows[1][rows[0].index("objective")] == ""
    assert len(json_rows) == 1
    assert json_rows[0]["label"] == "only"
    assert json_rows[0]["objective"] is None


def test_comparison_json_rows_round_trip_to_summaries(tmp_path):
    summaries = [summary_fixture(0.2, 0.7, 3.5), summary_fixture(0.1, 0.9)]
    write_comparison(tmp_path, ["a", "b"], summaries)
    _, json_rows = read_comparison(tmp_path)
    assert [(row.pop("label"), RunSummary(**row)) for row in json_rows] == [
        ("a", summaries[0]),
        ("b", summaries[1]),
    ]


def test_comparison_rows_in_input_order_under_summary_header(tmp_path):
    summaries = [summary_fixture(0.2, 0.7), summary_fixture(0.1, 0.9)]
    write_comparison(tmp_path, ["y", "x"], summaries)
    rows, json_rows = read_comparison(tmp_path)
    assert rows[0] == ["label"] + [f.name for f in fields(RunSummary)]
    assert [row[0] for row in rows[1:]] == ["y", "x"]
    assert [row["label"] for row in json_rows] == ["y", "x"]
    assert [float(row[1]) for row in rows[1:]] == [0.2, 0.1]


def test_comparison_rejects_mismatched_or_empty_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_comparison(tmp_path, ["a", "b"], [summary_fixture(0.1, 0.5)])
    assert not (tmp_path / "comparison.csv").exists()
    with pytest.raises(ConfigError, match="at least one scenario"):
        cmd_compare([])


def test_output_key_order_is_pinned(tmp_path):
    """Field order of RunSummary and ScenarioConfig is the order of the outputs."""
    assert main(["simulate", "--steps", "10", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "uncontrolled.json").read_text())
    summary_keys = [
        "peak_infected", "t_peak", "infection_period", "s_end", "i_end", "r_end", "objective",
    ]
    assert list(payload) == ["label", "strategy", "summary", "config", "meta"]
    assert list(payload["summary"]) == summary_keys
    assert list(payload["config"]) == [
        "strategy", "beta", "mu", "s0", "i0", "r0", "t_end", "steps", "u_max", "nu",
        "a1", "a2", "a3", "tau", "kappa", "b1", "b2", "tol", "max_iterations",
        "relaxation", "threshold", "out",
    ]
    assert payload["config"] == asdict(ScenarioConfig(steps=10, out=str(tmp_path)))

    write_comparison(tmp_path, ["only"], [summary_fixture(0.1, 0.8)])
    header = (tmp_path / "comparison.csv").read_text().splitlines()[0]
    assert header == ",".join(["label", *summary_keys])


# -- output formatting ----------------------------------------------------------------


def per_value_csv(header, rows):
    """The CSV text of ``rows`` formatted one value at a time by ``cli._fmt``."""
    return "\n".join([header] + [",".join(cli._fmt(v) for v in row) for row in rows]) + "\n"


SPECIAL_VALUES = [-0.0, 1e-300, 100.0, 0.1, -2.5e-7, 123456789.123]


@pytest.mark.parametrize("channels", [None, 1, 2])
def test_timeseries_csv_bytes_equal_per_value_formatting(tmp_path, channels):
    grid = TimeGrid(0.0, 5.0, 5)
    values = np.array(SPECIAL_VALUES * 3).reshape(6, 3)
    traj = Trajectory(grid, values)
    control = adjoints = None
    if channels is not None:
        control = Trajectory(grid, values[:, :channels][::-1].copy())
        adjoints = Trajectory(grid, -values)
    write_timeseries_csv(tmp_path / "x.csv", traj, control, adjoints)

    u = [[None, None]] * 6 if control is None else control.values.tolist()
    lam = [[None] * 3] * 6 if adjoints is None else adjoints.values.tolist()
    rows = [
        [t, *x, *(list(uk) + [None] * (2 - len(uk))), *lk]
        for t, x, uk, lk in zip(grid.times().tolist(), values.tolist(), u, lam)
    ]
    assert (tmp_path / "x.csv").read_text() == per_value_csv(CSV_HEADER, rows)
    assert "-0," in (tmp_path / "x.csv").read_text()


def test_plot_bundle_bytes_equal_per_value_formatting(tmp_path):
    """The bundles take each run's columns as the scenario CSV writer returns them."""
    grid = TimeGrid(0.0, 5.0, 5)
    values = np.array(SPECIAL_VALUES * 3).reshape(6, 3)
    trajs = {"a": Trajectory(grid, values), "b": Trajectory(grid, values[::-1].copy())}
    runs = [
        (label, traj, write_timeseries_csv(tmp_path / f"{label}.csv", traj))
        for label, traj in trajs.items()
    ]
    assert write_plot_bundles(tmp_path, runs)
    for name, col in (("S", 0), ("I", 1), ("R", 2)):
        rows = [
            [t] + [traj.values[k, col].item() for traj in trajs.values()]
            for k, t in enumerate(grid.times().tolist())
        ]
        text = (tmp_path / f"fig_{name}_compare.csv").read_text()
        assert text == per_value_csv("t,a,b", rows)


COLUMN_VALUES = [-0.0, 5e-324, 1e-300, 1e300, 0.1234567895, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("nodes", [2, 1001])
@pytest.mark.parametrize("value", COLUMN_VALUES)
def test_a_column_is_its_values_formatted_one_at_a_time(value, nodes):
    values = np.linspace(-1.0, 1.0, nodes)
    values[nodes // 2] = value
    assert cli._column(values) == "\n".join("%.9g" % v for v in values.tolist())


def test_the_scenario_csv_writer_returns_its_s_i_r_columns_as_strings(tmp_path):
    """Each column the plot bundles keep is one string: 1001 fields in well under 64 KB."""
    cfg = ScenarioConfig(steps=1000)
    traj = integrate_forward(cfg._params, Drains(), cfg._x0, cfg.grid())
    states = write_timeseries_csv(tmp_path / "x.csv", traj)
    assert [type(column) for column in states] == [str, str, str]
    assert sum(map(sys.getsizeof, states)) < 64 * 1024
    rows = read_csv(tmp_path / "x.csv")[1:]
    assert [column.split("\n") for column in states] == [list(c) for c in zip(*rows)][1:4]


def test_compare_formats_each_column_once(tmp_path, monkeypatch):
    """One time column per grid; the bundles reuse the scenario CSVs' S, I and R columns."""
    formatted = []
    column = cli._column
    cli._time_column.cache_clear()  # an earlier run may have formatted this grid's times
    monkeypatch.setattr(cli, "_column", lambda values: formatted.append(values) or column(values))
    assert main(["compare", "--out", str(tmp_path), "--emit-plot-data", "--steps", "50"]) == EXIT_OK
    times = np.linspace(0.0, 100.0, 51)
    assert sum(np.array_equal(values, times) for values in formatted) == 1
    # t once, then per scenario S, I, R, its controls (0, 1, 1, 2) and costates (0, 3, 3, 3)
    assert len(formatted) == 1 + 4 * 3 + 4 + 9


def test_plot_bundles_are_skipped_on_different_grids(tmp_path, capsys):
    a = write_cfg(tmp_path, "a.cfg", f"strategy = none\nsteps = 10\nout = {tmp_path / 'a'}\n")
    b = write_cfg(tmp_path, "b.cfg", f"strategy = none\nsteps = 20\nout = {tmp_path / 'b'}\n")
    assert main(["compare", "--config", a, "--config", b, "--emit-plot-data"]) == EXIT_OK
    assert capsys.readouterr().err == "plot bundles skipped: scenarios use different grids\n"
    assert not list(tmp_path.glob("*/fig_*"))


def test_configs_on_one_grid_share_it():
    """Consecutive equal grids are one object: its times and stage weights are built once."""
    grid = ScenarioConfig().grid()
    assert ScenarioConfig(strategy="2").grid() is grid
    assert ScenarioConfig(steps=50).grid() == TimeGrid(0.0, grid.t_end, 50)


def test_neither_import_nor_compare_loads_package_metadata(tmp_path):
    """``import sircontrol.cli`` and a compare run leave importlib.metadata unloaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    probe = (
        "import sys, sircontrol.cli\n"
        "print('importlib.metadata' in sys.modules)\n"
        f"code = sircontrol.cli.main(['compare', '--steps', '50', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'importlib.metadata' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", f"{EXIT_OK} False")
    assert len(list(tmp_path.glob("*.json"))) == 5
    for path in tmp_path.glob("*.json"):
        assert json.loads(path.read_text())["meta"] == cli._meta(), path.name


def test_the_meta_version_is_the_package_version():
    assert cli._meta() == {"tool": "sircontrol", "version": sircontrol.__version__}


def test_the_package_version_is_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert sircontrol.__version__ == tomllib.load(fh)["project"]["version"]
