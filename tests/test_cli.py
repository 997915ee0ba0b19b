"""Command-line front end tests: config parsing, file outputs, exit codes."""

import csv
import json
import math
from dataclasses import fields

import pytest

from sircontrol.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INTEGRATION,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ConfigError,
    ScenarioConfig,
    config_from_entries,
    load_config,
    main,
    parse_config_text,
)
from sircontrol.ocp import default_spec


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
    assert cross["relative_gap"] <= 0.01
    assert cross["direct_converged"] is True
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
def test_optimize_survives_trials_that_blow_up(tmp_path, strategy, flags):
    """On 3 steps the first trials of either solver blow up; they are rejected steps."""
    argv = ["optimize", "--strategy", strategy, "--steps", "3", "--out", str(tmp_path)]
    assert main(argv + flags) in (EXIT_OK, EXIT_NO_CONVERGENCE)
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


def test_optimize_threshold_flag_changes_period(tmp_path):
    argv = ["optimize", "--strategy", "3", "--out", str(tmp_path), "--steps", "250"]
    assert main(argv) == EXIT_OK
    base = json.loads((tmp_path / "strategy3.json").read_text())
    assert main(argv + ["--threshold", "1e-6"]) == EXIT_OK
    tight = json.loads((tmp_path / "strategy3.json").read_text())
    assert tight["summary"]["infection_period"] >= base["summary"]["infection_period"]


# -- compare ------------------------------------------------------------------------


def test_compare_default_bundle(tmp_path):
    rc = main(["compare", "--out", str(tmp_path), "--emit-plot-data"])
    assert rc == EXIT_OK

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


def test_compare_unreadable_config_path(tmp_path, capsys):
    rc = main(["compare", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
