"""Tests of the benchmark itself: its input generator, tracer and statistics.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import contextlib
import io
import json
import random
import signal
import sys
import time

import pytest

import run
import workloads
from calibration import Clock
from sircontrol import cli, integrate, ocp
from tracer import Tracer

SMALL_STEPS = 50


def small_spec(kind):
    return ocp.default_spec(kind, steps=SMALL_STEPS)


def sircontrol_namespaces():
    """Every global of every loaded sircontrol module, by identity."""
    return {
        (name, key): id(value)
        for name, mod in sys.modules.items()
        if name == "sircontrol" or name.startswith("sircontrol.")
        for key, value in vars(mod).items()
    }


def run_small_compare(out_dir, tracer=None):
    argv = ["compare", "--emit-plot-data", "--cross-check", "--steps", str(SMALL_STEPS),
            "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.installed(), tracer.span("bench.pass"):
                code = cli.main(argv)
    assert code == 0
    return {
        label: json.loads((out_dir / f"{label}.json").read_text())["cross_check"]
        for label in ("strategy1", "strategy2", "strategy3")
    }


def test_sweep_generator_is_deterministic_for_a_seed():
    assert workloads.make_pool(7) == workloads.make_pool(7)
    assert workloads.make_pool(7) != workloads.make_pool(8)
    orders = [[workloads.pass_order(random.Random(seed), 18) for _ in range(3)] for seed in (5, 5, 6)]
    assert orders[0] == orders[1]
    assert orders[0] != orders[2]
    assert sorted(orders[0][0]) == list(range(18))


def test_sweep_pool_has_one_problem_per_cell():
    pool = workloads.make_pool()
    cells = {(p.kind, p.steps, p.tol) for p in pool}
    assert len(cells) == len(pool) == 3 * 3 * 2


def test_reference_holds_the_generated_pool():
    ref = workloads.load_reference()
    assert ref["sweep_pool"]["problems"] == workloads.make_pool()


def test_traced_and_untraced_objectives_are_bit_identical(tmp_path):
    untraced = [ocp.solve_fbsm(small_spec(k)).objective for k in (1, 2, 3)]
    untraced_cli = run_small_compare(tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = [ocp.solve_fbsm(small_spec(k)).objective for k in (1, 2, 3)]
    traced_cli = run_small_compare(tmp_path / "traced", tracer)
    assert traced == untraced
    assert traced_cli == untraced_cli
    assert tracer.layer("ocp.solve_direct")["calls"] == 3


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = sircontrol_namespaces()
    solve_fbsm, integrate_forward = ocp.solve_fbsm, integrate.integrate_forward
    tracer = Tracer()
    with tracer.installed():
        # names bound by `from ... import` are patched where they are looked up
        assert cli.solve_fbsm.__wrapped__ is solve_fbsm
        assert ocp.integrate_forward.__wrapped__ is integrate_forward
    assert sircontrol_namespaces() == before
    assert cli.solve_fbsm is solve_fbsm
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("the workload failed")
    assert sircontrol_namespaces() == before


def test_trace_sees_calls_made_through_from_imports(tmp_path):
    tracer = Tracer()
    run_small_compare(tmp_path, tracer)
    assert tracer.layer("cli.main")["calls"] == 1
    # cli and ocp call these through names bound by `from ... import`
    assert tracer.layer("ocp.solve_fbsm")["calls"] == 3
    assert tracer.layer("integrate.forward")["calls"] > 3
    assert tracer.layer("model.rates")["calls"] > 0
    assert tracer.layer("ocp.adjoint_rhs")["calls"] > 0
    assert tracer.counters["integrate.forward"]["steps"] == (
        SMALL_STEPS * tracer.layer("integrate.forward")["calls"]
    )


def test_self_times_are_non_negative_and_within_the_parent(tmp_path):
    tracer = Tracer()
    run_small_compare(tmp_path, tracer)
    children = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    for s in tracer.spans:
        assert s.self_s >= 0.0, s
        assert sum(c.duration for c in children.get(s.id, [])) <= s.duration
    (root,) = children[None]
    leaf_busy = sum(busy for _, busy in tracer.leaves.values())
    assert sum(s.self_s for s in tracer.spans) + leaf_busy <= root.duration + 1e-9


def test_a_function_that_is_gone_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(ocp, "solve_direct")
    tracer = Tracer()
    with tracer.installed():
        ocp.solve_fbsm(small_spec(1))
    assert tracer.layer("ocp.solve_direct") == {"calls": 0, "busy_s": 0, "self_s": 0, "errors": 0}
    assert tracer.layer("ocp.objective_gradient")["calls"] == 0


@pytest.mark.parametrize("workload", ["compare_default", "scenario_sweep"])
def test_a_run_in_which_every_operation_fails_reports_them(workload, monkeypatch, capsys):
    def failing_cli(argv):
        return 4  # the CLI's exit code for a solve that did not converge

    def failing_solve(*args, **kwargs):
        raise integrate.IntegrationError("blow-up")

    monkeypatch.setattr(cli, "main", failing_cli)
    monkeypatch.setattr(ocp, "solve_fbsm", failing_solve)
    monkeypatch.setattr(run, "time_setup", lambda times, clock: times.append(0.25))
    args, spec = run.parse_args(["--workload", workload, "--seconds", "0.01"])
    assert run.run_one(args, spec) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "xcheck_gap_max" not in result["metrics"]
    assert result["metrics"]["wall_s"]["value"] > 0


def test_calibration_kernel_time_is_taken_out_of_timed_intervals():
    clock = Clock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock.sampling():
        start = clock.now()
        wall_start = time.perf_counter()
        while time.perf_counter() - wall_start < 0.6:
            pass
        measured = clock.since(start)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert measured.end - measured.first == len(clock.marks) >= 2
    assert measured.seconds == pytest.approx(
        time.perf_counter() - wall_start - sum(clock.marks), abs=1e-3)
    assert clock.factor(measured.first, measured.end) > 0


def test_tail_latency_keeps_ten_samples_beyond_it():
    value, label = run.tail_latency([float(k) for k in range(40)])
    assert value == 29.0
    assert label == "p75.0 of 40"
    assert run.tail_latency([3.0, 1.0, 2.0])[0] == 3.0
