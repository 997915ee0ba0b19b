"""Benchmark of the sircontrol toolkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compare_default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35      # every workload, one table

One run imports sircontrol from ``src/`` of the checkout and measures one
workload (see workloads.py) for ``--seconds`` seconds, in one thread, as a
closed loop.  ``--trace 0`` measures the end-to-end metrics with tracing
off, each time scaled to a reference host speed (see calibration.py);
``--trace 1`` makes traced passes of the workload and reports the
per-layer metrics (see tracer.py).  The metric names and units
are those of BENCHMARK.json at the checkout root; METRICS.md says what each
one means and which layer metric should move which end-to-end metric.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run in which an operation failed exits with code 1, and
leaves out any metric that no operation produced.  Without
``src/sircontrol`` the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import Clock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("compare_default", "compare_crosscheck", "scenario_sweep")
# fresh interpreters timed for setup_s, at the start and again at the end
# of a run; the median of all of them is reported.  Process start-up speed
# drifts on a shared host more than the calibration kernel follows, so
# many are timed.
SETUP_REPEATS = 10
SETUP_COMMAND = "import sircontrol.cli"


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv), spec


def use_checkout_source():
    """Import sircontrol from this checkout's src/, or exit with code 1."""
    if not (SRC / "sircontrol" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sircontrol package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sircontrol

    if Path(sircontrol.__file__).resolve().parent != (SRC / "sircontrol").resolve():
        sys.exit(f"perfbench: sircontrol was imported from {sircontrol.__file__}, not {SRC}")


def time_setup(times: list[float], clock: Clock) -> None:
    """Time SETUP_REPEATS fresh interpreters running ``import sircontrol.cli``.

    Each time is scaled to the reference host speed by kernel marks taken
    before the batch and after each interpreter.
    """
    cmd = [sys.executable, "-c", SETUP_COMMAND]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if not times:
        # the first run writes the bytecode caches every later run reads
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
    first = clock.mark()
    raw = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        raw.append(time.perf_counter() - start)
        clock.mark()
    times.extend(t * clock.factor(first, len(clock.marks)) for t in raw)


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label.

    Below 21 samples that percentile is at or under the median, so the
    maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n} (fewer than 21 samples)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


class Run:
    """Closed-loop passes over one workload, with their outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gaps: list[float] = []
        self.csv_identical: list[bool] = []

    def record(self, results) -> float:
        """Count one pass's operations; return the pass's wall time."""
        for r in results:
            self.attempted += 1
            self.failed += bool(r.failures)
            self.failures.extend(r.failures)
            self.gaps.extend(r.xcheck_gaps)
            if r.csv_identical is not None:
                self.csv_identical.append(r.csv_identical)
        return sum(r.wall_s for r in results)

    def warmup(self) -> None:
        self.record([self.workload.warmup()])


def closed_loop(seconds: float, step) -> None:
    """Call ``step()`` until the next call would end after ``seconds``.

    At least one call is made; the last call's duration predicts the next.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break


def run_untraced(run: Run, seconds: float, clock: Clock) -> dict:
    """End-to-end metrics of the closed loop: medians over the run's repetitions.

    Every time is scaled to the reference host speed (see calibration.py)
    by the kernel runs inside it.  ``wall_s`` is the median
    pass.  Each distinct solve's latency is the median of its repetitions;
    ``solve_s_p50`` and ``solve_s_tail`` are taken across distinct solves,
    so their percentiles do not shift with the number of passes that fit
    in the run.  A metric that no operation produced (every one failed) is
    left out.
    """
    passes: list[tuple] = []  # (raw wall time, its kernel runs first to end - 1)
    solves: list[tuple] = []  # (which solve, calibration.Interval)

    def one_pass():
        first = len(clock.marks)
        results = run.workload.run_once()
        clock.mark()  # at least one kernel run in every pass
        passes.append((run.record(results), first, len(clock.marks)))
        solves.extend(solve for r in results for solve in r.solves)

    with clock.sampling():
        closed_loop(seconds, one_pass)
    raw_walls = [wall for wall, _, _ in passes]
    walls = [wall * clock.factor(first, end) for wall, first, end in passes]
    repetitions: dict = {}
    for key, solve in solves:
        repetitions.setdefault(key, []).append(solve.seconds * clock.factor(solve.first, solve.end))
    print(f"pass wall times (s): {' '.join(f'{w:.3f}' for w in raw_walls)}")
    print(f"host speed (1 = reference): {clock.speed():.3f}; "
          f"scaled pass times (s): {' '.join(f'{w:.3f}' for w in walls)}")
    values = {"wall_s": statistics.median(walls)}
    latencies = [statistics.median(v) for v in repetitions.values()]
    if latencies:
        tail, tail_label = tail_latency(latencies)
        print(f"distinct solves: {len(latencies)}; solve_s_tail is the {tail_label}")
        values["solve_s_p50"] = statistics.median(latencies)
        values["solve_s_tail"] = tail
    if run.gaps:
        values["xcheck_gap_max"] = max(run.gaps)
    return values


def run_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics of traced passes, per pass."""
    tracer = Tracer()

    def one_pass():
        with tracer.installed(), tracer.span("bench.pass"):
            results = run.workload.run_once()
        run.record(results)

    closed_loop(seconds, one_pass)
    passes = tracer.layer("bench.pass")["calls"]
    print(f"traced passes: {passes}")
    return layer_metrics(tracer, passes, all(run.csv_identical))


def layer_metrics(tracer, passes: int, csv_identical: bool) -> dict:
    """Per-layer metrics, per pass over the workload."""
    out = {}

    def per_pass(value):
        return value / passes

    for name in ("integrate.forward", "integrate.backward"):
        layer = tracer.layer(name)
        steps = tracer.counters[name]["steps"]
        out[f"{name}.calls"] = per_pass(layer["calls"])
        out[f"{name}.busy_s"] = per_pass(layer["busy_s"])
        out[f"{name}.self_s"] = per_pass(layer["self_s"])
        out[f"{name}.us_per_step"] = 1e6 * layer["busy_s"] / steps if steps else 0.0
    for name in ("model.rates", "ocp.adjoint_rhs", "ocp.objective", "metrics.summarize_run"):
        layer = tracer.layer(name)
        out[f"{name}.calls"] = per_pass(layer["calls"])
        out[f"{name}.busy_s"] = per_pass(layer["busy_s"])
    layer = tracer.layer("ocp.objective_gradient")
    for key in ("calls", "busy_s", "self_s"):
        out[f"ocp.objective_gradient.{key}"] = per_pass(layer[key])
    for name, child, ratio in (
        ("ocp.solve_fbsm", "integrate.forward", "forward_per_iteration"),
        ("ocp.solve_direct", "ocp.objective_gradient", "gradient_per_iteration"),
    ):
        layer = tracer.layer(name)
        iterations = tracer.counters[name]["iterations"]
        for key in ("calls", "busy_s", "self_s"):
            out[f"{name}.{key}"] = per_pass(layer[key])
        out[f"{name}.iterations"] = per_pass(iterations)
        out[f"{name}.{ratio}"] = tracer.child_calls(child, name) / iterations if iterations else 0.0
        out[f"{name}.not_converged"] = per_pass(tracer.counters[name]["not_converged"])
    out["integrate.errors"] = per_pass(
        tracer.layer("integrate.forward")["errors"] + tracer.layer("integrate.backward")["errors"]
    )
    writer = tracer.layer("cli.write_timeseries_csv")
    out["cli.write_timeseries_csv.calls"] = per_pass(writer["calls"])
    out["cli.write_timeseries_csv.busy_s"] = per_pass(writer["busy_s"])
    out["cli.write_timeseries_csv.bytes"] = per_pass(tracer.counters["cli.write_timeseries_csv"]["bytes"])
    for name in ("cli.write_summary_json", "cli.write_comparison", "cli.write_plot_bundles"):
        out[f"{name}.busy_s"] = per_pass(tracer.layer(name)["busy_s"])
    out["cli.csv_identical"] = float(csv_identical)
    out["trace.overhead_s"] = per_pass(tracer.overhead_s())
    return out


def run_one(args, spec) -> int:
    use_checkout_source()
    import workloads

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        clock = Clock()
        setup_times: list[float] = []
        if not args.trace:
            time_setup(setup_times, clock)
        run = Run(workloads.make_workload(args.workload, args.seed, clock, out_root))
        run.warmup()
        if args.trace:
            values = run_traced(run, args.seconds)
        else:
            values = run_untraced(run, args.seconds, clock)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            time_setup(setup_times, clock)
            values["setup_s"] = statistics.median(setup_times)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not run.failed:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"operations attempted {run.attempted}, failed {run.failed}, "
          f"failed_frac {run.failed / run.attempted:.6g}")
    if run.csv_identical:
        print(f"cli.csv_identical: {all(run.csv_identical)} over {len(run.csv_identical)} compare runs")
    for failure in run.failures[:10]:
        print(f"FAILED: {failure}")
    if missing:
        print(f"not measured, because every operation that would give them failed: {missing}")
    measured = [m for m in wanted if m["name"] in values]
    for m in measured:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in measured},
    }))
    return 1 if run.failed else 0


def run_all(args, spec) -> int:
    """Every workload in its own interpreter; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        # exit code 1 with a result line is a run with failed operations
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            raise RuntimeError(f"{name} run printed no result (exit code {proc.returncode}):\n"
                               f"{proc.stderr[-2000:]}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def cell(metrics, name):
        return f" {metrics[name]['value']:>19.6g}" if name in metrics else f" {'-':>19}"

    print(f"{'metric':<44} {'unit':<8}" + "".join(f" {n:>19}" for n in WORKLOAD_NAMES))
    for m in wanted:
        row = "".join(cell(results[n]["metrics"], m["name"]) for n in WORKLOAD_NAMES)
        print(f"{m['name']:<44} {m['unit']:<8}{row}")
    for n in WORKLOAD_NAMES:
        r = results[n]
        print(f"{n}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
