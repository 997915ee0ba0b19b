"""The three benchmark workloads and the correctness checks on their outputs.

Every workload is a closed loop in one thread: each operation starts only
after the previous one has returned.

* ``compare_default``    -- one operation is ``sircontrol compare
  --emit-plot-data`` on the four built-in scenarios, called in process
  through ``sircontrol.cli.main``.
* ``compare_crosscheck`` -- the same command with ``--cross-check``.
* ``scenario_sweep``     -- one operation is one problem of a seeded batch,
  solved by ``sircontrol.ocp.solve_fbsm`` and summarized by
  ``sircontrol.metrics.summarize_run``; one pass over the batch is one run
  of the workload.

The sircontrol modules are looked up through their module objects at call
time (``ocp.solve_fbsm``, never a ``from ... import`` copy), so the trace
wrappers in ``tracer.py`` see the benchmark's own calls too.

Every timed interval is measured with a ``calibration.Clock``, which
takes back out the time of the calibration kernel runs that fell inside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from sircontrol import cli, integrate, metrics, model, ocp

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Objectives (and the uncontrolled peak) must match the stored reference to
# this relative tolerance.
REFERENCE_RTOL = 1e-9

# The sweep pool: one problem per (strategy, grid steps, tolerance) cell,
# with model and weight parameters drawn at random.  Every pass over the
# workload solves the whole pool, in an order drawn from the run's seed, so
# each run covers the same mix of problem shapes and its largest
# cross-check gap does not depend on the seed.
POOL_SEED = 20151210
POOL_KINDS = (1, 2, 3)
POOL_STEPS = (100, 200, 400)
POOL_TOLS = (1e-3, 1e-4)
# Defaults of the strategy weights (those of sircontrol.ocp.StrategySpec);
# each drawn weight is the default scaled by a factor in [1/2, 2].
DEFAULT_WEIGHTS = {
    "nu": 0.5, "a1": 0.1, "a2": 0.5, "a3": 0.002,
    "tau": 1.0, "kappa": 1.0, "b1": 0.2, "b2": 0.04,
}

# Strategy labels the CLI writes for the four built-in scenarios.
COMPARE_LABELS = ("uncontrolled", "strategy1", "strategy2", "strategy3")
# Grid of the warm-up operation, which is neither timed nor checked against
# a reference.
WARMUP_STEPS = 100


@dataclass(frozen=True)
class SweepProblem:
    """One randomly drawn control problem of the ``scenario_sweep`` pool."""

    kind: int
    steps: int
    tol: float
    beta: float
    mu: float
    i0: float
    u_max: float
    nu: float
    a1: float
    a2: float
    a3: float
    tau: float
    kappa: float
    b1: float
    b2: float

    def spec(self) -> ocp.StrategySpec:
        return ocp.StrategySpec(
            kind=ocp.Strategy(self.kind),
            params=model.ModelParams(self.beta, self.mu),
            x0=model.EpidemicState(1.0 - self.i0, self.i0, 0.0),
            grid=integrate.TimeGrid(0.0, 100.0, self.steps),
            u_max=self.u_max,
            **{name: getattr(self, name) for name in DEFAULT_WEIGHTS},
        )


def make_pool(seed: int = POOL_SEED) -> list[SweepProblem]:
    """The sweep pool, cell by cell; the same seed gives the same pool."""
    rng = random.Random(seed)
    pool = []
    for kind, steps, tol in itertools.product(POOL_KINDS, POOL_STEPS, POOL_TOLS):
        weights = {
            name: default * math.exp(rng.uniform(-math.log(2.0), math.log(2.0)))
            for name, default in DEFAULT_WEIGHTS.items()
        }
        pool.append(
            SweepProblem(
                kind=kind,
                steps=steps,
                tol=tol,
                beta=rng.uniform(0.15, 0.35),
                mu=rng.uniform(0.07, 0.14),
                i0=rng.uniform(0.01, 0.1),
                u_max=rng.uniform(0.5, 1.0),
                **weights,
            )
        )
    return pool


def pass_order(rng: random.Random, size: int) -> list[int]:
    """Pool indices in the order one ``scenario_sweep`` pass solves them."""
    order = list(range(size))
    rng.shuffle(order)
    return order


def load_reference() -> dict:
    ref = json.loads(REFERENCE_PATH.read_text())
    pool = [SweepProblem(**p) for p in ref["sweep_pool"]["problems"]]
    if pool != make_pool():
        raise RuntimeError(f"{REFERENCE_PATH.name} does not hold the pool make_pool() draws")
    ref["sweep_pool"]["problems"] = pool
    return ref


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def csv_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every CSV file in ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class OpResult:
    """One closed-loop operation: its wall time and what its checks found."""

    wall_s: float
    failures: list[str]
    # (which solve, calibration.Interval) of each solver call the operation
    # made; the same key marks a repetition of the same solve in a later pass
    solves: list[tuple]
    # relative gaps between the sweep objective and the direct solver's
    # objective, one per optimized problem
    xcheck_gaps: list[float]
    csv_identical: bool | None = None


@contextlib.contextmanager
def timed_cli_solvers(latencies: list[tuple], clock):
    """Append (call number, interval) of each solver call the CLI makes to ``latencies``.

    Wraps ``solve_fbsm`` and ``solve_direct`` in the ``cli`` namespace, where
    the CLI looks them up, for the duration of the block.  Two clock reads
    per solve of about a second cost nothing measurable.
    """
    originals = {name: getattr(cli, name) for name in ("solve_fbsm", "solve_direct")}

    def timed(fn):
        def call(*args, **kwargs):
            start = clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                latencies.append((len(latencies), clock.since(start)))

        return call

    try:
        for name, fn in originals.items():
            setattr(cli, name, timed(fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


class CompareWorkload:
    """``sircontrol compare --emit-plot-data [--cross-check]`` on the built-in scenarios."""

    def __init__(self, name: str, reference: dict, clock, out_root: Path, cross_check: bool):
        self.name = name
        self.reference = reference
        self.clock = clock
        self.cross_check = cross_check
        self.out_dir = out_root / name

    def _argv(self, extra=()) -> list[str]:
        argv = ["compare", "--emit-plot-data", "--out", str(self.out_dir), *extra]
        return argv + ["--cross-check"] if self.cross_check else argv

    def _invoke(self, argv) -> tuple[float, list[tuple], str | None]:
        """Run the CLI once: its wall time, its solve times, and why it failed, if it did."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        sink = io.StringIO()
        solves: list[tuple] = []
        start = self.clock.now()
        error = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                    timed_cli_solvers(solves, self.clock):
                code = cli.main(argv)
        except Exception:  # a CLI run that raises is a counted failure
            error = traceback.format_exc(limit=-1)
        else:
            if code != 0:
                error = f"exit code {code}: {sink.getvalue()[-500:]}"
        return self.clock.since(start).seconds, solves, error

    def warmup(self) -> OpResult:
        wall, solves, error = self._invoke(self._argv(["--steps", str(WARMUP_STEPS)]))
        return OpResult(wall, [] if error is None else [f"warm-up: {error}"], solves, [])

    def run_once(self) -> list[OpResult]:
        wall, solves, error = self._invoke(self._argv())
        if error is not None:
            return [OpResult(wall, [error], solves, [])]
        failures, gaps = self._check()
        identical = csv_digest(self.out_dir) == self.reference["compare"]["csv_sha256"]
        return [OpResult(wall, failures, solves, gaps, identical)]

    def _check(self) -> tuple[list[str], list[float]]:
        ref = self.reference["compare"]
        failures = []
        gaps = []
        for label in COMPARE_LABELS:
            path = self.out_dir / f"{label}.json"
            if not path.is_file():
                failures.append(f"{label}.json missing")
                continue
            data = json.loads(path.read_text())
            expect = ref[label]
            if label == "uncontrolled":
                got = data["summary"]["peak_infected"]
                if relative_gap(got, expect["peak_infected"]) > REFERENCE_RTOL:
                    failures.append(f"{label} peak {got!r} != {expect['peak_infected']!r}")
                continue
            got = data["summary"]["objective"]
            if not data["convergence"]["converged"]:
                failures.append(f"{label} sweep not converged")
            if relative_gap(got, expect["objective"]) > REFERENCE_RTOL:
                failures.append(f"{label} objective {got!r} != {expect['objective']!r}")
            if self.cross_check:
                cross = data["cross_check"]
                direct = cross["objective_direct"]
                if not cross["direct_converged"]:
                    failures.append(f"{label} direct solve not converged")
                if relative_gap(direct, expect["objective_direct"]) > REFERENCE_RTOL:
                    failures.append(
                        f"{label} direct objective {direct!r} != {expect['objective_direct']!r}"
                    )
                gaps.append(cross["relative_gap"])
            else:
                gaps.append(relative_gap(got, expect["objective_direct"]))
        return failures, gaps


class SweepWorkload:
    """A seeded batch of independent problems through ``solve_fbsm`` and ``summarize_run``."""

    name = "scenario_sweep"

    def __init__(self, reference: dict, clock, seed: int):
        self.pool = reference["sweep_pool"]
        self.clock = clock
        self.rng = random.Random(seed)

    def _solve(self, problem: SweepProblem):
        spec = problem.spec()
        start = self.clock.now()
        sol = ocp.solve_fbsm(spec, tol=problem.tol)
        summary = metrics.summarize_run(sol.trajectory, objective=sol.objective)
        return self.clock.since(start), sol, summary

    def warmup(self) -> OpResult:
        failures = []
        start = time.perf_counter()
        for kind in POOL_KINDS:
            problem = SweepProblem(kind=kind, steps=WARMUP_STEPS, tol=1e-3, beta=0.2, mu=0.1,
                                   i0=0.05, u_max=0.9, **DEFAULT_WEIGHTS)
            try:
                _, sol, _ = self._solve(problem)
            except Exception:  # a solve that raises is a counted failure
                failures.append(f"warm-up strategy {kind}: {traceback.format_exc(limit=-1)}")
                continue
            if not sol.converged:
                failures.append(f"warm-up strategy {kind} not converged")
        return OpResult(time.perf_counter() - start, failures, [], [])

    def run_once(self) -> list[OpResult]:
        pool = self.pool
        results = []
        for k in pass_order(self.rng, len(pool["problems"])):
            problem, objective = pool["problems"][k], pool["objective"][k]
            objective_direct = pool["objective_direct"][k]
            start = self.clock.now()
            try:
                interval, sol, summary = self._solve(problem)
            except Exception:  # a solve that raises is a counted failure
                failure = f"{problem}: {traceback.format_exc(limit=-1)}"
                interval = self.clock.since(start)
                results.append(OpResult(interval.seconds, [failure], [(k, interval)], []))
                continue
            failures = []
            if not sol.converged:
                failures.append(f"{problem}: not converged")
            if relative_gap(sol.objective, objective) > REFERENCE_RTOL:
                failures.append(f"{problem}: objective {sol.objective!r} != {objective!r}")
            if summary.objective != sol.objective:
                failures.append(f"{problem}: summary objective {summary.objective!r}")
            gap = relative_gap(sol.objective, objective_direct)
            results.append(OpResult(interval.seconds, failures, [(k, interval)], [gap]))
        return results


def make_workload(name: str, seed: int, clock, out_root: Path):
    reference = load_reference()
    if name == "compare_default":
        return CompareWorkload(name, reference, clock, out_root, cross_check=False)
    if name == "compare_crosscheck":
        return CompareWorkload(name, reference, clock, out_root, cross_check=True)
    if name == "scenario_sweep":
        return SweepWorkload(reference, clock, seed)
    raise ValueError(f"unknown workload {name!r}")

