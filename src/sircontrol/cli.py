"""Command-line front end: simulate, optimize, and compare scenarios.

Scenario configuration is a flat text file, one ``key = value`` per line with
``#`` comments.  Missing keys fall back to the package defaults; unknown keys
are rejected.  Command-line flags override config-file values.

Output files are deterministic: the same configuration produces byte-identical
CSV, and run metadata lives only in the JSON summaries under a ``meta`` key.

CSV schema (one row per grid node, 9 significant digits):
    t,S,I,R,u1,u2,lam_S,lam_I,lam_R
Channels a run does not have are left as empty fields.

Exit codes: 0 success, 2 configuration error (an output path that cannot be
created or written included), 3 integration failure, 4 solver
non-convergence (output files are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

from .integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from .metrics import DEFAULT_PERIOD_THRESHOLD, RunSummary, _check_threshold, summarize_run
from .model import Drains, EpidemicState, ModelParams
from .ocp import (
    DEFAULT_PARAMS,
    DEFAULT_STEPS,
    DEFAULT_T_END,
    DEFAULT_X0,
    _WEIGHT_FIELDS,
    _check_settings,
    _check_weights,
    OcpSolution,
    Strategy,
    StrategySpec,
    solve_direct,
    solve_fbsm,
)

__all__ = ["ScenarioConfig", "ConfigError", "cmd_compare", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_NO_CONVERGENCE = 4

CSV_HEADER = "t,S,I,R,u1,u2,lam_S,lam_I,lam_R"

_STRATEGY_CHOICES = ("none", "1", "2", "3")


class ConfigError(ValueError):
    """Invalid scenario configuration (maps to exit code 2)."""


# consecutive configs on one grid share it, with its node times and stage weights
_shared_grid = functools.lru_cache(maxsize=1)(TimeGrid)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: model, strategy weights, grid, solver settings, outputs.

    Defaults are those of :class:`StrategySpec` and :func:`solve_fbsm`.
    """

    strategy: str = "none"
    beta: float = DEFAULT_PARAMS.beta
    mu: float = DEFAULT_PARAMS.mu
    s0: float = DEFAULT_X0.s
    i0: float = DEFAULT_X0.i
    r0: float = DEFAULT_X0.r
    t_end: float = DEFAULT_T_END
    steps: int = DEFAULT_STEPS
    u_max: float = StrategySpec.u_max
    nu: float = StrategySpec.nu
    a1: float = StrategySpec.a1
    a2: float = StrategySpec.a2
    a3: float = StrategySpec.a3
    tau: float = StrategySpec.tau
    kappa: float = StrategySpec.kappa
    b1: float = StrategySpec.b1
    b2: float = StrategySpec.b2
    tol: float = solve_fbsm.__kwdefaults__["tol"]
    max_iterations: int = solve_fbsm.__kwdefaults__["max_iterations"]
    relaxation: float = solve_fbsm.__kwdefaults__["relaxation"]
    threshold: float = DEFAULT_PERIOD_THRESHOLD
    out: str = "."

    def __post_init__(self):
        if self.strategy not in _STRATEGY_CHOICES:
            raise ConfigError(
                f"config field strategy must be one of {', '.join(_STRATEGY_CHOICES)}, "
                f"got {self.strategy!r}"
            )
        named = "field "
        try:  # each rule from its one owner, once, so that a bad value fails before any output
            object.__setattr__(self, "_grid", _shared_grid(0.0, self.t_end, self.steps))
            object.__setattr__(self, "_params", ModelParams(self.beta, self.mu))
            _check_weights(self, self._grid.dt)
            _check_settings(self.max_iterations, self.tol, self.relaxation)
            _check_threshold(self.threshold)
            named = "fields s0, i0, r0: "  # the state's rules bind all three
            object.__setattr__(self, "_x0", EpidemicState(self.s0, self.i0, self.r0))
        except ValueError as e:
            raise ConfigError(f"config {named}{e}") from None

    @property
    def label(self) -> str:
        return "uncontrolled" if self.strategy == "none" else f"strategy{self.strategy}"

    def grid(self) -> TimeGrid:
        return self._grid

    def spec(self) -> StrategySpec:
        """The control problem of strategy 1, 2 or 3."""
        return StrategySpec(
            kind=Strategy(int(self.strategy)),
            params=self._params,
            x0=self._x0,
            grid=self.grid(),
            u_max=self.u_max,
            **{name: getattr(self, name) for name in _WEIGHT_FIELDS},
        )


# -- config file parsing -----------------------------------------------------

# a config value is parsed by the type of its ScenarioConfig field
_PARSERS = {"str": str, "int": int, "float": float}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines with # comments into a raw string mapping."""
    entries: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"config line {ln}: empty key or value in {raw.strip()!r}")
        if key in entries:
            raise ConfigError(f"config line {ln}: duplicate key {key!r}")
        entries[key] = value
    return entries


def config_from_entries(entries: dict[str, str]) -> ScenarioConfig:
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    converted: dict = {}
    for key, value in entries.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            converted[key] = _PARSERS[types[key]](value)
        except ValueError:
            kind = "an integer" if types[key] == "int" else "a number"
            raise ConfigError(f"config field {key} must be {kind}, got {value!r}") from None
    return ScenarioConfig(**converted)


def load_config(path: str | None, overrides: dict) -> ScenarioConfig:
    """Config file (or pure defaults) with command-line overrides applied."""
    if path is None:
        cfg = ScenarioConfig()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        cfg = config_from_entries(parse_config_text(text))
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **overrides) if overrides else cfg


# -- output writers ----------------------------------------------------------


@contextlib.contextmanager
def _output_errors():
    """Report an output path that cannot be created or written as a configuration error."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}") from None


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.9g}"


def _column(values) -> list[str]:
    """A node array as CSV fields; ``"%.9g" % v`` is the formatting ``_fmt`` does."""
    return ["%.9g" % v for v in values.tolist()]


def _write_columns(path: Path, header: str, columns: list[list[str]]) -> None:
    path.write_text("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


@functools.lru_cache(maxsize=1)
def _time_column(grid: TimeGrid) -> tuple[str, ...]:
    """The grid's node times as CSV fields, formatted once for consecutive runs on it."""
    return tuple(_column(grid.times()))


def write_timeseries_csv(
    path: Path,
    traj: Trajectory,
    control: Trajectory | None = None,
    adjoints: Trajectory | None = None,
) -> list[list[str]]:
    """Write one run's CSV; return its S, I, R columns, each as its list of fields."""
    absent = [""] * traj.grid.n_nodes
    states = [_column(x) for x in traj.values.T]
    controls = [] if control is None else [_column(u) for u in control.values.T]
    columns = [
        _time_column(traj.grid),
        *states,
        *controls,
        *[absent] * (2 - len(controls)),
        *([absent] * 3 if adjoints is None else (_column(lam) for lam in adjoints.values.T)),
    ]
    _write_columns(path, CSV_HEADER, columns)
    return states


@functools.cache
def _version() -> str:
    """The installed package version, looked up once per process."""
    # deferred: only the JSON summaries need it, and it slows `import sircontrol.cli`
    from importlib import metadata

    try:
        return metadata.version("sircontrol")
    except metadata.PackageNotFoundError:
        return "unknown"


def _meta() -> dict:
    return {"tool": "sircontrol", "version": _version()}


def write_summary_json(
    path: Path,
    cfg: ScenarioConfig,
    summary: RunSummary,
    convergence: dict | None = None,
    cross_check: dict | None = None,
) -> None:
    payload: dict = {"label": cfg.label, "strategy": cfg.strategy, "summary": asdict(summary)}
    if convergence is not None:
        payload["convergence"] = convergence
    if cross_check is not None:
        payload["cross_check"] = cross_check
    payload["config"] = asdict(cfg)
    payload["meta"] = _meta()
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def write_comparison(out_dir: Path, labels: list[str], summaries: list[RunSummary]) -> None:
    """One row per run, in input order: its label, then every RunSummary field."""
    columns = ["label", *(f.name for f in fields(RunSummary))]
    rows = [(label, *astuple(s)) for label, s in zip(labels, summaries, strict=True)]
    lines = [",".join(columns), *(",".join([row[0], *map(_fmt, row[1:])]) for row in rows)]
    (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")

    payload = {"rows": [dict(zip(columns, row)) for row in rows], "meta": _meta()}
    (out_dir / "comparison.json").write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def write_plot_bundles(out_dir: Path, runs: list[tuple[str, Trajectory, list[list[str]]]]) -> bool:
    """Side-by-side S/I/R series (fig_S_compare.csv etc.); one column per run.

    Each run is its label, trajectory and S, I, R field lists as
    :func:`write_timeseries_csv` returns them, which are written as they are.
    Requires all runs on a common grid; returns False (and writes nothing) otherwise.
    """
    grids = {traj.grid for _, traj, _ in runs}
    if len(grids) != 1:
        return False
    header = ",".join(["t"] + [label for label, _, _ in runs])
    times = _time_column(grids.pop())
    for col, name in enumerate("SIR"):
        columns = [times] + [states[col] for _, _, states in runs]
        _write_columns(out_dir / f"fig_{name}_compare.csv", header, columns)
    return True


# -- commands ----------------------------------------------------------------


def _print_summary(label: str, summary: RunSummary, sol: OcpSolution | None = None) -> None:
    line = (
        f"{label}: peak I = {summary.peak_infected:.4g} at t = {summary.t_peak:.4g}, "
        f"infection period = {summary.infection_period:.4g}, "
        f"end S/I/R = {summary.s_end:.4g}/{summary.i_end:.4g}/{summary.r_end:.4g}"
    )
    if sol is not None:
        line += (
            f", objective = {sol.objective:.6g}"
            f" ({'converged' if sol.converged else 'NOT converged'}"
            f" in {sol.iterations} iterations)"
        )
    print(line)


def _run_scenario(
    cfg: ScenarioConfig, cross_check: bool
) -> tuple[int, Trajectory, RunSummary, list[list[str]]]:
    """Run one scenario, write its CSV and JSON summary, and print its summary line.

    Returns the exit code, trajectory, summary and CSV field lists S, I, R.
    Strategy none is the uncontrolled run, which raises :class:`IntegrationError`
    if the sweep blows up; strategies 1-3 are solved by the sweep
    and, with ``cross_check``, also by direct transcription.
    """
    out_dir = Path(cfg.out)
    with _output_errors():
        out_dir.mkdir(parents=True, exist_ok=True)

    sol = control = adjoints = convergence = cross = None
    if cfg.strategy == "none":
        traj = integrate_forward(cfg._params, Drains(), cfg._x0, cfg.grid())
        summary = summarize_run(traj, cfg.threshold)
        code = EXIT_OK
    else:
        spec = cfg.spec()
        sol = solve_fbsm(
            spec, tol=cfg.tol, max_iterations=cfg.max_iterations, relaxation=cfg.relaxation
        )
        traj, control, adjoints = sol.trajectory, sol.control, sol.adjoints
        summary = summarize_run(traj, cfg.threshold, objective=sol.objective)
        convergence = {
            "converged": sol.converged,
            "iterations": sol.iterations,
            "objective": sol.objective,
        }
        converged = sol.converged
        if cross_check:
            direct = solve_direct(spec, start=sol, max_iterations=cfg.max_iterations)
            gap = abs(sol.objective - direct.objective) / max(abs(direct.objective), 1e-12)
            cross = {
                "objective_sweep": sol.objective,
                "objective_direct": direct.objective,
                "relative_gap": gap,
                "direct_converged": direct.converged,
                "direct_iterations": direct.iterations,
            }
            converged = converged and direct.converged
            print(
                f"cross-check: sweep objective {sol.objective:.6g} vs "
                f"direct {direct.objective:.6g} (relative gap {gap:.2e})"
            )
        code = EXIT_OK if converged else EXIT_NO_CONVERGENCE

    with _output_errors():
        states = write_timeseries_csv(out_dir / f"{cfg.label}.csv", traj, control, adjoints)
        write_summary_json(out_dir / f"{cfg.label}.json", cfg, summary, convergence, cross)
    _print_summary(cfg.label, summary, sol)
    return code, traj, summary, states


def cmd_compare(
    cfgs: list[ScenarioConfig], cross_check: bool = False, emit_plot_data: bool = False
) -> int:
    """Run every scenario, then write a combined comparison table."""
    if not cfgs:
        raise ConfigError("compare needs at least one scenario")
    targets = [Path(cfg.out).resolve() / cfg.label for cfg in cfgs]
    for k, cfg in enumerate(cfgs):
        if targets[k] in targets[:k]:
            raise ConfigError(
                f"two scenarios would write {cfg.label}.csv and {cfg.label}.json in {cfg.out}"
            )
    out_dir = Path(cfgs[0].out)
    with _output_errors():  # every output directory, before the first solve writes
        for cfg in cfgs:
            Path(cfg.out).mkdir(parents=True, exist_ok=True)

    runs: list[tuple[str, Trajectory, list[list[str]]]] = []
    summaries: list[RunSummary] = []
    for k, cfg in enumerate(cfgs):
        try:
            code, traj, summary, states = _run_scenario(cfg, cross_check)
        except IntegrationError as e:
            code = _integration_failure(e)
        if code != EXIT_OK:
            print(
                f"partial results: {k} of {len(cfgs)} scenarios completed before "
                f"{cfg.label} failed with exit code {code}",
                file=sys.stderr,
            )
            return code
        runs.append((cfg.label, traj, states))
        summaries.append(summary)

    with _output_errors():
        write_comparison(out_dir, [label for label, _, _ in runs], summaries)
        if emit_plot_data and not write_plot_bundles(out_dir, runs):
            print("plot bundles skipped: scenarios use different grids", file=sys.stderr)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser, multi_config: bool) -> None:
    if multi_config:
        p.add_argument(
            "--config",
            action="append",
            metavar="PATH",
            help="scenario config file; repeat for several scenarios "
            "(default: the four built-in scenarios)",
        )
    else:
        p.add_argument("--config", metavar="PATH", help="scenario config file")
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES, help="override the strategy")
    p.add_argument("--out", metavar="DIR", help="output directory (default: current directory)")
    p.add_argument("--threshold", type=float, help="infected fraction ending the infection period")
    p.add_argument("--steps", type=int, help="number of grid steps")
    p.add_argument("--emit-plot-data", action="store_true", help="write fig_*_compare.csv bundles")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sircontrol",
        description="Simulate an SIR epidemic and solve its optimal-control strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the model without control")
    _add_common_flags(p_sim, multi_config=False)

    p_opt = sub.add_parser("optimize", help="solve one control strategy")
    _add_common_flags(p_opt, multi_config=False)
    p_opt.add_argument(
        "--cross-check",
        action="store_true",
        help="also solve by direct transcription and report the objective gap",
    )

    p_cmp = sub.add_parser("compare", help="run several scenarios and tabulate them")
    _add_common_flags(p_cmp, multi_config=True)
    p_cmp.add_argument(
        "--cross-check", action="store_true", help="cross-check every optimized scenario"
    )
    return parser


def _integration_failure(error: IntegrationError) -> int:
    print(f"integration failure: {error}", file=sys.stderr)
    return EXIT_INTEGRATION


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "strategy": args.strategy,
        "out": args.out,
        "threshold": args.threshold,
        "steps": args.steps,
    }
    try:
        if args.command == "compare":
            # explicit configs, or the four built-in scenarios
            if args.config:
                cfgs = [load_config(path, overrides) for path in args.config]
            else:
                cfgs = [load_config(None, {**overrides, "strategy": s}) for s in _STRATEGY_CHOICES]
            return cmd_compare(cfgs, args.cross_check, args.emit_plot_data)

        cfg = load_config(args.config, overrides)
        if args.command == "simulate" and cfg.strategy != "none":
            raise ConfigError(f"simulate requires strategy = none, got {cfg.strategy!r}")
        if args.command == "optimize" and cfg.strategy == "none":
            raise ConfigError("an optimization scenario requires strategy 1, 2, or 3")
        code, traj, _, states = _run_scenario(cfg, getattr(args, "cross_check", False))
        if args.emit_plot_data:
            with _output_errors():
                write_plot_bundles(Path(cfg.out), [(cfg.label, traj, states)])
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as e:
        return _integration_failure(e)


if __name__ == "__main__":
    sys.exit(main())
