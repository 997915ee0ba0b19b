"""Command-line front end: simulate, optimize, and compare scenarios.

Scenario configuration is a flat text file, one ``key = value`` per line with
``#`` comments.  Missing keys fall back to the package defaults; unknown keys
are rejected.  Command-line flags override config-file values.

Output files are deterministic: the same configuration produces byte-identical
CSV, and run metadata lives only in the JSON summaries under a ``meta`` key.

CSV schema (one row per grid node, 9 significant digits):
    t,S,I,R,u1,u2,lam_S,lam_I,lam_R
Channels a run does not have are left as empty fields.

Exit codes: 0 success, 2 configuration error, 3 integration failure,
4 solver non-convergence (output files are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from importlib import metadata
from pathlib import Path

from .integrate import IntegrationError, TimeGrid, Trajectory, integrate_forward
from .metrics import DEFAULT_PERIOD_THRESHOLD, RunSummary, compare_strategies, summarize_run
from .model import EpidemicState, ModelParams
from .ocp import (
    DEFAULT_PARAMS,
    DEFAULT_STEPS,
    DEFAULT_T_END,
    DEFAULT_X0,
    _WEIGHT_FIELDS,
    _admissible,
    ControlSignal,
    OcpSolution,
    Strategy,
    StrategySpec,
    solve_direct,
    solve_fbsm,
    uncontrolled_field,
)

__all__ = ["ScenarioConfig", "ConfigError", "cmd_simulate", "cmd_optimize", "cmd_compare", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_NO_CONVERGENCE = 4

CSV_HEADER = "t,S,I,R,u1,u2,lam_S,lam_I,lam_R"

_STRATEGY_CHOICES = ("none", "1", "2", "3")


class ConfigError(ValueError):
    """Invalid scenario configuration (maps to exit code 2)."""


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"config field {f.name} must be finite, got {value}")
        if self.strategy not in _STRATEGY_CHOICES:
            raise ConfigError(
                f"config field strategy must be one of {', '.join(_STRATEGY_CHOICES)}, "
                f"got {self.strategy!r}"
            )
        for name in ("beta", "mu", "t_end", "u_max") + _WEIGHT_FIELDS + ("tol", "threshold"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigError(f"config field {name} must be positive, got {v}")
        for name in ("s0", "i0", "r0"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"config field {name} must be non-negative, got {getattr(self, name)}"
                )
        if self.s0 + self.i0 + self.r0 <= 0:
            raise ConfigError("config fields s0 + i0 + r0 must sum to a positive population")
        if self.steps < 1:
            raise ConfigError(f"config field steps must be >= 1, got {self.steps}")
        if self.max_iterations < 1:
            raise ConfigError(
                f"config field max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0.0 < self.relaxation <= 1.0:
            raise ConfigError(
                f"config field relaxation must be in (0, 1], got {self.relaxation}"
            )

    @property
    def label(self) -> str:
        return "uncontrolled" if self.strategy == "none" else f"strategy{self.strategy}"

    def grid(self) -> TimeGrid:
        return TimeGrid(0.0, self.t_end, self.steps)

    def params(self) -> ModelParams:
        return ModelParams(self.beta, self.mu, self.s0 + self.i0 + self.r0)

    def x0(self) -> EpidemicState:
        return EpidemicState(self.s0, self.i0, self.r0)

    def spec(self) -> StrategySpec:
        if self.strategy == "none":
            raise ConfigError("an optimization scenario requires strategy 1, 2, or 3")
        return StrategySpec(
            kind=Strategy(int(self.strategy)),
            params=self.params(),
            x0=self.x0(),
            grid=self.grid(),
            u_max=self.u_max,
            **{name: getattr(self, name) for name in _WEIGHT_FIELDS},
        )

    def resolved(self) -> dict:
        """Full configuration with defaults applied, for the JSON summaries."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# -- config file parsing -----------------------------------------------------

_INT_FIELDS = {"steps", "max_iterations"}
_STR_FIELDS = {"strategy", "out"}


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
    known = {f.name for f in fields(ScenarioConfig)}
    converted: dict = {}
    for key, value in entries.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _STR_FIELDS:
            converted[key] = value
        elif key in _INT_FIELDS:
            try:
                converted[key] = int(value)
            except ValueError:
                raise ConfigError(f"config field {key} must be an integer, got {value!r}") from None
        else:
            try:
                converted[key] = float(value)
            except ValueError:
                raise ConfigError(f"config field {key} must be a number, got {value!r}") from None
    return ScenarioConfig(**converted)


def load_config(path: str | None, overrides: dict) -> ScenarioConfig:
    """Config file (or pure defaults) with command-line overrides applied."""
    if path is None:
        cfg = ScenarioConfig()
    else:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        cfg = config_from_entries(parse_config_text(text))
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **overrides) if overrides else cfg


# -- output writers ----------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.9g}"


def write_timeseries_csv(
    path: Path,
    traj: Trajectory,
    control: ControlSignal | None = None,
    adjoints: Trajectory | None = None,
) -> None:
    times = traj.grid.times()
    u1 = u2 = None
    if control is not None:
        u1 = control.values[:, 0]
        if control.channels == 2:
            u2 = control.values[:, 1]
    lines = [CSV_HEADER]
    for k in range(traj.grid.n_nodes):
        row = [
            times[k],
            traj.values[k, 0],
            traj.values[k, 1],
            traj.values[k, 2],
            None if u1 is None else u1[k],
            None if u2 is None else u2[k],
            None if adjoints is None else adjoints.values[k, 0],
            None if adjoints is None else adjoints.values[k, 1],
            None if adjoints is None else adjoints.values[k, 2],
        ]
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _meta() -> dict:
    try:
        version = metadata.version("sircontrol")
    except metadata.PackageNotFoundError:
        version = "unknown"
    return {"tool": "sircontrol", "version": version}


def write_summary_json(
    path: Path,
    label: str,
    cfg: ScenarioConfig,
    summary: RunSummary,
    convergence: dict | None = None,
    cross_check: dict | None = None,
) -> None:
    payload: dict = {
        "label": label,
        "strategy": cfg.strategy,
        "summary": {
            "peak_infected": summary.peak_infected,
            "t_peak": summary.t_peak,
            "infection_period": summary.infection_period,
            "s_end": summary.s_end,
            "i_end": summary.i_end,
            "r_end": summary.r_end,
            "objective": summary.objective,
        },
    }
    if convergence is not None:
        payload["convergence"] = convergence
    if cross_check is not None:
        payload["cross_check"] = cross_check
    payload["config"] = cfg.resolved()
    payload["meta"] = _meta()
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def write_comparison(out_dir: Path, labels: list[str], summaries: list[RunSummary]) -> None:
    table = compare_strategies(summaries, labels)
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(row[0] + "," + ",".join(_fmt(v) for v in row[1:]))
    (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")

    rows = [dict(zip(table.columns, row)) for row in table.rows]
    payload = {"rows": rows, "meta": _meta()}
    (out_dir / "comparison.json").write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def write_plot_bundles(out_dir: Path, runs: list[tuple[str, Trajectory]]) -> bool:
    """Side-by-side S/I/R series (fig_S_compare.csv etc.); one column per run.

    Requires all runs on a common grid; returns False (and writes nothing)
    otherwise.
    """
    grids = {traj.grid for _, traj in runs}
    if len(grids) != 1:
        return False
    times = runs[0][1].grid.times()
    labels = [label for label, _ in runs]
    for name, col in (("S", 0), ("I", 1), ("R", 2)):
        lines = [",".join(["t"] + labels)]
        for k in range(len(times)):
            lines.append(
                ",".join([_fmt(times[k])] + [_fmt(traj.values[k, col]) for _, traj in runs])
            )
        (out_dir / f"fig_{name}_compare.csv").write_text("\n".join(lines) + "\n")
    return True


# -- commands ----------------------------------------------------------------


def _run_uncontrolled(cfg: ScenarioConfig) -> Trajectory:
    """The uncontrolled run; :class:`IntegrationError` under the solvers' blow-up rule."""
    params = cfg.params()
    traj = integrate_forward(uncontrolled_field(params), cfg.x0().as_array(), cfg.grid())
    return _admissible(traj, params.n)


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


def _simulate_scenario(cfg: ScenarioConfig) -> tuple[int, Trajectory, RunSummary]:
    if cfg.strategy != "none":
        raise ConfigError(f"simulate requires strategy = none, got {cfg.strategy!r}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    traj = _run_uncontrolled(cfg)
    summary = summarize_run(traj, cfg.threshold)
    write_timeseries_csv(out_dir / f"{cfg.label}.csv", traj)
    write_summary_json(out_dir / f"{cfg.label}.json", cfg.label, cfg, summary)
    _print_summary(cfg.label, summary)
    return EXIT_OK, traj, summary


def _optimize_scenario(cfg: ScenarioConfig, cross_check: bool) -> tuple[int, Trajectory, RunSummary]:
    spec = cfg.spec()
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sol = solve_fbsm(
        spec, tol=cfg.tol, max_iterations=cfg.max_iterations, relaxation=cfg.relaxation
    )
    summary = summarize_run(sol.trajectory, cfg.threshold, objective=sol.objective)
    convergence = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "objective": sol.objective,
    }

    cross = None
    all_converged = sol.converged
    if cross_check:
        direct = solve_direct(spec, max_iterations=cfg.max_iterations)
        gap = abs(sol.objective - direct.objective) / max(abs(direct.objective), 1e-12)
        cross = {
            "objective_sweep": sol.objective,
            "objective_direct": direct.objective,
            "relative_gap": gap,
            "direct_converged": direct.converged,
        }
        all_converged = all_converged and direct.converged
        print(
            f"cross-check: sweep objective {sol.objective:.6g} vs "
            f"direct {direct.objective:.6g} (relative gap {gap:.2e})"
        )

    write_timeseries_csv(out_dir / f"{cfg.label}.csv", sol.trajectory, sol.control, sol.adjoints)
    write_summary_json(out_dir / f"{cfg.label}.json", cfg.label, cfg, summary, convergence, cross)
    _print_summary(cfg.label, summary, sol)
    return (EXIT_OK if all_converged else EXIT_NO_CONVERGENCE), sol.trajectory, summary


def cmd_simulate(cfg: ScenarioConfig, emit_plot_data: bool = False) -> int:
    """Run the uncontrolled model and write its time series and summary."""
    code, traj, _ = _simulate_scenario(cfg)
    if emit_plot_data:
        write_plot_bundles(Path(cfg.out), [(cfg.label, traj)])
    return code


def cmd_optimize(cfg: ScenarioConfig, cross_check: bool = False, emit_plot_data: bool = False) -> int:
    """Solve the configured strategy and write states, controls, and costates."""
    code, traj, _ = _optimize_scenario(cfg, cross_check)
    if emit_plot_data:
        write_plot_bundles(Path(cfg.out), [(cfg.label, traj)])
    return code


def cmd_compare(
    cfgs: list[ScenarioConfig], cross_check: bool = False, emit_plot_data: bool = False
) -> int:
    """Run every scenario, then write a combined comparison table."""
    if not cfgs:
        raise ConfigError("compare needs at least one scenario")
    out_dir = Path(cfgs[0].out)
    out_dir.mkdir(parents=True, exist_ok=True)

    labels: list[str] = []
    summaries: list[RunSummary] = []
    runs: list[tuple[str, Trajectory]] = []
    for k, cfg in enumerate(cfgs):
        if cfg.strategy == "none":
            code, traj, summary = _simulate_scenario(cfg)
        else:
            code, traj, summary = _optimize_scenario(cfg, cross_check)
        if code != EXIT_OK:
            print(
                f"partial results: {k} of {len(cfgs)} scenarios completed before "
                f"{cfg.label} failed with exit code {code}",
                file=sys.stderr,
            )
            return code
        labels.append(cfg.label)
        summaries.append(summary)
        runs.append((cfg.label, traj))

    write_comparison(out_dir, labels, summaries)
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


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "strategy": args.strategy,
        "out": args.out,
        "threshold": args.threshold,
        "steps": args.steps,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(load_config(args.config, _overrides(args)), args.emit_plot_data)
        if args.command == "optimize":
            cfg = load_config(args.config, _overrides(args))
            return cmd_optimize(cfg, args.cross_check, args.emit_plot_data)
        # compare: explicit configs, or the four built-in scenarios
        overrides = _overrides(args)
        if args.config:
            cfgs = [load_config(path, overrides) for path in args.config]
        else:
            strategies = ("none", "1", "2", "3")
            cfgs = [load_config(None, {**overrides, "strategy": s}) for s in strategies]
        return cmd_compare(cfgs, args.cross_check, args.emit_plot_data)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as e:
        print(f"integration failure: {e}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
