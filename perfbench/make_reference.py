"""Write reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

Records, from the sircontrol source in this checkout: the objectives of the
sweep and direct solvers and the uncontrolled peak of the four built-in
``compare`` scenarios, the SHA-256 of the CSV files ``compare
--emit-plot-data`` writes, and the ``scenario_sweep`` pool with the
objectives both solvers reach on each of its problems.  Run it again only
when a change to the numerics has been declared; a pure speed-up must
leave every recorded value unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from run import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402
from sircontrol import cli, ocp  # noqa: E402


def compare_reference() -> dict:
    ref = {}
    digests = set()
    with tempfile.TemporaryDirectory() as tmp:
        for extra in ([], ["--cross-check"]):
            out = Path(tmp) / "cross" if extra else Path(tmp) / "plain"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["compare", "--emit-plot-data", "--out", str(out), *extra])
            if code != 0:
                raise RuntimeError(f"compare {extra} exited with {code}")
            digests.add(workloads.csv_digest(out))
        for label in workloads.COMPARE_LABELS:
            data = json.loads((out / f"{label}.json").read_text())
            if label == "uncontrolled":
                ref[label] = {"peak_infected": data["summary"]["peak_infected"]}
            else:
                ref[label] = {
                    "objective": data["summary"]["objective"],
                    "objective_direct": data["cross_check"]["objective_direct"],
                }
    if len(digests) != 1:
        raise RuntimeError("compare writes different CSV bytes with and without --cross-check")
    ref["csv_sha256"] = digests.pop()
    return ref


def sweep_reference() -> dict:
    pool = workloads.make_pool()
    objective, objective_direct = [], []
    for k, problem in enumerate(pool):
        spec = problem.spec()
        sweep = ocp.solve_fbsm(spec, tol=problem.tol)
        direct = ocp.solve_direct(spec)
        if not (sweep.converged and direct.converged):
            raise RuntimeError(f"pool problem {k} did not converge: {problem}")
        objective.append(sweep.objective)
        objective_direct.append(direct.objective)
        print(f"pool {k}: sweep {sweep.objective!r} ({sweep.iterations} it), "
              f"direct {direct.objective!r}", file=sys.stderr)
    return {
        "seed": workloads.POOL_SEED,
        "problems": [asdict(p) for p in pool],
        "objective": objective,
        "objective_direct": objective_direct,
    }


def main() -> None:
    ref = {"compare": compare_reference(), "sweep_pool": sweep_reference()}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
