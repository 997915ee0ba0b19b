"""Span tracing of sircontrol's layers, installed from outside the program.

``Tracer.installed()`` replaces each traced function with a timing wrapper in
every ``sircontrol`` module namespace that holds it.  ``ocp`` and ``cli``
bind names such as ``integrate_forward`` and ``solve_fbsm`` with
``from ... import``, so patching only the defining module would miss their
calls.  Leaving the ``with`` block puts every original back.

Each call of a traced function is a span with its parent span, start, end
and self time (its duration minus the time covered by its child spans).
Spans are kept in memory.  The two per-step layers, ``model.rates`` and
``ocp.adjoint_rhs``, are called hundreds of thousands of times per run;
they are counted and timed in aggregate instead of stored one by one, and
their time still counts as child time of the span that called them.

A function the program no longer has, or no longer calls, reports zero
calls.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (layer, module, function) of each traced public function.  Several
# functions may share a layer.
SPAN_TARGETS = (
    ("integrate.forward", "sircontrol.integrate", "integrate_forward"),
    ("integrate.backward", "sircontrol.integrate", "integrate_backward"),
    ("ocp.objective", "sircontrol.ocp", "objective"),
    ("ocp.objective_gradient", "sircontrol.ocp", "objective_gradient"),
    ("ocp.solve_fbsm", "sircontrol.ocp", "solve_fbsm"),
    ("ocp.solve_direct", "sircontrol.ocp", "solve_direct"),
    ("metrics.summarize_run", "sircontrol.metrics", "summarize_run"),
    ("cli.main", "sircontrol.cli", "main"),
    ("cli.write_timeseries_csv", "sircontrol.cli", "write_timeseries_csv"),
    ("cli.write_summary_json", "sircontrol.cli", "write_summary_json"),
    ("cli.write_comparison", "sircontrol.cli", "write_comparison"),
    ("cli.write_plot_bundles", "sircontrol.cli", "write_plot_bundles"),
)
LEAF_TARGETS = (
    ("model.rates", "sircontrol.model", "uncontrolled_rates"),
    ("model.rates", "sircontrol.model", "vaccination_rates"),
    ("model.rates", "sircontrol.model", "treatment_education_rates"),
)
# The costate right-hand sides are closures made by ocp.adjoint_field; the
# factory is wrapped so that each callable it returns is traced.
ADJOINT_RHS = ("ocp.adjoint_rhs", "sircontrol.ocp", "adjoint_field")


def _integration_steps(counters, args, kwargs, result):
    counters["steps"] += result.grid.steps


def _solver_report(counters, args, kwargs, result):
    counters["iterations"] += result.iterations
    counters["not_converged"] += not result.converged


def _bytes_written(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["bytes"] += Path(path).stat().st_size


# Per-layer counters read from a traced call's arguments and result.
AFTER_CALL = {
    "integrate.forward": _integration_steps,
    "integrate.backward": _integration_steps,
    "ocp.solve_fbsm": _solver_report,
    "ocp.solve_direct": _solver_report,
    "cli.write_timeseries_csv": _bytes_written,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    self_s: float
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the traced layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        # layer -> [calls, busy seconds] for the aggregated per-step layers
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        # layer -> counter name -> value, from AFTER_CALL
        self.counters: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        # open spans, innermost last: [id, name, parent id, start, child seconds]
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple[dict, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([next(self._ids), name, parent, time.perf_counter(), 0.0])

    def _exit(self, error: bool) -> None:
        end = time.perf_counter()
        span_id, name, parent, start, child_s = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append(Span(span_id, name, parent, start, end, duration - child_s, error))

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        except BaseException:
            self._exit(error=True)
            raise
        self._exit(error=False)

    def wrap(self, name: str, fn):
        after = AFTER_CALL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(error=True)
                raise
            self._exit(error=False)
            if after is not None:
                after(self.counters[name], args, kwargs, result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn):
        stats = self.leaves[name]
        stack = self._stack
        clock = time.perf_counter  # a local name: called twice per RK4 stage

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                if stack:
                    stack[-1][4] += duration

        return traced

    # -- installation -----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function where callers look it up; restore on exit."""
        try:
            for name, module, attr in SPAN_TARGETS:
                self._patch(module, attr, lambda fn, name=name: self.wrap(name, fn))
            for name, module, attr in LEAF_TARGETS:
                self._patch(module, attr, lambda fn, name=name: self.wrap_leaf(name, fn))
            name, module, attr = ADJOINT_RHS
            self._patch(module, attr, lambda factory: self._wrap_factory(name, factory))
            yield self
        finally:
            self.restore()

    def _wrap_factory(self, name: str, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap_leaf(name, factory(*args, **kwargs))

        return traced_factory

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sircontrol" and not mod_name.startswith("sircontrol."):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = wrapper

    def restore(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    # -- reading ------------------------------------------------------------------

    def layer(self, name: str) -> dict:
        """Calls, busy and self seconds and errors of one layer (zeros if never called)."""
        if name in self.leaves:
            calls, busy = self.leaves[name]
            return {"calls": calls, "busy_s": busy, "self_s": busy, "errors": 0}
        spans = [s for s in self.spans if s.name == name]
        return {
            "calls": len(spans),
            "busy_s": sum(s.duration for s in spans),
            "self_s": sum(s.self_s for s in spans),
            "errors": sum(s.error for s in spans),
        }

    def child_calls(self, child: str, parent: str) -> int:
        """Spans of layer ``child`` whose direct parent span is of layer ``parent``."""
        parents = {s.id for s in self.spans if s.name == parent}
        return sum(1 for s in self.spans if s.name == child and s.parent in parents)

    def overhead_s(self) -> float:
        """Estimated time the wrappers added: each wrapped call times its measured cost.

        A difference of traced and untraced wall times would be swamped by
        host noise on long passes; the cost of one wrapped call is measured
        instead, on a no-op function, and multiplied by the calls recorded.
        """
        span_calls = sum(1 for s in self.spans if s.name in SPAN_LAYERS)
        leaf_calls = sum(calls for calls, _ in self.leaves.values())
        return span_calls * _call_cost(Tracer.wrap) + leaf_calls * _call_cost(Tracer.wrap_leaf)


SPAN_LAYERS = frozenset(name for name, _, _ in SPAN_TARGETS)
COST_CALLS = 10_000


def _call_cost(wrap) -> float:
    """Seconds a wrapper made by ``wrap`` adds to one call: fastest of five batches."""

    def noop(*args, **kwargs):
        return None

    costs = []
    for _ in range(5):
        tracer = Tracer()
        wrapped = wrap(tracer, "cost", noop)
        tracer._enter("bench.pass")
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            wrapped(1.0)
        mid = time.perf_counter()
        for _ in range(COST_CALLS):
            noop(1.0)
        costs.append((mid - start) - (time.perf_counter() - mid))
    return max(min(costs) / COST_CALLS, 0.0)
