"""Outside-in tracing of sparsecontrol's layers.

The package binds names at import (``from .pde import solve_state`` in
``optimizer``, ``from .optimizer import solve`` in ``cli`` and ``stability``,
``from scipy.sparse.linalg import splu`` in ``pde``), so patching only the
defining module misses most calls.  ``Tracer.install`` therefore replaces
every binding of each target object in every loaded ``sparsecontrol``
module, and ``Tracer.uninstall`` puts the originals back.

Each call of a wrapped function records one span: name, parent span, start
and end.  Spans stay in memory; ``layer_metrics`` turns the spans of one op
into per-layer metrics.  A target that no longer exists, or that no package
module binds any more, is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from dataclasses import dataclass
from time import perf_counter


def _iterations(args, result):
    return result.iterations


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# span name, defining module, attribute, optional value recorded per call
TARGETS = (
    ("pde.solve_state", "sparsecontrol.pde", "solve_state", None),
    ("pde.solve_adjoint", "sparsecontrol.pde", "solve_adjoint", None),
    ("sparse.splu", "scipy.sparse.linalg", "splu", None),
    ("l1ball.project_field", "sparsecontrol.l1ball", "project_field", None),
    ("objective.objective_value", "sparsecontrol.objective",
     "objective_value", None),
    ("optimizer.solve", "sparsecontrol.optimizer", "solve", _iterations),
    ("optimizer.kkt_residuals", "sparsecontrol.optimizer", "kkt_residuals",
     None),
    ("diagnostics.classify_slices", "sparsecontrol.diagnostics",
     "classify_slices", None),
    ("stability.gamma_sweep", "sparsecontrol.stability", "gamma_sweep", None),
    ("runconfig.load_config", "sparsecontrol.runconfig", "load_config", None),
    ("fieldio.write_field", "sparsecontrol.fieldio", "write_field",
     _file_bytes),
)

# the benchmark's own span around each ``cli.main`` call
OP_SPAN = "cli"

# name, unit, better; the order in which they are printed.  The gamma_sweep
# and write_field spans get counts but no time metric: two of the three
# workloads never call them, and a time that reads 0 on every run is
# indistinguishable from one that was never measured.
PER_LAYER = (
    ("pde.solve_state.calls", "count", "lower"),
    ("pde.solve_state.s", "s", "lower"),
    ("pde.solve_adjoint.calls", "count", "lower"),
    ("pde.solve_adjoint.s", "s", "lower"),
    ("pde.other_s", "s", "lower"),
    ("sparse.splu.calls", "count", "lower"),
    ("sparse.splu.s", "s", "lower"),
    ("l1ball.project_field.calls", "count", "lower"),
    ("l1ball.project_field.s", "s", "lower"),
    ("objective.objective_value.calls", "count", "lower"),
    ("objective.objective_value.s", "s", "lower"),
    ("optimizer.solve.calls", "count", "lower"),
    ("optimizer.solve.self_s", "s", "lower"),
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.trials", "count", "lower"),
    ("optimizer.accept_ratio", "ratio", "higher"),
    ("optimizer.kkt_residuals.s", "s", "lower"),
    ("diagnostics.classify_slices.s", "s", "lower"),
    ("stability.solves", "count", "lower"),
    ("runconfig.load_config.s", "s", "lower"),
    ("fieldio.write_field.calls", "count", "lower"),
    ("fieldio.write_field.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    value: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, value=None):
        """Run fn(*args, **kwargs) inside a span called name; return its
        result.  value(args, result), when given, is stored on the span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, perf_counter()))
        self._stack.append(index)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.spans[index].end = perf_counter()
            self._stack.pop()
        if value is not None:
            self.spans[index].value = value(args, result)
        return result

    def _wrapper(self, name, fn, value):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value)
        return wrapper

    def install(self):
        """Wrap every package binding of every target."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sparsecontrol"
                                         or key.startswith("sparsecontrol."))]
        for name, module_name, attr, value in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original, value)
            bound = False
            for module in modules:
                for key, obj in list(vars(module).items()):
                    if obj is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
                        bound = True
            if not bound:
                self.absent.append(name)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of the spans of one op.

    ``.calls`` counts spans, ``.s`` sums their durations (no target calls
    itself, so inclusive times never overlap), ``self_s`` is a span minus the
    part its child spans cover, summed over the spans of that name.
    """
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    value: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    def parent_name(span):
        return None if span.parent is None else spans[span.parent].name

    for i, span in enumerate(spans):
        duration = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + duration - child_time[i]
        value[span.name] = value.get(span.name, 0.0) + span.value
        inclusive[span.name] = inclusive.get(span.name, 0.0) + duration

    def count_under(name, parent):
        return sum(1 for s in spans if s.name == name and parent_name(s) == parent)

    n_solve = calls.get("optimizer.solve", 0)
    iterations = int(value.get("optimizer.solve", 0))
    trials = count_under("objective.objective_value", "optimizer.solve") - n_solve
    state_s = inclusive.get("pde.solve_state", 0.0)
    adjoint_s = inclusive.get("pde.solve_adjoint", 0.0)
    return {
        "pde.solve_state.calls": calls.get("pde.solve_state", 0),
        "pde.solve_state.s": state_s,
        "pde.solve_adjoint.calls": calls.get("pde.solve_adjoint", 0),
        "pde.solve_adjoint.s": adjoint_s,
        "pde.other_s": state_s + adjoint_s - inclusive.get("sparse.splu", 0.0),
        "sparse.splu.calls": calls.get("sparse.splu", 0),
        "sparse.splu.s": inclusive.get("sparse.splu", 0.0),
        "l1ball.project_field.calls": calls.get("l1ball.project_field", 0),
        "l1ball.project_field.s": inclusive.get("l1ball.project_field", 0.0),
        "objective.objective_value.calls":
            calls.get("objective.objective_value", 0),
        "objective.objective_value.s":
            inclusive.get("objective.objective_value", 0.0),
        "optimizer.solve.calls": n_solve,
        "optimizer.solve.self_s": self_s.get("optimizer.solve", 0.0),
        "optimizer.iterations": iterations,
        "optimizer.trials": trials,
        "optimizer.accept_ratio": iterations / trials if trials else 0.0,
        "optimizer.kkt_residuals.s":
            inclusive.get("optimizer.kkt_residuals", 0.0),
        "diagnostics.classify_slices.s":
            inclusive.get("diagnostics.classify_slices", 0.0),
        "stability.solves": count_under("optimizer.solve",
                                        "stability.gamma_sweep"),
        "runconfig.load_config.s": inclusive.get("runconfig.load_config", 0.0),
        "fieldio.write_field.calls": calls.get("fieldio.write_field", 0),
        "fieldio.write_field.bytes": int(value.get("fieldio.write_field", 0)),
        "cli.self_s": self_s.get(OP_SPAN, 0.0),
    }
