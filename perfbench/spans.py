"""Spans around the calls into fdmarch's public functions, recorded from outside.

`Tracer.install` rebinds each traced function in every fdmarch module that
holds it, so calls are caught where callers look the name up (for example
`fdmarch.solver.master_scheme`, the name `LinearProblem.schemes` calls).
Spans stay in memory as (name, start, end, parent, op) tuples and are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable

# span name -> (defining module, function name)
TRACED = {
    "exact.lagrange_basis": ("fdmarch.exact", "lagrange_basis"),
    "exact.derivatives_at_zero": ("fdmarch.exact", "derivatives_at_zero"),
    "exact.aux_polynomials": ("fdmarch.exact", "aux_polynomials"),
    "schemes.master_scheme": ("fdmarch.schemes", "master_scheme"),
    "schemes.error_term": ("fdmarch.schemes", "error_term"),
    "schemes.nonlinear_layers": ("fdmarch.schemes", "nonlinear_layers"),
    "stability.critical_courant": ("fdmarch.stability", "critical_courant"),
    "stability.max_growth": ("fdmarch.stability", "max_growth"),
    "solver.run_linear": ("fdmarch.solver", "run_linear"),
    "solver.step_nonlinear": ("fdmarch.solver", "step_nonlinear"),
    "solver.shock_front": ("fdmarch.solver", "shock_front"),
    "cli.main": ("fdmarch.cli", "main"),
}
MODULES = (
    "fdmarch",
    "fdmarch.exact",
    "fdmarch.schemes",
    "fdmarch.stability",
    "fdmarch.solver",
    "fdmarch.cli",
)


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1  # operation id stamped on every span
        self.round = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.specs: set = set()  # (round, m, n, offsets) built by master_scheme
        self._undo: list = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs) and record its span under the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` recording a span per call, after the counting hook for `name` if any."""
        hook = {
            "schemes.master_scheme": self._count_spec,
            "solver.run_linear": self._count_linear,
            "solver.step_nonlinear": self._count_nonlinear,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    # -- counters at the boundaries ------------------------------------------

    def _count_spec(self, spec, *args, **kwargs):
        self.specs.add((self.round, spec.m, spec.n, tuple(spec.offsets)))
        return (spec,) + args, kwargs

    def _count_linear(self, problem, field, steps, callback=None):
        points = sum(len(problem.term_offsets(t)) for t in problem.terms)
        self.counts["linear.cell_steps"] += field.n_cells * steps
        self.counts["linear.flops"] += 2 * points * field.n_cells * steps
        if callback is not None:
            inner = callback

            def callback(step, f):
                self.counts["callback_fields"] += 1
                return inner(step, f)

        return (problem, field, steps), {"callback": callback}

    def _count_nonlinear(self, field, *args, **kwargs):
        self.counts["nonlinear.cell_steps"] += field.n_cells
        return (field,) + args, kwargs

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        for name, (home, attr) in TRACED.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original)
            for mod_name in MODULES:
                mod = sys.modules[mod_name]
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as [name, start, end, parent, op], times in seconds from creation."""
        rows = [[n, s - self.t0, e - self.t0, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """calls, total seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children nest inside their parent.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called `name` with a span called `ancestor` somewhere above them."""
    hits = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                hits += 1
                break
            parent = spans[parent][3]
    return hits
