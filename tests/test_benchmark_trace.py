"""The benchmark in `perfbench/` still sees the march it times.

`perfbench/spans.py` counts the linear march at the `run_linear` name that
`fdmarch.cli` looks up.  A run path that marched without calling it there
would leave the benchmark's per-layer counts empty while every end-to-end
check still passed; this test runs one traced advection-ladder operation and
asserts the counts are there.  The CLI takes its snapshots from what each
march returns and hands `run_linear` no per-step callback, so the traced
callback count stays 0.
"""

import importlib
from pathlib import Path

import pytest

import fdmarch.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's `workloads` and `spans` modules, with the preset table
    restored after the test (the advection-ladder build shortens a preset)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setitem(fdmarch.cli.PRESETS, "fig-advection", fdmarch.cli.PRESETS["fig-advection"])
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_traced_advection_op_counts_the_march(bench, tmp_path):
    workloads, spans = bench
    op = workloads.build("advection-ladder", 3, tmp_path)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = op.run(tracer)
    finally:
        tracer.uninstall()
    assert op.check(result, tracer.counts) == []
    names = [span[0] for span in tracer.spans]
    assert names.count("solver.run_linear") >= 1
    assert spans.count_under(tracer.spans, "solver.run_linear", "cli.main") >= 1
    assert tracer.counts["linear.cell_steps"] > 0
    assert tracer.counts["callback_fields"] == 0


def test_traced_burgers_leg_counts_every_step(bench, tmp_path):
    """One burgers-shock leg, 1000 layered steps on 10^4 cells, still shows
    each step as a `step_nonlinear` span, its cell-steps and the n density
    evaluations of each of its order-n steps: the workspace hides none of the
    per-layer counts."""
    workloads, spans = bench
    op = workloads.build("burgers-shock", 5, tmp_path)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = op.run(tracer)
    finally:
        tracer.uninstall()
    assert op.check(result, tracer.counts) == []
    names = [span[0] for span in tracer.spans]
    assert names.count("solver.step_nonlinear") == workloads.BURGERS_LEG_STEPS == 1000
    assert tracer.counts["nonlinear.cell_steps"] == 10**7
    # the traced family is a plain one of wrapped funcs: one span per density per step
    n = int(op.kind.removeprefix("order").split("-")[0])
    assert names.count("solver.density_eval") == n * workloads.BURGERS_LEG_STEPS
