"""The benchmark in `perfbench/` still sees the march it times.

`perfbench/spans.py` counts the linear march at the `run_linear` name that
`fdmarch.cli` looks up.  A run path that marched without calling it there
would leave the benchmark's per-layer counts empty while every end-to-end
check still passed; this test runs one traced advection-ladder operation and
asserts the counts are there.
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
    assert tracer.counts["callback_fields"] > 0
