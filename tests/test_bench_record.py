"""The committed BENCH_*.json files and `tools/bench_record.py` that writes
them: the names in a file are the benchmark's own, and the recorder's pairs
alternate their order and count wins per metric."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(REPO.glob("BENCH_*.json"))
# recorded before the recorder timed the Tier-1 suite
BEFORE_TIER1 = {"BENCH_d5c7058.json", "BENCH_ef28530.json"}


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("bench_record", REPO / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_match_the_benchmark(path, recorder):
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['commit'][:7]}.json"
    assert "code_diff_sha256" in record or not record["uncommitted_changes"]
    assert set(record["workloads"]) == WORKLOADS
    for kind in ("workloads", "aa"):
        for workload, result in record.get(kind, {}).items():
            assert workload in WORKLOADS
            for row in result.get("pairs", []) + [{"change": r} for r in result.get("runs", [])]:
                for run in row.values():
                    assert set(run) - {"seed", "correct", "failed"} == METRICS
                    assert run["correct"] is True and run["failed"] == 0
            if "summary" in result:
                assert set(result["summary"]) == METRICS
    assert set(record["commands_s"]) == set(recorder.COMMANDS)
    if path.name not in BEFORE_TIER1:
        sides = {"base", "change"} if "base" in record else {"change"}
        assert set(record["tier1"]) == sides
        for run in record["tier1"].values():
            assert run["seconds"] > 0 and run["returncode"] == 0


def test_recorder_reads_the_benchmark(recorder):
    assert set(recorder.WORKLOADS) == WORKLOADS and set(recorder.METRICS) == METRICS


def test_pairs_alternate_and_count_wins(recorder, monkeypatch):
    """Each pair runs both sides on one seed, the first side alternating; the
    summary counts the pairs in which the second side reads lower."""
    order = []

    def fake_run(path, workload, seed, seconds, cache):
        order.append((path.name, seed))
        value = {"a": 1.0, "b": 0.5 if seed % 3 else 2.0}[path.name]
        return {"seed": seed, "correct": True, "failed": 0, **{name: value for name in METRICS}}

    monkeypatch.setattr(recorder, "workload_run", fake_run)
    result = recorder.paired({"base": Path("a"), "change": Path("b")}, "scheme-zoo", 4, 1, 1.0, "")
    assert order == [("a", 1), ("b", 1), ("b", 2), ("a", 2), ("a", 3), ("b", 3), ("b", 4), ("a", 4)]
    summary = result["summary"]["wall_s"]
    assert summary["change_lower_in"] == 3 and summary["base_iqr"] == 0.0
    assert summary["base_median"] == 1.0 and summary["change_median"] == 0.5


def test_aa_row_for_every_workload_recorded(recorder, monkeypatch, tmp_path):
    """With --aa, each workload recorded gets its own A/A row of the base
    against the copy, as many pairs as the base against the change."""
    runs = []

    def fake_run(path, workload, seed, seconds, cache):
        runs.append((path.name, workload))
        return {"seed": seed, "correct": True, "failed": 0, **{name: 1.0 for name in METRICS}}

    monkeypatch.setattr(recorder, "workload_run", fake_run)
    monkeypatch.setattr(recorder, "command_seconds", lambda checkout, argv, cache: 0.5)
    monkeypatch.setattr(recorder, "tier1", lambda checkout, cache: {"seconds": 9.0, "returncode": 0})
    monkeypatch.setattr(recorder, "calibration_scale", lambda: 1.0)
    monkeypatch.setattr(recorder, "describe", lambda checkout: {"commit": "0" * 40, "uncommitted_changes": False})
    base, copy, out = tmp_path / "base", tmp_path / "copy", tmp_path / "bench.json"
    argv = ["--base", str(base), "--aa", str(copy), "--out", str(out), "--seconds", "1"]
    assert recorder.main(argv + ["--workload", "scheme-zoo", "--workload", "burgers-shock"]) == 0
    record = json.loads(out.read_text())
    assert set(record["aa"]) == set(record["workloads"]) == {"scheme-zoo", "burgers-shock"}
    for workload in record["aa"]:
        assert len(record["aa"][workload]["pairs"]) == recorder.PAIRS
        assert runs.count(("copy", workload)) == recorder.PAIRS
    assert record["tier1"] == {side: {"seconds": 9.0, "returncode": 0} for side in ("base", "change")}


def test_tier1_times_the_suite_in_the_checkout(recorder, monkeypatch, tmp_path):
    """The Tier-1 timing runs ROADMAP's pytest command in the checkout, with
    the checkout's sources first on the path, and keeps its exit status."""
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((cmd, cwd, env["PYTHONPATH"].split(os.pathsep)[0]))
        return subprocess.CompletedProcess(cmd, 1)

    monkeypatch.setattr(recorder.subprocess, "run", fake_run)
    result = recorder.tier1(tmp_path, "")
    (cmd, cwd, path), = calls
    assert cmd[1:5] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert cwd == tmp_path and path == str(tmp_path / "src")
    assert result["returncode"] == 1 and result["seconds"] >= 0
