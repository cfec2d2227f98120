"""fdmarch benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload advection-ladder --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from `src/` beside this
directory.  A run repeats whole rounds of the workload's operations until
`--seconds` have passed, checks every result outside the timed region and
prints one JSON object as its last line of output.  `--trace 0` reports the
end-to-end metrics.  `--trace 1` runs a warm-up round, then untraced and
traced rounds in turn, and reports the per-layer metrics and the tracing
overhead.  Result and trace files go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibrate import MIXED, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("advection-ladder", "burgers-shock", "scheme-zoo")

PER_LAYER_UNITS = {
    "exact.lagrange_basis.calls": "count",
    "exact.lagrange_basis.s": "s",
    "exact.derivatives_at_zero.s": "s",
    "exact.aux_polynomials.s": "s",
    "schemes.master_scheme.calls": "count",
    "schemes.master_scheme.s": "s",
    "schemes.master_scheme.self_s": "s",
    "schemes.builds_per_spec": "builds/spec",
    "schemes.error_term.s": "s",
    "schemes.nonlinear_layers.s": "s",
    "schemes.schemes_per_s": "schemes/s",
    "stability.critical_courant.calls": "count",
    "stability.critical_courant.s": "s",
    "stability.max_growth.calls": "count",
    "stability.max_growth.s": "s",
    "stability.max_growth.ms_per_scan": "ms",
    "stability.scans_per_nu_c": "scans/nu_c",
    "stability.nu_c_per_s": "nu_c/s",
    "solver.run_linear.self_s": "s",
    "solver.linear.ns_per_cell_step": "ns",
    "solver.linear.gflop_per_s": "GFLOP/s",
    "solver.callback_fields": "count",
    "solver.step_nonlinear.calls": "count",
    "solver.step_nonlinear.s": "s",
    "solver.nonlinear.ns_per_cell_step": "ns",
    "solver.density_eval.s": "s",
    "solver.shock_front.s": "s",
    "solver.cell_steps_per_s": "cell-steps/s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "calibration.raw_wall_s": "s",
    "calibration.scale": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def import_program():
    """Import fdmarch from this checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    if not (src / "fdmarch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fdmarch sources in {src}")
    sys.path.insert(0, str(src))
    import fdmarch

    if Path(fdmarch.__file__).resolve().parent != src / "fdmarch":
        sys.exit(f"perfbench: imported fdmarch from {fdmarch.__file__}, not from {src}")


def setup_seconds(args) -> float:
    """Median time of fresh interpreters that import fdmarch and build the inputs,
    each scaled by calibration runs on both sides of it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    seconds = 0.3
    for _ in range(SETUP_SAMPLES):
        speed = Speed(MIXED)
        speed.sample(seconds)
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        speed.sample(seconds)
        samples.append(seconds * speed.scale())
    return statistics.median(samples)


class Runner:
    """Runs whole rounds of operations and keeps one record per operation."""

    def __init__(self, ops, loop):
        self.ops = ops
        self.loop = loop  # calibration loop
        self.records = []  # (round, op, seconds, error or None)
        self.rounds = []  # (traced, operation seconds, calibration scale)
        self.last = 0.5  # seconds of the latest operation, to size the calibration before the next

    def run_round(self, counts, tracer=None) -> None:
        """One round; `counts` collects what the checks count (files written, ...)."""
        total = 0.0
        speed = Speed(self.loop)
        index = len(self.rounds)
        for op in self.ops:
            if tracer is not None:
                tracer.op, tracer.round = len(self.records), index
            speed.sample(self.last)  # the machine's speed is taken on both sides of an operation
            start = time.perf_counter()
            try:
                if tracer is not None:
                    result = tracer.span("op." + op.kind, op.run, tracer)
                else:
                    result = op.run(None)
                error = None
            except Exception as exc:  # a failing operation is counted, the run goes on
                error = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            total += seconds
            speed.sample(seconds)
            self.last = seconds
            if error is None:
                try:
                    problems = op.check(result, counts)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                error = "; ".join(problems) or None
            if error is not None:
                print(f"perfbench: {op.kind} failed: {error}", file=sys.stderr)
            self.records.append((index, op, seconds, error))
        self.rounds.append((tracer is not None, total, speed.scale()))

    def walls(self, traced: bool, first: int = 0) -> list[float]:
        """Calibrated round times of the traced or untraced rounds from `first` on."""
        return [raw * scale for t, raw, scale in self.rounds[first:] if t == traced]


def rate(records, key: str) -> float:
    """Work of kind `key` per second of the operations that did it."""
    work = sum(op.work.get(key, 0) for _, op, _, _ in records)
    seconds = sum(s for _, op, s, _ in records if op.work.get(key))
    return work / seconds if seconds else 0.0


def per_layer(tracer, runner) -> dict:
    """Per-layer metrics of a traced run; times and counts are per traced round.

    Round 0 is a warm-up and counts on neither side; after it, untraced and
    traced rounds alternate.
    """
    from spans import count_under, layer_totals

    traced = runner.walls(True)
    untraced = runner.walls(False, first=1)
    rounds = len(traced)
    plain = {i for i, (t, _, _) in enumerate(runner.rounds) if not t and i > 0}
    plain_records = [r for r in runner.records if r[0] in plain]
    totals = layer_totals(tracer.spans)

    def get(name, field):
        return totals[name][field] / rounds if name in totals else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    counts = {k: v / rounds for k, v in tracer.counts.items()}
    scans = get("stability.max_growth", "calls")
    nu_c_found = get("stability.critical_courant", "calls")
    linear_self = get("solver.run_linear", "self_s")
    nonlinear_s = get("solver.step_nonlinear", "s")
    values = {
        "exact.lagrange_basis.calls": get("exact.lagrange_basis", "calls"),
        "exact.lagrange_basis.s": get("exact.lagrange_basis", "s"),
        "exact.derivatives_at_zero.s": get("exact.derivatives_at_zero", "s"),
        "exact.aux_polynomials.s": get("exact.aux_polynomials", "s"),
        "schemes.master_scheme.calls": get("schemes.master_scheme", "calls"),
        "schemes.master_scheme.s": get("schemes.master_scheme", "s"),
        "schemes.master_scheme.self_s": get("schemes.master_scheme", "self_s"),
        "schemes.builds_per_spec": ratio(
            get("schemes.master_scheme", "calls"), len(tracer.specs) / rounds
        ),
        "schemes.error_term.s": get("schemes.error_term", "s"),
        "schemes.nonlinear_layers.s": get("schemes.nonlinear_layers", "s"),
        "schemes.schemes_per_s": rate(plain_records, "schemes"),
        "stability.critical_courant.calls": nu_c_found,
        "stability.critical_courant.s": get("stability.critical_courant", "s"),
        "stability.max_growth.calls": scans,
        "stability.max_growth.s": get("stability.max_growth", "s"),
        "stability.max_growth.ms_per_scan": 1e3 * ratio(get("stability.max_growth", "s"), scans),
        "stability.scans_per_nu_c": ratio(
            count_under(tracer.spans, "stability.max_growth", "stability.critical_courant")
            / rounds,
            nu_c_found,
        ),
        "stability.nu_c_per_s": rate(plain_records, "nu_c"),
        "solver.run_linear.self_s": linear_self,
        "solver.linear.ns_per_cell_step": 1e9
        * ratio(linear_self, counts.get("linear.cell_steps", 0)),
        # computed count: 2 flops (multiply, add) per stencil point per cell-step
        "solver.linear.gflop_per_s": 1e-9 * ratio(counts.get("linear.flops", 0), linear_self),
        "solver.callback_fields": counts.get("callback_fields", 0.0),
        "solver.step_nonlinear.calls": get("solver.step_nonlinear", "calls"),
        "solver.step_nonlinear.s": nonlinear_s,
        "solver.nonlinear.ns_per_cell_step": 1e9
        * ratio(nonlinear_s, counts.get("nonlinear.cell_steps", 0)),
        "solver.density_eval.s": get("solver.density_eval", "s"),
        "solver.shock_front.s": get("solver.shock_front", "s"),
        "solver.cell_steps_per_s": rate(plain_records, "cell_steps"),
        "cli.main.s": get("cli.main", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.files_written": counts.get("cli.files_written", 0.0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0.0),
        "calibration.raw_wall_s": statistics.median(
            raw for t, raw, _ in runner.rounds[1:] if not t
        ),
        "calibration.scale": statistics.median(
            scale for t, _, scale in runner.rounds[1:] if not t
        ),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.spans": len(tracer.spans) / rounds,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def run_traced(ops, loop, seconds: float, trace_path: Path):
    from spans import Tracer

    tracer = Tracer()
    runner = Runner(ops, loop)
    deadline = time.perf_counter() + seconds
    spare = defaultdict(float)  # counts of untraced rounds are not reported
    runner.run_round(spare)  # warm-up: first-call costs would fall on one side
    while True:
        runner.run_round(spare)
        tracer.install()
        try:
            runner.run_round(tracer.counts, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    tracer.write(trace_path)
    return runner, per_layer(tracer, runner)


def run_plain(ops, loop, seconds: float, setup_s: float):
    runner = Runner(ops, loop)
    deadline = time.perf_counter() + seconds
    counts = defaultdict(float)
    runner.run_round(counts)
    while time.perf_counter() < deadline:
        runner.run_round(counts)
    return runner, {
        "wall_s": {"value": statistics.median(runner.walls(False)), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    name = f"{args.workload}-seed{args.seed}"
    scratch = OUT / f"{name}-trace{args.trace}"
    if args.setup_only:
        workloads.build(args.workload, args.seed, scratch)
        return 0

    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            ops = workloads.build(args.workload, args.seed, scratch)
            runner, metrics = run_traced(
                ops, workloads.CALIBRATION[args.workload], args.seconds, OUT / f"trace-{name}.json"
            )
        else:
            setup_s = setup_seconds(args)
            ops = workloads.build(args.workload, args.seed, scratch)
            runner, metrics = run_plain(ops, workloads.CALIBRATION[args.workload], args.seconds, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": all(e is None or e.startswith("raised") for *_, e in runner.records),
        "attempted": len(runner.records),
        "failed": sum(1 for *_, e in runner.records if e is not None),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
