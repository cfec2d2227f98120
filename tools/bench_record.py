"""Record the benchmark of a checkout in BENCH_<short-sha>.json.

    python3 tools/bench_record.py
    python3 tools/bench_record.py --base ../parent --aa ../parent-copy

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs `perfbench/run.py --trace 0` in a fresh process and reads the last line;
it times the commands users run (`fdmarch run fig-advection`, `run
fig-burgers`, `survey`, `stability --m 1 --n 29` and `--n 39`) as the median
of 3 fresh processes, each writing its files to a temporary
directory; it times one run of the Tier-1 suite (`python -m pytest -q
--continue-on-collection-errors`) in the checkout, with its exit status;
and it writes one JSON file with the commit, host, CPU count, Python and
numpy versions, and the machine's calibration scale.

With `--base DIR`, a checkout of the commit to compare against, each
workload runs in PAIRS pairs of base and change, the side that goes
first alternating, both sides of a pair on one seed, and the commands and
the Tier-1 suite are timed on both sides.  With `--aa DIR` too, a second copy of the base,
each workload recorded also runs in as many pairs of the base against that
copy: the gap two runs of the same code show on it.  Every process runs
with an empty bytecode cache and writes none, so both sides import alike.
Lay the checkouts out alike too (say, as sibling clones): a checkout
elsewhere on the machine can time a few per cent apart from the same code.

A file recorded before its change is committed is named for the commit the
change sits on, and its `code_diff_sha256` names the measured code: the
sha256 of `git diff --binary <commit> -- src perfbench` at the time, which
`git diff --binary <commit> <change> -- src perfbench | sha256sum` matches
once the change is committed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
COMMANDS = {
    "run fig-advection": ["run", "fig-advection", "--out", "{out}"],
    "run fig-burgers": ["run", "fig-burgers", "--out", "{out}"],
    "survey": ["survey"],
    "stability --m 1 --n 29": ["stability", "--m", "1", "--n", "29"],
    "stability --m 1 --n 39": ["stability", "--m", "1", "--n", "39"],
}
CLI = "import sys; from fdmarch.cli import main; sys.exit(main(sys.argv[1:]))"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# fresh processes per command timing
REPEATS = 3
# pairs per workload, and of the A/A row, with --base
PAIRS = 10


def environment(checkout: Path, cache: str) -> dict:
    """The environment of every child: the checkout's sources first, and a
    bytecode cache under an empty directory that nothing writes to."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def workload_run(checkout: Path, workload: str, seed: int, seconds: float, cache: str) -> dict:
    """One `perfbench/run.py --trace 0` run: its verdict and end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=environment(checkout, cache),
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {"seed": seed, "correct": result["correct"], "failed": result["failed"]}
    run.update((name, result["metrics"][name]["value"]) for name in METRICS)
    return run


def command_seconds(checkout: Path, argv: list[str], cache: str) -> float:
    """Median wall time of REPEATS fresh processes running the command."""
    times = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as out:
            cmd = [sys.executable, "-c", CLI, *(a.format(out=out) for a in argv)]
            start = time.perf_counter()
            subprocess.run(cmd, cwd=checkout, env=environment(checkout, cache),
                           stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def tier1(checkout: Path, cache: str) -> dict:
    """One run of the checkout's Tier-1 suite: its wall time and exit status."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=environment(checkout, cache),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {"seconds": time.perf_counter() - start, "returncode": proc.returncode}


def paired(sides: dict[str, Path], workload: str, pairs: int, seed: int, seconds: float,
           cache: str) -> dict:
    """`pairs` pairs of runs of the two sides, the first side alternating,
    and per metric each side's median, the base's interquartile range and
    the number of pairs in which the second side reads lower."""
    (a, a_dir), (b, b_dir) = sides.items()
    rows = []
    for i in range(pairs):
        order = [(a, a_dir), (b, b_dir)][:: 1 if i % 2 == 0 else -1]
        row = {side: workload_run(path, workload, seed + i, seconds, cache) for side, path in order}
        rows.append({a: row[a], b: row[b]})
    summary = {}
    for name in METRICS:
        va, vb = [r[a][name] for r in rows], [r[b][name] for r in rows]
        q = statistics.quantiles(va, n=4) if len(va) > 1 else [va[0]] * 3
        summary[name] = {
            f"{a}_median": statistics.median(va),
            f"{b}_median": statistics.median(vb),
            f"{a}_iqr": q[2] - q[0],
            f"{b}_lower_in": sum(y < x for x, y in zip(va, vb)),
        }
    return {"pairs": rows, "summary": summary}


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    """The checkout's commit and, when it has uncommitted changes, the hash
    of its code's diff from that commit."""
    dirty = git(checkout, "status", "--porcelain", "--untracked-files=no")
    record = {"commit": git(checkout, "rev-parse", "HEAD"), "uncommitted_changes": bool(dirty)}
    if dirty:
        diff = subprocess.run(
            ["git", "-C", str(checkout), "diff", "--binary", "HEAD", "--", "src", "perfbench"],
            capture_output=True, check=True).stdout
        record["code_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return record


def calibration_scale() -> float:
    """perfbench's mixed calibration loop, timed for half a second: the
    factor that turns this machine's seconds into the benchmark's."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from calibrate import MIXED, Speed

    speed = Speed(MIXED)
    speed.sample(5.0)
    return speed.scale()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--seconds", type=float, default=6.0, help="perfbench --seconds of each run")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run or pair")
    ap.add_argument("--base", type=Path, help="a checkout to compare against, in pairs")
    ap.add_argument("--aa", type=Path, help="a second copy of the base, for A/A pairs")
    ap.add_argument("--out", type=Path, help="the file to write (default: BENCH_<short-sha>.json)")
    args = ap.parse_args(argv)
    if args.aa and not args.base:
        ap.error("--aa needs --base")

    import numpy

    record = {
        **describe(ROOT),
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_scale": calibration_scale(),
        "seconds": args.seconds,
    }
    sides = {"change": ROOT}
    if args.base:
        record["base"] = describe(args.base)
        sides = {"base": args.base.resolve(), "change": ROOT}
    workloads = args.workload or WORKLOADS
    with tempfile.TemporaryDirectory() as cache:
        record["workloads"] = {}
        for workload in workloads:
            if args.base:
                record["workloads"][workload] = paired(
                    sides, workload, PAIRS, args.seed, args.seconds, cache)
            else:
                record["workloads"][workload] = {
                    "runs": [workload_run(ROOT, workload, args.seed, args.seconds, cache)]}
        if args.aa:
            copies = {"base": args.base.resolve(), "copy": args.aa.resolve()}
            record["aa"] = {workload: paired(copies, workload, PAIRS, args.seed, args.seconds, cache)
                            for workload in workloads}
        record["commands_s"] = {
            name: {side: command_seconds(path, argv, cache) for side, path in sides.items()}
            for name, argv in COMMANDS.items()
        }
        record["tier1"] = {side: tier1(path, cache) for side, path in sides.items()}
    out = args.out or ROOT / f"BENCH_{record['commit'][:7]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
