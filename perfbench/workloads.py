"""The three workloads: inputs made from the seed, timed operations, untimed checks.

`build(name, seed, scratch)` returns one round of operations.  The runner
repeats whole rounds, times `Op.run` and then calls `Op.check` on the result
outside the timed region.  Inputs come from the seed; the program receives
only the generated inputs, and every check is computed apart from it
(`checks.py`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import calibrate
import checks
import fdmarch
import fdmarch.cli


@dataclass
class Op:
    kind: str
    run: Callable  # run(tracer or None) -> result; timed
    check: Callable  # check(result, counts) -> list of problems; untimed
    work: dict = field(default_factory=dict)  # cell_steps / schemes / nu_c done


# -- advection-ladder ----------------------------------------------------------------
# The fig-advection preset cut from 50 box crossings (6250 steps) to 5
# (t = 50, 625 steps): a full round of all 15 orders then takes ~10 s, so a
# run holds whole rounds.  Everything else is the preset: 100 cells,
# nu = -4/5, triangle and rectangle, uw orders 1..29.

ADV_TIME = 50.0
ADV_STEPS = 625
ADV_ORDERS = tuple(range(1, 30, 2))
ADV_PROFILES = ("triangle", "rectangle")


def advection_ladder(seed: int, scratch: Path) -> list[Op]:
    presets = fdmarch.cli.PRESETS
    presets["fig-advection"] = dataclasses.replace(
        presets["fig-advection"], output_times=(ADV_TIME,)
    )
    orders = list(ADV_ORDERS)
    random.Random(seed).shuffle(orders)
    out = scratch / "csv"
    return [_advection_op(n, out) for n in orders]


def _advection_op(n: int, out: Path) -> Op:
    argv = ["run", "fig-advection", "--orders", str(n), "--out", str(out)]

    def run(tracer):
        with contextlib.redirect_stdout(io.StringIO()):
            return fdmarch.cli.main(argv)

    def check(rc, counts):
        problems = [] if rc == 0 else [f"fdmarch exited {rc}"]
        paths = sorted(out.glob("*.csv"))
        seen = []
        try:
            for path in paths:
                counts["cli.files_written"] += 1
                counts["cli.bytes_written"] += path.stat().st_size
                meta, x, u = read_snapshot(path)
                seen.append(meta.get("profile"))
                if meta.get("offsets") != ",".join(map(str, checks.uw_offsets(n))):
                    problems.append(f"{path.name}: offsets {meta.get('offsets')}")
                if int(meta.get("step", -1)) != ADV_STEPS:
                    problems.append(f"{path.name}: step {meta.get('step')}, want {ADV_STEPS}")
                problems += checks.check_advection(n, meta.get("profile"), ADV_STEPS, x, u)
        finally:
            for path in paths:
                path.unlink()
        if sorted(seen) != sorted(ADV_PROFILES):
            problems.append(f"order {n}: snapshots for {seen}, want {list(ADV_PROFILES)}")
        return problems

    cells = checks.ADV_CELLS * ADV_STEPS * len(ADV_PROFILES)
    return Op(f"order{n}", run, check, {"cell_steps": cells})


def read_snapshot(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """'# key=value' lines, an 'x,u' header, then one 'x,u' row per cell."""
    meta, xs, us = {}, [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif line.strip() != "x,u":
                x, u = line.split(",")
                xs.append(float(x))
                us.append(float(u))
    return meta, np.array(xs), np.array(us)


# -- burgers-shock -------------------------------------------------------------------
# The fig-burgers ramp on a 50x finer grid: 10^4 cells of dx = 1e-3, nu = 0.5,
# 4000 steps to t = 2, marched in four legs of 1000 steps that end at the
# snapshot times.  Each leg is one operation: a whole march is 1-3 s, too long
# for the calibration runs around it to follow the machine's speed.  The seed
# shifts the ramp by a whole number of cells and orders the three schemes.

BURGERS_BOX = (-5.0, 5.0)
BURGERS_CELLS = 10_000
BURGERS_NU = 0.5
BURGERS_LEG_STEPS = 1000
BURGERS_TIMES = (0.5, 1.0, 1.5, 2.0)  # t at the end of each leg
# order -> (ladder, member): odd orders on the uw windows, even on lw, as fig-burgers
BURGERS_ORDERS = {1: ("uw", 0), 2: ("lw", 1), 3: ("uw", 1)}


def burgers_shock(seed: int, scratch: Path) -> list[Op]:
    rng = random.Random(seed)
    lo, hi = BURGERS_BOX
    dx = (hi - lo) / BURGERS_CELLS
    x0 = rng.randint(-500, 500) * dx
    x = checks.grid_x(BURGERS_BOX, BURGERS_CELLS)
    u0 = np.clip(1.0 - (x - x0), 0.0, 1.0)
    orders = list(BURGERS_ORDERS)
    rng.shuffle(orders)
    return [op for n in orders for op in _burgers_legs(n, x, u0, x0)]


def _burgers_legs(n: int, x: np.ndarray, u0: np.ndarray, x0: float) -> list[Op]:
    family, member = BURGERS_ORDERS[n]
    _, r = fdmarch.advection_family_spec(family, member)
    offsets = fdmarch.OffsetSet.contiguous(r, n)
    mass0 = float(u0.sum())
    state = {}  # the march so far: field, layers, densities

    def run(tracer, leg):
        if leg == 0:
            densities = fdmarch.burgers_densities(n)
            if tracer is not None:
                densities = fdmarch.DensityFamily(
                    densities.name,
                    tuple(tracer.wrap("solver.density_eval", f) for f in densities.funcs),
                )
            state["layers"] = fdmarch.nonlinear_layers(n, offsets)
            state["densities"] = densities
            state["field"] = fdmarch.GridField(u0, float(x[1] - x[0]), float(x[0]))
        field = fdmarch.run_nonlinear(
            state["field"], state["layers"], state["densities"], BURGERS_NU, BURGERS_LEG_STEPS
        )
        state["field"] = field
        t = BURGERS_TIMES[leg]
        return field, fdmarch.shock_front(field) if t > 1 else None

    def check(result, counts, t):
        field, front = result
        problems = checks.check_burgers_snapshot(t, x, field.values, x0, mass0, front)
        return [f"order {n} {p}" for p in problems]

    return [
        Op(
            f"order{n}-t{t:g}",
            functools.partial(run, leg=leg),
            functools.partial(check, t=t),
            {"cell_steps": BURGERS_CELLS * BURGERS_LEG_STEPS},
        )
        for leg, t in enumerate(BURGERS_TIMES)
    ]


# -- scheme-zoo ----------------------------------------------------------------------
# Generation: a seeded list of distinct specs with a fixed (m, n) make-up, so
# every seed costs about the same.  Stability: the survey's content plus one
# spec whose probe falls into the tol-step pocket sweep.  No spec is built by
# two items, so a per-spec cache has nothing to reuse here.  The sweep runs at
# tol = 1e-3 (`fdmarch stability --tol 1e-3`): ~180 growth scans, against
# ~1.5k at the default 1e-4, whose single ~9 s call would leave one or two
# rounds per run and a spread the calibration cannot take out.

M1_CONTIGUOUS = (7, 12, 18, 26, 35, 49)
GAPPED = ((1, 3), (1, 5), (1, 8), (2, 2), (2, 3), (3, 2), (4, 2))  # (m, n)
CONTIGUOUS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
SWEEP_OFFSETS = tuple(range(-10, 11))  # m = 4, n = 5, the default window; probed at a < 0
SWEEP_TOL = 1e-3
LADDER_NU_C = {"uw": 1, "lw": 1, "bw": 2}


def generation_specs(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    rng = random.Random(seed)
    specs = []
    for n in M1_CONTIGUOUS:
        r = n // 2 + rng.choice((-1, 0, 1))
        specs.append((1, n, tuple(range(-r, n - r + 1))))
    for m, n in CONTIGUOUS:
        span = n * m
        if m == 2:
            # off-centre: the centred m = 2 windows belong to the diffusion items
            r = span // 2 + rng.choice((-1, 1))
        else:
            r = rng.randint(0, span)
        specs.append((m, n, tuple(range(-r, span - r + 1))))
    for m, n in GAPPED:
        span = n * m + 2
        left = span // 2 + rng.choice((-1, 0, 1))
        window = list(range(-left, span - left + 1))
        for k in rng.sample(window[1:-1], 2):  # interior points, so a gap remains
            window.remove(k)
        specs.append((m, n, tuple(window)))
    if len(set(specs)) != len(specs):
        raise AssertionError("generation specs must be distinct")
    return specs


def scheme_zoo(seed: int, scratch: Path) -> list[Op]:
    ops = [_generation_op(*spec) for spec in generation_specs(seed)]
    ops += [_diffusion_op(n) for n in range(1, 5)]
    ops += [_windows_op(m) for m in range(1, 7)]
    for kind in ("uw", "lw", "bw"):
        ops += [_ladder_op(kind, s) for s in range(0 if kind != "lw" else 1, 3)]
    ops.append(_sweep_op())
    random.Random(seed).shuffle(ops)
    return ops


def _table(scheme) -> dict:
    return {
        k: tuple(scheme.coefficient(k).coefficient(j) for j in range(scheme.n + 1))
        for k in scheme.offsets
    }


def _generation_op(m: int, n: int, offsets: tuple[int, ...]) -> Op:
    def run(tracer):
        scheme = fdmarch.master_scheme(fdmarch.SchemeSpec(m, n, fdmarch.OffsetSet(offsets)))
        return scheme, fdmarch.error_term(scheme)

    def check(result, counts):
        scheme, err = result
        power, poly = err.leading()
        leading = (power, [poly.coefficient(j) for j in range(poly.degree + 1)])
        return checks.check_generation(m, n, scheme.offsets, _table(scheme), leading)

    return Op(f"generate-m{m}", run, check, {"schemes": 1})


def _diffusion_op(n: int) -> Op:
    def run(tracer):
        scheme = fdmarch.master_scheme(
            fdmarch.SchemeSpec(2, n, fdmarch.OffsetSet.contiguous(n, 2 * n))
        )
        full = fdmarch.critical_courant(scheme, +1)
        truncated = fdmarch.critical_courant(scheme.truncated(1), +1)
        return scheme, full, truncated

    def check(result, counts):
        scheme, full, truncated = result
        table = _table(scheme)
        problems = checks.check_generation(2, n, scheme.offsets, table)
        known = checks.diffusion_nu_c(n, truncated=False)
        if known is not None:
            problems += checks.check_nu_c(full, known)
        else:
            problems += checks.check_nu_c_bracket(scheme.offsets, table, +1, full, checks.NU_C_TOL)
        problems += checks.check_nu_c(truncated, checks.diffusion_nu_c(n, truncated=True))
        return [f"diffusion n={n}: {p}" for p in problems]

    return Op(f"diffusion{n}", run, check, {"nu_c": 2})


def _windows_op(m: int) -> Op:
    def run(tracer):
        return fdmarch.classify_first_order(m)

    def check(cls, counts):
        problems = checks.check_windows(m, cls.nu_critical)
        for sign in (+1, -1):
            if cls.stable_r[sign] != checks.stable_window(m, sign):
                problems.append(f"m={m} sign={sign:+d}: classified r={cls.stable_r[sign]}")
        return problems

    return Op(f"windows-m{m}", run, check, {"nu_c": 2 * (m + 1)})


def _ladder_op(kind: str, s: int) -> Op:
    def run(tracer):
        return fdmarch.advection_family_stability(s, kind)

    def check(nu_c, counts):
        return [f"{kind} s={s}: {p}" for p in checks.check_nu_c(nu_c, LADDER_NU_C[kind])]

    return Op(f"ladder-{kind}", run, check, {"nu_c": 1})


def _sweep_op() -> Op:
    def run(tracer):
        spec = fdmarch.SchemeSpec(4, 5, fdmarch.OffsetSet(SWEEP_OFFSETS))
        scheme = fdmarch.master_scheme(spec)
        return scheme, fdmarch.critical_courant(scheme, -1, tol=SWEEP_TOL)

    def check(result, counts):
        scheme, nu_c = result
        table = _table(scheme)
        problems = checks.check_generation(4, 5, scheme.offsets, table)
        problems += checks.check_nu_c_bracket(scheme.offsets, table, -1, nu_c, 2 * SWEEP_TOL)
        return [f"sweep m=4 n=5: {p}" for p in problems]

    return Op("sweep", run, check, {"nu_c": 1})


WORKLOADS = {
    "advection-ladder": advection_ladder,
    "burgers-shock": burgers_shock,
    "scheme-zoo": scheme_zoo,
}
# the calibration loop of each workload does the kinds of work it does; on
# burgers-shock the mixed loop slowed more than the march and left a 10-14%
# spread over ten seeds, the array loop 3%
CALIBRATION = {
    "advection-ladder": calibrate.MIXED,
    "burgers-shock": calibrate.ARRAYS,
    "scheme-zoo": calibrate.MIXED,
}


def build(name: str, seed: int, scratch: Path) -> list[Op]:
    return WORKLOADS[name](seed, scratch)
