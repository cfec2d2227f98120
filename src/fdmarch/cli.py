"""Command-line front end: coefficient tables, stability surveys, experiment runs.

Exit codes: 0 on success, 1 for usage errors (bad flags, malformed values),
2 for structurally invalid requests (wrong stencil size, unknown preset,
grid/stencil mismatch, ...).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exact import InvalidOffsetsError, OffsetSet
from .schemes import (
    Scheme,
    SchemeSpec,
    StencilSizeError,
    UnsupportedSchemeError,
    default_offsets,
    first_order_scheme,
    format_scheme_dump,
    master_scheme,
    nonlinear_layers,
    parse_scheme_dump,
    preferred_sign,
)
from .stability import (
    FAMILIES,
    advection_family_spec,
    classify_first_order,
    stability_report,
)
from .solver import (
    ConfigurationError,
    GridField,
    LinearProblem,
    LinearTerm,
    PROFILE_NAMES,
    burgers_densities,
    convergence_study,
    make_profile,
    run_linear,
    run_nonlinear,
    shock_front,
)

USAGE_EXIT = 1
CONFIG_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    Also widens the negative-number detector so offset lists like
    ``--offsets -2,-1,0,1`` parse as values rather than unknown options
    (no option here starts with a digit, so this is unambiguous).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,+-]*$")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# -- experiment presets --------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPreset:
    """Fully pinned experiment: grid, step, duration, outputs, default ladder."""

    name: str
    kind: str  # "advection" | "burgers"
    box: tuple[float, float]
    dx: float
    dt: float
    steps: int
    output_times: tuple[float, ...]
    profiles: tuple[str, ...]
    orders: tuple[int, ...]
    family: str
    a: float = 0.0


PRESETS = {
    # long-haul linear transport: 50 box crossings of unit-width pulses
    "fig-advection": ExperimentPreset(
        name="fig-advection",
        kind="advection",
        box=(-5.0, 5.0),
        dx=0.1,
        dt=0.08,
        steps=6250,
        output_times=(500.0,),
        profiles=("triangle", "rectangle"),
        orders=tuple(range(1, 30, 2)),
        family="uw",
        a=-1.0,
    ),
    # ramp steepening into a moving shock
    "fig-burgers": ExperimentPreset(
        name="fig-burgers",
        kind="burgers",
        box=(-5.0, 5.0),
        dx=0.05,
        dt=0.025,
        steps=80,
        output_times=(0.0, 0.5, 1.0, 1.5, 2.0),
        profiles=("burgers",),
        orders=(1, 2, 3),
        family="uw",
    ),
}

_FAMILY_DEFAULT_ORDERS = {
    "uw": tuple(range(1, 30, 2)),
    "lw": tuple(range(2, 31, 2)),
    "bw": tuple(range(2, 31, 2)),
}


def _family_window(family: str, n: int) -> OffsetSet:
    """Contiguous m=1 window of the named ladder at order n."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "uw":
        if n % 2 == 0 or n < 1:
            raise ConfigurationError("the uw ladder has odd orders n >= 1 only")
        s = (n - 1) // 2
    elif family == "lw":
        if n % 2 == 1 or n < 2:
            raise ConfigurationError("the lw ladder has even orders n >= 2 only")
        s = n // 2
    else:  # bw
        if n % 2 == 1 or n < 2:
            raise ConfigurationError("the bw ladder has even orders n >= 2 only")
        s = (n - 2) // 2
    fam_n, r = advection_family_spec(family, s)
    assert fam_n == n
    return OffsetSet.contiguous(r, n)


# -- small parsers ---------------------------------------------------------------

def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _require_positive(flag: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ConfigurationError(f"{flag} must be a finite number > 0, got {value:g}")


def _box(text: str) -> tuple[float, float]:
    vals = _float_list(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"a box is two numbers lo,hi, got {text!r}")
    return (vals[0], vals[1])


# -- output helpers ---------------------------------------------------------------

def _write_snapshot(path: str, field: GridField, meta: dict) -> None:
    """CSV with '#' key=value metadata lines, an x,u header, then %.17g rows."""
    with open(path, "w", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write("x,u\n")
        for x, u in zip(field.x(), field.values):
            fh.write(f"{x:.17g},{u:.17g}\n")


def _fmt_offsets(offsets: Sequence[int]) -> str:
    return ",".join(str(k) for k in offsets)


def _run_catching_warnings(fn, meta: dict):
    """Run fn(); fold any runtime warnings (e.g. instability) into the metadata."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    notes = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if notes:
        meta["warning"] = "; ".join(notes)
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
    return result


# -- subcommands -------------------------------------------------------------------

def _cmd_coeffs(args) -> int:
    if args.first_order:
        if args.r is None:
            raise ConfigurationError("--first-order needs --r (window shift)")
        scheme = first_order_scheme(args.m, args.r)
    else:
        offs = (
            OffsetSet(args.offsets)
            if args.offsets is not None
            else default_offsets(args.m, args.n, args.a_sign)
        )
        scheme = master_scheme(SchemeSpec(args.m, args.n, offs))
    if args.format == "dump":
        sys.stdout.write(format_scheme_dump(scheme))
        return 0
    spec = scheme.spec
    print(f"# scheme m={spec.m} n={spec.n} offsets={_fmt_offsets(spec.offsets)}")
    for k in spec.offsets:
        print(f"c[{k}](nu) = {scheme.coeffs[k].format('nu')}")
    print("# layers (row j multiplies nu^j)")
    for j, row in enumerate(scheme.layers):
        print(f"layer {j}: " + " ".join(str(w) for w in row))
    return 0


def _load_scheme(args) -> Scheme:
    if getattr(args, "scheme_file", None):
        with open(args.scheme_file) as fh:
            return parse_scheme_dump(fh.read())
    if args.m is None or args.n is None:
        raise ConfigurationError("need --m and --n (or --scheme-file)")
    offs = (
        OffsetSet(args.offsets)
        if args.offsets is not None
        else default_offsets(args.m, args.n, args.a_sign)
    )
    return master_scheme(SchemeSpec(args.m, args.n, offs))


def _cmd_stability(args) -> int:
    _require_positive("--tol", args.tol)
    try:
        scheme = _load_scheme(args)
    except (OSError, ValueError) as exc:
        # unreadable or corrupted scheme file is a configuration problem
        if isinstance(exc, (InvalidOffsetsError, StencilSizeError, ConfigurationError)):
            raise
        raise ConfigurationError(str(exc)) from exc
    signs = {"both": (+1, -1), "+": (+1,), "-": (-1,)}[args.sign]
    reports = [stability_report(scheme, s, tol=args.tol) for s in signs]
    if args.format == "csv":
        print("sign,nu_critical,worst_theta,stable")
        for rep in reports:
            print(f"{rep.nu_sign},{rep.nu_critical:.6g},{rep.worst_theta:.6g},{int(rep.is_stable)}")
        return 0
    spec = scheme.spec
    print(f"# scheme m={spec.m} n={spec.n} offsets={_fmt_offsets(spec.offsets)}")
    for rep in reports:
        verdict = "stable up to" if rep.is_stable else "unstable (critical below threshold):"
        print(
            f"sign={rep.nu_sign:+d}  {verdict} |nu| = {rep.nu_critical:.6g}"
            f"  (worst theta = {rep.worst_theta:.4f})"
        )
    return 0


def _cmd_classify(args) -> int:
    _require_positive("--tol", args.tol)
    cls = classify_first_order(args.m, tol=args.tol)
    print(f"# first-order windows for m={args.m} (measured critical Courant numbers)")
    print("r " + " ".join(f"{r:>10d}" for r in range(args.m + 1)))
    for sign in (+1, -1):
        row = " ".join(f"{cls.nu_critical[(sign, r)]:>10.5f}" for r in range(args.m + 1))
        print(f"a{'>' if sign > 0 else '<'}0 {row}")
    for sign in (+1, -1):
        r = cls.stable_r[sign]
        label = f"a{'>' if sign > 0 else '<'}0"
        if r is None:
            print(f"{label}: no stable window")
        else:
            print(f"{label}: stable window r={r} (|nu| up to {cls.nu_critical[(sign, r)]:.5f})")
    return 0


def _cmd_converge(args) -> int:
    profile = None
    if args.profile is not None and args.profile != "sine":
        profile = make_profile(args.profile, args.box)
    result = convergence_study(
        args.m,
        args.n,
        args.nu,
        grids=args.grids,
        box=args.box,
        final_time=args.time,
        a=args.a,
        offsets=args.offsets,
        profile=profile,
    )
    print(f"# convergence m={result.m} n={result.n} nu={result.nu:g}")
    print(f"{'cells':>8} {'dx':>12} {'dt':>12} {'steps':>8} {'max_error':>14}")
    for g, dx, dt, st, err in zip(
        result.grid_sizes, result.dxs, result.dts, result.steps, result.errors
    ):
        print(f"{g:>8} {dx:>12.6g} {dt:>12.6g} {st:>8} {err:>14.6e}")
    if result.exact:
        print("errors at roundoff level: scheme reproduces this data exactly; no slope fitted")
    else:
        print(f"fitted order vs dt: {result.order_dt:.3f}   (vs dx: {result.order_dx:.3f})")
    return 0


def _advection_run(args, preset: ExperimentPreset, out_dir: str) -> int:
    orders = args.orders or (
        _FAMILY_DEFAULT_ORDERS[args.family] if args.family else preset.orders
    )
    family = args.family or preset.family
    profiles = args.profiles or preset.profiles
    nu = preset.dt * preset.a / preset.dx
    n_cells = round((preset.box[1] - preset.box[0]) / preset.dx)
    out_steps = sorted({round(t / preset.dt) for t in preset.output_times})
    for n in orders:
        offs = _family_window(family, n)
        # one problem per order, so both profiles share one scheme build
        problem = LinearProblem(terms=(LinearTerm(1, preset.a, offs),), dt=preset.dt, n=n)
        for prof_name in profiles:
            field = GridField.sample(make_profile(prof_name, preset.box), preset.box, n_cells)
            meta_base = {
                "preset": preset.name,
                "kind": preset.kind,
                "family": family,
                "order": n,
                "offsets": _fmt_offsets(offs),
                "profile": prof_name,
                "a": preset.a,
                "dx": f"{field.dx:.17g}",
                "dt": f"{preset.dt:.17g}",
                "nu": f"{nu:.17g}",
                "cells": n_cells,
            }
            snaps: dict[int, GridField] = {0: field}
            want = set(out_steps)
            def grab(step: int, f: GridField, want=want, snaps=snaps):
                if step in want:
                    snaps[step] = f
            _run_catching_warnings(
                lambda: run_linear(problem, field, max(out_steps), callback=grab),
                meta_base,
            )
            for step in out_steps:
                t = step * preset.dt
                meta = dict(meta_base, step=step, time=f"{t:.17g}")
                fname = f"{preset.name}_{family}{n:02d}_{prof_name}_t{t:g}.csv"
                _write_snapshot(os.path.join(out_dir, fname), snaps[step], meta)
                print(f"wrote {os.path.join(out_dir, fname)}")
    return 0


def _burgers_run(args, preset: ExperimentPreset, out_dir: str) -> int:
    orders = args.orders or preset.orders
    family = args.family
    nu = preset.dt / preset.dx
    n_cells = round((preset.box[1] - preset.box[0]) / preset.dx)
    out_steps = sorted({round(t / preset.dt) for t in preset.output_times})
    for n in orders:
        if family:
            offs = _family_window(family, n)
        elif n % 2 == 1:
            offs = _family_window("uw", n)
        else:
            offs = _family_window("lw", n)
        layers = nonlinear_layers(n, offs)
        densities = burgers_densities(n)
        for prof_name in preset.profiles:
            field = GridField.sample(make_profile(prof_name, preset.box), preset.box, n_cells)
            meta_base = {
                "preset": preset.name,
                "kind": preset.kind,
                "order": n,
                "offsets": _fmt_offsets(offs),
                "profile": prof_name,
                "densities": densities.name,
                "dx": f"{field.dx:.17g}",
                "dt": f"{preset.dt:.17g}",
                "nu": f"{nu:.17g}",
                "cells": n_cells,
            }
            snaps: dict[int, GridField] = {0: field}
            want = set(out_steps)
            def grab(step: int, f: GridField, want=want, snaps=snaps):
                if step in want:
                    snaps[step] = f
            run_nonlinear(field, layers, densities, nu, max(out_steps), callback=grab)
            mass0 = field.mass()
            for step in out_steps:
                t = step * preset.dt
                snap = snaps[step]
                front = shock_front(snap)
                meta = dict(
                    meta_base,
                    step=step,
                    time=f"{t:.17g}",
                    front="none" if front is None else f"{front:.17g}",
                    mass_drift=f"{abs(snap.mass() - mass0) / abs(mass0):.17g}",
                )
                fname = f"{preset.name}_n{n}_{prof_name}_t{t:g}.csv"
                _write_snapshot(os.path.join(out_dir, fname), snap, meta)
                print(f"wrote {os.path.join(out_dir, fname)}")
    return 0


def _explicit_run(args, out_dir: str) -> int:
    if args.m is None or args.n is None:
        raise ConfigurationError("an explicit run needs --m and --n (or name a preset)")
    if args.steps is None:
        raise ConfigurationError("an explicit run needs --steps")
    a = args.a if args.a is not None else float(preferred_sign(args.m))
    if a == 0:
        raise ConfigurationError("coefficient a must be nonzero")
    offs = (
        OffsetSet(args.offsets)
        if args.offsets is not None
        else default_offsets(args.m, args.n, 1 if a > 0 else -1)
    )
    box = args.box
    dx = args.dx if args.dx is not None else 0.1
    _require_positive("--dx", dx)
    # default step: Courant magnitude 0.4, comfortably inside every stable family
    dt = args.dt if args.dt is not None else 0.4 * dx**args.m / abs(a)
    _require_positive("--dt", dt)
    n_cells = round((box[1] - box[0]) / dx)
    if n_cells < 1 or abs(n_cells * dx - (box[1] - box[0])) > 1e-9 * max(1.0, n_cells):
        raise ConfigurationError(
            f"dx={dx} does not tile the box {box} with a whole number of cells"
        )
    prof_name = args.profile or "triangle"
    field = GridField.sample(make_profile(prof_name, box), box, n_cells)
    problem = LinearProblem(terms=(LinearTerm(args.m, a, offs),), dt=dt, n=args.n)
    nu = problem.courant_numbers(field.dx)[0]
    if args.times is not None:
        if not all(math.isfinite(t) for t in args.times):
            raise ConfigurationError("--times must be finite numbers")
        out_steps = sorted({round(t / dt) for t in args.times})
        if any(not 0 <= s <= args.steps for s in out_steps):
            raise ConfigurationError("--times must lie within the run duration")
    else:
        out_steps = [args.steps]
    meta_base = {
        "kind": "linear",
        "m": args.m,
        "order": args.n,
        "offsets": _fmt_offsets(offs),
        "profile": prof_name,
        "a": a,
        "dx": f"{field.dx:.17g}",
        "dt": f"{dt:.17g}",
        "nu": f"{nu:.17g}",
        "cells": n_cells,
    }
    snaps: dict[int, GridField] = {0: field}
    want = set(out_steps)
    def grab(step: int, f: GridField):
        if step in want:
            snaps[step] = f
    _run_catching_warnings(
        lambda: run_linear(problem, field, args.steps, callback=grab), meta_base
    )
    for step in out_steps:
        t = step * dt
        meta = dict(meta_base, step=step, time=f"{t:.17g}")
        fname = f"run_m{args.m}_n{args.n}_{prof_name}_t{t:g}.csv"
        _write_snapshot(os.path.join(out_dir, fname), snaps.get(step, field), meta)
        print(f"wrote {os.path.join(out_dir, fname)}")
    return 0


def _cmd_run(args) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        preset = PRESETS[args.preset]
        if preset.kind == "advection":
            return _advection_run(args, preset, out_dir)
        return _burgers_run(args, preset, out_dir)
    return _explicit_run(args, out_dir)


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fdmarch",
        description="Arbitrary-order explicit marching schemes: exact coefficients, "
        "stability surveys, periodic 1-D experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stencil_opts(p, need_n=True):
        p.add_argument("--m", type=int, required=False, help="spatial derivative order")
        if need_n:
            p.add_argument("--n", type=int, help="temporal order of the scheme")
        p.add_argument("--offsets", type=_int_list, help="stencil offsets, e.g. -2,-1,0,1")
        p.add_argument(
            "--a-sign",
            type=int,
            default=0,
            choices=(-1, 0, 1),
            help="sign of the coefficient used for the default stencil (0 = conventional)",
        )

    p = sub.add_parser("coeffs", help="print exact scheme coefficients")
    add_stencil_opts(p)
    p.add_argument("--first-order", action="store_true", help="use the closed-form n=1 scheme")
    p.add_argument("--r", type=int, help="window shift for --first-order")
    p.add_argument("--format", choices=("table", "dump"), default="table")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("stability", help="critical Courant numbers of a scheme")
    add_stencil_opts(p)
    p.add_argument("--scheme-file", help="read the scheme from a coefficient dump")
    p.add_argument("--sign", choices=("both", "+", "-"), default="both")
    p.add_argument("--tol", type=float, default=1e-4, help="bisection tolerance on nu")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("classify", help="stable first-order windows for one derivative order")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("converge", help="grid refinement study with exact references")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=float, required=True, help="Courant magnitude")
    p.add_argument("--grids", type=_int_list, default=(32, 64, 128, 256))
    p.add_argument("--box", type=_box, default=(0.0, 1.0))
    p.add_argument("--time", type=float, help="physical end time (default: profile-appropriate)")
    p.add_argument("--a", type=float, help="coefficient (default: conventional sign)")
    p.add_argument("--offsets", type=_int_list)
    p.add_argument("--profile", choices=PROFILE_NAMES, help="initial data (m=1 only, except sine)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("run", help="march an experiment and write CSV snapshots")
    p.add_argument("preset", nargs="?", help=f"optional preset: {', '.join(sorted(PRESETS))}")
    p.add_argument("--orders", type=_int_list, help="scheme orders to run")
    p.add_argument("--family", choices=FAMILIES, help="advection stencil ladder")
    p.add_argument("--profiles", type=lambda s: tuple(s.split(",")), help="initial profiles")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--offsets", type=_int_list)
    p.add_argument("--dx", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--box", type=_box, default=(-5.0, 5.0))
    p.add_argument("--profile", choices=PROFILE_NAMES)
    p.add_argument("--times", type=_float_list, help="snapshot times for explicit runs")
    p.add_argument("--out", default="out", help="output directory (created if missing)")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InvalidOffsetsError,
        StencilSizeError,
        UnsupportedSchemeError,
        ConfigurationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
