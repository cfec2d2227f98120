"""Command-line front end: coefficient tables, stability surveys, experiment runs.

Every `run` path, either preset or an explicit linear run, marches through one
snapshot driver, `_march_and_write`, which marches from one output time to
the next, takes each snapshot from what the march returns, and writes one CSV
per profile and output time with the run's parameters, any runtime warnings
and per-snapshot notes in its header.  The profiles of one linear preset
order march as one (rows, cells) stack; Burgers profiles march one at a time.

Exit codes: 0 on success, 1 for usage errors (bad flags, malformed values)
and for a stdout its reader closed early, 2 for every request the package
refuses with `ConfigurationError` (wrong stencil size, a scheme, a table or
a dump over one of `fdmarch.schemes`' size rules, unknown preset,
grid/stencil mismatch, ...).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import ConfigurationError, OffsetSet
from .schemes import (
    MAX_DUMP_CHARS,
    Scheme,
    SchemeSpec,
    check_scheme_points,
    default_offsets,
    first_order_scheme,
    format_scheme_dump,
    master_scheme,
    nonlinear_layers,
    parse_scheme_dump,
)
from .stability import (
    FAMILIES,
    FIRST_MEMBER,
    NU_MAX,
    NU_TOL,
    advection_critical,
    advection_family_spec,
    advection_family_stability,
    check_tol,
    classify_first_order,
    critical_courant,
    exact_critical,
    exact_rule,
    stability_report,
)
from .solver import (
    GridField,
    LinearProblem,
    LinearTerm,
    PROFILE_NAMES,
    burgers_densities,
    check_fit,
    check_march_budget,
    convergence_study,
    make_profile,
    run_linear,
    run_nonlinear,
    shock_front,
    term_coefficient,
)

USAGE_EXIT = 1
CONFIG_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    Also widens the negative-number detector so that a value starting with
    a negative number parses as a value rather than an unknown option: offset
    lists like ``--offsets -2,-1,0,1``, exponents (``-1e-3``), a leading dot
    (``-.5``), ``-inf`` and ``-nan``.  No option here starts with a digit, a
    dot, ``inf`` or ``nan``, so this is unambiguous.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)[\w.,+-]*$", re.I)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# -- experiment presets --------------------------------------------------------

def _ladder_orders(family: str, count: int) -> tuple[int, ...]:
    """The `count` lowest orders of the named ladder: a preset run with
    --family and without --orders runs as many as the preset's own orders."""
    first = FIRST_MEMBER[family]
    return tuple(advection_family_spec(family, s)[0] for s in range(first, first + count))


@dataclass(frozen=True)
class ExperimentPreset:
    """Fully pinned experiment: grid, step, outputs (the last one ends the run),
    default ladder."""

    name: str
    kind: str  # "advection" | "burgers"
    box: tuple[float, float]
    dx: float
    dt: float
    output_times: tuple[float, ...]
    profiles: tuple[str, ...]
    orders: tuple[int, ...]
    # ladder of a run without --family; None for Burgers, whose window
    # follows the parity of each order (`_preset_run`)
    family: str | None
    a: float = 0.0


PRESETS = {
    # long-haul linear transport: 50 box crossings of unit-width pulses
    "fig-advection": ExperimentPreset(
        name="fig-advection",
        kind="advection",
        box=(-5.0, 5.0),
        dx=0.1,
        dt=0.08,
        output_times=(500.0,),
        profiles=("triangle", "rectangle"),
        orders=_ladder_orders("uw", 15),
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
        output_times=(0.0, 0.5, 1.0, 1.5, 2.0),
        profiles=("burgers",),
        orders=(1, 2, 3),
        family=None,
    ),
}

def _family_window(family: str, n: int) -> OffsetSet:
    """Contiguous m=1 window of the named ladder's member of order n.  Orders
    climb by 2 from the lowest member's n0, so n is on the ladder when
    n - n0 is even and >= 0, and `advection_family_spec` gives its window."""
    first = FIRST_MEMBER[family]
    n0 = advection_family_spec(family, first)[0]
    if n < n0 or (n - n0) % 2:
        parity = "odd" if n0 % 2 else "even"
        raise ConfigurationError(f"the {family} ladder has {parity} orders n >= {n0} only")
    return OffsetSet.contiguous(advection_family_spec(family, first + (n - n0) // 2)[1], n)


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
    """CSV with '#' key=value metadata lines, an x,u header, then %.17g rows,
    written as one string.  The rows format Python floats, which print as
    the numpy scalars they come from do."""
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    pairs = zip(field.x().tolist(), field.values.tolist())
    rows = "".join(f"{x:.17g},{u:.17g}\n" for x, u in pairs)
    with open(path, "w", newline="\n") as fh:
        fh.write(head + "x,u\n" + rows)


def _fmt_offsets(offsets: Sequence[int]) -> str:
    return ",".join(str(k) for k in offsets)


# -- subcommands -------------------------------------------------------------------

def _refuse_unread(args, names: Sequence[str], path: str) -> None:
    """Refuse the options among `names` that were given, naming each: `path`,
    the way the command was asked to run, never reads them."""
    unread = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if unread:
        raise ConfigurationError(f"{path} does not read {', '.join(unread)}")


def _load_scheme(args) -> Scheme:
    if getattr(args, "scheme_file", None):
        _refuse_unread(args, ("m", "n", "offsets", "a_sign"), "--scheme-file")
        try:
            with open(args.scheme_file) as fh:  # a longer text is refused unread
                text = fh.read(MAX_DUMP_CHARS + 1)
            return parse_scheme_dump(text)
        except (OSError, ValueError) as exc:
            # an unreadable or corrupted scheme file is a configuration problem
            raise ConfigurationError(str(exc)) from exc
    if args.m is None or args.n is None:
        alt = " (or --scheme-file)" if hasattr(args, "scheme_file") else ""
        raise ConfigurationError(f"need --m and --n{alt}")
    if args.offsets is not None:
        _refuse_unread(args, ("a_sign",), "a stencil given by --offsets")
    offsets = default_offsets(args.m, args.n, args.a_sign or 0, args.offsets)
    return master_scheme(SchemeSpec(args.m, args.n, offsets))


def _cmd_coeffs(args) -> int:
    if args.first_order:
        _refuse_unread(args, ("n", "offsets", "a_sign"), "--first-order")
        if args.m is None or args.r is None:
            raise ConfigurationError("--first-order needs --m and --r (window shift)")
        scheme = first_order_scheme(args.m, args.r)
    else:
        _refuse_unread(args, ("r",), "coeffs without --first-order")
        scheme = _load_scheme(args)
    if args.format == "dump":
        sys.stdout.write(format_scheme_dump(scheme))
        return 0
    spec = scheme.spec
    print(f"# scheme m={spec.m} n={spec.n} offsets={_fmt_offsets(spec.offsets)}")
    for k in spec.offsets:
        print(f"c[{k}](nu) = {scheme.coeffs[k].format('nu')}")
    print("# layers (row j multiplies nu^j)")
    for j, row in enumerate(scheme.layers.rows):
        print(f"layer {j}: " + " ".join(str(w) for w in row))
    return 0


def _cmd_stability(args) -> int:
    check_tol(args.tol)  # refused before the scheme, which may take seconds, is built
    scheme = _load_scheme(args)
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
        if rep.nu_critical == NU_MAX:  # the search's ceiling, not a nu_c
            print(
                f"sign={rep.nu_sign:+d}  no instability found below the search ceiling"
                f" |nu| = {NU_MAX:g}"
            )
        else:
            verdict = "stable up to" if rep.is_stable else "unstable (critical below threshold):"
            print(
                f"sign={rep.nu_sign:+d}  {verdict} |nu| = {rep.nu_critical:.6g}"
                f"  (worst theta = {rep.worst_theta:.4f})"
            )
        nu_c = exact_critical(scheme, rep.nu_sign)
        if nu_c is not None:  # a closed form checks the search
            line = f"# exact nu_c = {Fraction(nu_c)} by the {exact_rule(scheme)} rule"
            miss = abs(rep.nu_critical - nu_c)
            if miss > 2.0 * max(args.tol, NU_TOL):
                line += f"; the float search above is off by {miss:.6g}"
            print(line)
    return 0


def _print_first_order_windows(m: int) -> None:
    """The exact nu_c of every first-order window r = 0..m for both signs of
    a, and the stable window per sign."""
    cls = classify_first_order(m)
    print(f"# first-order windows for m={m} (exact critical Courant numbers)")
    print("r " + " ".join(f"{r:>10d}" for r in range(m + 1)))
    for sign in (+1, -1):
        row = " ".join(f"{str(cls.nu_critical[(sign, r)]):>10}" for r in range(m + 1))
        print(f"a{'>' if sign > 0 else '<'}0 {row}")
    for sign in (+1, -1):
        r = cls.stable_r[sign]
        label = f"a{'>' if sign > 0 else '<'}0"
        if r is None:
            print(f"{label}: no stable window")
        else:
            print(f"{label}: stable window r={r} (|nu| up to {cls.nu_critical[(sign, r)]})")


def _cmd_classify(args) -> int:
    _print_first_order_windows(args.m)
    return 0


def _cmd_survey(args) -> int:
    """Critical Courant numbers across the scheme zoo: the centred diffusion
    ladder in full and truncated to its linear-in-nu layer, the first-order
    windows of m = 1..6 as `classify` prints them, and the named advection
    ladders, each member's float nu_c beside its exact `advection_critical`."""
    print("## centered second-derivative ladder (a > 0)")
    print(f"{'n':>3} {'nu_c full':>10} {'nu_c linear-layer only':>24}")
    for n in range(1, 5):
        scheme = master_scheme(SchemeSpec(2, n, default_offsets(2, n)))
        full = critical_courant(scheme, +1)
        trunc = critical_courant(scheme.truncated(1), +1)
        print(f"{n:>3} {full:>10.4f} {trunc:>24.4f}")
    print()
    for m in range(1, 7):
        _print_first_order_windows(m)
        print()
    print("## named advection ladders (probed at nu < 0)")
    print(f"{'family':>7} {'s':>3} {'n':>3} {'r':>3} {'nu_c':>8} {'exact':>5}")
    for kind, first in FIRST_MEMBER.items():
        for s in range(first, 3):
            n, r = advection_family_spec(kind, s)
            nu_c = advection_family_stability(s, kind)
            exact = advection_critical(OffsetSet.contiguous(r, n), -1)
            print(f"{kind:>7} {s:>3} {n:>3} {r:>3} {nu_c:>8.4f} {exact:>5}")
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


def _cell_count(box: tuple[float, float], dx: float) -> int:
    """Number of cells of width dx that tile box; refuses a box it cannot grid."""
    if not all(math.isfinite(v) for v in box):
        raise ConfigurationError(f"--box must be two finite numbers, got {box}")
    width = box[1] - box[0]
    if not math.isfinite(width / dx):
        raise ConfigurationError(f"dx={dx} gives no finite cell count on the box {box}")
    n_cells = round(width / dx)
    if n_cells < 1 or abs(n_cells * dx - width) > 1e-9 * width:
        raise ConfigurationError(f"dx={dx} does not tile the box {box} with a whole number of cells")
    return n_cells


def _grid_meta(field: GridField, dt: float, nu: float) -> dict:
    """The grid keys that close every run's header."""
    return dict(dx=f"{field.dx:.17g}", dt=f"{dt:.17g}", nu=f"{nu:.17g}", cells=field.n_cells)


def _march_and_write(out_dir, field, runs, march, out_steps, dt, annotate=None):
    """March `field`, one row or a (rows, cells) stack, to the last of the
    sorted `out_steps` and write `<stem>_t<time>.csv` for each row at each.

    `runs` holds one (stem, meta) per row of `field`, in row order.
    `march(field, steps=)` is run_linear or run_nonlinear with the rest
    bound; it marches all rows at once, from one output step to the next,
    and what it returns at an output step is that snapshot.  Its runtime
    warnings, each distinct message once in the order first seen, go into
    every row's header and to stderr once per row.  Each
    header is the row's meta, `step`, `time`, then the keys
    `annotate(first, step, snapshot)` returns for the row's initial and
    snapshot fields, and last, in a snapshot that holds non-finite values,
    `nonfinite_cells`, their count; stderr names the first snapshot time at
    which each such row holds any.
    """
    snaps = {}
    at, snap = 0, field
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for step in out_steps:
            snap = snaps[step] = march(snap, steps=step - at)
            at = step
    notes = list(
        dict.fromkeys(str(w.message) for w in caught if issubclass(w.category, RuntimeWarning))
    )
    snap_rows = {step: snap.rows() for step, snap in snaps.items()}
    for i, ((stem, meta), first) in enumerate(zip(runs, field.rows())):
        if notes:
            meta = dict(meta, warning="; ".join(notes))
            for note in notes:
                print(f"warning: {note}", file=sys.stderr)
        seen_nonfinite = False
        for step in out_steps:
            t = step * dt
            snap = snap_rows[step][i]
            header = dict(meta, step=step, time=f"{t:.17g}")
            if annotate is not None:
                header.update(annotate(first, step, snap))
            # both are finite only when every value is (a NaN makes both NaN)
            if not (math.isfinite(snap.values.min()) and math.isfinite(snap.values.max())):
                header["nonfinite_cells"] = int(np.count_nonzero(~np.isfinite(snap.values)))
                if not seen_nonfinite:
                    seen_nonfinite = True
                    print(
                        f"warning: {stem} has non-finite values from the t={t:g} snapshot "
                        f"(step {step}) on",
                        file=sys.stderr,
                    )
            path = os.path.join(out_dir, f"{stem}_t{t:g}.csv")
            _write_snapshot(path, snap, header)
            print(f"wrote {path}")


def _translation_error(nu: float, field0: GridField, step: int, snap: GridField) -> dict:
    """Max-norm error of an m=1 transport snapshot against the exact solution,
    `field0` moved by -nu cells a step; `none` if that is not whole cells."""
    cells = -nu * step
    shift = round(cells)
    if abs(cells - shift) > 1e-9 * max(1.0, abs(cells)):
        return {"max_error": "none"}
    exact = field0.values.take(range(-shift, field0.n_cells - shift), mode="wrap")
    return {"max_error": f"{float(abs(snap.values - exact).max()):.17g}"}


def _burgers_notes(field0: GridField, step: int, snap: GridField) -> dict:
    """Shock front of a Burgers snapshot and its mass drift from t=0, relative
    to the initial mass, or absolute when that mass is 0."""
    front = shock_front(snap)
    mass0 = field0.mass()
    drift = abs(snap.mass() - mass0) / (abs(mass0) or 1.0)
    return {"front": "none" if front is None else f"{front:.17g}", "mass_drift": f"{drift:.17g}"}


def _preset_run(args, preset: ExperimentPreset, out_dir: str) -> int:
    burgers = preset.kind == "burgers"
    orders = args.orders
    if orders is None:
        orders = _ladder_orders(args.family, len(preset.orders)) if args.family else preset.orders
    for n in orders:  # sized before any window is resolved
        check_scheme_points(1, n)
    # every order's window is resolved before the first march writes a file
    windows = []
    for n in orders:
        # no ladder named: Burgers' window is upwind at odd orders, centred at even
        family = args.family or preset.family or ("uw" if n % 2 else "lw")
        windows.append((n, family, _family_window(family, n)))
    n_cells = _cell_count(preset.box, preset.dx)
    out_steps = sorted({round(t / preset.dt) for t in preset.output_times})
    profiles = args.profiles or preset.profiles
    for n, family, offs in windows:
        fields = [
            GridField.sample(make_profile(name, preset.box), preset.box, n_cells)
            for name in profiles
        ]
        if burgers:
            nu = preset.dt / preset.dx
            densities = burgers_densities(n)
            march = functools.partial(
                run_nonlinear, layers=nonlinear_layers(n, offs), densities=densities, nu=nu
            )
            head, tail, annotate = {}, {"densities": densities.name}, _burgers_notes
            stem = f"{preset.name}_n{n}"
        else:
            # one problem per order, so the profiles share one scheme build
            problem = LinearProblem(terms=(LinearTerm(1, preset.a, offs),), dt=preset.dt, n=n)
            nu = problem.courant_numbers(fields[0].dx)[0]
            march = functools.partial(run_linear, problem)
            head, tail = {"family": family}, {"a": preset.a}
            annotate = functools.partial(_translation_error, nu)
            stem = f"{preset.name}_{family}{n:02d}"
        runs = [
            (
                f"{stem}_{name}",
                dict(
                    preset=preset.name, kind=preset.kind, **head, order=n,
                    offsets=_fmt_offsets(offs), profile=name, **tail,
                    **_grid_meta(field, preset.dt, nu),
                ),
            )
            for name, field in zip(profiles, fields)
        ]
        # The linear profiles of one order share one stencil, so they march as
        # one stack.  Burgers profiles march one by one: numpy raises its
        # overflow warnings per call, so a stack would copy one profile's note
        # into the headers of the others.
        if burgers:
            batches = [(field, [run]) for field, run in zip(fields, runs)]
        else:
            batches = [(GridField.stack(fields), runs)]
        for field, batch in batches:
            _march_and_write(out_dir, field, batch, march, out_steps, preset.dt, annotate)
    return 0


def _explicit_run(args, out_dir: str) -> int:
    if args.m is None or args.n is None:
        raise ConfigurationError("an explicit run needs --m and --n (or name a preset)")
    if args.steps is None:
        raise ConfigurationError("an explicit run needs --steps")
    a = term_coefficient(args.m, args.a)
    offs = default_offsets(args.m, args.n, a, args.offsets)
    box = args.box if args.box is not None else (-5.0, 5.0)
    dx = args.dx if args.dx is not None else 0.1
    _require_positive("--dx", dx)
    n_cells = _cell_count(box, dx)
    try:  # default step: Courant magnitude 0.4; a scheme that grows there is refused below
        dt = args.dt if args.dt is not None else 0.4 * dx**args.m / abs(a)
    except OverflowError:  # dx^m is past the float range: refused as inf below
        dt = math.inf
    _require_positive("--dt", dt)
    if args.times is not None:
        if not all(math.isfinite(t) for t in args.times):
            raise ConfigurationError("--times must be finite numbers")
        # t / dt overflows to inf on a tiny --dt or a huge time, beyond any run
        quotients = (t / dt for t in args.times)
        out_steps = sorted({round(q) if math.isfinite(q) else math.inf for q in quotients})
        if any(not 0 <= s <= args.steps for s in out_steps):
            raise ConfigurationError("--times must lie within the run duration")
    else:
        out_steps = [args.steps]
    # the march ends at the last snapshot, so that is the run's length
    check_march_budget(
        [(n_cells, out_steps[-1])], len(offs), "run",
        "raise --dx, shrink --box or use fewer --steps",
    )
    # `convergence_study` refuses a time step that is not a normal float, too
    if dt < sys.float_info.min:
        raise ConfigurationError(f"--dt must be a normal float, got {dt:g}")
    prof_name = args.profile or "triangle"
    field = GridField.sample(make_profile(prof_name, box), box, n_cells)
    problem = LinearProblem(terms=(LinearTerm(args.m, a, offs),), dt=dt, n=args.n)
    try:
        nu = problem.courant_numbers(field.dx)[0]
    except ArithmeticError:  # dx^m underflowed to 0 or overflowed
        nu = math.nan
    if not math.isfinite(nu):
        raise ConfigurationError(
            f"the Courant number a*dt/dx^{args.m} is not finite at dt={dt:g}, dx={field.dx:g}"
        )
    if args.dt is None:  # a step the user did not choose may not blow up
        check_fit(n_cells, offs)  # the march's rule, before the scheme is built
        if problem.growth_notes(field.dx)[0]:
            raise ConfigurationError(f"the default step grows at nu={nu:.6g}; give a stable --dt")
    meta = dict(
        kind="linear", m=args.m, order=args.n, offsets=_fmt_offsets(offs), profile=prof_name,
        a=a, **_grid_meta(field, dt, nu),
    )
    _march_and_write(
        out_dir, field, [(f"run_m{args.m}_n{args.n}_{prof_name}", meta)],
        functools.partial(run_linear, problem), out_steps, dt,
    )
    return 0


# The `run` options that only one of its two paths reads; the other refuses them.
_PRESET_OPTIONS = ("orders", "family", "profiles")
_EXPLICIT_OPTIONS = ("m", "n", "a", "offsets", "dx", "dt", "steps", "box", "profile", "times")


def _cmd_run(args) -> int:
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create the output directory {out_dir!r}: {exc.strerror}"
        ) from exc
    if args.preset is not None and args.preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    if args.preset is None:
        _refuse_unread(args, _PRESET_OPTIONS, "an explicit run")
        return _explicit_run(args, out_dir)
    _refuse_unread(args, _EXPLICIT_OPTIONS, f"the {args.preset} preset")
    return _preset_run(args, PRESETS[args.preset], out_dir)


# -- parser ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built on the first call and
    returned again by every later one (not at import, which stays cheap).

    One parser serves every `main` call in a process.  That changes no
    output: argparse keeps no parse state on a parser and fills a fresh
    `Namespace` per call, `_Parser.error` and the help printers write to the
    `sys.stderr` and `sys.stdout` of that call, and every default is
    immutable (None, a str, a number or a tuple).  A default added here must
    stay immutable too, since each call that omits the option shares it, and
    a caller must not change the parser, since every later call parses with
    the change.
    """
    parser = _Parser(
        prog="fdmarch",
        description="Arbitrary-order explicit marching schemes: exact coefficients, "
        "stability surveys, periodic 1-D experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stencil_opts(p):
        p.add_argument("--m", type=int, help="spatial derivative order")
        p.add_argument("--n", type=int, help="temporal order of the scheme")
        p.add_argument("--offsets", type=_int_list, help="stencil offsets, e.g. -2,-1,0,1")
        p.add_argument(
            "--a-sign",
            type=int,
            choices=(-1, 0, 1),
            help="sign of the coefficient used for the default stencil "
            "(default 0 = conventional)",
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
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", help="critical Courant numbers across the scheme zoo")
    p.set_defaults(func=_cmd_survey)

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
    p.add_argument("--box", type=_box, help="periodic box lo,hi (default -5,5)")
    p.add_argument("--profile", choices=PROFILE_NAMES)
    p.add_argument("--times", type=_float_list, help="snapshot times for explicit runs")
    p.add_argument("--out", default="out", help="output directory (created if missing)")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (`sys.argv[1:]` when `argv` is None) and return
    its exit code; a usage error or --help exits through `SystemExit`.

    `main` may be called more than once in one process.  The first call
    builds the parser (`build_parser`) and every later call parses with that
    same one: no parse leaves state on it, and its defaults are immutable, so
    each call prints and returns what it would in a fresh process.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed stdout early is met here, not at the exit flush
        sys.stdout.flush()
        return code
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush finds no closed pipe either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
