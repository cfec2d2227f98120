"""Command-line front end: output shapes, exit codes, file emission, determinism."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fdmarch.cli
import fdmarch.schemes
import fdmarch.solver
import fdmarch.stability
from fdmarch.exact import ConfigurationError, InvalidOffsetsError, OffsetSet
from fdmarch.schemes import (
    MAX_DUMP_CHARS,
    MAX_SCHEME_POINTS,
    SchemeSpec,
    StencilSizeError,
    UnsupportedSchemeError,
    default_offsets,
    format_scheme_dump,
    master_scheme,
    nonlinear_layers,
)
from fdmarch.solver import (
    GridField,
    LinearProblem,
    LinearTerm,
    burgers_densities,
    make_profile,
    run_linear,
    run_nonlinear,
)
from fdmarch.stability import MAX_SCAN_SPAN, advection_family_spec

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from fdmarch.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    """Invoke the CLI in-process; returns the exit code."""
    return main(list(argv))


def console_script_launcher(name):
    """Source of the launcher pip writes for the pyproject.toml console script
    `name`: strip the wrapper suffix from argv[0], exit with main()'s code."""
    toml = tomllib or pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = toml.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return (
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )


def checkout_env():
    """The environment with the checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_cli_process(*argv, timeout=60, input=None):
    """Run the CLI in a fresh interpreter against the checkout's sources,
    with `input` on its stdin.

    A hang raises subprocess.TimeoutExpired, so it fails the calling test."""
    return subprocess.run(
        [sys.executable, "-m", "fdmarch.cli", *argv],
        capture_output=True,
        text=True,
        env=checkout_env(),
        timeout=timeout,
        input=input,
    )


def read_csv(path):
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif line and line != "x,u":
                x, u = line.split(",")
                rows.append((float(x), float(u)))
    return meta, rows


# -- coeffs ---------------------------------------------------------------------------

class TestCoeffs:
    def test_table_output(self, capsys):
        assert run_cli("coeffs", "--m", "2", "--n", "2") == 0
        out = capsys.readouterr().out
        assert "c[0](nu) = 1 - 5/2 nu + 3 nu^2" in out
        assert "c[-2](nu) = -1/12 nu + 1/2 nu^2" in out
        assert "layer 0:" in out

    def test_first_order(self, capsys):
        assert run_cli("coeffs", "--m", "1", "--r", "1", "--first-order") == 0
        out = capsys.readouterr().out
        assert "c[-1](nu) = -nu" in out
        assert "c[0](nu) = 1 + nu" in out

    def test_first_order_needs_r(self, capsys):
        assert run_cli("coeffs", "--m", "1", "--first-order") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "2"), "need --m and --n"),
            (("--m", "2"), "need --m and --n"),
            (("--r", "1", "--first-order"), "--first-order needs --m and --r"),
        ],
    )
    def test_missing_order_refused(self, argv, message, capsys):
        assert run_cli("coeffs", *argv) == 2
        err = capsys.readouterr().err
        assert message in err and "--scheme-file" not in err

    def test_rejects_zero_order(self, capsys):
        assert run_cli("coeffs", "--m", "1", "--n", "0") == 2
        assert "n must be >= 1" in capsys.readouterr().err

    def test_wrong_stencil_size_names_requirement(self, capsys):
        assert run_cli("coeffs", "--m", "2", "--n", "3", "--offsets", "-1,0,1") == 2
        assert "n*m+1 = 7" in capsys.readouterr().err

    def test_dump_format_round_trips_through_stability(self, tmp_path, capsys):
        assert run_cli("coeffs", "--m", "2", "--n", "2", "--format", "dump") == 0
        dump = capsys.readouterr().out
        path = tmp_path / "scheme.txt"
        path.write_text(dump)
        assert run_cli(
            "stability", "--scheme-file", str(path), "--sign", "+", "--format", "csv"
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sign,nu_critical,worst_theta,stable"
        sign, nu_c, _, stable = lines[1].split(",")
        assert sign == "1" and stable == "1"
        assert float(nu_c) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_corrupted_scheme_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("m=1\nn=1\noffsets=-1,0\nc[-1]=0,-1\nc[0]=1,5\n")
        code = run_cli("stability", "--scheme-file", str(path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [("bogus=7\n", "unknown fields: bogus"), ("c[0]=1,1\n", "repeats the 'c[0]' field")],
    )
    def test_scheme_file_with_bad_keys(self, tmp_path, capsys, extra, message):
        path = tmp_path / "bad.txt"
        path.write_text("m=1\nn=1\noffsets=-1,0\nc[-1]=0,-1\nc[0]=1,1\n" + extra)
        assert run_cli("stability", "--scheme-file", str(path)) == 2
        assert message in capsys.readouterr().err

    def test_scheme_file_with_zero_denominator(self, tmp_path):
        """A weight 1/0 exits 2 with one error line naming its key, not a
        ZeroDivisionError traceback."""
        path = tmp_path / "bad.txt"
        path.write_text("m=1\nn=1\noffsets=-1,0\nc[-1]=0,1/0\nc[0]=1,1\n")
        proc = run_cli_process("stability", "--scheme-file", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: c[-1] has a weight with a zero denominator\n"
        assert proc.stdout == ""

    def test_scheme_file_with_an_exponent(self, tmp_path, capsys):
        """Regression: a weight 1e10000000 took 11 s, Fraction writing out
        its ten million digits, before the audit rejected it."""
        path = tmp_path / "bad.txt"
        path.write_text("m=1\nn=1\noffsets=-1,0\nc[-1]=0,1e10000000\nc[0]=1,1\n")
        start = time.perf_counter()
        assert run_cli("stability", "--scheme-file", str(path)) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == "error: c[-1] has a weight written with an exponent\n"
        assert captured.out == ""


# -- stability / classify ----------------------------------------------------------------

class TestStability:
    def test_table_both_signs(self, capsys):
        assert run_cli("stability", "--m", "2", "--n", "1") == 0
        out = capsys.readouterr().out
        assert "sign=+1" in out and "sign=-1" in out
        plus_line = next(l for l in out.splitlines() if l.startswith("sign=+1"))
        assert "stable up to" in plus_line
        nu_c = float(plus_line.split("|nu| = ")[1].split()[0])
        assert nu_c == pytest.approx(0.5, abs=1e-3)
        assert "unstable" in out

    def test_sweep_past_its_budget_exits_2(self, capsys, monkeypatch):
        """m = 4, n = 5's default-tol pocket sweep asks about 1 500 probes:
        under a budget of 1 000 the search refuses, naming its bracket, and
        the command exits 2 with the message and no traceback."""
        monkeypatch.setattr(fdmarch.stability, "_SWEEP_PROBES", 1000)
        assert run_cli("stability", "--m", "4", "--n", "5") == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the nu_c search's pocket sweep is still stable after 1000 probes: "
            "the first unstable |nu| lies in (0.1, 0.15035]\n"
        )

    def test_exact_line_on_m1_windows(self, capsys):
        """On a contiguous m = 1 window each sign's line is followed by the
        closed-form nu_c; CSV and other stencils get no such line."""
        assert run_cli("stability", "--m", "1", "--n", "2", "--offsets=-2,-1,0") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "sign=+1  unstable (critical below threshold): |nu| = 0  (worst theta = 3.1416)",
            "# exact nu_c = 0 by the m = 1 wedge rule",
            "sign=-1  stable up to |nu| = 2  (worst theta = 3.1416)",
            "# exact nu_c = 2 by the m = 1 wedge rule",
        ]
        for argv in (
            ("--m", "1", "--n", "3", "--format", "csv"),
            ("--m", "1", "--n", "3", "--offsets=-3,-1,0,2"),
            ("--m", "2", "--n", "2"),
            ("--m", "2", "--n", "1", "--offsets=1,2,3"),
        ):
            assert run_cli("stability", *argv) == 0
            assert "exact" not in capsys.readouterr().out

    def test_exact_line_on_first_order_windows(self, capsys):
        """An n = 1 window holding 0, for any m, is followed by the first-order
        rule's exact nu_c, 1/2^(m-1) on the stable window and 0 elsewhere."""
        assert run_cli("stability", "--m", "2", "--n", "1") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "sign=+1  stable up to |nu| = 0.5  (worst theta = 3.1416)",
            "# exact nu_c = 1/2 by the first-order window rule",
            "sign=-1  unstable (critical below threshold): |nu| = 0  (worst theta = 3.1416)",
            "# exact nu_c = 0 by the first-order window rule",
        ]
        assert run_cli("stability", "--m", "8", "--n", "1", "--sign", "-") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "sign=-1  stable up to |nu| = 0.0078  (worst theta = 3.1416)",
            "# exact nu_c = 1/128 by the first-order window rule",
        ]

    def test_exact_line_names_a_misread_search(self, capsys):
        """The L = R + 3 window of n = 29 grows at every nu > 0, where the
        float search reads a stable range up to 0.1335."""
        offsets = ",".join(str(k) for k in range(-13, 17))
        assert run_cli("stability", "--m", "1", "--n", "29", f"--offsets={offsets}", "--sign", "+") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "sign=+1  stable up to |nu| = 0.1335  (worst theta = 1.1503)",
            "# exact nu_c = 0 by the m = 1 wedge rule; the float search above is off by 0.1335",
        ]

    def test_search_ceiling_is_not_a_critical_courant(self, capsys):
        """Regression: a scheme stable past the search ceiling printed
        "stable up to |nu| = 64  (worst theta = 0.0000)" as if 64 were its
        nu_c; this one's is 41^2 / 2 = 840.5.  The text now names the ceiling
        and prints no worst theta; a CSV row still reads 64."""
        argv = ("stability", "--m", "2", "--n", "1", "--offsets=-41,0,41")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "sign=+1  no instability found below the search ceiling |nu| = 64",
            "sign=-1  unstable (critical below threshold): |nu| = 0  (worst theta = 3.1416)",
        ]
        assert run_cli(*argv, "--format", "csv") == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,64,0,1"

    def test_classify_third_derivative(self, capsys):
        assert run_cli("classify", "--m", "3") == 0
        out = capsys.readouterr().out
        assert "a>0: stable window r=2" in out
        assert "a<0: stable window r=1" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("stability", "--m", "1", "--n", "1", "--tol", "0"),
            ("stability", "--m", "1", "--n", "1", "--tol", "-0.1"),
            ("stability", "--m", "1", "--n", "1", "--tol", "nan"),
        ],
    )
    def test_tol_must_be_positive(self, argv):
        proc = run_cli_process(*argv)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr == f"error: tol must be > 0 and finite, got {float(argv[-1]):g}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("tol", ["64", "100", "1e308", "inf"])
    def test_tol_at_search_ceiling_refused(self, tol):
        """Regression: a tol at or above NU_MAX = 64 ended the search before its
        first probe and reported "stable up to |nu| = 64" for both signs of
        m = 2, n = 1, whose a < 0 side is unstable at every nu; 1e308 also
        leaked a numpy overflow warning."""
        proc = run_cli_process("stability", "--m", "2", "--n", "1", "--tol", tol)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr == f"error: tol must be below the search ceiling 64, got {float(tol):g}\n"
        assert proc.stdout == ""

    def test_tol_above_nu_c_still_stable(self, capsys):
        """Regression: a tol at or above nu_c made the first probe unstable, and
        bisecting [0, tol] no finer than tol stopped at once, so the centred
        diffusion scheme (nu_c = 1/2) printed "unstable (critical below
        threshold): |nu| = 0" at --tol 1."""
        assert run_cli("stability", "--m", "2", "--n", "1", "--sign", "+", "--tol", "1") == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("sign=+1"))
        assert "stable up to" in line and "unstable" not in line
        nu_c = float(line.split("|nu| = ")[1].split()[0])
        assert 0.499 < nu_c <= 0.5

    def test_classify_takes_no_tol(self):
        proc = run_cli_process("classify", "--m", "1", "--tol", "1e-4")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "unrecognized arguments: --tol" in proc.stderr

    @pytest.mark.parametrize("m", ["-3", "0"])
    def test_classify_needs_positive_m(self, m):
        proc = run_cli_process("classify", "--m", m)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr == f"error: derivative order m must be >= 1, got {m}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("m", ["140", "100000"])
    def test_classify_oversized_m_refused(self, m, capsys):
        """Regression: `classify --m 100000` died printing 1/2^99999 (Python's
        4300-digit limit on int to str); m + 1 windows over MAX_SCHEME_POINTS
        are refused like any other oversized scheme."""
        assert run_cli("classify", "--m", m) == 2
        captured = capsys.readouterr()
        assert f"stencil points, over the limit of {MAX_SCHEME_POINTS}" in captured.err
        assert captured.out == ""

    def test_classify_largest_m_runs(self, capsys):
        assert run_cli("classify", "--m", "139") == 0
        assert f"a>0: stable window r=70 (|nu| up to 1/{2**138})" in capsys.readouterr().out

    def test_classify_high_order_exact(self, capsys):
        assert run_cli("classify", "--m", "11") == 0
        out = capsys.readouterr().out
        assert "a>0: stable window r=6 (|nu| up to 1/1024)" in out
        assert "a<0: stable window r=5 (|nu| up to 1/1024)" in out

    def test_tol_below_float_spacing_terminates(self):
        proc = run_cli_process("stability", "--m", "1", "--n", "1", "--tol", "1e-20", "--sign", "-")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = next(l for l in proc.stdout.splitlines() if l.startswith("sign=-1"))
        assert "stable up to" in line
        assert float(line.split("|nu| = ")[1].split()[0]) == 1.0

    def test_tiny_tol_sweep_terminates(self):
        """The m=4, n=5 window falls into the pocket sweep; a tol far below its
        step must still end, inside the bracket of the default-tol answer."""
        argv = ("stability", "--m", "4", "--n", "5", "--sign", "-", "--format", "csv")
        nu_c = {}
        for tol in ("1e-4", "1e-20"):
            proc = run_cli_process(*argv, "--tol", tol)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            nu_c[tol] = float(proc.stdout.splitlines()[1].split(",")[1])
        assert nu_c["1e-4"] <= nu_c["1e-20"] <= nu_c["1e-4"] + 1e-4

    def test_classify_reports_dead_sign(self, capsys):
        assert run_cli("classify", "--m", "2") == 0
        out = capsys.readouterr().out
        assert "a>0: stable window r=1" in out
        assert "a<0: no stable window" in out

    def test_survey(self, capsys):
        """`survey` prints the centred diffusion ladder, every first-order
        window block of m = 1..6 as `classify` prints it (the parity rule: no
        stable window for a < 0 at m = 2 and 6, none for a > 0 at m = 4), and
        the named advection ladders, each float nu_c beside its exact one."""
        blocks = []
        for m in range(1, 7):
            assert run_cli("classify", "--m", str(m)) == 0
            blocks.append(capsys.readouterr().out)
        assert run_cli("survey") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[:3] == [
            "## centered second-derivative ladder (a > 0)",
            "  n  nu_c full   nu_c linear-layer only",
            "  1     0.5000                   0.5000",
        ]
        assert "".join(block + "\n" for block in blocks) in out
        for m, plus, minus in (
            (1, "stable window r=0 (|nu| up to 1)", "stable window r=1 (|nu| up to 1)"),
            (2, "stable window r=1 (|nu| up to 1/2)", "no stable window"),
            (3, "stable window r=2 (|nu| up to 1/4)", "stable window r=1 (|nu| up to 1/4)"),
            (4, "no stable window", "stable window r=2 (|nu| up to 1/8)"),
            (5, "stable window r=2 (|nu| up to 1/16)", "stable window r=3 (|nu| up to 1/16)"),
            (6, "stable window r=3 (|nu| up to 1/32)", "no stable window"),
        ):
            assert blocks[m - 1].splitlines()[-2:] == [f"a>0: {plus}", f"a<0: {minus}"]
        header = lines.index("## named advection ladders (probed at nu < 0)")
        assert lines[header + 1].split()[-2:] == ["nu_c", "exact"]
        nu_c = {tuple(row.split()[:2]): tuple(row.split()[-2:]) for row in lines[header + 2 :]}
        assert nu_c == {
            ("uw", "0"): ("1.0000", "1"), ("uw", "1"): ("1.0000", "1"),
            ("uw", "2"): ("1.0000", "1"),
            ("lw", "1"): ("1.0000", "1"), ("lw", "2"): ("1.0000", "1"),
            ("bw", "0"): ("2.0000", "2"), ("bw", "1"): ("2.0000", "2"),
            ("bw", "2"): ("2.0000", "2"),
        }

    def test_survey_takes_no_options(self):
        proc = run_cli_process("survey", "--m", "1")
        assert proc.returncode == 1
        assert "unrecognized arguments: --m 1" in proc.stderr
        assert proc.stdout == ""


# -- converge -----------------------------------------------------------------------------

class TestConverge:
    def test_third_order_slope(self, capsys):
        assert run_cli("converge", "--m", "1", "--n", "3", "--nu", "0.8") == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("fitted order vs dt:"))
        slope = float(line.split(":")[1].split()[0])
        assert slope == pytest.approx(3.0, abs=0.25)

    def test_exact_shift_reported(self, capsys):
        assert run_cli("converge", "--m", "1", "--n", "2", "--nu", "1.0") == 0
        assert "exactly" in capsys.readouterr().out

    def test_unstable_refused(self, capsys):
        assert run_cli("converge", "--m", "2", "--n", "1", "--nu", "0.8") == 2
        assert "unstable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--grids", "0,8"), "grid sizes must be at least 1 cell"),
            (("--grids", "64"), "at least two distinct grid sizes"),
            (("--grids", "64,64"), "at least two distinct grid sizes"),
            (("--box", "1,1"), "empty box"),
            (("--time", "nan"), "final time must be a finite number > 0"),
            (("--time", "inf"), "final time must be a finite number > 0"),
            (("--time", "-1"), "final time must be a finite number > 0"),
            (("--time", "0"), "final time must be a finite number > 0"),
            (("--time", "1e-9"), "final time 1e-09 is under half a step"),
            # the default final time 2 / (|a| p^m): p^m underflowed to 0
            # (ZeroDivisionError) or overflowed (OverflowError)
            (("--m", "2", "--nu", "0.4", "--box", "0,1e300"), "has a width^2 out of float range"),
            (("--m", "2", "--nu", "0.4", "--box", "0,inf"), "has a width^2 out of float range"),
            (("--m", "2", "--nu", "0.4", "--box", "0,1e-300"), "has a width^2 out of float range"),
        ],
    )
    def test_degenerate_ladder_refused(self, extra, message, capsys):
        assert run_cli("converge", "--m", "1", "--n", "1", "--nu", "0.5", *extra) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "fitted order" not in captured.out

    @pytest.mark.parametrize(
        "extra", [("--nu", "0.5", "--time", "1e7"), ("--nu", "1e-12")], ids=["long", "tiny-nu"]
    )
    def test_oversized_ladder_refused_before_marching(self, extra):
        proc = run_cli_process("converge", "--m", "1", "--n", "1", *extra, timeout=60)
        assert proc.returncode == 2
        assert "cells x steps x stencil points, over the limit" in proc.stderr
        assert proc.stdout == ""

    def test_ladder_work_refused_before_marching(self, monkeypatch, capsys):
        """Regression: m = 1, n = 29 at |nu| = 2e-4 marches 1.2e6 steps and
        2.2e8 cell-steps, under both the step and the old cell-step bound,
        but 6.5e9 cell-steps x 30 stencil points; it took 17 s.  The work
        bound refuses it before any grid marches."""

        def march(*args):
            raise AssertionError("a refused ladder marched")

        monkeypatch.setattr(fdmarch.solver, "_march", march)
        assert run_cli("converge", "--m", "1", "--n", "29", "--nu", "2e-4") == 2
        captured = capsys.readouterr()
        limit = fdmarch.solver.MAX_MARCH_WORK
        assert captured.err == (
            "error: the ladder to time 0.5 would march 6.53e+09 cells x steps x stencil points, "
            f"over the limit of {limit:.3g}; raise |nu|, shorten the time or use fewer or "
            "smaller grids\n"
        )
        assert captured.out == ""

    def test_ladder_steps_refused_before_marching(self, monkeypatch, capsys):
        """Regression: m = 1, n = 1 at |nu| = 2e-4 marches 1.2e6 steps on
        32..256 cells, under the work bound (4.4e8), and took 7.8 s at a
        step's fixed cost.  The step bound refuses it before any grid marches."""

        def march(*args):
            raise AssertionError("a refused ladder marched")

        monkeypatch.setattr(fdmarch.solver, "_march", march)
        assert run_cli("converge", "--m", "1", "--n", "1", "--nu", "2e-4") == 2
        captured = capsys.readouterr()
        limit = fdmarch.solver.MAX_MARCH_STEPS
        assert captured.err == (
            "error: the ladder to time 0.5 would march 1.2e+06 steps, "
            f"over the limit of {limit:.3g}; raise |nu|, shorten the time or use fewer or "
            "smaller grids\n"
        )
        assert captured.out == ""

    def test_ladder_cells_refused_before_sampling(self, monkeypatch, capsys):
        """Regression: a ladder on 4e8 cells at |nu| = 1 to time 2e-9 marches
        one step a grid, under the work and step bounds, yet one array of it
        is 3.2 GB.  The cell bound refuses it before any field is sampled."""

        def sample(*args, **kwargs):
            raise AssertionError("an oversized ladder sampled its field")

        monkeypatch.setattr(GridField, "sample", sample)
        assert run_cli(
            "converge", "--m", "1", "--n", "1", "--nu", "1",
            "--grids", "400000000,400000001", "--time", "2e-9",
        ) == 2
        captured = capsys.readouterr()
        limit = fdmarch.solver.MAX_MARCH_CELLS
        assert captured.err == (
            "error: the ladder to time 2e-09 would march 4e+08 cells on one grid, "
            f"over the limit of {limit:.3g}; raise |nu|, shorten the time or use fewer or "
            "smaller grids\n"
        )
        assert captured.out == ""

    def test_run_and_ladder_refuse_one_grid_by_one_bound(self, monkeypatch, capsys, tmp_path):
        """The same 4e8-cell grid, as an explicit run and as a ladder, is
        refused by the one cell bound both commands share."""

        def sample(*args, **kwargs):
            raise AssertionError("an oversized grid was sampled")

        monkeypatch.setattr(GridField, "sample", sample)
        bound = "would march 4e+08 cells on one grid, over the limit of 1e+07; "
        argvs = (
            ("run", "--m", "1", "--n", "1", "--box", "0,1", "--dx", "2.5e-9", "--steps", "1",
             "--out", str(tmp_path / "o")),
            ("converge", "--m", "1", "--n", "1", "--nu", "1",
             "--grids", "400000000,400000001", "--time", "2e-9"),
        )
        for argv in argvs:
            assert run_cli(*argv) == 2
            assert bound in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--a", "1e308"), "are not normal floats"),
            (("--grids", "3,4", "--time", "5e6"), "to time 5e+06 would march 7e+07 steps, over"),
            (("--a", "nan"), "coefficient a must be nonzero"),
            (("--a", "inf"), "coefficient a must be nonzero"),
            # the ladder's nu * dx^2 raised OverflowError
            (("--m", "2", "--nu", "0.4", "--box", "0,1e200", "--time", "1"),
             "has a width^2 out of float range"),
        ],
        ids=["subnormal-dt", "long-tiny-ladder", "nan-a", "inf-a", "huge-dx-power"],
    )
    def test_unfinishable_ladder_refused(self, extra, message):
        proc = run_cli_process("converge", "--m", "1", "--n", "1", "--nu", "0.5", *extra)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    def test_overflowing_scan_prints_only_the_refusal(self):
        """At a huge nu the growth scan's gain overflows to nan; the refusal
        is the one line on stderr, with no numpy warning before it."""
        proc = run_cli_process("converge", "--m", "1", "--n", "2", "--nu", "1e200")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: scheme m=1 n=2 offsets=(-1, 0, 1) is unstable at nu=-1e+200 "
            "(max |g|^2 = nan at theta=0.0000); reduce |nu|"
        ]
        assert proc.stdout == ""

    def test_nan_courant_refused(self, capsys):
        assert run_cli("converge", "--m", "1", "--n", "1", "--nu", "nan") == 2
        assert "Courant magnitude must be a finite number > 0" in capsys.readouterr().err


# -- run ----------------------------------------------------------------------------------

class TestRunPresets:
    def test_burgers_preset_writes_all_times(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run_cli("run", "fig-burgers", "--orders", "3", "--out", str(out_dir)) == 0
        files = {p.name for p in out_dir.iterdir()}
        assert files == {
            "fig-burgers_n3_burgers_t0.csv",
            "fig-burgers_n3_burgers_t0.5.csv",
            "fig-burgers_n3_burgers_t1.csv",
            "fig-burgers_n3_burgers_t1.5.csv",
            "fig-burgers_n3_burgers_t2.csv",
        }
        meta, rows = read_csv(out_dir / "fig-burgers_n3_burgers_t2.csv")
        assert meta["order"] == "3"
        assert meta["profile"] == "burgers"
        assert float(meta["dx"]) == pytest.approx(0.05)
        assert len(rows) == 200
        # after the break the front moves at half the plateau speed: 1 + (t - 1)/2
        assert float(meta["front"]) == pytest.approx(1.5, abs=0.05)
        assert float(meta["mass_drift"]) < 1e-12
        meta0, _ = read_csv(out_dir / "fig-burgers_n3_burgers_t0.csv")
        assert float(meta0["front"]) == pytest.approx(0.5)
        assert float(meta0["mass_drift"]) == 0.0

    def test_burgers_preset_honours_profiles(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "fig-burgers", "--orders", "1", "--profiles", "sine,rectangle",
            "--out", str(out_dir),
        ) == 0
        paths = sorted(out_dir.iterdir())
        assert len(paths) == 10
        assert {read_csv(p)[0]["profile"] for p in paths} == {"sine", "rectangle"}
        mass0 = {}
        for path in sorted(paths, key=lambda p: int(read_csv(p)[0]["step"])):
            meta, rows = read_csv(path)
            mass = np.array([u for _, u in rows]).sum()
            mass0.setdefault(meta["profile"], mass)
            drift = float(meta["mass_drift"])
            if math.isfinite(mass):
                assert math.isfinite(drift), path.name
            else:
                # order 1 marches the upwind window of a rightward wave, which
                # is downwind where the sine is negative: a recorded blow-up
                assert "overflow" in meta["warning"], path.name
            if meta["profile"] == "sine":
                # the sine sample has mass 0.0, so its drift is absolute
                assert mass0["sine"] == 0.0
                assert drift == abs(mass) or not math.isfinite(mass)

    def test_advection_preset_single_order(self, tmp_path):
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "fig-advection", "--orders", "5", "--profiles", "triangle",
            "--out", str(out_dir),
        ) == 0
        files = [p.name for p in out_dir.iterdir()]
        assert files == ["fig-advection_uw05_triangle_t500.csv"]
        meta, rows = read_csv(out_dir / files[0])
        assert meta["family"] == "uw"
        assert float(meta["nu"]) == pytest.approx(-0.8)
        assert meta["offsets"] == "-3,-2,-1,0,1,2"
        assert len(rows) == 100

    def test_one_scheme_build_per_order(self, tmp_path, monkeypatch):
        built = []
        real = fdmarch.solver.master_scheme

        def counting(spec):
            built.append(spec.n)
            return real(spec)

        monkeypatch.setattr(fdmarch.solver, "master_scheme", counting)
        monkeypatch.setattr(fdmarch.cli, "master_scheme", counting)
        assert run_cli(
            "run", "fig-advection", "--orders", "1,3", "--out", str(tmp_path / "o")
        ) == 0
        assert built == [1, 3]
        assert len(list((tmp_path / "o").iterdir())) == 4

    def test_one_stability_scan_per_order(self, tmp_path, monkeypatch):
        """fig-advection's uw windows run inside their exact m = 1 range, so
        the preset scans nothing; an explicit m = 2 run scans its one term
        once, for the default-step refusal and all eight snapshots alike."""
        scanned = []
        real = fdmarch.stability.max_growth

        def counting(scheme, nu, *args, **kwargs):
            scanned.append((scheme.m, scheme.n))
            return real(scheme, nu, *args, **kwargs)

        monkeypatch.setattr(fdmarch.stability, "max_growth", counting)
        assert run_cli(
            "run", "fig-advection", "--orders", "5", "--out", str(tmp_path / "o")
        ) == 0
        assert scanned == []
        assert len(list((tmp_path / "o").iterdir())) == 2
        times = ",".join(f"0.{k}" for k in range(1, 9))
        argv = ("run", "--m", "2", "--n", "4", "--steps", "400", "--times", times)
        assert run_cli(*argv, "--out", str(tmp_path / "m2")) == 0
        assert scanned == [(2, 4)]
        assert len(list((tmp_path / "m2").iterdir())) == 8

    @pytest.mark.parametrize("preset", ["fig-advection", "fig-burgers"])
    @pytest.mark.parametrize("order", ["-1", "-3"])
    def test_negative_order_refused(self, preset, order, tmp_path, capsys):
        assert run_cli("run", preset, "--orders", order, "--out", str(tmp_path / "o")) == 2
        assert "odd orders n >= 1 only" in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("fig-advection", "--orders", "1,2"), "the uw ladder has odd orders n >= 1 only"),
            (
                ("fig-burgers", "--family", "uw", "--orders", "1,2"),
                "the uw ladder has odd orders n >= 1 only",
            ),
            (("fig-burgers", "--family", "lw", "--orders", "2,4,3"),
             "the lw ladder has even orders n >= 2 only"),
            # the size check still runs over every order first
            (
                ("fig-advection", "--orders", "1,2,200"),
                "an order n=200 scheme for m=1 has n*m+1 = 201 stencil points, "
                "over the limit of 140",
            ),
        ],
        ids=["advection", "burgers-uw", "burgers-lw", "size-first"],
    )
    def test_order_off_the_ladder_refused_before_any_file(self, argv, message, tmp_path, capsys):
        """Every order's window is resolved before the first march, so a bad
        order leaves the output directory empty."""
        out_dir = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out_dir)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("family, orders", [("uw", (1, 3, 5)), ("lw", (2, 4, 6)), ("bw", (2, 4, 6))])
    def test_burgers_family_runs_its_lowest_orders(self, family, orders, tmp_path):
        """`fig-burgers --family F` without --orders runs as many orders as the
        preset's own, the lowest of ladder F, each on F's window."""
        out_dir = tmp_path / "o"
        assert run_cli("run", "fig-burgers", "--family", family, "--out", str(out_dir)) == 0
        first = 1 if family == "lw" else 0  # the centred ladder starts at s = 1
        windows = {}
        for s, n in enumerate(orders, first):
            ladder_n, r = advection_family_spec(family, s)
            assert ladder_n == n
            windows[str(n)] = ",".join(map(str, OffsetSet.contiguous(r, n)))
        metas = [read_csv(p)[0] for p in sorted(out_dir.iterdir())]
        assert len(metas) == 15
        assert sorted(meta["order"] for meta in metas) == [str(n) for n in orders for _ in range(5)]
        for meta in metas:
            assert meta["offsets"] == windows[meta["order"]]
            assert float(meta["mass_drift"]) < 1e-12
            assert "warning" not in meta

    def test_unknown_preset(self, tmp_path, capsys):
        assert run_cli("run", "fig-nope", "--out", str(tmp_path / "o")) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_deterministic_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("run", "fig-burgers", "--orders", "2", "--out", str(d)) == 0
        name = "fig-burgers_n2_burgers_t1.csv"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestRunExplicit:
    def test_diffusion_defaults(self, tmp_path):
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "--m", "2", "--n", "2", "--profile", "gaussian",
            "--steps", "100", "--out", str(out_dir),
        ) == 0
        files = [p.name for p in out_dir.iterdir()]
        assert files == ["run_m2_n2_gaussian_t0.4.csv"]
        meta, rows = read_csv(out_dir / files[0])
        assert float(meta["nu"]) == pytest.approx(0.4)
        assert meta["cells"] == "100"
        # diffusion flattens the peak but keeps positivity on this budget
        peak = max(u for _, u in rows)
        assert 0.0 < peak < 1.0

    def test_needs_orders_and_steps(self, tmp_path, capsys):
        assert run_cli("run", "--m", "2", "--out", str(tmp_path / "o")) == 2
        assert run_cli(
            "run", "--m", "2", "--n", "1", "--out", str(tmp_path / "o")
        ) == 2

    @pytest.mark.parametrize(
        "argv, nu", [(("--m", "3", "--n", "1"), 0.4), (("--m", "4", "--n", "2"), -0.4)],
        ids=["m3-n1", "m4-n2"],
    )
    def test_default_step_that_grows_is_refused(self, argv, nu, tmp_path, capsys):
        """Without --dt, the default |nu| = 0.4 grows on these default windows:
        the run exits 2, naming --dt, before any file is written."""
        out_dir = tmp_path / "o"
        assert run_cli("run", *argv, "--steps", "1", "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err == f"error: the default step grows at nu={nu:g}; give a stable --dt\n"
        assert list(out_dir.iterdir()) == []

    def test_growth_note_is_the_one_verdict(self, tmp_path, capsys, monkeypatch):
        """With `growth_note` alone patched to call every scheme unstable, a
        stable `run_linear` warns, a stable `convergence_study` refuses, each
        with the note's text, and a stable run without --dt exits 2 before
        any file is written."""
        note = "max |g|^2 = 7 at theta=0.5000"
        monkeypatch.setattr(fdmarch.solver, "growth_note", lambda scheme, nu: note)
        problem = LinearProblem((LinearTerm(1, -1.0),), dt=0.05, n=1)
        field = GridField.sample(make_profile("triangle", (-5.0, 5.0)), (-5.0, 5.0), 100)
        with pytest.warns(RuntimeWarning) as caught:
            run_linear(problem, field, 1)
        assert [str(w.message) for w in caught] == [f"term m=1 is unstable at nu=-0.5: {note}"]
        with pytest.raises(ConfigurationError) as refused:
            fdmarch.solver.convergence_study(1, 1, 0.5)
        assert str(refused.value).endswith(f"is unstable at nu=-0.5 ({note}); reduce |nu|")
        out_dir = tmp_path / "o"
        assert run_cli("run", "--m", "2", "--n", "2", "--steps", "1", "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err == "error: the default step grows at nu=0.4; give a stable --dt\n"
        assert list(out_dir.iterdir()) == []

    def test_one_scan_warns_every_snapshot(self, tmp_path, capsys, monkeypatch):
        """An unstable run with four output times scans its term once, and
        the one verdict's warning heads every snapshot."""
        scanned = []
        real = fdmarch.stability.max_growth
        monkeypatch.setattr(
            fdmarch.stability, "max_growth", lambda s, nu: scanned.append(nu) or real(s, nu)
        )
        out_dir = tmp_path / "o"
        argv = ("run", "--m", "2", "--n", "4", "--dt", "0.011", "--steps", "8")
        assert run_cli(*argv, "--times", "0.022,0.044,0.066,0.088", "--out", str(out_dir)) == 0
        assert len(scanned) == 1
        snapshots = sorted(out_dir.iterdir())
        assert len(snapshots) == 4
        for path in snapshots:
            assert "# warning=term m=2 is unstable at nu=1.1: max |g|^2" in path.read_text()
        assert capsys.readouterr().err.count("warning: term m=2 is unstable") == 1

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 2)])
    def test_default_step_is_the_stable_given_one(self, m, n, tmp_path):
        """An m <= 2 run without --dt still runs, and writes the bytes of the
        run given --dt = 0.4 dx^m / |a|."""
        argv = ("run", "--m", str(m), "--n", str(n), "--steps", "20")
        assert run_cli(*argv, "--out", str(tmp_path / "default")) == 0
        dt = 0.4 * 0.1**m / abs(fdmarch.solver.term_coefficient(m, None))
        assert run_cli(*argv, "--dt", repr(dt), "--out", str(tmp_path / "given")) == 0
        (default,) = (tmp_path / "default").iterdir()
        assert default.read_bytes() == (tmp_path / "given" / default.name).read_bytes()

    def test_unstable_run_records_warning(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "--m", "2", "--n", "1", "--dx", "0.1", "--dt", "0.008",
            "--steps", "5", "--out", str(out_dir),
        ) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "unstable" in err
        meta, _ = read_csv(out_dir / "run_m2_n1_triangle_t0.04.csv")
        assert "unstable" in meta["warning"]
        # the profiles of one order share one stability scan; each CSV still
        # carries the warning (nu = -1.5, beyond the uw limit of 1)
        preset = fdmarch.cli.PRESETS["fig-advection"]
        monkeypatch.setitem(
            fdmarch.cli.PRESETS,
            "fig-advection",
            dataclasses.replace(preset, dt=0.15, output_times=(0.75,)),
        )
        adv_dir = tmp_path / "adv"
        assert run_cli("run", "fig-advection", "--orders", "3", "--out", str(adv_dir)) == 0
        assert capsys.readouterr().err.count("unstable") == len(preset.profiles)
        for profile in preset.profiles:
            meta, _ = read_csv(adv_dir / f"fig-advection_uw03_{profile}_t0.75.csv")
            assert "unstable at nu=-1.5" in meta["warning"]

    def test_times_outside_run(self, tmp_path, capsys):
        assert run_cli(
            "run", "--m", "1", "--n", "1", "--steps", "10",
            "--times", "9999", "--out", str(tmp_path / "o"),
        ) == 2
        assert "within the run duration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--dx", "0"), "--dx must be a finite number > 0"),
            (("--dx", "-0.1"), "--dx must be a finite number > 0"),
            (("--dx", "nan"), "--dx must be a finite number > 0"),
            (("--dt", "nan"), "--dt must be a finite number > 0"),
            (("--a", "0"), "coefficient a must be nonzero"),
            (("--a", "nan"), "coefficient a must be nonzero"),
            (("--a", "inf"), "coefficient a must be nonzero"),
            (("--times", "nan"), "--times must be finite numbers"),
            (("--times", "0,inf"), "--times must be finite numbers"),
            (("--dx", "1e-320"), "gives no finite cell count"),
            (("--box", "0,inf"), "--box must be two finite numbers"),
            # t / dt overflows to inf; round() raised OverflowError on these
            (("--times", "1e308"), "--times must lie within the run duration"),
            (("--times=-1e308",), "--times must lie within the run duration"),
            (("--dt", "1e-310", "--times", "1"), "--times must lie within the run duration"),
            # the time-step rule of `convergence_study`
            (("--dt", "1e308"), "the Courant number a*dt/dx^1 is not finite at dt=1e+308"),
            (("--dt", "1e-320"), "--dt must be a normal float, got 9.99989e-321"),
            # dx^2 underflows to 0
            (("--m", "2", "--box", "0,1e-169", "--dx", "1e-170", "--dt", "1"),
             "the Courant number a*dt/dx^2 is not finite"),
            # the default step 0.4 * dx^2 raised OverflowError before the box was gridded
            (("--m", "2", "--dx", "1e200"), "dx=1e+200 does not tile the box"),
            (("--m", "2", "--box", "0,1e300", "--dx", "1e299"),
             "--dt must be a finite number > 0, got inf"),
        ],
    )
    def test_degenerate_grid_refused(self, extra, message, tmp_path, capsys):
        assert run_cli(
            "run", "--m", "1", "--n", "1", "--steps", "1", *extra,
            "--out", str(tmp_path / "o"),
        ) == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, out, reason",
        [
            (("--m", "1", "--n", "1", "--steps", "2"), "file/x", "Not a directory"),
            (("fig-burgers", "--orders", "1"), "file", "File exists"),
            (("--m", "1", "--n", "1", "--steps", "2"), "", "No such file or directory"),
        ],
        ids=["under-a-file", "existing-file", "empty"],
    )
    def test_unusable_out_refused(self, argv, out, reason, tmp_path):
        """An --out that cannot be made a directory exits 2 with one error
        line naming the path and the reason, not a traceback."""
        (tmp_path / "file").write_text("")
        path = str(tmp_path / out) if out else ""
        proc = run_cli_process("run", *argv, "--out", path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: cannot create the output directory {path!r}: {reason}\n"
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize(
        "extra, message",
        [
            pytest.param(
                ("--steps", "3", "--dx", "1e-300"), "cells on one grid, over the limit of 1e+07",
                id="dx-1e-300",
            ),
            pytest.param(
                ("--steps", "3", "--dx", "1e-9"), "cells on one grid, over the limit of 1e+07",
                id="dx-1e-9",
            ),
            pytest.param(
                ("--steps", "0", "--dx", "1e-9"), "cells on one grid, over the limit of 1e+07",
                id="dx-1e-9-no-steps",
            ),
            pytest.param(
                ("--steps", "10000000000", "--dx", "0.1"),
                "cells x steps x stencil points, over the limit of 2e+09", id="steps-1e10",
            ),
            pytest.param(
                ("--steps", "2000", "--dx", "1e-6"),
                "cells x steps x stencil points, over the limit of 2e+09",
                id="dx-1e-6-steps-2000",
            ),
            # 3 cells x 3e8 steps x 2 points is under the work bound
            pytest.param(
                ("--steps", "300000000", "--dx", "0.1", "--box", "0,0.3"),
                "steps, over the limit of 1.15e+06", id="steps-3e8-on-3-cells",
            ),
            # a step count past the float range is counted as inf, not a traceback
            pytest.param(
                ("--steps", "1" + "0" * 400, "--dx", "0.1"),
                "inf cells x steps x stencil points, over the limit of 2e+09", id="steps-1e400",
            ),
        ],
    )
    def test_oversized_run_refused(self, extra, message, tmp_path, capsys, monkeypatch):
        """A run over the cell, work or step bound exits 2 before it samples a
        field.  Sampling fails the test, so a lost bound fails it at once
        instead of marching for hours."""

        def sample(*args, **kwargs):
            raise AssertionError("an oversized run sampled its field")

        monkeypatch.setattr(GridField, "sample", sample)
        assert run_cli(
            "run", "--m", "1", "--n", "1", *extra, "--out", str(tmp_path / "o")
        ) == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    def test_run_bounds_leave_presets_room(self):
        """The work bound is 100x one fig-advection profile's march at order 29
        (100 cells, 6250 steps, 30 points); the cell bound is far above every
        preset grid, and the step bound 100x the longest preset march."""
        assert fdmarch.solver.MAX_MARCH_WORK >= 100 * 100 * 6250 * 30
        assert fdmarch.solver.MAX_MARCH_CELLS >= 100 * 200
        assert fdmarch.solver.MAX_MARCH_STEPS >= 100 * 6250

    @pytest.mark.parametrize(
        "steps, time, marched_steps",
        [
            ("50", "0.04", 1),
            # over the step bound, but the bounds count the steps it marches
            ("2000000", "0", 0),
        ],
    )
    def test_ends_at_its_last_snapshot(self, steps, time, marched_steps, tmp_path, monkeypatch):
        """`--steps` beyond the last `--times` snapshot marches nothing more:
        the march stops at that snapshot's step (at the default dt 0.04)."""
        marched = []
        real = fdmarch.cli.run_linear

        def counting(*args, steps, **kwargs):
            marched.append(steps)
            return real(*args, steps=steps, **kwargs)

        monkeypatch.setattr(fdmarch.cli, "run_linear", counting)
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "--m", "1", "--n", "1", "--steps", steps, "--times", time,
            "--out", str(out_dir),
        ) == 0
        assert marched == [marched_steps]
        assert [p.name for p in out_dir.iterdir()] == [f"run_m1_n1_triangle_t{time}.csv"]

    # the tolerance is relative to the box: on a 1e-9 box, 3 cells of
    # 3e-10 are 10% short of it
    @pytest.mark.parametrize(
        "extra", [("--dx", "0.3"), ("--box", "0,1e-9", "--dx", "3e-10")], ids=["dx", "small-box"]
    )
    def test_bad_dx_tiling(self, extra, tmp_path, capsys):
        assert run_cli(
            "run", "--m", "1", "--n", "1", "--steps", "10", *extra,
            "--out", str(tmp_path / "o"),
        ) == 2
        assert "does not tile" in capsys.readouterr().err


# each option only the explicit path reads, with a value it would accept
EXPLICIT_ONLY = (
    ("--m", "1"), ("--n", "1"), ("--a", "-1"), ("--offsets", "-1,0"), ("--dx", "0.1"),
    ("--dt", "0.04"), ("--steps", "10"), ("--box", "-5,5"), ("--profile", "triangle"),
    ("--times", "0"),
)
PRESET_ONLY = (("--orders", "5"), ("--family", "uw"), ("--profiles", "sine"))


class TestRunRefusesUnreadOptions:
    """Each `run` path refuses, with exit 2 and before it writes anything,
    the options that only the other path reads."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("fig-burgers", "--dx", "0.5", "--steps", "3", "--m", "2", "--times", "0.1",
                 "--profile", "gaussian"),
                "the fig-burgers preset does not read --m, --dx, --steps, --profile, --times",
                id="fig-burgers-five",
            ),
            pytest.param(
                ("--m", "1", "--n", "1", "--steps", "3", "--orders", "5", "--family", "lw",
                 "--profiles", "sine"),
                "an explicit run does not read --orders, --family, --profiles",
                id="explicit-three",
            ),
            *(
                pytest.param(
                    ("fig-advection", "--orders", "1", flag, value),
                    f"the fig-advection preset does not read {flag}",
                    id=f"fig-advection{flag}",
                )
                for flag, value in EXPLICIT_ONLY
            ),
            *(
                pytest.param(
                    ("--m", "1", "--n", "1", "--steps", "1", flag, value),
                    f"an explicit run does not read {flag}",
                    id=f"explicit{flag}",
                )
                for flag, value in PRESET_ONLY
            ),
        ],
    )
    def test_refused(self, argv, message, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out_dir)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out_dir.iterdir()) == []



class TestSchemeCommandsRefuseUnreadOptions:
    """`coeffs` and `stability` refuse, with exit 2 and naming each, the
    options that the way they were asked to build a scheme never reads."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("coeffs", "--m", "1", "--n", "1", "--r", "5"),
                "coeffs without --first-order does not read --r",
                id="coeffs-r",
            ),
            pytest.param(
                ("coeffs", "--first-order", "--m", "2", "--r", "1", "--n", "7",
                 "--offsets", "0,1"),
                "--first-order does not read --n, --offsets",
                id="first-order-n-offsets",
            ),
            pytest.param(
                ("coeffs", "--first-order", "--m", "2", "--r", "1", "--a-sign", "0"),
                "--first-order does not read --a-sign",
                id="first-order-a-sign",
            ),
            pytest.param(
                ("coeffs", "--m", "2", "--n", "1", "--offsets", "-1,0,1", "--a-sign", "1"),
                "a stencil given by --offsets does not read --a-sign",
                id="offsets-a-sign",
            ),
            pytest.param(
                ("stability", "--m", "1", "--n", "1", "--offsets", "0,1", "--a-sign", "-1"),
                "a stencil given by --offsets does not read --a-sign",
                id="stability-offsets-a-sign",
            ),
        ],
    )
    def test_refused(self, argv, message, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_scheme_file_refuses_the_stencil_options(self, tmp_path, capsys):
        path = tmp_path / "m1n3.txt"
        assert run_cli("coeffs", "--m", "1", "--n", "3", "--format", "dump") == 0
        path.write_text(capsys.readouterr().out)
        argv = ("stability", "--scheme-file", str(path))
        assert run_cli(*argv, "--m", "3", "--n", "2", "--offsets", "0,1") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --scheme-file does not read --m, --n, --offsets\n"
        assert captured.out == ""
        assert run_cli(*argv, "--a-sign", "0", "--sign", "-") == 2
        assert capsys.readouterr().err == "error: --scheme-file does not read --a-sign\n"
        assert run_cli(*argv, "--sign", "-") == 0
        assert "m=1 n=3" in capsys.readouterr().out

    @pytest.mark.parametrize("sign, window", [("-1", "-1,0"), ("1", "0,1"), ("0", "-1,0")])
    def test_a_sign_still_picks_the_default_window(self, sign, window, capsys):
        assert run_cli("coeffs", "--m", "1", "--n", "1", "--a-sign", sign) == 0
        assert f"offsets={window}" in capsys.readouterr().out


class TestRunDriver:
    """Every run path writes exactly what a direct march of its inputs computes,
    under a pinned header."""

    GRID_KEYS = ["dx", "dt", "nu", "cells", "step", "time"]

    @staticmethod
    def snapshots(out_dir):
        """{step: (meta, x, u)} of every CSV in out_dir, for one run."""
        snaps = {}
        for path in out_dir.iterdir():
            meta, rows = read_csv(path)
            snaps[int(meta["step"])] = (meta, [x for x, _ in rows], [u for _, u in rows])
        return snaps

    @staticmethod
    def assert_hex_equal(snap, field):
        _, x, u = snap
        assert [v.hex() for v in x] == [float(v).hex() for v in field.x()]
        assert [v.hex() for v in u] == [float(v).hex() for v in field.values]

    def test_advection_preset(self, tmp_path, monkeypatch):
        preset = dataclasses.replace(
            fdmarch.cli.PRESETS["fig-advection"], output_times=(0.8, 0.88, 4.0)
        )
        monkeypatch.setitem(fdmarch.cli.PRESETS, "fig-advection", preset)
        for n in (1, 29):
            out_dir = tmp_path / f"uw{n}"
            assert run_cli(
                "run", "fig-advection", "--orders", str(n), "--profiles", "rectangle",
                "--out", str(out_dir),
            ) == 0
            snaps = self.snapshots(out_dir)
            assert sorted(snaps) == [10, 11, 50]
            n_, r = advection_family_spec("uw", (n - 1) // 2)
            problem = LinearProblem(
                terms=(LinearTerm(1, -1.0, OffsetSet.contiguous(r, n_)),), dt=0.08, n=n
            )
            field0 = GridField.sample(make_profile("rectangle", preset.box), preset.box, 100)
            for step, snap in snaps.items():
                out = run_linear(problem, field0, step)
                self.assert_hex_equal(snap, out)
                meta = snap[0]
                assert list(meta) == [
                    "preset", "kind", "family", "order", "offsets", "profile", "a",
                    *self.GRID_KEYS, "max_error",
                ]
                # the wave moves 0.8 cells a step to the right
                if step == 11:
                    assert meta["max_error"] == "none"
                else:
                    exact = np.roll(field0.values, round(0.8 * step))
                    assert float(meta["max_error"]) == np.max(np.abs(out.values - exact))

    def test_burgers_preset(self, tmp_path):
        out_dir = tmp_path / "o"
        assert run_cli("run", "fig-burgers", "--orders", "3", "--out", str(out_dir)) == 0
        snaps = self.snapshots(out_dir)
        assert sorted(snaps) == [0, 20, 40, 60, 80]
        box = (-5.0, 5.0)
        field0 = GridField.sample(make_profile("burgers", box), box, 200)
        layers = nonlinear_layers(3, OffsetSet.contiguous(advection_family_spec("uw", 1)[1], 3))
        for step, snap in snaps.items():
            out = run_nonlinear(field0, layers, burgers_densities(3), 0.025 / 0.05, step)
            self.assert_hex_equal(snap, out)
            assert list(snap[0]) == [
                "preset", "kind", "order", "offsets", "profile", "densities",
                *self.GRID_KEYS, "front", "mass_drift",
            ]

    def test_explicit_run(self, tmp_path):
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "--m", "2", "--n", "2", "--profile", "gaussian", "--steps", "12",
            "--times", "0.004,0.02,0.04", "--out", str(out_dir),
        ) == 0
        snaps = self.snapshots(out_dir)
        assert sorted(snaps) == [1, 5, 10]
        dt = 0.4 * 0.1**2 / 1.0
        problem = LinearProblem(terms=(LinearTerm(2, 1.0, default_offsets(2, 2, 1)),), dt=dt, n=2)
        field0 = GridField.sample(make_profile("gaussian", (-5.0, 5.0)), (-5.0, 5.0), 100)
        for step, snap in snaps.items():
            self.assert_hex_equal(snap, run_linear(problem, field0, step))
            assert float(snap[0]["dt"]) == dt
            assert list(snap[0]) == [
                "kind", "m", "order", "offsets", "profile", "a", *self.GRID_KEYS
            ]

    def test_stacked_profiles_write_lone_marches(self, tmp_path, monkeypatch):
        """The profiles of one order march as one stack; every file is, line for
        line, what a lone `run_linear` march of its profile writes."""
        preset = dataclasses.replace(
            fdmarch.cli.PRESETS["fig-advection"], output_times=(0.0, 0.8, 0.88, 4.0)
        )
        monkeypatch.setitem(fdmarch.cli.PRESETS, "fig-advection", preset)
        profiles = ("triangle", "rectangle", "gaussian")
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "fig-advection", "--orders", "1,29", "--profiles", ",".join(profiles),
            "--out", str(out_dir),
        ) == 0
        want = {}
        for n in (1, 29):
            n_, r = advection_family_spec("uw", (n - 1) // 2)
            offsets = OffsetSet.contiguous(r, n_)
            problem = LinearProblem(terms=(LinearTerm(1, -1.0, offsets),), dt=0.08, n=n)
            for name in profiles:
                field0 = GridField.sample(make_profile(name, preset.box), preset.box, 100)
                nu = problem.courant_numbers(field0.dx)[0]
                for step in (0, 10, 11, 50):
                    out = run_linear(problem, field0, step)
                    cells = -nu * step
                    if abs(cells - round(cells)) > 1e-9 * max(1.0, abs(cells)):
                        max_error = "none"
                    else:
                        exact = np.roll(field0.values, round(cells))
                        max_error = f"{float(np.max(np.abs(out.values - exact))):.17g}"
                    header = [
                        ("preset", "fig-advection"), ("kind", "advection"), ("family", "uw"),
                        ("order", n), ("offsets", ",".join(map(str, offsets))),
                        ("profile", name), ("a", -1.0), ("dx", f"{field0.dx:.17g}"),
                        ("dt", f"{0.08:.17g}"), ("nu", f"{nu:.17g}"), ("cells", 100),
                        ("step", step), ("time", f"{step * 0.08:.17g}"),
                        ("max_error", max_error),
                    ]
                    text = "".join(f"# {k}={v}\n" for k, v in header) + "x,u\n"
                    text += "".join(f"{x:.17g},{u:.17g}\n" for x, u in zip(out.x(), out.values))
                    want[f"fig-advection_uw{n:02d}_{name}_t{step * 0.08:g}.csv"] = text
        got = {path.name: path.read_text() for path in out_dir.iterdir()}
        assert sorted(got) == sorted(want)
        for name, text in want.items():
            assert got[name] == text, name

    def test_unstable_note_once_per_header(self, tmp_path, capsys):
        """An unstable explicit run written at two times marches there in two
        legs, and still carries its stability note once in each header and
        once on stderr; the rows are what a lone march writes."""
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "--m", "2", "--n", "1", "--dx", "0.1", "--dt", "0.008", "--steps", "5",
            "--times", "0.016,0.04", "--out", str(out_dir),
        ) == 0
        assert capsys.readouterr().err.count("unstable") == 1
        snaps = self.snapshots(out_dir)
        assert sorted(snaps) == [2, 5]
        problem = LinearProblem(terms=(LinearTerm(2, 1.0, default_offsets(2, 1, 1)),), dt=0.008, n=1)
        field0 = GridField.sample(make_profile("triangle", (-5.0, 5.0)), (-5.0, 5.0), 100)
        for step, snap in snaps.items():
            note = snap[0]["warning"]
            assert note.startswith("term m=2 is unstable at nu=0.8") and ";" not in note
            with pytest.warns(RuntimeWarning, match="unstable"):
                self.assert_hex_equal(snap, run_linear(problem, field0, step))

    def test_overflowing_scan_notes_only_the_verdict(self, tmp_path, capsys):
        """A run whose growth scan overflows notes its instability, and no
        numpy warning from the scan, in its header and on stderr."""
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "--m", "1", "--n", "1", "--steps", "1", "--dt", "1e300", "--out", str(out_dir)
        ) == 0
        note = "term m=1 is unstable at nu=-1e+301: max |g|^2 = nan at theta=0.0000"
        assert capsys.readouterr().err.splitlines() == [f"warning: {note}"]
        meta, _ = read_csv(out_dir / "run_m1_n1_triangle_t1e+300.csv")
        assert meta["warning"] == note

    def test_overflow_notes_listed_once(self, tmp_path, capsys):
        """The order-1 sine profile of fig-burgers overflows, and numpy warns
        at many steps: each distinct message is listed once, in every header
        and on stderr, and the rows are what a lone march writes."""
        out_dir = tmp_path / "o"
        assert run_cli(
            "run", "fig-burgers", "--orders", "1", "--profiles", "sine", "--out", str(out_dir)
        ) == 0
        err = capsys.readouterr().err.splitlines()
        snaps = self.snapshots(out_dir)
        assert sorted(snaps) == [0, 20, 40, 60, 80]
        notes = {snap[0]["warning"] for snap in snaps.values()}
        assert len(notes) == 1
        listed = notes.pop().split("; ")
        assert any("overflow" in note for note in listed)
        assert len(set(listed)) == len(listed)
        # each snapshot holding non-finite values counts them in its header
        blown = []
        for step, (meta, _, u) in sorted(snaps.items()):
            count = sum(not math.isfinite(v) for v in u)
            assert meta.get("nonfinite_cells") == (str(count) if count else None), step
            if count:
                blown.append(step)
        assert blown and blown[-1] == 80
        t = blown[0] * 0.025
        first = f"fig-burgers_n1_sine has non-finite values from the t={t:g} snapshot"
        assert err == [f"warning: {note}" for note in listed] + [
            f"warning: {first} (step {blown[0]}) on"
        ]
        box = (-5.0, 5.0)
        field0 = GridField.sample(make_profile("sine", box), box, 200)
        layers = nonlinear_layers(1, OffsetSet.contiguous(advection_family_spec("uw", 0)[1], 1))
        with np.errstate(all="ignore"):
            for step, snap in snaps.items():
                out = run_nonlinear(field0, layers, burgers_densities(1), 0.5, step)
                _, x, u = snap
                assert [v.hex() for v in x] == [float(v).hex() for v in out.x()]
                assert [repr(v) for v in u] == [repr(float(v)) for v in out.values]

    def test_max_error_matches_golden(self, tmp_path):
        golden = json.loads((REPO_ROOT / "tests/data/fig_advection_golden.json").read_text())
        out_dir = tmp_path / "o"
        assert run_cli("run", golden["preset"], "--orders", "1,5", "--out", str(out_dir)) == 0
        for key, frozen in golden["max_errors"].items():
            meta, _ = read_csv(out_dir / f"{golden['preset']}_{key}_t{golden['time']:g}.csv")
            assert float(meta["max_error"]) == pytest.approx(frozen, rel=1e-9), key

    def test_fig_burgers_matches_digest(self, tmp_path):
        """Every fig-burgers CSV's data rows, after the `x,u` line, hash to the
        frozen sha256: the layered update's output is bitwise pinned."""
        golden = json.loads((REPO_ROOT / "tests/data/fig_burgers_digest.json").read_text())
        out_dir = tmp_path / "o"
        assert run_cli("run", golden["preset"], "--out", str(out_dir)) == 0
        got = {}
        for path in out_dir.iterdir():
            _, _, rows = path.read_text().partition("x,u\n")
            got[path.name] = hashlib.sha256(rows.encode()).hexdigest()
        assert got == golden["sha256"]

    def test_snapshot_bytes_match_row_loop(self, tmp_path):
        """`_write_snapshot` formats the rows from Python floats in one string;
        the bytes equal those of the loop that wrote each numpy scalar's row
        in turn, on signed zeros, infinities, nan, a subnormal and the
        largest float."""
        values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308,
                           -1e-300, 0.1, 1.0 / 3.0])
        field = GridField(values, 0.1, -5.0)
        meta = {"preset": "probe", "nu": -0.8, "cells": len(values)}
        path = tmp_path / "snap.csv"
        fdmarch.cli._write_snapshot(str(path), field, meta)
        want = io.StringIO()
        for key, value in meta.items():
            want.write(f"# {key}={value}\n")
        want.write("x,u\n")
        for x, u in zip(field.x(), field.values):
            want.write(f"{x:.17g},{u:.17g}\n")
        assert path.read_bytes() == want.getvalue().encode()

    def test_fig_advection_matches_digest(self, tmp_path):
        """The fig-advection CSVs of the lowest, a middle and the highest order,
        after the `x,u` line, hash to the frozen sha256: the stacked linear
        march's output is bitwise pinned."""
        golden = json.loads((REPO_ROOT / "tests/data/fig_advection_digest.json").read_text())
        out_dir = tmp_path / "o"
        argv = ("run", golden["preset"], "--orders", golden["orders"], "--out", str(out_dir))
        assert run_cli(*argv) == 0
        got = {}
        for path in out_dir.iterdir():
            _, _, rows = path.read_text().partition("x,u\n")
            got[path.name] = hashlib.sha256(rows.encode()).hexdigest()
        assert got == golden["sha256"]


class TestUpFrontRefusals:
    """A scheme too large to build, or a stencil wider than the grid, exits 2
    with a message before any scheme is built and before any file is written."""

    @pytest.fixture
    def no_builds(self, monkeypatch):
        """The build steps of `fdmarch.schemes` raise, so a build on any path
        fails the test: the Lagrange numerators of `master_scheme` and the
        audit every scheme and dump passes."""

        def build(*args, **kwargs):
            raise AssertionError("a refused request built a scheme")

        monkeypatch.setattr(fdmarch.schemes, "lagrange_numerators", build)
        monkeypatch.setattr(fdmarch.schemes, "_audited", build)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("coeffs", "--m", "1", "--n", "200"), id="coeffs-n200"),
            pytest.param(
                ("coeffs", "--first-order", "--m", "200", "--r", "100"), id="coeffs-first-order-m200"
            ),
            pytest.param(("coeffs", "--m", "4", "--n", "35", "--format", "dump"), id="coeffs-m4-n35"),
            pytest.param(("stability", "--m", "1", "--n", "200"), id="stability-n200"),
            pytest.param(("converge", "--m", "2", "--n", "70", "--nu", "0.1"), id="converge-m2-n70"),
            pytest.param(("run", "--m", "1", "--n", "200", "--steps", "1"), id="run-n200"),
            pytest.param(("run", "fig-advection", "--orders", "201"), id="fig-advection-order201"),
            pytest.param(("run", "fig-burgers", "--orders", "1,201"), id="fig-burgers-order201"),
        ],
    )
    def test_oversized_scheme_refused(self, argv, no_builds, tmp_path, capsys):
        out_dir = tmp_path / "o"
        extra = ("--out", str(out_dir)) if argv[0] == "run" else ()
        assert run_cli(*argv, *extra) == 2
        err = capsys.readouterr().err
        assert f"stencil points, over the limit of {MAX_SCHEME_POINTS}" in err
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("fig-advection", "--orders", "101"), id="fig-advection-order101"),
            pytest.param(("--m", "1", "--n", "101", "--steps", "1"), id="explicit-n101"),
        ],
    )
    def test_stencil_wider_than_grid_refused_before_build(self, argv, no_builds, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out_dir)) == 2
        assert "stencil reach 51 needs more than 102 cells, grid has 100" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_oversized_scheme_file_refused(self, no_builds, tmp_path, capsys, monkeypatch):
        """A 201-point dump (m = 1, n = 200) is sized from its m= and n= lines
        and refused before any coefficient is parsed or audited."""

        def parse(text):
            raise AssertionError("a weight of a refused dump was parsed")

        monkeypatch.setattr(fdmarch.schemes, "Fraction", parse)
        offsets = range(-100, 101)
        lines = ["m=1", "n=200", "offsets=" + ",".join(map(str, offsets))]
        lines += [f"c[{k}]=" + ",".join(["-1234567/7654321"] * 201) for k in offsets]
        path = tmp_path / "n200.txt"
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        assert run_cli("stability", "--scheme-file", str(path), "--sign", "-") == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert f"n*m+1 = 201 stencil points, over the limit of {MAX_SCHEME_POINTS}" in err

    def test_endless_scheme_file_refused(self):
        """Regression: a `--scheme-file` was read whole, so `/dev/zero` took
        memory until it died with a MemoryError traceback.  At most
        MAX_DUMP_CHARS + 1 characters are read, and a longer dump is refused."""
        start = time.perf_counter()
        proc = run_cli_process("stability", "--scheme-file", "/dev/zero")
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: a scheme dump is over the limit of {MAX_DUMP_CHARS} characters\n"
        )
        assert proc.stdout == ""

    def test_scheme_file_of_short_keys_refused(self, tmp_path):
        """Regression: a 36 MB text of 4 M short keys (`0=`, `1=`, ...) was
        split and every key stored before any was refused (5.7-6.4 s, 786 MB
        peak).  The lines are walked lazily and the walk stops past the most
        fields a dump has."""
        path = tmp_path / "keys.txt"
        keys = "=\n".join(map(str, range(4 * 10**6))) + "=\n"
        assert len(keys) <= MAX_DUMP_CHARS
        path.write_text(keys)
        start = time.perf_counter()
        proc = run_cli_process("stability", "--scheme-file", str(path))
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stderr == "error: scheme dump is missing the 'm' field\n"
        assert proc.stdout == ""

    def test_piped_scheme_file_read(self):
        """The bounded read takes a dump from a pipe to its end."""
        dump = run_cli_process("coeffs", "--m", "2", "--n", "2", "--format", "dump")
        assert dump.returncode == 0
        proc = run_cli_process("stability", "--scheme-file", "/dev/stdin", input=dump.stdout)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# scheme m=2 n=2 offsets=-2,-1,0,1,2\n")
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("coeffs", "--m", "-1", "--n", "2"), "derivative order m must be >= 1, got -1"),
            (("stability", "--m", "-1", "--n", "2"), "derivative order m must be >= 1, got -1"),
            (("coeffs", "--m", "1", "--n", "-1"), "marching order n must be >= 1, got -1"),
            (("stability", "--m", "-1", "--n", "-200"), "derivative order m must be >= 1, got -1"),
            (("converge", "--m", "-1", "--n", "2", "--nu", "0.1"),
             "derivative order m must be >= 1, got -1"),
        ],
        ids=["coeffs-m-1", "stability-m-1", "coeffs-n-1", "stability-m-1-n-200", "converge-m-1"],
    )
    def test_order_below_one_named(self, argv, message, no_builds, capsys):
        """Regression: `coeffs --m -1 --n 2` was refused for the default
        window it built first ("contiguous window needs 0 <= r <= m, got
        r=-1, m=-2"), and m = -1, n = -200 for its n*m+1 = 201 points.  An
        order below 1 is named in `SchemeSpec`'s words before any window is
        built."""
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scheme_bound_leaves_tests_room(self):
        """100x in N^3 over the largest scheme the tests and acceptance build,
        fig-advection's order 29 on 30 points."""
        assert MAX_SCHEME_POINTS**3 >= 100 * 30**3


class TestSpanAndGridSizeRefusals:
    """A stencil too wide to scan, or a `--grids` size past the float range,
    exits 2 at once with a one-line message and no traceback."""

    HUGE = "1" + "0" * 400
    CONVERGE = ("converge", "--m", "1", "--n", "1", "--nu", "0.5")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("stability", "--m", "1", "--n", "1", "--offsets", "1000000000000000000000000000,0"),
                f"stencil span 1000000000000000000000000000 is over the scan limit of {MAX_SCAN_SPAN}",
                id="stability-span-1e27",
            ),
            pytest.param(
                (*CONVERGE, "--offsets", "-1,10000000000000000"),
                "stencil reach 10000000000000000 needs more than 20000000000000000 cells, "
                "grid has 32",
                id="converge-span-1e16",
            ),
            pytest.param(
                (*CONVERGE, "--offsets", f"0,{MAX_SCAN_SPAN + 1}", "--grids", "100000,200000"),
                f"stencil span {MAX_SCAN_SPAN + 1} is over the scan limit of {MAX_SCAN_SPAN}",
                id="converge-span-past-the-limit",
            ),
            pytest.param(
                (*CONVERGE, "--grids", f"{HUGE},2"),
                "stencil reach 1 needs more than 2 cells, grid has 2",
                id="converge-grid-1e400-and-2",
            ),
            pytest.param(
                (*CONVERGE, "--grids", f"{HUGE},64"),
                "the ladder to time 0.5 would march inf cells on one grid, over the limit of "
                "1e+07; raise |nu|, shorten the time or use fewer or smaller grids",
                id="converge-grid-1e400-and-64",
            ),
        ],
    )
    def test_refused_at_once(self, argv, message, capsys):
        """Regressions: the 1e27-wide stencil raised numpy's "Maximum allowed
        size exceeded" in the scan, the 1e16-wide one asked the scan for 71 PiB
        before the grid fit was checked, and a grid of 10^400 cells raised
        OverflowError when its spacing was computed."""
        start = time.perf_counter()
        assert run_cli(*argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_run_refuses_a_span_past_the_limit_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        span = MAX_SCAN_SPAN + 1
        argv = ("--m", "1", "--n", "1", "--offsets", f"0,{span}", "--box", "0,1", "--dx", "1e-5")
        assert run_cli("run", *argv, "--steps", "1", "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err == f"error: stencil span {span} is over the scan limit of {MAX_SCAN_SPAN}\n"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []


def wide_offsets(n):
    """n+1 offsets drawn over a span of about 41 100, fixed by the seed."""
    return ",".join(map(str, sorted(random.Random(1).sample(range(-20550, 20550), n + 1))))


def scaled_offsets(digits):
    """30 offsets k * 10**digits + k, k = -15..14: a span far past MAX_SCAN_SPAN."""
    return ",".join(str(k * 10**digits + k) for k in range(-15, 15))


def coprime_dump(row0):
    """An m = 1, n = 29 dump on -15..14 with `row0` as its nu^0 weights."""
    offsets = range(-15, 15)
    lines = ["m=1", "n=29", "offsets=" + ",".join(map(str, offsets))]
    lines += [f"c[{k}]={w}," + ",".join(["0"] * 29) for k, w in zip(offsets, row0)]
    return "\n".join(lines) + "\n"


class TestTableSizeRefusals:
    """A stencil or dump whose exact table holds integers too large to build,
    audit and print in time exits 2 at once, with a one-line message and no
    traceback, before any file is written."""

    WIDE_99 = ("--m", "1", "--n", "99", "--offsets", wide_offsets(99))
    LIMIT_30 = "an exact scheme on 30 points needs integers of over 14284 bits, the limit for 30 points"
    LIMIT_100 = "an exact scheme on 100 points needs integers of over 6324 bits, the limit for 100 points"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(("coeffs", *WIDE_99), LIMIT_100, id="coeffs-wide-n99"),
            pytest.param(
                ("coeffs", "--m", "1", "--n", "139", "--offsets", wide_offsets(139)),
                "an exact scheme on 140 points needs integers of over 3818 bits, the limit for 140 points",
                id="coeffs-wide-n139",
            ),
            pytest.param(
                ("coeffs", "--m", "1", "--n", "29", "--offsets", scaled_offsets(400)), LIMIT_30,
                id="coeffs-scaled-1e400",
            ),
            pytest.param(
                ("coeffs", "--m", "1", "--n", "29", "--offsets", scaled_offsets(1500)), LIMIT_30,
                id="coeffs-scaled-1e1500",
            ),
            pytest.param(
                ("coeffs", "--m", "1", "--n", "29", "--offsets",
                 ",".join(str(10**400 + k) for k in range(30))),
                LIMIT_30, id="coeffs-far-from-zero",
            ),
            pytest.param(
                ("stability", "--m", "1", "--n", "29", "--offsets", scaled_offsets(400)), LIMIT_30,
                id="stability-scaled-1e400",
            ),
            pytest.param(("stability", *WIDE_99), LIMIT_100, id="stability-wide-n99"),
            pytest.param(
                ("converge", *WIDE_99, "--nu", "0.5", "--grids", "100000,200000"), LIMIT_100,
                id="converge-wide-n99",
            ),
        ],
    )
    def test_refused_at_once(self, argv, message, capsys):
        """Regressions: the wide n = 99 and n = 139 tables took 17 s and 87 s,
        and the scaled and far-from-zero ones ended in a ValueError traceback
        when their integers, over 4300 digits, were printed."""
        start = time.perf_counter()
        assert run_cli(*argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_run_refuses_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        argv = (*self.WIDE_99, "--box", "0,1", "--dx", "1e-5", "--steps", "1")
        assert run_cli("run", *argv, "--out", str(out_dir)) == 2
        assert capsys.readouterr().err == f"error: {self.LIMIT_100}\n"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "row0",
        [
            # 30 coprime denominators of 4000 digits: their lcm is refused as it grows
            pytest.param([f"1/{10**3999 + 2 * i + 1}" for i in range(30)], id="denominators"),
            # small denominators, but cleared integers over 14284 bits
            pytest.param([f"{10**4200 + i}/{2**20 + 2 * i + 1}" for i in range(30)],
                         id="cleared-integers"),
        ],
    )
    def test_scheme_file_refused(self, row0, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(coprime_dump(row0))
        start = time.perf_counter()
        assert run_cli("stability", "--scheme-file", str(path)) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: {self.LIMIT_30}\n"


# -- exit codes and entry points ------------------------------------------------------------

class TestExitCodes:
    def test_one_refusal_type(self):
        """Every named refusal is a `ConfigurationError`, the one class `main`
        exits 2 on; it is defined once and named by the package and solver."""
        for cls in (InvalidOffsetsError, StencilSizeError, UnsupportedSchemeError):
            assert issubclass(cls, ConfigurationError)
        assert fdmarch.ConfigurationError is fdmarch.solver.ConfigurationError is ConfigurationError
        assert issubclass(ConfigurationError, ValueError)

    def test_usage_error_is_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            pytest.param(("run", "--a", "-1e-3"), 0, "", id="run-a-exponent"),
            pytest.param(("run", "--a", "-.5"), 0, "", id="run-a-leading-dot"),
            pytest.param(("run", "--box", "-5e0,5"), 0, "", id="run-box-exponent"),
            pytest.param(
                ("stability", "--tol", "-inf"), 2, "error: tol must be > 0 and finite, got -inf\n",
                id="stability-tol-inf",
            ),
            pytest.param(
                ("stability", "--tol", "-1e-5"), 2,
                "error: tol must be > 0 and finite, got -1e-05\n", id="stability-tol-exponent",
            ),
            pytest.param(
                ("run", "--dx", "-1e-3"), 2,
                "error: --dx must be a finite number > 0, got -0.001\n", id="run-dx-exponent",
            ),
            pytest.param(
                ("converge", "--nu", "-NaN"), 2,
                "error: Courant magnitude must be a finite number > 0\n", id="converge-nu-nan",
            ),
            pytest.param(("coeffs", "--offsets", "-1,0"), 0, "", id="coeffs-offset-list"),
        ],
    )
    def test_negative_literals_are_values(self, argv, code, err, tmp_path, capsys):
        """A value that starts with a negative number reaches its option, and
        the rule that reads it, rather than parse as an unknown option."""
        command, *rest = argv
        run = command == "run"
        head = ("--m", "1", "--n", "1") + (("--steps", "1") if run else ())
        tail = ("--out", str(tmp_path / "o")) if run else ()
        assert run_cli(command, *head, *rest, *tail) == code
        assert capsys.readouterr().err == err

    def test_help_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fdmarch coeffs")

    def test_malformed_int_list(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--m", "1", "--n", "1", "--offsets", "a,b"])
        assert exc.value.code == 1

    def test_console_script_installed(self, tmp_path):
        # Runs the launcher an install would generate for the checkout's
        # declared [project.scripts] entry, against the checkout's sources.
        launcher = tmp_path / "fdmarch"
        launcher.write_text(console_script_launcher("fdmarch"))
        proc = subprocess.run(
            [sys.executable, str(launcher), "coeffs", "--m", "1", "--n", "1"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "c[0](nu)" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("fdmarch") is None, reason="no installed fdmarch on PATH"
    )
    def test_console_script_on_path(self):
        proc = subprocess.run(
            ["fdmarch", "coeffs", "--m", "1", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "c[0](nu)" in proc.stdout

    @pytest.mark.parametrize(
        "argv", [("coeffs", "--m", "3", "--n", "1"), ("run", "fig-burgers", "--orders", "1")],
        ids=["coeffs", "run"],
    )
    def test_closed_stdout(self, argv, tmp_path):
        """A reader that closes stdout before the CLI writes ends the command
        with exit 1 and nothing on stderr, not a traceback."""
        if argv[0] == "run":
            argv += ("--out", str(tmp_path / "o"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fdmarch.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=checkout_env(),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fdmarch.cli", "classify", "--m", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "stable window r=1" in proc.stdout


# -- one parser per process ------------------------------------------------------------

# In-process calls in this order: usage errors, a refusal, help, each default
# right after a call that gave its option, and a negative-number value.
REUSE_SEQUENCE = (
    (("classify", "--tol", "1"), 1),
    (("coeffs", "--m", "-1", "--n", "2"), 2),
    (("--help",), 0),
    (("run", "--help"), 0),
    (("stability", "--m", "2", "--n", "2", "--tol", "1e-3"), 0),
    (("stability", "--m", "2", "--n", "2"), 0),
    (("converge", "--m", "1", "--n", "2", "--nu", "0.5", "--grids", "16,32"), 0),
    (("converge", "--m", "1", "--n", "2", "--nu", "0.5"), 0),
    (("run", "fig-burgers", "--orders", "1", "--profiles", "ramp", "--out", "d"), 2),
    (("run", "fig-burgers", "--orders", "1", "--out", "d"), 0),
    (("coeffs", "--m", "1", "--n", "3", "--offsets", "-2,-1,0,1"), 0),
)


def captured_main(argv, out_dir):
    """(exit code, stdout, stderr, {file name: bytes} written to `out_dir`)
    of one in-process `main(argv)` call; `out_dir` is emptied first."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error, or --help
            code = exc.code
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
    return code, out.getvalue(), err.getvalue(), files


# Prints the running count of argument parsers built: after `import
# fdmarch.cli`, then after each of five `main` calls; and the parsers' types.
BUILD_COUNT_SCRIPT = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import fdmarch.cli
counts = [len(built)]
for argv in (["classify", "--m", "1"], ["coeffs", "--m", "2", "--n", "2"],
             ["classify", "--tol", "1"], ["run", "--help"], ["classify", "--m", "2"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fdmarch.cli.main(argv)
        except SystemExit:
            pass
    counts.append(len(built))
print(json.dumps([counts, sorted(set(built))]))
"""


class TestOneParser:
    def test_reuse_matches_a_fresh_parser(self, monkeypatch, tmp_path):
        """Call by call, `main` on the process's one parser prints, writes and
        returns what it does on a tree built fresh for that call."""
        monkeypatch.chdir(tmp_path)
        fresh = fdmarch.cli.build_parser.__wrapped__
        assert fdmarch.cli.build_parser() is fdmarch.cli.build_parser()
        for argv, code in REUSE_SEQUENCE:
            reused = captured_main(argv, tmp_path / "d")
            with monkeypatch.context() as patch:
                patch.setattr(fdmarch.cli, "build_parser", fresh)
                built = captured_main(argv, tmp_path / "d")
            assert reused == built, argv
            assert reused[0] == code, (argv, reused[2])
        assert built[1].startswith("# scheme m=1 n=3 offsets=-2,-1,0,1\n")

    def test_the_tree_is_built_once_on_first_use(self):
        """In a fresh interpreter, importing the CLI builds no parser, the
        first `main` call builds the tree, every parser of it a `_Parser`,
        and later calls, a usage error and help among them, build none."""
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_COUNT_SCRIPT],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        counts, kinds = json.loads(proc.stdout)
        tree = 1 + len(parser_commands())  # the top parser and one per subcommand
        assert counts == [0, tree, tree, tree, tree, tree]
        assert kinds == ["_Parser"]


# -- argv fuzz ---------------------------------------------------------------------------

# Values for the options of the parser's table, by the option's type or name.
# "{tmp}" stands for the example's own temporary directory, which holds a
# valid scheme dump, one that fails the order audit, one with a weight written
# with an exponent and a plain file.
FUZZ_VALUES = {
    int: ("0", "-0", "1", "2", "3", "-1", "100000", "nan", "inf", "-inf", "1e-320", "1e308", "1e5",
          ""),
    float: ("0", "-0", "0.4", "0.8", "1", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "1e5",
            ""),
    fdmarch.cli._int_list: ("1", "1,3", "2,4", "3,3", "-1,0,1", "-2,-1,0,1", "0", "100000",
                            "1,nan", "", ",", "1" + "0" * 400 + ",2",
                            "1000000000000000000000000000,0", "-1,10000000000000000"),
    fdmarch.cli._float_list: ("0", "0,0.5,1", "1,1", "-1", "nan", "inf", "1e308", "1e-320", "",
                              ","),
    fdmarch.cli._box: ("-5,5", "0,1", "1,0", "0,0", "0,1e308", "-inf,inf", "nan,1", "1e-320,1",
                       "0", "", "0,1,2"),
    "profiles": ("triangle", "sine,rectangle", "burgers,burgers", "nope", ""),
    "out": ("{tmp}/out", "{tmp}/out/nested", "", "{tmp}/file", "{tmp}/file/sub"),
    "scheme_file": ("{tmp}/scheme.txt", "{tmp}/tampered.txt", "{tmp}/exponent.txt",
                    "{tmp}/missing.txt", "{tmp}", "/dev/zero"),
    "preset": (*fdmarch.cli.PRESETS, "fig-nope"),
}

# Argv that work, at least one per subcommand, for the fuzz to change.
FUZZ_SEEDS = (
    ("coeffs", "--m", "2", "--n", "2"),
    ("coeffs", "--m", "3", "--r", "1", "--first-order"),
    ("stability", "--m", "1", "--n", "3"),
    ("stability", "--scheme-file", "{tmp}/scheme.txt"),
    ("classify", "--m", "3"),
    ("survey",),
    ("converge", "--m", "1", "--n", "3", "--nu", "0.8"),
    ("converge", "--m", "2", "--n", "1", "--nu", "0.4"),
    ("run", "fig-burgers", "--orders", "1"),
    ("run", "fig-advection", "--orders", "1,3"),
    ("run", "--m", "1", "--n", "3", "--steps", "30"),
    ("run", "--m", "2", "--n", "2", "--steps", "20", "--times", "0,0.01"),
)


def fuzz_values(action):
    """The values to draw for one argparse action; None for a flag."""
    if action.nargs == 0:
        return None
    if action.choices is not None:
        return (*map(str, action.choices), "nope")
    if action.dest in FUZZ_VALUES:
        return FUZZ_VALUES[action.dest]
    return FUZZ_VALUES[action.type]


def parser_commands():
    """Subcommand name -> its actions, positionals first, from the parser
    `main` builds."""
    parser = fdmarch.cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(sub._actions, key=lambda a: bool(a.option_strings))
        for name, sub in subs.choices.items()
    }


def with_option(argv, action, value, keep):
    """`argv` with every use of `action` taken out, then, when `keep`, the
    action added back once: a positional right after the subcommand, an
    option with `value` (None for a flag) at the end."""
    out, i = [argv[0]], 1
    while i < len(argv):
        if argv[i] in action.option_strings:
            i += 1 if action.nargs == 0 else 2
        elif not action.option_strings and i == 1 and not argv[i].startswith("-"):
            i += 1
        else:
            out.append(argv[i])
            i += 1
    if keep and not action.option_strings:
        out.insert(1, value)
    elif keep:
        out += [action.option_strings[-1]] + ([] if value is None else [value])
    return out


@st.composite
def fuzz_argv(draw):
    """A seed argv changed one to three times, or an argv built from scratch
    (a third of the draws): each change sets, adds or drops one action of
    the subcommand with a value drawn for it, repeats the last option, or
    adds an unknown option; from scratch, the subcommand (or an unknown
    one) takes a list of its actions, repeats allowed."""
    commands = parser_commands()
    if draw(st.sampled_from([True, True, False])):
        argv = list(draw(st.sampled_from(FUZZ_SEEDS)))
        actions = commands[argv[0]]
        for _ in range(draw(st.integers(1, 3))):
            change = draw(st.sampled_from(["set", "set", "set", "drop", "repeat", "unknown"]))
            if change == "unknown":
                argv.append("--no-such-option")
            elif change == "repeat" and len(argv) > 2:
                argv += argv[-2:] if not argv[-1].startswith("--") else argv[-1:]
            else:
                action = draw(st.sampled_from(actions))
                values = fuzz_values(action)
                value = None if values is None else draw(st.sampled_from(values))
                argv = with_option(argv, action, value, keep=change != "drop")
        return argv
    name = draw(st.sampled_from([*commands, "no-such-command"]))
    if name not in commands:
        return [name]
    argv = [name]
    for action in draw(st.lists(st.sampled_from([*commands[name], None]), max_size=6)):
        if action is None:
            argv.append("--no-such-option")
            continue
        if action.option_strings:
            argv.append(draw(st.sampled_from(action.option_strings)))
        values = fuzz_values(action)
        if values is not None:
            argv.append(draw(st.sampled_from(values)))
    return argv


def run_fuzz_example(argv):
    """`main(argv)` in a fresh temporary directory, which is also the working
    directory, so a run without --out writes there: (exit code, stderr, s)."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        dump = format_scheme_dump(master_scheme(SchemeSpec(1, 1, OffsetSet([-1, 0]))))
        (Path(tmp) / "scheme.txt").write_text(dump)
        (Path(tmp) / "tampered.txt").write_text(dump.replace("c[0]=1,1", "c[0]=1,2"))
        (Path(tmp) / "exponent.txt").write_text(dump.replace("c[-1]=0,-1", "c[-1]=0,1e10000000"))
        (Path(tmp) / "file").write_text("")
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        err = io.StringIO()
        os.chdir(tmp)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: 1 for a usage error, 0 for --help
                    code = exc.code
        finally:
            os.chdir(cwd)
        return code, err.getvalue(), time.perf_counter() - start


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fuzz_argv())
def _fuzz_main(argv):
    check_fuzz_example(argv)


def check_fuzz_example(argv):
    code, err, seconds = run_fuzz_example(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning:" not in err, (argv, err)
    assert seconds < 10.0, (argv, seconds)


class TestArgvFuzz:
    def test_every_argv_works_or_exits_with_a_code(self):
        """Argv drawn from the parser's own subcommands and option table, with
        extreme, malformed, empty and repeated values, unknown names and
        unusable output paths: `main` returns or exits with 0, 1 or 2, prints
        no traceback and raises no warning (the suite turns warnings into
        errors), each example in under 10 s and all of them in under 20 s."""
        start = time.perf_counter()
        _fuzz_main()
        assert time.perf_counter() - start < 20.0

    def test_every_scheme_file_value_works_or_exits_with_a_code(self):
        """The draws above seldom give --scheme-file a value of its own, so
        `stability` reads each value of its pool once here."""
        for value in FUZZ_VALUES["scheme_file"]:
            check_fuzz_example(["stability", "--scheme-file", value])

    def test_every_seed_works(self):
        for seed in FUZZ_SEEDS:
            assert run_fuzz_example(list(seed))[:2] == (0, ""), seed

    def test_values_cover_every_action(self):
        """Each action of the parser has values to draw, so a new option
        cannot be added without its fuzz values."""
        for actions in parser_commands().values():
            for action in actions:
                values = fuzz_values(action)
                assert values is None or len(values) > 1, action.dest
