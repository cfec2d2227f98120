"""Acceptance gate: ten end-to-end checks covering the package's core claims.

Each test prints one `CRITERION n: PASS/FAIL` line (visible with `pytest -s`;
under plain pytest the per-test PASSED/FAILED line serves the same purpose).
Tolerances are pinned here and must not be loosened without a recorded reason.
"""

import json
import math
import operator
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from fdmarch.exact import OffsetSet, RatPoly, aux_polynomials, derivatives_at_zero, lagrange_basis
from fdmarch.schemes import (
    SchemeSpec,
    error_term,
    first_order_scheme,
    generation_function,
    master_scheme,
    nonlinear_layers,
)
from fdmarch.stability import (
    NU_TOL,
    STABLE_NU_THRESHOLD,
    advection_family_stability,
    classify_first_order,
    critical_courant,
    first_order_stable_r,
    truncated_first_layer_critical,
)
from fdmarch.solver import (
    GridField,
    burgers_densities,
    burgers_ramp,
    convergence_study,
    run_nonlinear,
    shock_front,
    sine_profile,
    step_linear,
)
from fdmarch.cli import main as cli_main

from reference_tables import (
    ADVECTION_N3_OFFSETS,
    ADVECTION_N3_RAW_LAYERS,
    ADVECTION_N4_OFFSETS,
    ADVECTION_N4_RAW_LAYERS,
    DIFFUSION_N2,
    DIFFUSION_N3,
    DIFFUSION_N4,
    derivative_at_zero,
    folded_layers,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "fig_advection_golden.json"


@contextmanager
def criterion(num, label):
    """Print the criterion's PASS/FAIL line; notes appended to the yielded
    list (e.g. a timing against its budget) are shown after the label."""
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"CRITERION {num}: FAIL — {label}{_note_suffix(notes)}")
        raise
    print(f"CRITERION {num}: PASS — {label}{_note_suffix(notes)}")


def _note_suffix(notes):
    return f" ({'; '.join(notes)})" if notes else ""


def test_criterion_01_exact_identities():
    """All contiguous stencils with up to 12 points satisfy the interpolation
    identities exactly — reproduction of powers, derivative sums at the origin,
    and the two beyond-range corrections — in under a second."""
    start = time.perf_counter()
    with criterion(1, "exact identity sweep, N <= 12, zero tolerance") as notes:
        for big_n in range(1, 13):
            span = big_n - 1
            for r in range(big_n):
                ks = OffsetSet.contiguous(r, span) if span else OffsetSet([0])
                basis = lagrange_basis(ks)
                _, p_poly, q_poly = aux_polynomials(ks)
                # integer powers k_i^p, p = 0..N+1, shared by every check below
                kpow = [[k**p for k in ks] for p in range(big_n + 2)]
                # power reproduction: sum_i k_i^p L_i(x) == x^p for p < N
                for p in range(big_n):
                    total = RatPoly.zero()
                    for kp, bp in zip(kpow[p], basis):
                        total = total + kp * bp
                    assert total == RatPoly.monomial(p)
                # derivative sums and the first two beyond-range powers, as
                # integer sums: both sides scaled by the common denominator
                for ell in range(big_n):
                    derivs = derivatives_at_zero(basis, ell)
                    den = math.lcm(*(d.denominator for d in derivs))
                    nums = [d.numerator * (den // d.denominator) for d in derivs]
                    for p in range(big_n):
                        want = math.factorial(ell) if p == ell else 0
                        assert sum(map(operator.mul, kpow[p], nums)) == want * den
                    assert (
                        sum(map(operator.mul, kpow[big_n], nums))
                        == derivative_at_zero(p_poly, ell) * den
                    )
                    assert (
                        sum(map(operator.mul, kpow[big_n + 1], nums))
                        == derivative_at_zero(q_poly, ell) * den
                    )
        elapsed = time.perf_counter() - start
        notes.append(f"{elapsed:.2f}s, budget 1s")
        assert elapsed < 1.0, f"identity sweep took {elapsed:.2f}s (budget 1s)"


def test_criterion_02_closed_form_agreement():
    """Binomial-window schemes match the master formula exactly for all
    m <= 8, and their symbols factor as 1 + nu x^(-r) (x-1)^m."""
    with criterion(2, "first-order closed form == master formula, m <= 8"):
        for m in range(1, 9):
            for r in range(m + 1):
                closed = first_order_scheme(m, r)
                master = master_scheme(SchemeSpec(m, 1, OffsetSet.contiguous(r, m)))
                assert closed.coeffs == master.coeffs
                # independent expansion of the product symbol
                lp = generation_function(closed)
                for k in closed.offsets:
                    binom = F((-1) ** (m - r - k) * math.comb(m, r + k))
                    want = RatPoly((1 if k == 0 else 0, binom))
                    assert lp.coefficient(k) == want


def test_criterion_03_reference_coefficient_tables():
    """Generated weights reproduce the independently derived reference tables
    with exact rational equality."""
    with criterion(3, "reference coefficient tables, exact equality"):
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        for k, coeffs in DIFFUSION_N2.items():
            assert s.coefficient(k) == RatPoly(coeffs) == s.coefficient(-k)
        for n, table in ((3, DIFFUSION_N3), (4, DIFFUSION_N4)):
            s = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
            for k, coeffs in table.items():
                assert s.coefficient(k) == RatPoly(coeffs) == s.coefficient(-k)
        for offsets, raw in (
            (ADVECTION_N3_OFFSETS, ADVECTION_N3_RAW_LAYERS),
            (ADVECTION_N4_OFFSETS, ADVECTION_N4_RAW_LAYERS),
        ):
            n = len(offsets) - 1
            s = master_scheme(SchemeSpec(1, n, OffsetSet(offsets)))
            assert s.layers.rows == folded_layers(raw)


def test_criterion_04_diffusion_stability_ladder():
    """Critical Courant numbers of the centered even-derivative ladder, full
    and truncated to the linear layer, land on the pinned values in < 10 s."""
    start = time.perf_counter()
    with criterion(4, "diffusion nu_c ladder and truncated-layer shrinkage"):
        full_targets = {1: (0.5, 1e-4), 2: (2.0 / 3.0, 1e-4), 3: (0.841, 2e-3), 4: (1.015, 2e-3)}
        for n, (target, tol) in full_targets.items():
            s = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
            assert critical_courant(s, +1) == pytest.approx(target, abs=tol), f"n={n}"
        trunc_targets = {2: 3.0 / 8.0, 3: 45.0 / 136.0, 4: 315.0 / 1024.0}
        for n, target in trunc_targets.items():
            assert truncated_first_layer_critical(n) == pytest.approx(
                target, abs=1e-4
            ), f"truncated n={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"stability ladder took {elapsed:.2f}s (budget 10s)"


def test_criterion_05_bound_and_classification():
    """Every first-order window with m <= 6, under both signs, is measured by
    the nu_c search: it stays inside the geometric ceiling 1/2^(m-1), is
    stable exactly on the window the parity rule names, and lands within two
    bisection steps below the exact closed form.  The parity rule has its two
    sign gaps, and a gap stencil is unstable."""
    with criterion(5, "first-order stability bound and window classification"):
        for m in range(1, 7):
            cls = classify_first_order(m)
            ceiling = F(1, 2 ** (m - 1))
            for sign in (+1, -1):
                assert cls.stable_r[sign] == first_order_stable_r(m, sign), (
                    f"m={m}, sign={sign:+d}"
                )
                for r in range(m + 1):
                    measured = critical_courant(first_order_scheme(m, r), sign)
                    where = f"m={m} r={r} sign={sign:+d}: nu_c={measured!r}"
                    assert F(measured) <= ceiling, where
                    stable = measured > STABLE_NU_THRESHOLD
                    assert stable == (r == first_order_stable_r(m, sign)), where
                    shortfall = cls.nu_critical[(sign, r)] - F(measured)
                    assert 0 <= shortfall <= 2 * F(NU_TOL), where
        cls2 = classify_first_order(2)
        cls4 = classify_first_order(4)
        assert cls2.stable_r[-1] is None
        assert cls4.stable_r[+1] is None
        gap = master_scheme(SchemeSpec(3, 1, OffsetSet([-2, -1, 1, 2])))
        assert critical_courant(gap, +1) == 0.0
        assert critical_courant(gap, -1) == 0.0


def test_criterion_06_advection_family_intervals():
    """The three named ladders keep their full stability windows (1, 1, 2 in
    |nu|) at their two lowest members each."""
    with criterion(6, "uw/lw/bw stability intervals at the two lowest orders"):
        # the centered even ladder has no s=0 member; its two lowest are s=1,2
        for kind, s_values, target in (
            ("uw", (0, 1), 1.0),
            ("lw", (1, 2), 1.0),
            ("bw", (0, 1), 2.0),
        ):
            for s in s_values:
                measured = advection_family_stability(s, kind)
                assert measured == pytest.approx(target, abs=1e-3), f"{kind} s={s}"


def test_criterion_07_convergence_orders():
    """Fitted global orders on a four-grid ladder match the design order
    within 0.25, for transport n = 1..5 and diffusion n = 1, 2, in < 60 s."""
    start = time.perf_counter()
    with criterion(7, "convergence slopes within 0.25 of design order"):
        for n in range(1, 6):
            res = convergence_study(1, n, 0.8)
            assert res.order_dt == pytest.approx(n, abs=0.25), (
                f"advection n={n}: slope {res.order_dt}"
            )
        # nu = 0.8 sits outside the n=1,2 diffusion stability windows
        # (nu_c = 1/2, 2/3), so the diffusion ladder runs at nu = 0.4
        for n in (1, 2):
            res = convergence_study(2, n, 0.4)
            assert res.order_dt == pytest.approx(n, abs=0.25), (
                f"diffusion n={n}: slope {res.order_dt}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"convergence ladders took {elapsed:.2f}s (budget 60s)"


def test_criterion_08_one_step_error_oracle():
    """The measured one-step defect on single-mode data matches the leading
    error term's product-form prediction within 5% at dx = 1/128."""
    with criterion(8, "one-step defect vs. leading error term, 5%"):
        box = (0.0, 1.0)
        g = 128
        dx = 1.0 / g
        p = 2.0 * math.pi
        a = -1.0
        nu = -0.8
        field = GridField.sample(sine_profile(box), box, g)
        x = field.x()
        for n in (1, 2, 3):
            ks = OffsetSet.contiguous((n + 1) // 2, n)
            scheme = master_scheme(SchemeSpec(1, n, ks))
            dt = nu * dx / a
            stepped = step_linear(field, scheme, nu)
            exact = np.sin(p * (x + a * dt))
            measured = stepped.values - exact
            power, coeff = error_term(scheme).leading()
            # d^power/dx^power sin(px) = p^power sin(px + power*pi/2)
            predicted = (
                dx**power
                * float(coeff(nu))
                * p**power
                * np.sin(p * x + power * math.pi / 2.0)
            )
            scale = float(np.max(np.abs(predicted)))
            deviation = float(np.max(np.abs(measured - predicted))) / scale
            assert deviation <= 0.05, f"n={n}: deviation {deviation:.3f}"


def test_criterion_09_burgers_ramp_and_shock():
    """Order-3 layered marching of the steepening ramp: the smooth ramp stays
    within 2e-2 of the similarity profile at t=0.5 (measured away from the two
    corner cells), and the formed shock sits at 1.25 and 1.5 (within 2 dx) at
    t = 1.5 and 2.0."""
    with criterion(9, "steepening ramp accuracy and shock positions"):
        dx, dt = 0.05, 0.025
        box = (-5.0, 5.0)
        nu = dt / dx
        n = 3
        field = GridField.sample(burgers_ramp, box, round((box[1] - box[0]) / dx))
        layers = nonlinear_layers(n, OffsetSet.contiguous(2, 3))
        densities = burgers_densities(n)
        snaps = {}
        want = {20: 0.5, 60: 1.5, 80: 2.0}
        run_nonlinear(
            field, layers, densities, nu, 80,
            callback=lambda s, f: snaps.__setitem__(s, f) if s in want else None,
        )

        # t = 0.5: compare on the ramp interior, two cells clear of each corner
        t = 0.5
        f05 = snaps[20]
        x = f05.x()
        inside = (x >= t + 2 * dx) & (x <= 1.0 - 2 * dx)
        ref = (1.0 - x[inside]) / (1.0 - t)
        ramp_err = float(np.max(np.abs(f05.values[inside] - ref)))
        assert ramp_err <= 2e-2, f"ramp error {ramp_err:.4f}"

        # post-breaking shock front: half the initial edge speed
        for step, (t, want_x) in {60: (1.5, 1.25), 80: (2.0, 1.5)}.items():
            front = shock_front(snaps[step])
            assert front is not None
            assert front == pytest.approx(want_x, abs=2 * dx), f"t={t}: front {front}"


def test_criterion_10_golden_figure_regression(tmp_path):
    """The long advection benchmark reproduces its frozen snapshot errors, and
    the order-5 ladder member beats order-1 on the triangle by >= 5x."""
    with criterion(10, "golden-file regression of the 6250-step benchmark"):
        golden = json.loads(GOLDEN_PATH.read_text())
        out_dir = tmp_path / "golden"
        rc = cli_main(
            ["run", golden["preset"], "--orders", "1,5", "--out", str(out_dir)]
        )
        assert rc == 0
        box = tuple(golden["box"])
        measured = {}
        for order in (1, 5):
            for prof in ("triangle", "rectangle"):
                path = out_dir / f"{golden['preset']}_uw{order:02d}_{prof}_t{golden['time']:g}.csv"
                rows = [
                    line.split(",")
                    for line in path.read_text().splitlines()
                    if line and not line.startswith("#") and not line.startswith("x,")
                ]
                x = np.array([float(r[0]) for r in rows])
                u = np.array([float(r[1]) for r in rows])
                if prof == "triangle":
                    ref = np.maximum(0.0, 1.0 - np.abs(x))
                else:
                    ref = np.where(np.abs(x) <= 1.0, 1.0, 0.0)
                measured[f"uw{order:02d}_{prof}"] = float(np.max(np.abs(u - ref)))
        for key, frozen in golden["max_errors"].items():
            assert measured[key] == pytest.approx(frozen, rel=1e-9), key
        ratio = measured["uw01_triangle"] / measured["uw05_triangle"]
        assert ratio >= golden["min_triangle_improvement"], f"ratio {ratio:.2f}"
