"""Single-mode stability analysis: gains, critical Courant numbers, classifications."""

import contextlib
import math
import random
import signal
import warnings
from fractions import Fraction

import numpy as np
import pytest

import fdmarch.stability
from fdmarch.exact import ConfigurationError, OffsetSet
from fdmarch.schemes import SchemeSpec, first_order_scheme, master_scheme
from fdmarch.stability import (
    FAMILIES,
    GROWTH_TOL,
    NU_MAX,
    NU_TOL,
    STABLE_NU_THRESHOLD,
    THETA_SAMPLES,
    _golden_max,
    _sweep_critical,
    advection_family_scheme,
    advection_family_spec,
    advection_family_stability,
    amplification,
    classify_first_order,
    critical_courant,
    first_order_stable_r,
    max_growth,
    stability_bound_audit,
    stability_report,
    truncated_first_layer_critical,
)


# -- amplification factor -----------------------------------------------------------

class TestAmplification:
    @pytest.mark.parametrize(
        "spec",
        [
            SchemeSpec(1, 1, OffsetSet([-1, 0])),
            SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)),
            SchemeSpec(1, 3, OffsetSet([-2, -1, 0, 1])),
        ],
    )
    def test_consistency_mode_has_unit_gain(self, spec):
        s = master_scheme(spec)
        for nu in (-1.3, -0.2, 0.7, 2.5):
            assert amplification(s, nu, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_centered_diffusion_at_pi(self):
        # g(pi) = 1 - 4 nu; at nu = 1/2 the gain is -1, squared gain 1
        s = first_order_scheme(2, 1)
        assert amplification(s, 0.5, math.pi) == pytest.approx(1.0, abs=1e-12)
        assert amplification(s, 0.6, math.pi) == pytest.approx((1 - 2.4) ** 2, abs=1e-12)

    def test_exact_shift_is_unitary(self):
        s = first_order_scheme(1, 1)  # upwind; nu = -1 puts all weight on offset -1
        thetas = np.linspace(0.0, 2 * math.pi, 17)
        assert amplification(s, -1.0, thetas) == pytest.approx(np.ones(17), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        thetas = np.array([0.3, 1.1, 2.9])
        vec = amplification(s, -0.7, thetas)
        assert vec == pytest.approx([amplification(s, -0.7, t) for t in thetas])

    @pytest.mark.parametrize("m,r", [(1, 0), (1, 1), (2, 1), (3, 1), (4, 2)])
    def test_first_order_closed_form(self, m, r):
        """|g|^2 == 1 + 2 cos(Phi) nu S + nu^2 S^2 with S = (2 sin(theta/2))^m
        and Phi = theta (m - 2r)/2 + m pi/2, at seeded random (theta, nu) pairs."""
        rng = random.Random(1234 + 10 * m + r)
        s = first_order_scheme(m, r)
        for _ in range(10):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            nu = rng.uniform(-1.0, 1.0)
            big_s = (2.0 * math.sin(theta / 2.0)) ** m
            phi = theta * (m - 2 * r) / 2.0 + m * math.pi / 2.0
            closed = 1.0 + 2.0 * math.cos(phi) * nu * big_s + nu * nu * big_s * big_s
            assert amplification(s, nu, theta) == pytest.approx(
                closed, rel=1e-12, abs=1e-12
            )


class TestMaxGrowth:
    def test_finds_pi_peak(self):
        s = first_order_scheme(2, 1)
        theta, g2 = max_growth(s, 0.6)
        assert theta == pytest.approx(math.pi, abs=1e-3)
        assert g2 == pytest.approx((1 - 2.4) ** 2, rel=1e-10)

    def test_stable_scheme_peaks_at_one(self):
        s = first_order_scheme(2, 1)
        _, g2 = max_growth(s, 0.25)
        assert g2 == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_gain_is_a_verdict_without_warnings(self):
        """At a huge nu the gain overflows to nan: the scan returns that peak,
        which reads as unstable, and numpy warns of nothing."""
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, g2 = max_growth(s, -1e200)
        assert math.isnan(g2)

    @pytest.mark.parametrize(
        "scan",
        [lambda s: critical_courant(s, +1), lambda s: max_growth(s, 0.3),
         lambda s: amplification(s, 0.3, [0.0, 1.0]), lambda s: amplification(s, 0.3, 1.0)],
        ids=["critical_courant", "max_growth", "amplification", "amplification-scalar"],
    )
    def test_scan_builds_no_exact_weight_polynomial(self, scan):
        """The scan reads float weights from the layer table's float rows and
        offsets from the spec; no `RatPoly` column is built."""
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        scan(s)
        assert "coeffs" not in vars(s)


def reference_max_growth(scheme, nu, samples=THETA_SAMPLES, refine=3):
    """The growth scan with its basis e^{ik theta} rebuilt on every call."""
    items = scheme.float_items(nu)
    ks = np.array([k for k, _ in items], dtype=float)
    ws = np.array([w for _, w in items], dtype=float)

    def growth(thetas):
        thetas = np.asarray(thetas, dtype=float)
        g = np.exp(1j * np.multiply.outer(thetas, ks)) @ ws
        return np.real(g * np.conj(g))

    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    g2 = growth(thetas)
    best_idx = int(np.argmax(g2))
    best_theta, best_val = float(thetas[best_idx]), float(g2[best_idx])
    is_peak = (g2 >= np.roll(g2, 1)) & (g2 >= np.roll(g2, -1))
    peak_idx = np.flatnonzero(is_peak)
    if peak_idx.size:
        top = peak_idx[np.argsort(g2[peak_idx])[::-1][:refine]]
        step = 2.0 * math.pi / samples
        for idx in top:
            theta0 = float(thetas[idx])
            t, v = _golden_max(lambda t: float(growth(t)), theta0 - step, theta0 + step)
            if v > best_val:
                best_theta, best_val = t % (2.0 * math.pi), v
    return best_theta, best_val


def hexes(pair):
    return tuple(float(x).hex() for x in pair)


PIN_SPECS = (
    [SchemeSpec(m, 1, OffsetSet.contiguous(r, m)) for m in range(1, 7) for r in range(m + 1)]
    + [SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)) for n in range(1, 5)]
    + [SchemeSpec(1, n, OffsetSet.contiguous((n + 1) // 2, n)) for n in (1, 5, 29)]
    + [SchemeSpec(4, 5, OffsetSet(range(-10, 11)))]
)


class TestScanIsBitwiseUnchanged:
    """The shared-basis scan returns the per-call scan's floats, bit for bit."""

    @pytest.mark.parametrize(
        "spec", PIN_SPECS, ids=lambda s: f"m{s.m}-n{s.n}-{s.offsets[0]}..{s.offsets[-1]}"
    )
    def test_max_growth(self, spec):
        s = master_scheme(spec)
        for nu in (-1.7155, -0.8, 0.8):
            assert hexes(max_growth(s, nu)) == hexes(reference_max_growth(s, nu)), nu

    def test_report_samples_are_one_shot_scans(self):
        """The report's worst theta is a one-shot scan's at its probe past nu_c."""
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        tol = 1e-3
        rep = stability_report(s, +1, tol=tol)
        probe = rep.nu_critical + 10.0 * tol
        assert rep.worst_theta.hex() == float(max_growth(s, probe)[0]).hex()
        assert rep.worst_theta.hex() == float(reference_max_growth(s, probe)[0]).hex()


class TestOneBasisPerSearch:
    """A search builds the 2-D basis e^{ik theta} once and shares it across its probes."""

    @pytest.fixture
    def basis_builds(self, monkeypatch):
        builds = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            if np.ndim(x) == 2:
                builds.append(np.shape(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        return builds

    SWEEP = SchemeSpec(4, 5, OffsetSet(range(-10, 11)))

    def test_critical_courant(self, basis_builds):
        # bisection, the pocket probes and the tol-step sweep all run here
        nu_c = critical_courant(master_scheme(self.SWEEP), -1, tol=1e-3)
        assert 0.0 < nu_c < 1.0
        assert basis_builds == [(THETA_SAMPLES, 21)]

    def test_stability_report(self, basis_builds):
        stability_report(master_scheme(self.SWEEP), -1, tol=1e-3)
        assert basis_builds == [(THETA_SAMPLES, 21)]


def pin_id(spec):
    return f"m{spec.m}-n{spec.n}-{spec.offsets[0]}..{spec.offsets[-1]}"


class FullyPolishedScan(fdmarch.stability._GrowthScan):
    """The shared scan with every probe fully polished, whatever its verdict needs."""

    def peak(self, nu, limit=math.inf):
        return super().peak(nu)


def fully_polished_critical_courant(scheme, nu_sign, tol):
    """`critical_courant` with no probe stopping once its verdict is decided."""
    return fdmarch.stability._critical_courant(FullyPolishedScan(scheme), nu_sign, tol)


class TestVerdictStopsWhenDecided:
    """A verdict stops at the grid or at the first polished peak above the limit,
    and gives the nu_c of fully polished probes, bit for bit."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_nu_c_matches_fully_polished_search(self, spec, sign):
        s = master_scheme(spec)
        got = critical_courant(s, sign, tol=1e-3)
        assert float.hex(got) == float.hex(fully_polished_critical_courant(s, sign, 1e-3))

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_any_limit_gives_the_full_scan_verdict(self, spec):
        """No search probe has its grid below the limit and its polished peak
        above it, so limits between the two are set here directly."""
        s = master_scheme(spec)
        scan = fdmarch.stability._GrowthScan(s)
        thetas = np.linspace(0.0, 2.0 * math.pi, THETA_SAMPLES, endpoint=False)
        for nu in (-1.7155, -0.8, 0.8):
            full = max_growth(s, nu)
            top = full[1]
            grid = float(np.max(amplification(s, nu, thetas)))
            for limit in (
                math.nextafter(grid, -math.inf),
                grid,
                0.5 * (grid + top),
                math.nextafter(top, -math.inf),
                top,
                1.0 + GROWTH_TOL,
            ):
                got = scan.peak(nu, limit=limit)
                assert (got[1] > limit) == (top > limit), (nu, limit)
                if top <= limit:
                    assert hexes(got) == hexes(full), (nu, limit)

    @pytest.fixture
    def polishes(self, monkeypatch):
        calls = []
        golden_max = fdmarch.stability._golden_max

        def counting_golden_max(*args, **kwargs):
            calls.append(args)
            return golden_max(*args, **kwargs)

        monkeypatch.setattr(fdmarch.stability, "_golden_max", counting_golden_max)
        return calls

    def test_grid_above_limit_skips_the_polish(self, polishes):
        scan = fdmarch.stability._GrowthScan(first_order_scheme(2, 1))
        _, g2 = scan.peak(0.6, limit=1.0 + GROWTH_TOL)
        assert g2 > 1.9  # the grid peak at theta = pi, |1 - 4 nu|^2 = 1.96
        assert polishes == []

    def test_reported_values_stay_polished(self, polishes):
        s = first_order_scheme(2, 1)
        assert hexes(max_growth(s, 0.6)) == hexes(reference_max_growth(s, 0.6))
        assert polishes


# -- critical Courant numbers --------------------------------------------------------

@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test body if it runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCriticalCourant:
    def test_centered_diffusion_anchor(self):
        s = first_order_scheme(2, 1)
        assert critical_courant(s, +1) == pytest.approx(0.5, abs=1e-4)

    def test_wrong_sign_is_dead(self):
        s = first_order_scheme(2, 1)
        assert critical_courant(s, -1) == 0.0

    def test_upwind_interval(self):
        s = first_order_scheme(1, 1)
        assert critical_courant(s, -1) == pytest.approx(1.0, abs=1e-4)

    def test_gap_stencil_dead_both_signs(self):
        s = master_scheme(SchemeSpec(3, 1, OffsetSet([-2, -1, 1, 2])))
        assert critical_courant(s, +1) == 0.0
        assert critical_courant(s, -1) == 0.0

    def test_second_order_diffusion(self):
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        assert critical_courant(s, +1) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_truncated_second_order(self):
        assert truncated_first_layer_critical(2) == pytest.approx(0.375, abs=1e-4)

    def test_truncated_n1_equals_full(self):
        assert truncated_first_layer_critical(1) == pytest.approx(0.5, abs=1e-4)

    def test_truncated_needs_positive_n(self):
        with pytest.raises(ConfigurationError, match="n must be >= 1, got 0"):
            truncated_first_layer_critical(0)

    @pytest.mark.parametrize("tol", [NU_MAX, 100.0, 1e308, math.inf])
    def test_tol_at_search_ceiling_refused(self, tol):
        """Regression: a tol at or above NU_MAX returned NU_MAX without a
        probe, so the dead a < 0 side of m = 2, n = 1 read as stable."""
        s = first_order_scheme(2, 1)
        with pytest.raises(ValueError, match="below the search ceiling"):
            critical_courant(s, -1, tol=tol)
        with pytest.raises(ValueError, match="below the search ceiling"):
            stability_report(s, -1, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, -math.inf, math.nan])
    def test_tol_not_positive_refused(self, tol):
        """Regression: from tol = 0 the doubling search never moved and never
        returned, and tol = -1e-3 gave nu_c = 0 for the upwind scheme, whose
        nu_c is 1.  A deadline turns a hang into a failure."""
        s = master_scheme(SchemeSpec(1, 1, OffsetSet([-1, 0])))
        with _deadline(10.0):
            with pytest.raises(ValueError, match="tol must be > 0"):
                critical_courant(s, -1, tol=tol)
            with pytest.raises(ValueError, match="tol must be > 0"):
                stability_report(s, -1, tol=tol)

    @pytest.mark.parametrize("tol", [1.0, 10.0])
    def test_tol_above_nu_c_still_stable(self, tol):
        """Regression: with tol >= nu_c the first probe is unstable, and
        bisecting [0, tol] only down to tol returned 0, a false "unstable" for
        the centred diffusion scheme, whose nu_c is 1/2.  That bisection now
        goes down to STABLE_NU_THRESHOLD."""
        s = first_order_scheme(2, 1)
        report = stability_report(s, +1, tol=tol)
        assert report.is_stable
        assert 0.5 - STABLE_NU_THRESHOLD < report.nu_critical <= 0.5
        assert critical_courant(s, +1, tol=tol) == report.nu_critical


def tol_step_sweep(stable, tol, ceiling):
    """The pocket sweep before its step was floored at NU_TOL: steps of tol."""
    nu = tol
    last_stable = 0.0
    while nu <= ceiling + tol:
        if not stable(nu):
            return last_stable
        last_stable = nu
        nu += tol
    return last_stable


class TestPocketSweep:
    @staticmethod
    def logged(boundary, pocket=None):
        """A verdict that is stable below `boundary` except inside `pocket`,
        and the list of every nu it is asked about."""
        probes = []

        def stable(nu):
            probes.append(nu)
            return nu < boundary and not (pocket and pocket[0] <= nu < pocket[1])

        return stable, probes

    @pytest.mark.parametrize("tol", [NU_TOL, 3e-4, 1e-3, 0.01])
    @pytest.mark.parametrize("pocket", [None, (0.05, 0.0512)])
    def test_tol_at_least_nu_tol_probes_as_before(self, tol, pocket):
        new, new_probes = self.logged(0.15032, pocket)
        old, old_probes = self.logged(0.15032, pocket)
        got = _sweep_critical(new, tol, 0.2)
        assert float.hex(got) == float.hex(tol_step_sweep(old, tol, 0.2))
        assert new_probes == old_probes

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-20])
    @pytest.mark.parametrize("pocket", [None, (0.05, 0.0512)])
    def test_fine_tol_bisects_the_sweep_bracket(self, tol, pocket):
        stable, probes = self.logged(0.15032, pocket)
        got = _sweep_critical(stable, tol, 0.2)
        first_unstable = pocket[0] if pocket else 0.15032
        # bisection ends at tol or at two neighbouring floats
        assert first_unstable - max(tol, math.ulp(first_unstable)) <= got < first_unstable
        assert len(probes) < 0.2 / NU_TOL + 100

    def test_sweep_spec_unchanged_at_coarse_tol(self, monkeypatch):
        """The scheme-zoo sweep case, m=4 n=5 at tol 1e-3, gives the same float."""
        scheme = master_scheme(SchemeSpec(4, 5, OffsetSet(range(-10, 11))))
        got = critical_courant(scheme, -1, tol=1e-3)
        monkeypatch.setattr(fdmarch.stability, "_sweep_critical", tol_step_sweep)
        assert float.hex(got) == float.hex(critical_courant(scheme, -1, tol=1e-3))


class TestStabilityReport:
    def test_report_fields(self):
        s = first_order_scheme(2, 1)
        rep = stability_report(s, +1)
        assert rep.m == 2 and rep.n == 1
        assert rep.nu_sign == 1
        assert rep.nu_critical == pytest.approx(0.5, abs=1e-4)
        assert rep.worst_theta == pytest.approx(math.pi, abs=1e-2)
        assert rep.is_stable

    def test_unstable_report(self):
        s = first_order_scheme(2, 1)
        rep = stability_report(s, -1)
        assert rep.nu_critical == 0.0
        assert rep.nu_critical <= STABLE_NU_THRESHOLD
        assert not rep.is_stable

    def test_growth_monotone_beyond_critical(self):
        s = first_order_scheme(2, 1)
        rep = stability_report(s, +1)
        # 11 Courant numbers from 0 to 1.25 nu_c
        nus = np.linspace(0.0, max(1.25 * rep.nu_critical, 20.0 * NU_TOL), 11)
        beyond = [float(nu) for nu in nus if nu > rep.nu_critical + 1e-3]
        assert beyond
        assert all(max_growth(s, nu)[1] > 1.0 + 1e-10 for nu in beyond)


# -- first-order landscape --------------------------------------------------------------

def chebyshev(n, x):
    """[T_0(x), ..., T_n(x)] by the three-term recurrence, exact for a Fraction x."""
    ts = [Fraction(1), x]
    while len(ts) <= n:
        ts.append(2 * x * ts[-1] - ts[-2])
    return ts[: n + 1]


class TestClassification:
    def test_advection(self):
        cls = classify_first_order(1)
        assert cls.stable_r == {+1: 0, -1: 1}

    def test_diffusion_one_sided_sign(self):
        cls = classify_first_order(2)
        assert cls.stable_r == {+1: 1, -1: None}

    def test_third_derivative(self):
        cls = classify_first_order(3)
        assert cls.stable_r == {+1: 2, -1: 1}

    @pytest.mark.parametrize("m", range(1, 13))
    def test_exact_certificate(self, m):
        """s Re z(x) = sum_k c1_k T_|k|(x), x = cos(theta), in exact arithmetic.

        On the stable window it equals -y^ceil(m/2) / 2^(m mod 2), y = 2 - 2x,
        at 129 points: both sides have degree <= 12, so they are identical.
        Every other window has a point x with s Re z(x) > 0.  m = 11 and 12
        once lost their stable window to a float threshold.
        """
        xs = [Fraction(k, 64) for k in range(-64, 65)]
        ts = [chebyshev(m, x) for x in xs]
        half_up = (m + 1) // 2
        cls = classify_first_order(m)
        assert cls.stable_r == {s: first_order_stable_r(m, s) for s in (+1, -1)}
        for r in range(m + 1):
            scheme = first_order_scheme(m, r)
            c1 = dict(zip(scheme.offsets, scheme.layers[1]))
            for sign in (+1, -1):
                re_z = [sign * sum(c * t[abs(k)] for k, c in c1.items()) for t in ts]
                nu_c = cls.nu_critical[(sign, r)]
                assert isinstance(nu_c, Fraction)
                if r == first_order_stable_r(m, sign):
                    want = [-((2 - 2 * x) ** half_up) / 2 ** (m % 2) for x in xs]
                    assert re_z == want, (m, sign, r)
                    assert nu_c == Fraction(1, 2 ** (m - 1))
                else:
                    assert any(v > 0 for v in re_z), (m, sign, r)
                    assert nu_c == 0

    @pytest.mark.parametrize("m", range(1, 7))
    def test_measured_search_agrees(self, m):
        """The float search lands within two bisection steps below the exact value."""
        cls = classify_first_order(m)
        for (sign, r), exact in cls.nu_critical.items():
            measured = critical_courant(first_order_scheme(m, r), sign)
            assert 0 <= exact - Fraction(measured) <= 2 * Fraction(NU_TOL), (sign, r, measured)

    @pytest.mark.parametrize("m", [0, -3])
    def test_m_below_one_refused(self, m):
        with pytest.raises(ConfigurationError, match=f"m must be >= 1, got {m}"):
            classify_first_order(m)

    def test_no_growth_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("growth scan built")

        monkeypatch.setattr(fdmarch.stability, "_GrowthScan", refuse)
        assert classify_first_order(6).stable_r == {+1: 3, -1: None}
        assert all(row.within for row in stability_bound_audit(6))

    def test_bound_audit_shape(self):
        rows = stability_bound_audit(2)
        assert len(rows) == 5  # (m=1: r=0,1) + (m=2: r=0,1,2)
        assert all(row.within for row in rows)
        anchor = next(r for r in rows if r.m == 2 and r.r == 1)
        assert anchor.bound == 0.5
        assert anchor.nu_critical == pytest.approx(0.5, abs=1e-4)
        assert anchor.sign == +1


# -- named advection ladders ---------------------------------------------------------------

class TestAdvectionFamilies:
    def test_family_names(self):
        assert FAMILIES == ("uw", "lw", "bw")

    def test_specs(self):
        assert advection_family_spec("uw", 0) == (1, 1)
        assert advection_family_spec("uw", 1) == (3, 2)
        assert advection_family_spec("lw", 1) == (2, 1)
        assert advection_family_spec("bw", 0) == (2, 2)
        assert advection_family_spec("bw", 1) == (4, 3)

    def test_lw_ladder_starts_at_one(self):
        with pytest.raises(ValueError):
            advection_family_spec("lw", 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            advection_family_spec("xx", 0)

    @pytest.mark.parametrize("kind, s", [("uw", -1), ("lw", 0), ("xx", 0)])
    def test_bad_member_is_a_refusal(self, kind, s):
        with pytest.raises(ConfigurationError):
            advection_family_spec(kind, s)

    def test_lowest_members_are_the_classics(self):
        uw = advection_family_scheme("uw", 0)
        assert tuple(uw.offsets) == (-1, 0)
        lw = advection_family_scheme("lw", 1)
        assert tuple(lw.offsets) == (-1, 0, 1)
        bw = advection_family_scheme("bw", 0)
        assert tuple(bw.offsets) == (-2, -1, 0)

    def test_classic_intervals(self):
        assert advection_family_stability(0, "uw") == pytest.approx(1.0, abs=1e-3)
        assert advection_family_stability(1, "lw") == pytest.approx(1.0, abs=1e-3)
        assert advection_family_stability(0, "bw") == pytest.approx(2.0, abs=1e-3)
