"""Single-mode stability analysis: gains, critical Courant numbers, classifications."""

import contextlib
import importlib
import json
import math
import random
import signal
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fdmarch.stability
from fdmarch.exact import ConfigurationError, OffsetSet
from fdmarch.schemes import SchemeSpec, first_order_scheme, master_scheme
from fdmarch.stability import (
    FAMILIES,
    FIRST_MEMBER,
    GROWTH_TOL,
    MAX_SCAN_SPAN,
    NU_MAX,
    NU_TOL,
    STABLE_NU_THRESHOLD,
    THETA_SAMPLES,
    _bisect,
    _sweep_critical,
    advection_critical,
    advection_family_scheme,
    advection_family_spec,
    advection_family_stability,
    amplification,
    classify_first_order,
    critical_courant,
    exact_critical,
    exact_rule,
    first_order_stable_r,
    growth_note,
    grows,
    max_growth,
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


    @pytest.mark.parametrize("nu", [-1e200, 1e300])
    @pytest.mark.parametrize("theta", [1.0, [0.1, 1.0, 3.0]], ids=["scalar", "array"])
    def test_overflow_is_silent(self, nu, theta):
        """At a huge nu the gain overflows to inf or nan without a warning,
        as in the scan."""
        schemes = [
            master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1]))),
            master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4))),
            first_order_scheme(3, 1),
        ]
        for s in schemes:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g2 = np.asarray(amplification(s, nu, theta))
            assert not np.isfinite(g2).any()


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


def hexes(pair):
    return tuple(float(x).hex() for x in pair)


def pin_id(spec):
    return f"m{spec.m}-n{spec.n}-{spec.offsets[0]}..{spec.offsets[-1]}"


PIN_SPECS = (
    [SchemeSpec(m, 1, OffsetSet.contiguous(r, m)) for m in range(1, 7) for r in range(m + 1)]
    + [SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)) for n in range(1, 5)]
    + [SchemeSpec(1, n, OffsetSet.contiguous((n + 1) // 2, n)) for n in (1, 5, 29)]
    + [SchemeSpec(4, 5, OffsetSet(range(-10, 11)))]
)
# nu_c of every PIN_SPECS entry, both signs, tol 1e-3 and NU_TOL, as float hex:
# the values of the complex-basis scan with golden-section polish that the
# cosine scan replaced, frozen before it was replaced
NU_C_PINS = json.loads((Path(__file__).parent / "data" / "nu_c_pins.json").read_text())
# max_growth's (theta, |g|^2) of every PIN_SPECS entry at every BATCH_NUS
# value, and stability_report's worst theta for both signs at NU_TOL, as float
# hex: the values of the scan that kept per-probe compaction, frozen before
# its live-mask form replaced it
MAX_GROWTH_PINS = json.loads((Path(__file__).parent / "data" / "max_growth_pins.json").read_text())


class TestNuCIsPinned:
    """The cosine scan gives the frozen nu_c of the scan it replaced, bit for bit."""

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_critical_courant(self, spec):
        s = master_scheme(spec)
        for tol in (1e-3, NU_TOL):
            for sign in (+1, -1):
                key = f"{pin_id(spec)}|{sign:+d}|{tol!r}"
                assert critical_courant(s, sign, tol).hex() == NU_C_PINS[key], key

    def test_report_samples_are_one_shot_scans(self):
        """The report's worst theta is a one-shot scan's at its probe past nu_c."""
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        tol = 1e-3
        rep = stability_report(s, +1, tol=tol)
        probe = rep.nu_critical + 10.0 * tol
        assert rep.worst_theta.hex() == float(max_growth(s, probe)[0]).hex()


class TestReportedValuesArePinned:
    """What the scan reports is frozen, not only the verdicts it gives."""

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_reported_values(self, spec):
        """Every reported theta and peak is the frozen value, bit for bit: the
        nan of an overflowed probe included."""
        s = master_scheme(spec)
        for nu in BATCH_NUS:
            key = f"{pin_id(spec)}|{nu!r}"
            assert list(hexes(max_growth(s, nu))) == MAX_GROWTH_PINS[key], key
        for sign in (+1, -1):
            key = f"{pin_id(spec)}|{sign:+d}|worst_theta"
            assert stability_report(s, sign).worst_theta.hex() == MAX_GROWTH_PINS[key], key


class TestScanAccuracy:
    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_peak_is_at_least_a_dense_grid_maximum(self, spec):
        """max_growth is no lower than the maximum of a 2^16-point grid of
        `amplification`, to roundoff (1e-15, relative above 1), and its theta
        is in [0, pi]."""
        s = master_scheme(spec)
        dense = np.linspace(0.0, 2.0 * math.pi, 2**16, endpoint=False)
        for nu in (-1.7155, -0.8, -0.31, 0.13, 0.8):
            theta, g2 = max_growth(s, nu)
            assert 0.0 <= theta <= math.pi
            assert g2 >= float(np.max(amplification(s, nu, dense))) - 1e-15 * max(1.0, g2), nu

    def test_span_beyond_the_grid_is_folded(self):
        """A span of 4096 or more folds a_d by d mod THETA_SAMPLES before the
        one FFT, row by row in a batch: each grid is the cosine sum, and each
        peak is the closed form (|c_0| + |c_1|)^2 of a two-point stencil."""
        s = master_scheme(SchemeSpec(1, 1, OffsetSet([-1, 4100])))
        scan = fdmarch.stability._GrowthScan(s)
        for nus in ([0.3], [0.3, -0.45, 0.7]):
            c = s.float_weights(nus)
            a = fdmarch.stability._cosine_coefficients(s.offsets, c)
            assert a.shape == (len(nus), 4102) and 4102 > THETA_SAMPLES
            grid = scan._grid(a)
            _, peaks = scan.peaks(nus)
            for k, nu in enumerate(nus):
                assert grid[k] == pytest.approx(amplification(s, nu, scan.thetas), rel=1e-12, abs=1e-12)
                closed = (abs(c[k, 0]) + abs(c[k, 1])) ** 2
                assert max_growth(s, nu)[1] == pytest.approx(closed, rel=1e-14)
                assert peaks[k] == pytest.approx(closed, rel=1e-14)

    def test_span_limit_leaves_the_tests_room(self):
        """100x in the span^2 work of the autocorrelation over the widest span
        the tests scan, 4101 (the folded stencil above)."""
        assert MAX_SCAN_SPAN**2 >= 100 * 4101**2

    @pytest.mark.parametrize(
        "scan",
        [lambda s: max_growth(s, 0.3), lambda s: critical_courant(s, -1),
         lambda s: stability_report(s, +1), lambda s: amplification(s, 0.3, 1.0)],
        ids=["max_growth", "critical_courant", "stability_report", "amplification"],
    )
    @pytest.mark.parametrize("span", [MAX_SCAN_SPAN + 1, 10**27])
    def test_span_past_the_limit_refused(self, scan, span):
        """Refused by its own rule before any array is sized: numpy's refusal
        of a huge array is a ValueError, but not a ConfigurationError."""
        s = master_scheme(SchemeSpec(1, 1, OffsetSet([0, span])))
        with pytest.raises(ConfigurationError, match=f"stencil span {span} is over the scan limit"):
            scan(s)

    def test_span_at_the_limit_is_scanned(self):
        d = fdmarch.stability._distances(OffsetSet([-1, MAX_SCAN_SPAN - 1]))
        assert d.shape == (MAX_SCAN_SPAN + 1,) and d[-1] == MAX_SCAN_SPAN

    @pytest.mark.parametrize("end", [0.0, math.pi], ids=["theta=0", "theta=pi"])
    def test_end_minimum_with_twin_peaks(self, end):
        """g = 1 + e x - x^2 / 4 with x = 1 - cos(theta - end) has a local
        minimum at the end and twin peaks 2 sqrt(e) to either side, closer
        than half a grid step: the grid's maximum sits at the end, and the
        polish must climb inwards to the peak."""
        e = 5e-8
        sign = 1.0 if end == 0.0 else -1.0
        weights = np.array([-1 / 16, sign * (1 / 4 - e / 2), 5 / 8 + e, sign * (1 / 4 - e / 2), -1 / 16])
        s = FixedWeights(OffsetSet(range(-2, 3)), weights)
        step = math.pi / (THETA_SAMPLES // 2)
        assert amplification(s, 0.0, end) > amplification(s, 0.0, abs(end - step))
        theta, g2 = max_growth(s, 0.0)
        near = np.linspace(end - step, end + step, 20001)
        assert g2 >= float(np.max(amplification(s, 0.0, near))) - 1e-15
        assert g2 - amplification(s, 0.0, end) > 0.5 * 2 * e * e  # the twin peak's rise, 2 e^2
        # the peak is flat to roundoff over about a tenth of its distance from the end
        assert abs(theta - end) == pytest.approx(2 * math.sqrt(e), rel=0.25)


# the nu of each batch below: exact shifts with tied peaks at +-1, and -1e200,
# whose gain overflows the grid to nan
BATCH_NUS = [-1e200, -1.7155, -1.0, -0.8, -0.31, 0.13, 0.8, 1.0, 1.7155]


def bits(values):
    return [float(x).hex() for x in values]


class TestBatchEqualsItsSingleProbes:
    """A batch of nu gives each probe what a scan of that nu alone gives."""

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_verdicts_and_grid_maxima(self, spec):
        """Verdict and grid-maximum bits per probe; a limit of -inf stops every
        probe at its grid maximum."""
        scan = fdmarch.stability._GrowthScan(master_scheme(spec))
        limit = 1.0 + GROWTH_TOL
        verdicts = scan.peaks(BATCH_NUS, limit)[1]
        grids = scan.peaks(BATCH_NUS, -math.inf)
        full = scan.peaks(BATCH_NUS)[1]
        for k, nu in enumerate(BATCH_NUS):
            assert grows(verdicts[k]) == grows(scan.peaks([nu], limit)[1][0]), nu
            alone = scan.peaks([nu], -math.inf)
            assert bits((grids[0][k], grids[1][k])) == bits((alone[0][0], alone[1][0])), nu
            alone = scan.peaks([nu])[1][0]
            assert full[k] == pytest.approx(alone, rel=1e-15, nan_ok=True), nu

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_fft_rows_are_the_one_dimensional_fft(self, spec):
        """numpy's real FFT of a (K, span + 1) batch along its rows is bitwise
        the FFT of each row alone; the batched grid rests on this."""
        s = master_scheme(spec)
        # the overflowed row is inf and nan throughout
        with np.errstate(over="ignore", invalid="ignore"):
            a = fdmarch.stability._cosine_coefficients(s.offsets, s.float_weights(BATCH_NUS))
            rows = np.fft.rfft(a, THETA_SAMPLES, axis=-1)
            grid = fdmarch.stability._GrowthScan(s)._grid(a)
            for k, nu in enumerate(BATCH_NUS):
                alone = np.fft.rfft(a[k], THETA_SAMPLES)
                assert rows[k].tobytes() == alone.tobytes(), nu
                assert grid[k].tobytes() == alone.real.tobytes(), nu

    @pytest.mark.parametrize(
        "scheme",
        [master_scheme(spec) for spec in PIN_SPECS]
        + [master_scheme(PIN_SPECS[0]).truncated(0), first_order_scheme(2, 1).truncated(0)],
        ids=[pin_id(spec) for spec in PIN_SPECS] + ["m1-n1-truncated", "m2-n1-truncated"],
    )
    def test_float_weights_rows(self, scheme):
        """Row k of the weights at a batch is bitwise the weights at nu[k],
        signed zeros included: a truncated scheme has identically zero
        columns, which read +0.0 at a negative nu."""
        batch = scheme.float_weights(np.array(BATCH_NUS))
        assert batch.shape == (len(BATCH_NUS), len(scheme.offsets))
        for k, nu in enumerate(BATCH_NUS):
            assert batch[k].tobytes() == scheme.float_weights(nu).tobytes(), nu
        w = scheme.float_weights(-0.8)
        assert not np.signbit(w[w == 0.0]).any()


@dataclass
class FixedWeights:
    """A stand-in scheme whose weights are the same at every nu, or at every
    nu of a batch."""

    offsets: OffsetSet
    weights: np.ndarray

    def float_weights(self, nu):
        return np.broadcast_to(self.weights, np.shape(nu) + self.weights.shape)


def bound_off(monkeypatch):
    """Switch the search's Bernstein bound off: no span is narrow enough."""
    monkeypatch.setattr(fdmarch.stability, "_BERNSTEIN_SPAN", -1)


class TestOneFFTPerProbe:
    """Each scan call costs at most one real FFT, whatever the size of its
    batch, and none when the theta = pi check decides every probe; nothing
    builds a 2-D complex exponential basis."""

    SWEEP = SchemeSpec(4, 5, OffsetSet(range(-10, 11)))

    @pytest.fixture
    def counts(self, monkeypatch):
        # the Bernstein bound would leave the scan 23 of the search's probes
        bound_off(monkeypatch)
        # "ffts" holds each scan call's count of real FFTs
        counts = {"ffts": [], "probes": 0, "rfft": 0, "complex_exp": 0}
        peaks, rfft, exp = fdmarch.stability._GrowthScan.peaks, np.fft.rfft, np.exp

        def counting_peaks(self, nus, *args, **kwargs):
            before = counts["rfft"]
            counts["probes"] += len(nus)
            out = peaks(self, nus, *args, **kwargs)
            counts["ffts"].append(counts["rfft"] - before)
            return out

        def counting_rfft(*args, **kwargs):
            counts["rfft"] += 1
            return rfft(*args, **kwargs)

        def counting_exp(x, *args, **kwargs):
            if np.ndim(x) == 2 and np.iscomplexobj(x):
                counts["complex_exp"] += 1
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(fdmarch.stability._GrowthScan, "peaks", counting_peaks)
        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(np, "exp", counting_exp)
        return counts

    def test_critical_courant(self, counts):
        # bisection, the pocket probes and the tol-step sweep all run here
        nu_c = critical_courant(master_scheme(self.SWEEP), -1, tol=1e-3)
        assert 0.0 < nu_c < 1.0
        assert counts["probes"] > 100
        assert max(counts["ffts"]) == 1 and len(counts["ffts"]) < counts["probes"]
        assert min(counts["ffts"]) == 0
        assert counts["complex_exp"] == 0

    def test_stability_report(self, counts):
        stability_report(master_scheme(self.SWEEP), -1, tol=1e-3)
        assert counts["probes"] > 100
        assert max(counts["ffts"]) == 1 and len(counts["ffts"]) < counts["probes"]
        assert min(counts["ffts"]) == 0
        assert counts["complex_exp"] == 0


def test_polish_costs_at_most_two_evaluations_per_probe(monkeypatch):
    """Perf guard, as counts: over the stability searches of the benchmark's
    scheme-zoo workload (centred diffusion n = 1..4 full and truncated, the
    uw/lw/bw ladders, the m = 4, n = 5 sweep at tol 1e-3), the searches ask
    their verdict function about over 800 nu, and hand the scan at most 129
    calls, 442 probes, 20 FFT rows and 10 polish evaluations (141, 787, 360
    and 354 with the Bernstein bound off; 151, 1078 and 651 calls, probes
    and rows when every probe was scanned): each probe the closed form or
    the bound proves stable skips the scan, the searches batch the rest, and
    bisect two levels per call (one level per call took 275 calls).  The
    Newton polish evaluates its cosine sums at most twice per scanned probe
    on average."""
    counts = {"asked": 0, "calls": 0, "probes": 0, "rows": 0, "evaluations": 0}
    scan = fdmarch.stability._GrowthScan
    verdicts, peaks, grid, slopes = fdmarch.stability._verdicts, scan.peaks, scan._grid, scan._slopes

    def counting_verdicts(*args):
        stables = verdicts(*args)

        def counting(nus):
            counts["asked"] += len(nus)
            return stables(nus)

        return counting

    def counting_peaks(self, nus, *args, **kwargs):
        counts["calls"] += 1
        counts["probes"] += len(nus)
        return peaks(self, nus, *args, **kwargs)

    def counting_grid(self, a):
        counts["rows"] += len(a)
        return grid(self, a)

    def counting_slopes(self, thetas, *args, **kwargs):
        # one evaluation per probe whose peaks this call polishes
        counts["evaluations"] += len(thetas)
        return slopes(self, thetas, *args, **kwargs)

    monkeypatch.setattr(fdmarch.stability, "_verdicts", counting_verdicts)
    monkeypatch.setattr(scan, "peaks", counting_peaks)
    monkeypatch.setattr(scan, "_grid", counting_grid)
    monkeypatch.setattr(scan, "_slopes", counting_slopes)
    for n in range(1, 5):
        s = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
        critical_courant(s, +1)
        critical_courant(s.truncated(1), +1)
    for kind in FAMILIES:
        for member in range(1 if kind == "lw" else 0, 3):
            advection_family_stability(member, kind)
    critical_courant(master_scheme(SchemeSpec(4, 5, OffsetSet(range(-10, 11)))), -1, tol=1e-3)
    assert counts["asked"] > 800
    assert counts["calls"] <= 129 and counts["probes"] <= 442
    assert counts["rows"] <= 20 and counts["evaluations"] <= 10
    assert counts["evaluations"] <= 2 * counts["probes"]


class FullyPolishedScan(fdmarch.stability._GrowthScan):
    """The shared scan with every probe fully polished, whatever its verdict needs."""

    def peaks(self, nus, limit=math.inf, weights=None):
        return super().peaks(nus, weights=weights)


def fully_polished_critical_courant(scheme, nu_sign, tol):
    """`critical_courant` with no probe stopping once its verdict is decided."""
    return fdmarch.stability._critical_courant(FullyPolishedScan(scheme), nu_sign, tol)


class TestVerdictStopsWhenDecided:
    """A verdict stops at the grid or at the first polished peak above the limit,
    and gives the nu_c of fully polished probes, bit for bit."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_nu_c_matches_fully_polished_search(self, spec, sign, monkeypatch):
        """Against a search that scans and fully polishes every probe the
        closed form does not prove: the Bernstein bound is off there."""
        s = master_scheme(spec)
        got = critical_courant(s, sign, tol=1e-3)
        bound_off(monkeypatch)
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
                got = tuple(x[0] for x in scan.peaks([nu], limit=limit))
                assert (got[1] > limit) == (top > limit), (nu, limit)
                if top <= limit:
                    assert hexes(got) == hexes(full), (nu, limit)

    @pytest.fixture
    def polishes(self, monkeypatch):
        calls = []
        slopes = fdmarch.stability._GrowthScan._slopes

        def counting_slopes(*args, **kwargs):
            calls.append(args)
            return slopes(*args, **kwargs)

        monkeypatch.setattr(fdmarch.stability._GrowthScan, "_slopes", counting_slopes)
        return calls

    def test_grid_above_limit_skips_the_polish(self, polishes):
        scan = fdmarch.stability._GrowthScan(first_order_scheme(2, 1))
        _, (g2,) = scan.peaks([0.6], limit=1.0 + GROWTH_TOL)
        assert g2 > 1.9  # the grid peak at theta = pi, |1 - 4 nu|^2 = 1.96
        assert polishes == []

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_polish_sees_only_rows_the_grid_left_open(self, spec, polishes):
        """In a batch whose grids decide some probes (above the limit, or
        overflowed to nan) and leave others open, the first polish step gets
        exactly the open rows, and no step gets a row whose grid maximum is
        above the limit.  Row r's moment (a_d) is its cosine coefficients, so
        the grid of each row `_slopes` sees is rebuilt from its moments."""
        scan = fdmarch.stability._GrowthScan(master_scheme(spec))
        limit = 1.0 + GROWTH_TOL
        # nu = 0 has |g|^2 = 1 at every theta, and nu = -1e200 a nan grid
        nus = BATCH_NUS + [0.0, -0.01, 0.01]
        grids = scan.peaks(nus, -math.inf)[1]
        assert polishes == []
        scan.peaks(nus, limit)
        open_rows = int(np.count_nonzero(grids <= limit))
        assert 0 < open_rows < len(nus)
        assert len(polishes[0][1]) == open_rows
        for _, thetas, moments in polishes:
            assert (scan._grid(moments[:, 0, :, 0]).max(axis=1) <= limit).all()

    def test_reported_values_stay_polished(self, polishes):
        s = first_order_scheme(2, 1)
        theta, g2 = max_growth(s, 0.6)
        assert theta == math.pi
        assert g2 == pytest.approx((1 - 2.4) ** 2, rel=1e-15)
        assert polishes


class CountingScan(fdmarch.stability._GrowthScan):
    """The shared scan, counting the probes that reach the grid."""

    gridded = 0

    def _scan(self, weights, limit):
        self.gridded += len(weights)
        return super()._scan(weights, limit)


def pi_bound(weights, limit, margin):
    """Per row of the (K, N) weights: limit + margin S^2 with S = sum_k |c_k|."""
    return limit + margin * np.abs(weights).sum(axis=1) ** 2


class TestVerdictAtPi:
    """A probe whose |g(pi)|^2 is past the limit by the rounding margin is
    decided with no grid, and the verdict is the full scan's."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_verdicts_match_the_full_scan(self, spec, sign):
        """BATCH_NUS and a dense set of nu through each pinned nu_c: every
        verdict is the fully polished scan's; the probes whose |g(pi)|^2,
        from the exact weights, is over limit + 2 _PI_MARGIN S^2 skip the
        grid, and those at or below limit + _PI_MARGIN S^2 / 2 take it."""
        s = master_scheme(spec)
        nus = list(BATCH_NUS)
        for tol in (1e-3, NU_TOL):
            nu_c = float.fromhex(NU_C_PINS[f"{pin_id(spec)}|{sign:+d}|{tol!r}"])
            dense = np.linspace(0.9 * nu_c, 1.1 * nu_c, 41) if nu_c else np.linspace(0.0, 0.01, 41)
            near = [math.nextafter(nu_c, -math.inf), nu_c, math.nextafter(nu_c, math.inf)]
            nus += [sign * nu for nu in [*dense, *near, nu_c + tol, nu_c + 10 * tol]]
        limit = 1.0 + GROWTH_TOL
        scan = CountingScan(s)
        got = [grows(v) for v in scan.peaks(nus, limit)[1]]
        assert got == [grows(v) for v in FullyPolishedScan(s).peaks(nus, limit)[1]]

        exact = np.array([[float(w) for w in s.weights_at(Fraction(nu)).values()] for nu in nus[1:]])
        at_pi = np.array([(-1.0) ** k for k in spec.offsets]) @ exact.T
        margin = fdmarch.stability._PI_MARGIN
        surely = int(np.count_nonzero(at_pi**2 > pi_bound(exact, limit, 2 * margin)))
        maybe = int(np.count_nonzero(at_pi**2 > pi_bound(exact, limit, margin / 2)))
        # nu = -1e200 overflows, fails the comparison and takes the grid
        assert len(nus) - maybe <= scan.gridded <= len(nus) - surely

    def test_margin_covers_the_grid_at_pi(self):
        """Rows of 140 weights drawn at scales 1, 1e3 and 1e6 on a gapped
        stencil whose span folds the grid, each with |g(pi)|^2 just above
        limit + _PI_MARGIN S^2: the check decides each, and each grid's value
        at pi exceeds the limit."""
        rng = np.random.default_rng(36)
        inner = rng.choice(np.arange(-2499, 2500), 138, replace=False)
        offsets = OffsetSet([-2500, *inner.tolist(), 2500])
        assert len(offsets) == 140 and offsets.span > THETA_SAMPLES
        signs = np.array([(-1.0) ** k for k in offsets])
        limit, margin = 1.0 + GROWTH_TOL, fdmarch.stability._PI_MARGIN
        rows = []
        for scale in (1.0, 1e3, 1e6):
            for _ in range(3):
                c = rng.uniform(-scale, scale, len(offsets))
                for _ in range(50):  # c[0] puts |g(pi)|^2 a thousandth of the margin past it
                    target = math.sqrt(pi_bound(c[None], limit, 1.001 * margin)[0])
                    c[0] = (target - signs[1:] @ c[1:]) * signs[0]
                rows.append(c)
        rows = np.array(rows)
        g2_pi = (rows * signs).sum(axis=1) ** 2
        assert (g2_pi > pi_bound(rows, limit, margin)).all()
        assert (g2_pi < pi_bound(rows, limit, 1.002 * margin)).all()
        for c in rows:
            theta, g2 = fdmarch.stability._GrowthScan(FixedWeights(offsets, c)).peaks([0.0], limit)
            assert theta[0] == math.pi and g2[0] > limit
        scan = fdmarch.stability._GrowthScan(FixedWeights(offsets, rows[0]))
        grid = scan._grid(fdmarch.stability._cosine_coefficients(offsets, rows))
        assert (grid[:, THETA_SAMPLES // 2] > limit).all()

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=pin_id)
    def test_overflowed_probe_reads_unstable(self, spec):
        """nu = -1e200 overflows the weights: the check's comparison fails,
        the grid reads nan, and the probe is unstable, alone or in a batch."""
        scan = CountingScan(master_scheme(spec))
        limit = 1.0 + GROWTH_TOL
        for nus in ([-1e200], [-1e200, 0.5, -0.5]):
            assert grows(scan.peaks(nus, limit)[1][0])
        assert scan.gridded >= 2


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

    @classmethod
    def logged_batches(cls, boundary, pocket=None):
        """`logged`, asked a batch of nu at a time as the search asks the scan,
        and the sizes of the batches."""
        stable, probes = cls.logged(boundary, pocket)
        sizes = []

        def stables(nus):
            sizes.append(len(nus))
            return [stable(nu) for nu in nus]

        return stables, probes, sizes

    @pytest.mark.parametrize("tol", [NU_TOL, 3e-4, 1e-3, 0.01])
    @pytest.mark.parametrize("pocket", [None, (0.05, 0.0512)])
    def test_tol_at_least_nu_tol_probes_as_before(self, tol, pocket):
        """The batched sweep gives the old float, and asks the old sequence of
        nu up to and including its first unstable one, then at most the rest
        of that batch."""
        new, new_probes, _ = self.logged_batches(0.15032, pocket)
        old, old_probes = self.logged(0.15032, pocket)
        got = _sweep_critical(new, tol, 0.2)
        assert float.hex(got) == float.hex(tol_step_sweep(old, tol, 0.2))
        verdict, _ = self.logged(0.15032, pocket)
        assert not verdict(old_probes[-1])  # the old sweep ended at its first unstable nu
        assert new_probes[: len(old_probes)] == old_probes
        assert len(new_probes) < len(old_probes) + fdmarch.stability._PROBE_CHUNK

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-20])
    @pytest.mark.parametrize("pocket", [None, (0.05, 0.0512)])
    def test_fine_tol_bisects_the_sweep_bracket(self, tol, pocket):
        stable, probes, _ = self.logged_batches(0.15032, pocket)
        got = _sweep_critical(stable, tol, 0.2)
        first_unstable = pocket[0] if pocket else 0.15032
        # bisection ends at tol or at two neighbouring floats
        assert first_unstable - max(tol, math.ulp(first_unstable)) <= got < first_unstable
        assert len(probes) < 0.2 / NU_TOL + 100

    @staticmethod
    def one_at_a_time_bisection(stable, lo, hi, tol):
        """The bisection that asked one nu per call."""
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if stable(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-16, 1e-20])
    @pytest.mark.parametrize("pocket", [None, (0.05, 0.0512)])
    def test_bisection_asks_two_levels_per_call(self, tol, pocket):
        """Each call asks at most 3 nu and takes two levels, and the bracket
        is bitwise the one-at-a-time bisection's, whose probes it asks in
        order; the finer tols end at two neighbouring floats."""
        stables, probes, sizes = self.logged_batches(0.15032, pocket)
        old, old_probes = self.logged(0.15032, pocket)
        got = _bisect(stables, 0.0, 0.2, tol)
        want = self.one_at_a_time_bisection(old, 0.0, 0.2, tol)
        assert [nu.hex() for nu in got] == [nu.hex() for nu in want]
        assert max(sizes) <= 3 and len(sizes) == math.ceil(len(old_probes) / 2)
        asked = iter(probes)
        assert all(nu in asked for nu in old_probes)
        if tol < math.ulp(got[0]):
            assert got[1] == math.nextafter(got[0], math.inf)

    def test_sweep_spec_unchanged_at_coarse_tol(self, monkeypatch):
        """The scheme-zoo sweep case, m=4 n=5 at tol 1e-3, gives the same float."""
        scheme = master_scheme(SchemeSpec(4, 5, OffsetSet(range(-10, 11))))
        got = critical_courant(scheme, -1, tol=1e-3)

        def old_sweep(stables, tol, ceiling):
            return tol_step_sweep(lambda nu: stables([nu])[0], tol, ceiling)

        monkeypatch.setattr(fdmarch.stability, "_sweep_critical", old_sweep)
        assert float.hex(got) == float.hex(critical_courant(scheme, -1, tol=1e-3))


class TestSweepBudget:
    """The pocket sweep asks at most `_SWEEP_PROBES` probes, over 100x the
    1 548 of m = 4, n = 5's default-tol search, the largest pinned one; past
    it the search refuses with the bracket it has."""

    def test_budget_has_its_margin(self):
        assert fdmarch.stability._SWEEP_PROBES >= 100 * 1548

    def test_past_the_budget_the_search_names_its_bracket(self, monkeypatch):
        """m = 4, n = 5's sweep at the default tol is still stable after
        1 000 probes: (last stable, ceiling) brackets the pinned nu_c."""
        scheme = master_scheme(PIN_SPECS[-1])
        monkeypatch.setattr(fdmarch.stability, "_SWEEP_PROBES", 1000)
        with pytest.raises(ConfigurationError, match=r"still stable after 1000 probes: .* lies in \(0\.1, 0\.15035\]"):
            critical_courant(scheme, -1)
        with pytest.raises(ConfigurationError, match="still stable after 1000 probes"):
            stability_report(scheme, -1)


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


def exact_growth_excess(scheme, nu, theta):
    """|g|^2 - 1 in exact arithmetic at the rational Courant number `nu` and
    at x = cos(theta) rounded to a float, as R_0 + 2 sum R_d T_d(x) - 1 over
    the autocorrelation R_d of the exact weights.  Rounding x keeps a
    positive value a witness: every x in [-1, 1] is the cosine of some
    real theta."""
    weights = [sum(row[i] * nu**j for j, row in enumerate(scheme.layers.rows))
               for i in range(len(scheme.offsets))]
    first = scheme.offsets[0]
    dense = [Fraction(0)] * (scheme.offsets[-1] - first + 1)
    for k, w in zip(scheme.offsets, weights):
        dense[k - first] = w
    span = len(dense) - 1
    r = [sum(dense[i] * dense[i + d] for i in range(span + 1 - d)) for d in range(span + 1)]
    t = chebyshev(span, Fraction(math.cos(theta)))
    return r[0] + 2 * sum(r[d] * t[d] for d in range(1, span + 1)) - 1


class TestCentredM3Misreads:
    """The centred m = 3 windows n = 6 (-9..9) and n = 8 (-12..12) grow below
    the float search's nu_c, at both signs: exact evaluation at the scan's
    worst theta is positive at nu_c / 4 and nu_c / 2, by 2e-12 to 3e-11,
    under `GROWTH_TOL`.  So, like item 15's L = R + 3 windows, the search
    reads growth under the tolerance as stable, and the true nu_c is likely
    0.  The float values are pinned, so a change to them shows here."""

    FLOAT_NU_C = {6: "0x1.a36e2eb1c432dp-9", 8: "0x1.fffffffffffffp-5"}

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_growth_below_the_float_nu_c(self, n, sign):
        scheme = master_scheme(SchemeSpec(3, n, OffsetSet.contiguous(3 * n // 2, 3 * n)))
        assert (scheme.offsets[0], scheme.offsets[-1]) == (-3 * n // 2, 3 * n // 2)
        nu_c = critical_courant(scheme, sign)
        assert nu_c.hex() == self.FLOAT_NU_C[n]
        for part in (4, 2):
            nu = sign * Fraction(nu_c) / part
            theta, g2 = max_growth(scheme, float(nu))
            excess = exact_growth_excess(scheme, nu, theta)
            assert 0 < excess < GROWTH_TOL, (part, float(excess))
            assert g2 - 1 <= GROWTH_TOL  # the scan reads the probe as stable


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
            c1 = dict(zip(scheme.offsets, scheme.layers.rows[1]))
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


# -- named advection ladders ---------------------------------------------------------------

class TestAdvectionFamilies:
    def test_family_names(self):
        assert FAMILIES == ("uw", "lw", "bw")
        assert FIRST_MEMBER == {"uw": 0, "lw": 1, "bw": 0}

    def test_specs(self):
        assert advection_family_spec("uw", 0) == (1, 1)
        assert advection_family_spec("uw", 1) == (3, 2)
        assert advection_family_spec("lw", 1) == (2, 1)
        assert advection_family_spec("bw", 0) == (2, 2)
        assert advection_family_spec("bw", 1) == (4, 3)

    def test_lw_ladder_starts_at_one(self):
        with pytest.raises(ValueError, match="^the centered even ladder starts at s = 1$"):
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

    @pytest.mark.parametrize("s", [19, 69], ids=["n39", "n139"])
    def test_sweep_members_are_pinned(self, s, monkeypatch):
        """uw n = 39 and n = 139 at nu < 0 are the search paths no pin file
        reaches: the pocket guard sends both to the sweep, n = 139 after a
        bisection a pocket fooled.  Their nu_c, as float hex, is frozen."""
        sweeps = []
        sweep = fdmarch.stability._sweep_critical

        def counted(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(fdmarch.stability, "_sweep_critical", counted)
        assert advection_family_stability(s, "uw").hex() == "0x1.ffffffffffcb3p-1"
        assert len(sweeps) == 1

    def test_classic_intervals(self):
        assert advection_family_stability(0, "uw") == pytest.approx(1.0, abs=1e-3)
        assert advection_family_stability(1, "lw") == pytest.approx(1.0, abs=1e-3)
        assert advection_family_stability(0, "bw") == pytest.approx(2.0, abs=1e-3)


# -- the m = 1 class in closed form ---------------------------------------------------

def window(n, r):
    """The order-n m = 1 scheme on the contiguous window -r..n-r."""
    return master_scheme(SchemeSpec(1, n, OffsetSet.contiguous(r, n)))


def upwind_excess(n, r, sign):
    """L - R: upwind points less downwind ones on -r..n-r at Courant numbers
    of `sign` (upwind is the negative side when sign < 0)."""
    return (r - (n - r)) * (1 if sign < 0 else -1)


# The L = R + 3 windows on which the float nu_c search reads a stable range
# that the closed form says is not there, as (n, r, sign)
MISREAD_WINDOWS = frozenset(
    (n, r, sign)
    for n in (19, 21, 23, 25, 27, 29, 39)
    for r in range(n + 1)
    for sign in (+1, -1)
    if upwind_excess(n, r, sign) == 3
)


class TestAdvectionCritical:
    """`advection_critical`: the exact nu_c of every contiguous m = 1 window,
    the wedge R <= L <= R + 2 counted along unit shifts."""

    @pytest.mark.parametrize("s", range(6))
    def test_ladders(self, s):
        """uw and lw give 1 and bw gives 2 at nu < 0, the ladders' sign; at
        nu > 0 the same windows have the wedge the wrong way round."""
        for kind, nu_c in (("uw", 1), ("lw", 1), ("bw", 2)):
            if s < FIRST_MEMBER[kind]:
                continue
            offsets = advection_family_scheme(kind, s).offsets
            assert advection_critical(offsets, -1) == nu_c
            assert advection_critical([-k for k in offsets], +1) == nu_c
            assert advection_critical(offsets, +1) == (1 if kind == "lw" else 0)

    def test_matches_the_float_search_on_small_windows(self):
        """Every contiguous window with N <= 12 points, both signs: the float
        search lands within 2 NU_TOL of the rule (L = R + 3 at n = 3 .. 11 is
        among them, where the search reads 0)."""
        for n in range(1, 12):
            for r in range(n + 1):
                scheme = window(n, r)
                for sign in (+1, -1):
                    nu_c = advection_critical(scheme.offsets, sign)
                    assert abs(critical_courant(scheme, sign) - nu_c) <= 2 * NU_TOL, (n, r, sign)

    def test_float_search_misreads_exactly_the_L_R_plus_3_windows(self):
        """Over the odd orders 17 .. 29 and 39, the windows with |L - R| <= 3
        (n = 39's uw windows left out: each is a 0.7 s sweep), the float
        search and the rule part by over 2 NU_TOL on exactly the 14 L = R + 3
        windows of n >= 19, where the search reads a small stable range."""
        misread = set()
        for n in (17, 19, 21, 23, 25, 27, 29, 39):
            for r in range(n + 1):
                excess = upwind_excess(n, r, +1)
                if abs(excess) > 3 or (n == 39 and abs(excess) == 1):
                    continue
                scheme = window(n, r)
                for sign in (+1, -1):
                    nu_c = critical_courant(scheme, sign)
                    if abs(nu_c - advection_critical(scheme.offsets, sign)) > 2 * NU_TOL:
                        assert advection_critical(scheme.offsets, sign) == 0 < nu_c < 0.35
                        misread.add((n, r, sign))
        assert misread == MISREAD_WINDOWS
        assert len(misread) == 14

    @pytest.mark.parametrize("n, read", [(19, "0.0008"), (21, "0.00365"), (23, "0.0144"),
                                         (25, "0.04175"), (27, "0.0845"), (29, "0.1335"), (39, "0.3403")])
    def test_misread_windows_grow_exactly(self, n, read):
        """Halfway into the range the float search reads stable on an
        L = R + 3 window, the scan's peak passes `grows`, yet |g|^2 - 1 in
        exact arithmetic at that peak's cos(theta) is over 0: the window
        grows there, as the rule says."""
        for r, sign in (((n - 3) // 2, +1), ((n + 3) // 2, -1)):
            assert (n, r, sign) in MISREAD_WINDOWS
            scheme = window(n, r)
            nu = sign * Fraction(read) / 2
            theta, g2 = max_growth(scheme, float(nu))
            assert not grows(g2)
            c = list(scheme.weights_at(nu).values())
            a = [(2 - (d == 0)) * sum(c[i] * c[i + d] for i in range(n + 1 - d)) for d in range(n + 1)]
            excess = sum(ad * t for ad, t in zip(a, chebyshev(n, Fraction(math.cos(theta))))) - 1
            assert excess > 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unit_shift(self, n):
        """The weights at nu + 1 on a window are, in order, those at nu on the
        window one point to the left, exactly; at nu = 1 the scheme is the
        exact shift onto offset 1."""
        nus = [Fraction(-5, 7), Fraction(-1, 3), Fraction(0), Fraction(2, 9), Fraction(1, 2)]
        for r in range(n + 1):
            scheme = window(n, r)
            left = master_scheme(SchemeSpec(1, n, OffsetSet(k - 1 for k in scheme.offsets)))
            for nu in nus:
                assert list(scheme.weights_at(nu + 1).values()) == list(left.weights_at(nu).values())
            if n - r >= 1:
                assert scheme.weights_at(1) == {k: int(k == 1) for k in scheme.offsets}

    @pytest.mark.parametrize(
        "offsets", [(-3, -1, 0, 2), (1, 2), (-2, -1)], ids=["gapped", "right", "left"]
    )
    def test_refuses_other_stencils(self, offsets):
        with pytest.raises(ConfigurationError, match="contiguous window holding 0"):
            advection_critical(offsets, +1)

    def test_exact_critical_covers_full_m1_and_first_order_windows(self):
        """m = 1 windows and n = 1 windows holding 0, with all n + 1 layers;
        the first-order value is `classify_first_order`'s, exact as a float.
        `exact_rule` names the rule wherever a value is given, and only there."""
        uw = window(3, 2)
        assert exact_rule(uw) == exact_rule(uw.truncated(3)) == "m = 1 wedge"
        assert exact_rule(uw.truncated(2)) is None
        assert exact_rule(master_scheme(SchemeSpec(2, 1, OffsetSet((-1, 0, 1))))) == "first-order window"
        assert exact_rule(master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))) is None
        assert exact_critical(uw, -1) == 1 and exact_critical(uw, +1) == 0
        assert exact_critical(uw.truncated(3), -1) == 1  # all n + 1 layers kept
        assert exact_critical(uw.truncated(2), -1) is None
        gapped = master_scheme(SchemeSpec(1, 3, OffsetSet((-3, -1, 0, 2))))
        assert exact_critical(gapped, -1) is None
        assert exact_critical(master_scheme(SchemeSpec(1, 1, OffsetSet((1, 2)))), -1) is None
        centred = master_scheme(SchemeSpec(2, 1, OffsetSet((-1, 0, 1))))
        assert exact_critical(centred, +1) == 0.5 and exact_critical(centred, -1) == 0.0
        assert exact_critical(centred.truncated(0), +1) is None
        assert exact_critical(master_scheme(SchemeSpec(2, 1, OffsetSet((1, 2, 3)))), +1) is None
        assert exact_critical(master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4))), +1) is None
        for m in range(1, 13):
            cls = classify_first_order(m)
            for r in range(m + 1):
                scheme = master_scheme(SchemeSpec(m, 1, OffsetSet.contiguous(r, m)))
                for sign in (+1, -1):
                    nu_c = exact_critical(scheme, sign)
                    assert type(nu_c) is (int if m == 1 else float)
                    assert Fraction(nu_c) == cls.nu_critical[(sign, r)], (m, r, sign)


def _stable_probes():
    """(scheme, nu) for five nu in [0, nu_c] per sign, ends included, on every
    contiguous m = 1 window with n <= 29 or n = 39, and every first-order
    window with 2 <= m <= 12, whose nu_c is over 0."""
    for n in [*range(1, 30), 39]:
        for r in range(n + 1):
            signs = [s for s in (+1, -1) if 0 <= upwind_excess(n, r, s) <= 2]
            if signs:
                scheme = window(n, r)
                for sign in signs:
                    nu_c = advection_critical(scheme.offsets, sign)
                    assert nu_c > 0
                    yield from ((scheme, sign * nu_c * k / 4) for k in range(5))
    for m in range(2, 13):
        for sign in (+1, -1):
            r = first_order_stable_r(m, sign)
            if r is not None:
                scheme = master_scheme(SchemeSpec(m, 1, OffsetSet.contiguous(r, m)))
                nu_c = exact_critical(scheme, sign)
                assert nu_c == 2.0 ** (1 - m)
                yield from ((scheme, sign * nu_c * k / 4) for k in range(5))


def _widest_stable_probes():
    """(scheme, nu) for nu_c k/4, k = 1..4, and 1.98 where nu_c = 2, on the
    m = 1 wedge windows with n = 138 and 139 at nu > 0 (those at nu < 0 are
    their mirror images), and on the stable first-order windows with
    m = 139: the widest the guard's derivation covers (140 points)."""
    for n in (138, 139):
        for r in range(n + 1):
            if 0 <= upwind_excess(n, r, +1) <= 2:
                scheme = window(n, r)
                nu_c = advection_critical(scheme.offsets, +1)
                probes = [nu_c * k / 4 for k in range(1, 5)]
                if nu_c == 2:
                    probes.append(1.98)
                yield from ((scheme, nu) for nu in probes)
    for sign in (+1, -1):
        scheme = master_scheme(SchemeSpec(139, 1, OffsetSet.contiguous(first_order_stable_r(139, sign), 139)))
        yield from ((scheme, sign * exact_critical(scheme, sign) * k / 4) for k in range(1, 5))


class TestGrowthNoteClosedForm:
    """`growth_note` answers "stable" with no scan where the closed form proves
    it, and scans everywhere else."""

    @pytest.fixture
    def scans(self, monkeypatch):
        scanned = []
        real = fdmarch.stability.max_growth

        def counting(scheme, nu):
            scanned.append(nu)
            return real(scheme, nu)

        monkeypatch.setattr(fdmarch.stability, "max_growth", counting)
        return scanned

    def test_scan_reads_stable_wherever_the_shortcut_answers(self):
        """The guard: on every probe inside [0, nu_c] the fully polished scan
        reads stable, so `growth_note` gives today's None there, and the
        shortcut never silences a warning the scan gives.  Each probe's float
        weights also pass the search's `_PROVEN_S2` guard."""
        probes = list(_stable_probes())
        assert len(probes) == 5 * (88 + 16)
        for scheme, nu in probes:
            assert not grows(max_growth(scheme, nu)[1]), (scheme.m, scheme.n, tuple(scheme.offsets), nu)
            assert growth_note(scheme, nu) is None
            assert np.abs(scheme.float_weights(nu)).sum() ** 2 <= fdmarch.stability._PROVEN_S2

    def test_no_scan_inside_the_exact_range(self, scans):
        uw, bw = window(29, 15), window(2, 2)
        for scheme, nu in ((uw, -0.8), (uw, -1.0), (uw, 0.0), (bw, -2.0), (bw, -1.5)):
            assert growth_note(scheme, nu) is None
        assert growth_note(window(29, 13), -0.0) is None  # nu_c = 0, nu = 0
        assert scans == []

    @pytest.mark.parametrize(
        "scheme, nu",
        [
            pytest.param(window(3, 2).truncated(2), -0.5, id="truncated"),
            pytest.param(master_scheme(SchemeSpec(1, 3, OffsetSet((-3, -1, 0, 2)))), -0.5, id="gapped"),
            pytest.param(master_scheme(SchemeSpec(1, 1, OffsetSet((-2, -1)))), -0.5, id="no-zero"),
            pytest.param(master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4))), 0.3, id="m2"),
            pytest.param(window(3, 2), math.nextafter(-1.0, -2.0), id="past-nu_c"),
            pytest.param(window(3, 2), 0.5, id="wrong-sign"),
            pytest.param(window(29, 13), 0.1, id="misread"),
            pytest.param(window(3, 2), math.nan, id="nan"),
        ],
    )
    def test_scans_everywhere_else(self, scans, scheme, nu):
        """The verdict and its text are the scan's, bit for bit."""
        theta, g2 = max_growth(scheme, nu)
        want = f"max |g|^2 = {g2:.6g} at theta={theta:.4f}" if grows(g2) else None
        del scans[:]
        assert growth_note(scheme, nu) == want
        assert len(scans) == 1


def search_values(scheme, tols, report=True):
    """Float hex of `critical_courant` at each tol and of `stability_report`'s
    two values, both signs."""
    values = []
    for sign in (+1, -1):
        values += [critical_courant(scheme, sign, tol).hex() for tol in tols]
        if report:
            rep = stability_report(scheme, sign)
            values += [rep.nu_critical.hex(), rep.worst_theta.hex()]
    return values


@pytest.fixture
def peaks_log(monkeypatch):
    """Every batch of nu that reaches `_GrowthScan.peaks`, as a list per call."""
    calls = []
    peaks = fdmarch.stability._GrowthScan.peaks

    def logged(self, nus, *args, **kwargs):
        calls.append(list(np.asarray(nus, dtype=float)))
        return peaks(self, nus, *args, **kwargs)

    monkeypatch.setattr(fdmarch.stability._GrowthScan, "peaks", logged)
    return calls


class TestSearchSkipsProvenProbes:
    """A nu_c search reads a probe at |nu| <= `exact_critical`'s nu_c whose
    weights pass the `_PROVEN_S2` guard as stable with no scan, and every
    value it gives is bitwise the all-scanned search's."""

    @staticmethod
    def all_scanned(monkeypatch):
        monkeypatch.setattr(fdmarch.stability, "exact_critical", lambda scheme, sign: None)
        bound_off(monkeypatch)

    @staticmethod
    def schemes():
        """Every contiguous m = 1 window with n <= 15, the first-order windows
        with m <= 8, and PIN_SPECS."""
        for n in range(1, 16):
            yield from (window(n, r) for r in range(n + 1))
        for m in range(2, 9):
            yield from (master_scheme(SchemeSpec(m, 1, OffsetSet.contiguous(r, m))) for r in range(m + 1))
        yield from map(master_scheme, PIN_SPECS)

    LADDERS = [(kind, s) for kind in FAMILIES for s in range(FIRST_MEMBER[kind], 3)]

    def test_bit_identity(self, monkeypatch):
        tols = (1e-3, 1e-4, 1e-7)
        got = [search_values(s, tols) for s in self.schemes()]
        ladders = [search_values(advection_family_scheme(*k), (1e-20,), False) for k in self.LADDERS]
        self.all_scanned(monkeypatch)
        assert got == [search_values(s, tols) for s in self.schemes()]
        assert ladders == [search_values(advection_family_scheme(*k), (1e-20,), False) for k in self.LADDERS]

    def test_float_weights_are_near_the_exact_ones(self):
        """The `_PROVEN_S2` derivation takes the float Horner's weights to be
        within e = sum_k |dc_k| <= 1.2e-14 of the exact ones in [0, nu_c]:
        on every probe of `_stable_probes`, and on the widest windows the
        bound covers, measured against exact weights.  The bound was set by
        n = 138's L = R + 2 windows at |nu| = 1.98 (e = 1.174e-14)."""
        for scheme, nu in [*_stable_probes(), *_widest_stable_probes()]:
            exact = scheme.weights_at(Fraction(nu)).values()
            e = sum(abs(Fraction(w) - x) for w, x in zip(scheme.float_weights(nu).tolist(), exact))
            assert e <= Fraction(1.2e-14), (scheme.m, tuple(scheme.offsets), nu)

    def test_uw_n39_scans_nothing_the_rule_proves(self, peaks_log):
        """`fdmarch stability --m 1 --n 39`'s searches: 325 scan calls and
        10 079 probes when every probe is scanned, now at most 15 and 60, and
        none of the scanned probes is at |nu| <= nu_c."""
        scheme = advection_family_scheme("uw", 19)
        for sign in (+1, -1):
            calls = len(peaks_log)
            stability_report(scheme, sign)
            nu_c = exact_critical(scheme, sign)
            assert not [nu for call in peaks_log[calls:] for nu in call if abs(nu) <= nu_c]
        assert len(peaks_log) <= 15 and sum(map(len, peaks_log)) <= 60

    def test_mutated_rule_moves_nu_c(self, monkeypatch):
        """Teeth: a rule one too high moves uw n = 3's nu_c, so a wrong rule
        fails `test_bit_identity`."""
        scheme = advection_family_scheme("uw", 1)
        want = critical_courant(scheme, -1)
        exact = fdmarch.stability.exact_critical
        monkeypatch.setattr(fdmarch.stability, "exact_critical", lambda s, sign: exact(s, sign) + 1)
        assert critical_courant(scheme, -1).hex() != want.hex()

    def test_guard_at_zero_scans_every_probe(self, monkeypatch, peaks_log):
        """With the guard at 0 no probe passes it: uw n = 39's searches scan
        as they did before the rule was read, 325 calls of 10 079 probes, and
        give the same values."""
        scheme = advection_family_scheme("uw", 19)
        monkeypatch.setattr(fdmarch.stability, "_PROVEN_S2", 0.0)
        guarded = search_values(scheme, ())
        guarded_log = list(peaks_log)
        del peaks_log[:]
        self.all_scanned(monkeypatch)
        assert guarded == search_values(scheme, ())
        assert guarded_log == peaks_log
        assert len(peaks_log) == 325 and sum(map(len, peaks_log)) == 10_079


# -- the Bernstein bound on |g|^2 ----------------------------------------------------

def zoo_gapped_specs(monkeypatch):
    """The gapped generation specs of perfbench's scheme-zoo, seeds 1-5."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    generation_specs = importlib.import_module("workloads").generation_specs
    return [
        SchemeSpec(m, n, OffsetSet(offsets))
        for seed in range(1, 6)
        for m, n, offsets in generation_specs(seed)
        if not OffsetSet(offsets).is_contiguous()
    ]


def bound_schemes(monkeypatch):
    """Every contiguous window with span <= _BERNSTEIN_SPAN for m <= 4,
    scheme-zoo's gapped stencils and truncated diffusion windows, and
    PIN_SPECS."""
    span = fdmarch.stability._BERNSTEIN_SPAN
    windows = [
        SchemeSpec(m, n, OffsetSet.contiguous(r, n * m))
        for m in range(1, 5)
        for n in range(1, span // m + 1)
        for r in range(n * m + 1)
    ]
    schemes = [master_scheme(spec) for spec in windows + zoo_gapped_specs(monkeypatch) + PIN_SPECS]
    return schemes + [master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n))).truncated(1) for n in range(1, 5)]


# m = 3, n = 6 on -9..9: its float nu_c, 0.0032, is where a growth of about
# 1e-10 crosses GROWTH_TOL, so probes past it grow by little
M3N6 = SchemeSpec(3, 6, OffsetSet.contiguous(9, 18))
# m = 3, n = 3 on -4..5: its nu_c at nu < 0, 0.140364, is an interior tangency
M3N3 = SchemeSpec(3, 3, OffsetSet.contiguous(4, 9))


@pytest.fixture(scope="module")
def bound_searches():
    """The corpus's searches (`search_values` at tols 1e-3, 1e-4 and 1e-7,
    and the ladders at 1e-20) with the bound on and with it off, and every
    (scheme, sign, nu) the searches with the bound on asked about."""
    asked = []
    ladders = [advection_family_scheme(kind, s) for kind in FAMILIES for s in range(FIRST_MEMBER[kind], 3)]

    def values(schemes):
        tols = (1e-3, 1e-4, 1e-7)
        return [search_values(s, tols) for s in schemes] + [search_values(s, (1e-20,), False) for s in ladders]

    with pytest.MonkeyPatch.context() as mp:
        schemes = bound_schemes(mp)
        verdicts = fdmarch.stability._verdicts

        def logging_verdicts(scan, sign):
            stables = verdicts(scan, sign)

            def logged(nus):
                asked.extend((scan.scheme, sign, nu) for nu in nus)
                return stables(nus)

            return logged

        mp.setattr(fdmarch.stability, "_verdicts", logging_verdicts)
        on = values(schemes)
        mp.setattr(fdmarch.stability, "_verdicts", verdicts)
        bound_off(mp)
        off = values(schemes)
    return on, off, asked


def proven_probes(groups):
    """The nu of each (scheme, sign, nus) group that the search's verdict
    function reads stable with no scan by the Bernstein bound alone: the
    closed form is switched off, and each group is asked at once."""
    proven = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fdmarch.stability, "exact_critical", lambda scheme, sign: None)
        scanned = []
        peaks = fdmarch.stability._GrowthScan.peaks

        def logged(self, nus, *args, **kwargs):
            scanned.extend(nus)
            return peaks(self, nus, *args, **kwargs)

        mp.setattr(fdmarch.stability._GrowthScan, "peaks", logged)
        for scheme, sign, nus in groups:
            del scanned[:]
            stable = fdmarch.stability._verdicts(fdmarch.stability._GrowthScan(scheme), sign)(nus)
            left = set(scanned)
            proven.append((scheme, [sign * nu for nu, ok in zip(nus, stable) if ok and sign * nu not in left]))
    return proven


class TestBernsteinBound:
    """A nu_c search reads a probe as stable with no scan where the Bernstein
    bound on |g|^2, with its rounding terms, proves the scan reads stable
    too: every value it gives is bitwise the search's with the bound off."""

    def test_matrix_is_the_exact_one_rounded_once(self):
        """Every entry of M, for every span up to the limit, is the exact
        sum_i (-1)^i C(2d, 2i) C(W - d, k - i) / C(W, k) rounded once, and
        mu_d is row d's largest |M[d, k]|.  On spans up to 8 the exact M
        maps each T_d(1 - 2s) to its Bernstein coefficients, at three s."""
        for span in range(1, fdmarch.stability._BERNSTEIN_SPAN + 1):
            matrix, mu = fdmarch.stability._bernstein_matrix(span)
            assert matrix.shape == (span + 1, span + 1)
            exact = [
                [
                    Fraction(
                        sum((-1) ** i * math.comb(2 * d, 2 * i) * math.comb(span - d, k - i) for i in range(min(d, k) + 1)),
                        math.comb(span, k),
                    )
                    for k in range(span + 1)
                ]
                for d in range(span + 1)
            ]
            assert matrix.tolist() == [[float(x) for x in row] for row in exact], span
            assert mu.tolist() == [max(abs(float(x)) for x in row) for row in exact], span
            if span > 8:
                continue
            for s in (Fraction(0), Fraction(1, 3), Fraction(1)):
                basis = [math.comb(span, k) * s**k * (1 - s) ** (span - k) for k in range(span + 1)]
                cheb = chebyshev(span, 1 - 2 * s)
                for d in range(span + 1):
                    assert sum(x * b for x, b in zip(exact[d], basis)) == cheb[d], (span, d, s)

    def test_bit_identity(self, bound_searches):
        """Every value of the corpus's searches and reports is bitwise the
        search's with the bound off."""
        on, off, _ = bound_searches
        assert on == off

    def test_no_proven_probe_grows(self, bound_searches):
        """Every probe the searches asked about that the bound proves, and
        dense probes on item 15's L = R + 3 windows (n = 19, 21, 23), through
        m = 3, n = 3's tangency and past m = 4, n = 5's pocket edge: the
        fully polished scan reads each stable."""
        _, _, asked = bound_searches
        groups = {}
        for scheme, sign, nu in asked:
            groups.setdefault((id(scheme), sign), (scheme, sign, set()))[2].add(nu)
        for n, read in ((19, 0.0008), (21, 0.00365), (23, 0.0144)):
            for r in range(n + 1):
                for sign in (+1, -1):
                    if upwind_excess(n, r, sign) == 3:
                        groups[n, r, sign] = (window(n, r), sign, set(np.linspace(0.0, 2.0 * read, 41).tolist()))
        groups["m3n3"] = (master_scheme(M3N3), -1, set(np.linspace(0.13, 0.15, 81).tolist()))
        groups["m4n5"] = (master_scheme(PIN_SPECS[-1]), -1, set(np.linspace(0.14, 0.26, 121).tolist()))
        proven = proven_probes([(scheme, sign, sorted(nus)) for scheme, sign, nus in groups.values()])
        assert sum(len(nus) for _, _, nus in groups.values()) > 20_000
        assert sum(len(nus) for _, nus in proven) > 5_000
        for scheme, nus in proven:
            if nus:
                _, g2 = fdmarch.stability._GrowthScan(scheme).peaks(nus)
                assert not [nu for nu, v in zip(nus, g2.tolist()) if grows(v)], tuple(scheme.offsets)

    def test_rounding_term_has_teeth(self, monkeypatch):
        """At GROWTH_TOL = 0 the scan reads 1 + 2^-52 on some stable probes of
        centred diffusion n = 2..4, where the Bernstein maximum reads exactly
        1: without its rounding term the bound would read them stable against
        the scan; with it, every verdict is the scan's."""
        monkeypatch.setattr(fdmarch.stability, "GROWTH_TOL", 0.0)
        misread = 0
        for n in range(2, 5):
            scheme = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
            nus = np.linspace(0.01, 0.5, 50)
            scanned = [not grows(v) for v in fdmarch.stability._GrowthScan(scheme).peaks(nus)[1]]
            assert fdmarch.stability._verdicts(fdmarch.stability._GrowthScan(scheme), +1)(nus) == scanned
            with monkeypatch.context() as mp:
                mp.setattr(fdmarch.stability, "_UNIT", 0.0)
                bare = fdmarch.stability._verdicts(fdmarch.stability._GrowthScan(scheme), +1)(nus)
            misread += sum(b and not s for b, s in zip(bare, scanned))
        assert misread > 0

    def test_loose_limit_has_teeth(self, monkeypatch):
        """A bound compared with 1 + 1e-3 reads stable probes past the nu_c of
        m = 3, n = 6 on -9..9 that the scan reads unstable, and moves it."""
        scheme = master_scheme(M3N6)
        want = critical_courant(scheme, +1)
        bound = fdmarch.stability._bernstein_bound
        monkeypatch.setattr(fdmarch.stability, "_bernstein_bound", lambda *args: bound(*args) - (1e-3 - GROWTH_TOL))
        assert critical_courant(scheme, +1).hex() != want.hex()

    def test_matrix_is_built_once_per_search(self, monkeypatch):
        """M is built at the first probe a search bounds, once, and never on a
        span past the limit (uw n = 39's, 39)."""
        built = []
        matrix = fdmarch.stability._bernstein_matrix
        monkeypatch.setattr(fdmarch.stability, "_bernstein_matrix", lambda span: built.append(span) or matrix(span))
        critical_courant(master_scheme(PIN_SPECS[-1]), -1)
        assert built == [20]
        stability_report(advection_family_scheme("uw", 19), -1)
        assert built == [20]
