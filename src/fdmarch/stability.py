"""Single-mode (von Neumann) stability analysis of generated schemes.

A periodic mode e^{i p x} passes through one explicit step with gain
g(theta; nu) = sum_k c_k(nu) e^{i k theta}, theta = p dx.  A scheme is stable
at Courant number nu when max_theta |g|^2 <= 1 (up to a small roundoff
allowance).  This module owns that verdict: `grows` is the one rule applied
to a peak, in the nu_c search and in `growth_note`, the one verdict at a
run's nu.  The solver's run warning and convergence refusal, and the
command line's default-step refusal, each wrap its text in their own
message.  The maximum is located on a dense theta grid and polished by
Newton steps, and the stability boundary in nu is then bracketed by
doubling and resolved by bisection.

The scan works on the cosine form |g|^2 = sum_d a_d cos(d theta), d = 0..span,
where a_0 = r_0, a_d = 2 r_d and r_d = sum_k c_k c_{k+d} is the weights'
autocorrelation, so 1 - |g|^2 is 1 - r_0 - 2 sum_d r_d T_d(cos theta).
|g|^2 is even in theta, so the grid covers [0, pi], and one real FFT of the
a_d gives it.  The grid depends only on the stencil, so one search
(`max_growth`, `critical_courant`, `stability_report`) builds it once.  The
scan probes a batch of Courant numbers per call: one autocorrelation per nu,
one FFT of the whole batch, and a few cosine sums: the grid's largest peaks
of every nu are polished together by safeguarded Newton steps on the slope,
whose value and derivatives come from one set of cos/sin sums.  A nu_c search
hands the scan whole phases: the doubling ladder and the pocket sweep in
chunks (a default-tol ladder is one call), the pocket guard's probes at once,
and bisection two levels a call, the midpoint with both midpoints of the next
level.  The weights at each probed nu are `Scheme.float_weights`, read from
the layer table's float rows, a Horner in which the batch's nu is one column
that each row broadcasts against; the scan builds no exact weight polynomial.
Nothing outlives the search.

The polish only ever raises the maximum, so a stability verdict stops as soon
as it is decided, each probe of a batch on its own: before the grid when
|g(pi)|^2 already decides it (`_PI_MARGIN` says why that check cannot change
a verdict), at the grid when the grid maximum already exceeds the limit, or
after the first polish step that does.  A probe stops by one live mask over
its peaks: the probes the grid left open keep their places to the end of the
polish, and each one's best peak is read once, after it.
The verdicts are those of a fully polished scan; every value this module
reports (`max_growth`, `amplification`, a report's worst theta) is still
fully polished: those scans have no finite limit, so they skip the check.

The autocorrelation costs span^2 per probe, so a stencil wider than
`MAX_SCAN_SPAN` is refused before any array of it is sized.

Two classes need no scan.  An m = 1 scheme is Lagrange interpolation at nu,
on a contiguous window of L upwind and R downwind points stable for
0 < |nu| < 1 exactly when R <= L <= R + 2 (Iserles & Strang 1983; Jeltsch &
Smit 1987), and nu +- 1 is the window shifted by one point;
`advection_critical` is the exact nu_c this gives.  An n = 1 scheme on a
contiguous window of m + 1 points is stable up to 1/2^(m-1) on the window
`first_order_stable_r` names and at no nu != 0 on the others
(`classify_first_order`).  `exact_rule` names the rule that applies and
`exact_critical` reads its value.
`growth_note` answers "stable" at |nu| <= nu_c with no scan, and so does a
nu_c search, for each probe whose float weights also pass the `_PROVEN_S2`
guard, under which the scan provably reads stable too.

Every other class has a cheap bound.  On a span up to `_BERNSTEIN_SPAN`, a
nu_c search gives each probe that neither the closed form nor theta = pi
decides the Bernstein bound |g|^2 <= max_k beta_k, beta = a M, with M the
map from the cosine coefficients to the Bernstein coefficients in
s = (1 - cos theta) / 2, built once per search.  With its rounding terms
(`_BERNSTEIN_ROUNDING`) at or below 1 + GROWTH_TOL, the fully polished scan
reads the probe stable too, so it is stable with no FFT.  The bound proves
the scan's verdict, stable to GROWTH_TOL, not exact stability.  A search's
other probes are the scan's, and its nu_c is bitwise the all-scanned
search's.  Every other verdict is the scan's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .exact import ConfigurationError, OffsetSet
from .schemes import Scheme, SchemeSpec, check_orders, default_offsets, master_scheme

# |g|^2 <= 1 + GROWTH_TOL counts as stable: absorbs float roundoff in the
# gain evaluation without masking genuine growth.
GROWTH_TOL = 1e-10
# a report whose measured critical Courant number is below this is unstable
STABLE_NU_THRESHOLD = 1e-3
# resolution of the theta grid scan
THETA_SAMPLES = 4096
# the grid scan's largest local maxima, polished together by Newton steps
POLISHED_PEAKS = 3
# a peak's polish stops once a Newton step predicts a gain P'^2 / (2 |P''|)
# at most eps * max(1, |P|), or after this many steps
_POLISH_STEPS = 64
# bisection stops once the bracket is narrower than this
NU_TOL = 1e-4
# doubling search gives up beyond this Courant number
NU_MAX = 64.0
# the widest stencil span (last offset minus first) a scan accepts: the
# weights' autocorrelation costs span^2 per probe, whatever the number of
# points.  The widest span the tests scan, 4101, has a 100x margin in that
# work.  At the limit, `fdmarch stability` took 7.6-8.7 s on a two-point
# stencil and 14-18 s on three points (2 shared CPUs); a stencil 10^16 wide
# would have asked for petabytes
MAX_SCAN_SPAN = 41_100
# the doubling ladder and the pocket sweep hand the scan this many probes at
# a time, so a default-tol ladder is one call; a chunk may probe past the
# first unstable point
_PROBE_CHUNK = 32
# the pocket sweep asks at most this many probes, over 100x the 1 548 of the
# largest pinned search (m = 4, n = 5 at the default tol), and past it the
# search refuses; unbounded, a sweep to NU_MAX at NU_TOL would ask 640 000
_SWEEP_PROBES = 160_000

# twice the float epsilon: the polish's stop rule compares twice a gain with it
_EPS2 = 2.0 * float(np.finfo(float).eps)
# the largest finite float: a grid maximum above it has overflowed
_FLOAT_MAX = float(np.finfo(float).max)
# the theta grid on [0, pi], the same for every scheme; read-only, as shared
_THETAS = np.linspace(0.0, math.pi, THETA_SAMPLES // 2 + 1)
_THETAS.flags.writeable = False
# d^0, d^1, d^2: the polish's moments are a_d times these
_MOMENT_POWERS = np.array([[0.0], [1.0], [2.0]])
# A probe is unstable at theta = pi, with no grid, when its alternating sum
# squared, |g(pi)|^2 = (sum_k (-1)^k c_k)^2, exceeds limit + _PI_MARGIN S^2,
# S = sum_k |c_k|.  The grid's value at pi is the same number by another
# route, and with u = 2^-53 and the N weights of a row the two differ by at
# most about (2N + N + F + 100) u S^2: 2N u S^2 for the alternating sum and
# its square, N u S^2 for the autocorrelation (its |a_d| sum to at most
# S^2), F u S^2 for a fold of F terms (at most 10 more at MAX_SCAN_SPAN),
# and about 100 u S^2 for the 12 levels of the 4096-point FFT (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, on summation and
# the FFT).  At N = MAX_SCHEME_POINTS (140) that is 530 u S^2 < 6e-14 S^2,
# and this margin is over 10^4 times it, so the grid at pi, and the
# polished maximum above it, exceed the limit too
_PI_MARGIN = 1e-9
# A nu_c search reads a probe at |nu| <= `exact_critical`'s nu_c as stable
# with no scan when its float weights have S^2 <= _PROVEN_S2, S = sum_k |c_k|.
# There the exact weights have |g| <= 1 at every theta, and with u = 2^-53 a
# scan's value exceeds that by under 1000 u S^2 at N <= 140 points: 2e + e^2
# for float weights e = sum_k |dc_k| off the exact ones (the float Horner's
# e was at most 1.2e-14 at 401 nu in [0, nu_c] on every such window, the
# worst at n = 138 and |nu| = 1.98, a measured bound that the tests check on
# n <= 39 and the widest windows; so this is under 220 u S^2, as S >= 1);
# N u S^2 for the autocorrelation; then the worse of the grid's 100 u S^2
# for the FFT (see `_PI_MARGIN`) and the polish's (pi span + 1) u S^2 for
# cos(d theta) at a rounded phase d theta plus N u S^2 for its cosine sum,
# 578 u S^2 at span 139.  At S^2 <= 8 that is under 9e-13, over 100 times
# below GROWTH_TOL, so the fully polished scan reads stable too.  The
# largest S^2 in [0, nu_c] was 5.84 on the m = 1 windows and 7.46 on the
# first-order ones (at m = 139); a probe over the guard is scanned
_PROVEN_S2 = 8.0
# A nu_c search reads a probe as stable with no scan when a Bernstein bound
# on |g|^2 proves it.  With s = (1 - cos theta) / 2 in [0, 1],
# cos(d theta) = T_d(1 - 2s) = sum_i (-1)^i C(2d, 2i) s^i (1 - s)^(d - i), so
# in the degree-W Bernstein basis, W the span, |g|^2 has the coefficients
# beta = a M with M[d, k] = sum_i (-1)^i C(2d, 2i) C(W - d, k - i) / C(W, k).
# The basis is nonnegative and sums to 1, so |g|^2 <= max_k beta_k at every
# theta (Farouki & Rajan, "Algorithms for polynomials in Bernstein form",
# CAGD 5, 1988).  The sum in M[d, k], its terms and its partial sums are
# integers of at most sum_i C(2d, 2i) C(W - d, k - i) in size, which is
# C(W, k) <= 2^W at d = 0 and at most 2^(2d - 1) 2^(W - d) above, so under
# 2^(2W - 1) and exact as floats up to W = 27, as are the binomials; each
# entry of M is then one correctly rounded quotient
_BERNSTEIN_SPAN = 27
# The bound proves a probe when max_k beta_k + u (2 (W + 2) t + this S^2 + 4)
# is at or below 1 + GROWTH_TOL, with u = 2^-53, S = sum_k |c_k| and
# t = sum_d |a_d| max_k |M[d, k]| (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, for the gamma_n = n u / (1 - n u) bounds).
# 2 (W + 2) u t covers the matmul's gamma_(W+1), M's own rounding and t's.
# The scan reads its own a_d from the same float weights; each set lies
# within gamma_N S^2 of the exact autocorrelation in sum, so the two cosine
# sums differ by at most 2 gamma_N S^2 < 57 u S^2 at N <= W + 1 = 28 points.
# The scan's values exceed the exact cosine sum of its a_d by at most the
# worse of the FFT's 100 u S^2 (see `_PI_MARGIN`) and the polish's
# (pi W + 1) u S^2 for cos(d theta) at a rounded phase plus (W + 1) u S^2 for
# its sum, 114 u S^2 at W = 27.  So the scan's terms are under 200 u S^2, and
# this takes 1000; the 4 u covers the float sums that form the bound.  A
# proven probe's fully polished scan therefore reads stable too
_BERNSTEIN_ROUNDING = 1000.0
# the unit roundoff u = 2^-53
_UNIT = 0.5 * float(np.finfo(float).eps)


def grows(g2: float) -> bool:
    """The growth verdict on a peak |g|^2: unstable unless g2 <= 1 + GROWTH_TOL,
    so a NaN peak is unstable."""
    return not g2 <= 1.0 + GROWTH_TOL


def check_tol(tol: float) -> None:
    """Refuse a nu_c search tolerance the search cannot use: at or above the
    ceiling NU_MAX (inf too) it would end before its first probe; at or below
    0 (or NaN) the doubling never moves, or probes the other sign."""
    if tol >= NU_MAX:
        raise ConfigurationError(f"tol must be below the search ceiling {NU_MAX:g}, got {tol:g}")
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be > 0 and finite, got {tol:g}")


def _distances(offsets: OffsetSet) -> np.ndarray:
    """d = 0..span as floats, the distances of the cosine form; a span over
    MAX_SCAN_SPAN is refused before any array of it is sized."""
    if offsets.span > MAX_SCAN_SPAN:
        raise ConfigurationError(
            f"stencil span {offsets.span} is over the scan limit of {MAX_SCAN_SPAN}"
        )
    return np.arange(offsets.span + 1, dtype=float)


def _cosine_coefficients(offsets: Sequence[int], weights: np.ndarray) -> np.ndarray:
    """a_d, d = 0..span, of each row of the (K, N) weights: the (K, span + 1)
    rows with |g(theta)|^2 = sum_d a_d cos(d theta).

    a_0 = r_0 and a_d = 2 r_d, where r_d = sum_k c_k c_{k+d} is the
    autocorrelation of a row's weights placed at their offsets.
    """
    span = offsets[-1] - offsets[0]
    w = weights
    if len(offsets) <= span:  # a gap: place the weights at their offsets
        w = np.zeros((len(weights), span + 1))
        w[:, np.subtract(offsets, offsets[0])] = weights
    a = np.empty_like(w)
    for row, out in zip(w, a):
        out[:] = np.correlate(row, row, "full")[span:]
    a[:, 1:] *= 2.0
    return a


def _bernstein_matrix(span: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, mu) of a span up to _BERNSTEIN_SPAN: the (span + 1, span + 1) M
    with beta = a M the degree-span Bernstein coefficients of
    sum_d a_d cos(d theta) in s = (1 - cos theta) / 2, and mu_d =
    max_k |M[d, k]|.  Row d's numerators are the coefficients of
    (sum_i (-1)^i C(2d, 2i) t^i) (1 + t)^(span - d), integers that every
    product and sum of the convolution keeps exact."""
    pascal = [np.ones(1)]
    for _ in range(2 * span):
        row = np.ones(len(pascal[-1]) + 1)
        row[1:-1] = pascal[-1][1:] + pascal[-1][:-1]
        pascal.append(row)
    alternating = np.ones(span + 1)
    alternating[1::2] = -1.0
    numerators = [
        np.convolve(pascal[2 * d][::2] * alternating[: d + 1], pascal[span - d])
        for d in range(span + 1)
    ]
    matrix = np.array(numerators) / pascal[span]
    return matrix, np.abs(matrix).max(axis=1)


def _bernstein_bound(a: np.ndarray, s2: np.ndarray, matrix: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per row of the (K, span + 1) a: an upper bound on every value a fully
    polished scan reads from the same float weights, whose S^2 are s2; see
    `_BERNSTEIN_ROUNDING`.  A row that is not finite gives nan or inf."""
    best = (a @ matrix).max(axis=1)
    width = 2.0 * (len(matrix) + 1)
    return best + _UNIT * (width * (np.abs(a) @ mu) + _BERNSTEIN_ROUNDING * s2 + 4.0)


class _GrowthScan:
    """The theta grid of one scheme, built once per search.

    |g|^2 is even in theta, so the grid covers [0, pi].  A call probes a
    batch of nu: one autocorrelation of the weights per nu, one real FFT of
    the batch for the grids, and a few vectorised Newton steps that polish
    the largest peaks of every grid together.
    """

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        self.d = _distances(scheme.offsets)
        self.powers = (self.d ** _MOMENT_POWERS)[:, :, None]
        self.thetas = _THETAS
        # e^{i k pi} = (-1)^k at each offset k: g(pi) is the alternating sum
        self.pi_signs = np.array([-1.0 if k % 2 else 1.0 for k in scheme.offsets])

    def _grid(self, a: np.ndarray) -> np.ndarray:
        """sum_d a_d cos(d theta) on the grid for each row of the (K, span + 1)
        a, as the real part of one real FFT along the rows, copied out
        contiguous for the scans that follow; cos(d theta) repeats in d with
        period THETA_SAMPLES on the grid, so a longer row is folded first."""
        if a.shape[1] > THETA_SAMPLES:
            a = np.pad(a, ((0, 0), (0, -a.shape[1] % THETA_SAMPLES)))
            a = a.reshape(len(a), -1, THETA_SAMPLES).sum(axis=1)
        return np.fft.rfft(a, THETA_SAMPLES, axis=1).real.copy()

    def _slopes(self, thetas: np.ndarray, moments: np.ndarray):
        """|g|^2 and its first two theta derivatives at the (R, P) thetas; row r
        sums its moments (a_d, d a_d, d^2 a_d), the (R, 3, span + 1, 1) array's
        row r, as column vectors."""
        phase = thetas[..., None] * self.d
        cos = np.cos(phase)
        p, p2 = cos @ moments[:, 0], cos @ moments[:, 2]
        return p[..., 0], -(np.sin(phase) @ moments[:, 1])[..., 0], -p2[..., 0]

    def peaks(
        self, nus, limit: float = math.inf, weights: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(worst theta, max |g|^2) at each nu of the 1-D batch nus, as two
        arrays; see `max_growth`.  `weights` are the float weights at nus
        when the caller has them, so they are not read twice.

        Under a finite `limit`, a probe whose |g(pi)|^2 exceeds
        limit + _PI_MARGIN S^2 (S = sum_k |c_k|) is returned as (pi, that
        value) before any grid, with the full scan's verdict (see
        `_PI_MARGIN`).  A row that is not finite fails the comparison.  The
        other probes are scanned together.

        The rows whose grid maximum is at or below `limit` are polished
        together, each in `POLISHED_PEAKS` slots, for as long as one `live`
        mask has a slot left: a slot leaves it once its Newton step is done,
        and every slot of a probe once the probe's maximum exceeds `limit`,
        since the polish only raises a maximum.  Such a maximum is returned as
        far as it got, enough for a verdict against `limit`; one at or below
        `limit` is the fully polished one.  Each row's best slot is read once,
        after the loop.  A probe's state changes only under its own mask, so
        its verdict and grid do not depend on the rest of the batch.
        """
        # a huge nu overflows the gain to inf or nan, which `grows` reads as
        # unstable: the peak is the verdict, and numpy's warnings add nothing;
        # a Newton step is taken only where p2 < 0, so a p2 of 0 may divide
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if weights is None:
                weights = self.scheme.float_weights(nus)
            if not math.isfinite(limit):
                return self._scan(weights, limit)
            total = np.abs(weights).sum(axis=1)
            g2_pi, past = self._past_pi(weights, total * total, limit)
            rest = (~past).nonzero()[0]
            best_theta, best_val = np.full(len(g2_pi), math.pi), g2_pi
            if rest.size:
                best_theta[rest], best_val[rest] = self._scan(weights[rest], limit)
            return best_theta, best_val

    def _past_pi(self, weights: np.ndarray, s2: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
        """(|g(pi)|^2, whether it exceeds limit + _PI_MARGIN s2) per row of the
        (K, N) weights, whose S^2 are s2; the caller sets numpy's error state."""
        g2_pi = (weights * self.pi_signs).sum(axis=1) ** 2
        return g2_pi, g2_pi > limit + _PI_MARGIN * s2

    def _scan(self, weights: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
        """`peaks` on the (K, N) weights by the grid and the polish; the
        caller sets numpy's error state."""
        thetas = self.thetas
        a = _cosine_coefficients(self.scheme.offsets, weights)
        g2 = self._grid(a)
        best_theta, best_val = thetas[g2.argmax(axis=1)], g2.max(axis=1)
        # a grid above the limit, or overflowed to inf or nan, is its own
        # verdict: no polish can lower it, so only the other rows go on
        rows = (best_val <= min(limit, _FLOAT_MAX)).nonzero()[0]
        if not rows.size:
            return best_theta, best_val
        g2 = g2[rows]

        # the largest local maxima of each grid to polish, one slot each;
        # a slot no peak fills stays dead.  Each end of [0, pi] is its own
        # mirror image's neighbour.
        reflected = np.concatenate((g2[:, 1:2], g2, g2[:, -2:-1]), axis=1)
        is_peak = (g2 >= reflected[:, :-2]) & (g2 >= reflected[:, 2:])
        top = np.zeros((len(g2), POLISHED_PEAKS), dtype=np.intp)
        live = np.zeros(top.shape, dtype=bool)
        for k, (grid, peak) in enumerate(zip(g2, is_peak)):
            peak_idx = peak.nonzero()[0]
            picked = peak_idx[np.argsort(grid[peak_idx])[::-1][:POLISHED_PEAKS]]
            top[k, : picked.size] = picked
            live[k, : picked.size] = True
        theta = thetas[top]
        h = thetas[1]
        lo, hi = np.maximum(theta - h, 0.0), np.minimum(theta + h, math.pi)
        moments = a[rows, None, :, None] * self.powers
        # each slot's best (theta, |g|^2) so far, starting from the grid's
        arg, val = best_theta[rows, None], best_val[rows, None]
        for _ in range(_POLISH_STEPS):
            p, p1, p2 = self._slopes(theta, moments)
            raised = live & (p > val)
            arg, val = np.where(raised, theta, arg), np.where(raised, p, val)
            # the ends are mirror points, so the slope there is 0, and an
            # end with p2 > 0 is a minimum: the search goes inwards unless
            # the climb p2 w^2 / 2 across the bracket is below tolerance
            end = (theta == 0.0) | (theta == math.pi)
            p1[end] = 0.0
            tol2 = _EPS2 * np.maximum(1.0, np.abs(p))
            inwards = end & (p2 > 0.0)
            done = np.where(inwards, p2 * (hi - lo) ** 2 <= tol2, p1 * p1 <= tol2 * np.abs(p2))
            rising = (theta <= lo) | ((theta < hi) & (p1 > 0.0))
            lo, hi = np.where(rising, theta, lo), np.where(rising, hi, theta)
            newton = theta - p1 / p2
            step = np.where((p2 < 0.0) & (lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
            # a slot stops once done, and every slot of a probe once its
            # maximum is past the limit
            live &= ~(done | (step == theta)) & (val <= limit).all(axis=1, keepdims=True)
            if not live.any():
                break
            theta = np.where(live, step, theta)
        at, i = np.arange(len(rows)), val.argmax(axis=1)
        best_theta[rows], best_val[rows] = arg[at, i], val[at, i]
        return best_theta, best_val


def amplification(scheme: Scheme, nu: float, theta) -> np.ndarray | float:
    """Squared gain |g(theta; nu)|^2 of a single Fourier mode; vectorized in theta.

    An overflowing gain reads inf or nan without a warning, as in the scan,
    and a span over MAX_SCAN_SPAN raises ConfigurationError.
    """
    d = _distances(scheme.offsets)
    with np.errstate(over="ignore", invalid="ignore"):
        a = _cosine_coefficients(scheme.offsets, scheme.float_weights(nu)[None])[0]
        g2 = np.cos(np.multiply.outer(np.asarray(theta, dtype=float), d)) @ a
    return float(g2) if np.ndim(theta) == 0 else g2


def max_growth(scheme: Scheme, nu: float) -> tuple[float, float]:
    """(worst theta, max |g|^2) over all theta, with theta reported in [0, pi]:
    |g|^2 is even, so the mirror 2*pi - theta has the same gain.

    The grid of `THETA_SAMPLES` points on the circle (its half on [0, pi]) is
    refined around its `POLISHED_PEAKS` largest local maxima by safeguarded
    Newton steps within one grid step, so sharp peaks between grid points are
    not missed.  An end of [0, pi] that is a local minimum is searched inwards.
    A span over MAX_SCAN_SPAN raises ConfigurationError, as in every scan.
    """
    theta, g2 = _GrowthScan(scheme).peaks([nu])
    return float(theta[0]), float(g2[0])


def advection_critical(offsets: Sequence[int], sign: int) -> int:
    """The exact nu_c at Courant numbers of `sign` of the m = 1 scheme on a
    contiguous window holding 0: how many unit shifts (L - t, R + t),
    t = 0, 1, ..., in a row stay in the wedge R <= L <= R + 2, with L the
    upwind points (the negative offsets when sign < 0) and R the downwind
    ones.  uw and lw give 1, bw 2; other stencils raise ConfigurationError."""
    offs = OffsetSet(offsets)
    if not _is_window(offs):
        raise ConfigurationError(
            f"the m = 1 rule takes a contiguous window holding 0, got {tuple(offs)}"
        )
    up, down = (-offs[0], offs[-1]) if sign < 0 else (offs[-1], -offs[0])
    shifts = 0
    while down + shifts <= up - shifts <= down + shifts + 2:
        shifts += 1
    return shifts


def exact_rule(scheme: Scheme) -> Optional[str]:
    """The closed form that gives the scheme's exact nu_c, by name: "m = 1
    wedge" (`advection_critical`) for m = 1 and "first-order window"
    (`classify_first_order`) for n = 1, on a window holding 0 with all
    n + 1 layers; None for other orders and stencils and for `truncated`
    tables."""
    if len(scheme.layers) != scheme.n + 1 or not _is_window(scheme.offsets):
        return None
    if scheme.m == 1:
        return "m = 1 wedge"
    if scheme.n == 1:
        return "first-order window"
    return None


def exact_critical(scheme: Scheme, sign: int) -> Optional[float]:
    """The exact nu_c at Courant numbers of `sign` by `exact_rule`'s closed
    form: `advection_critical`, or `classify_first_order`'s value, 1/2^(m-1)
    or 0 (dyadic, so exact as a float); None where no rule applies."""
    rule = exact_rule(scheme)
    if rule == "m = 1 wedge":
        return advection_critical(scheme.offsets, sign)
    if rule == "first-order window":
        key = (1 if sign >= 0 else -1, -scheme.offsets[0])
        return float(classify_first_order(scheme.m).nu_critical[key])
    return None


def _is_window(offsets: OffsetSet) -> bool:
    return offsets.is_contiguous() and offsets[0] <= 0 <= offsets[-1]


def growth_note(scheme: Scheme, nu: float) -> Optional[str]:
    """The mode test's verdict on the scheme at the Courant number nu: None
    when it passes, otherwise the text "max |g|^2 = {g2:.6g} at
    theta={theta:.4f}" of the peak, which each caller wraps in its own
    message.  None with no scan where `exact_critical` proves it, |nu| <= nu_c
    compared exactly; everywhere else `grows` on `max_growth`'s fully
    polished peak decides."""
    nu_c = exact_critical(scheme, -1 if nu < 0 else 1)
    if nu_c is not None and abs(nu) <= nu_c:
        return None
    theta, g2 = max_growth(scheme, nu)
    return f"max |g|^2 = {g2:.6g} at theta={theta:.4f}" if grows(g2) else None


def critical_courant(scheme: Scheme, nu_sign: int, tol: float = NU_TOL) -> float:
    """Largest |nu| (to within tol) at which the scheme passes the mode test.

    nu_sign picks the sign of the Courant number being probed.  When the
    scheme is already unstable at |nu| = tol, [0, tol] is bisected down to
    min(tol, STABLE_NU_THRESHOLD), so a coarse tol still finds a nu_c above
    the threshold; 0.0 means no probe was stable.  Returns NU_MAX when no
    instability is found below the search ceiling.  A tol that `check_tol`
    refuses (at or above NU_MAX, <= 0 or NaN) raises ConfigurationError.
    Bisection assumes the stable set is a single interval [0, nu_c]; after
    converging, the verdict is re-probed on both sides of the boundary, and
    if a pocket shows up (stable above, or unstable below), a linear sweep in
    steps of max(tol, NU_TOL) re-locates the first unstable point from below,
    and a bisection narrows it to tol when tol is finer than that step.  A
    sweep still stable after `_SWEEP_PROBES` probes raises
    ConfigurationError naming its bracket (last stable, ceiling).

    A tol finer than the float spacing near the boundary ends the bisection
    at two neighbouring floats.

    Note the guard watches the stability *verdict*, not the raw gain: the
    gain legitimately dips back to 1 at whole-number Courant values (exact
    shifts) without re-entering the stable range.

    Where `exact_critical` gives the scheme's nu_c, a probe at |nu| <= nu_c
    whose float weights pass the `_PROVEN_S2` guard reads stable with no
    scan, the verdict a scan would give.  So does a probe on a span up to
    `_BERNSTEIN_SPAN` that theta = pi leaves open and the Bernstein bound on
    |g|^2 proves (see `_BERNSTEIN_ROUNDING`); every other probe is scanned.
    Each scanned probe stops as soon as its verdict against 1 + GROWTH_TOL is
    decided (see the module docstring and `_PI_MARGIN`), so the verdicts,
    and the nu_c they give, are those of fully polished scans.  The
    doubling ladder and the sweep are probed in chunks, the pocket guard at
    once, and the bisection two levels a call, so a chunk may probe past the
    first unstable point, and each bisection call asks one next-level
    midpoint it then drops; the probes the search reads, and so nu_c, are
    those of a search probing one nu at a time.
    """
    return _critical_courant(_GrowthScan(scheme), nu_sign, tol)


_Verdicts = Callable[[Sequence[float]], list[bool]]


def _critical_courant(scan: _GrowthScan, nu_sign: int, tol: float) -> float:
    """`critical_courant` on a scan that every probe of the search shares."""
    check_tol(tol)
    sign = 1 if nu_sign >= 0 else -1
    stables = _verdicts(scan, sign)

    # the ladder's bracket: its last stable probe is hi / 2, doubling being
    # exact below NU_MAX, or 0.0 when the first probe grows.  A bracket from 0
    # is bisected at least as finely as the stable threshold, or a coarse tol
    # would read every nu_c below it as 0
    lo, hi = _first_unstable(stables, _doubling(tol))
    if hi is None:
        return NU_MAX
    lo, hi = _bisect(stables, lo, hi, tol if lo else min(tol, STABLE_NU_THRESHOLD))

    if lo > 0.0:
        # lo + tol rounds to lo when tol is below the spacing; hi is unstable
        above = np.linspace(max(lo + tol, hi), min(NU_MAX, 2.0 * lo + 16.0 * tol), 8)
        below = np.linspace(0.125 * lo, lo, 8)
        verdicts = stables(np.concatenate((above, below)))
        pocket_above = any(verdicts[: len(above)])
        pocket_below = not all(verdicts[len(above) :])
        if pocket_above or pocket_below:
            return _sweep_critical(stables, tol, hi)
    return lo


def _verdicts(scan: _GrowthScan, sign: int) -> _Verdicts:
    """The search's verdict function: stable or not at each |nu| of a batch,
    at Courant numbers of `sign`.  A probe is stable with no scan when it is
    at |nu| <= `exact_critical`'s nu_c and its float weights have
    S^2 <= _PROVEN_S2, or, on a span up to _BERNSTEIN_SPAN, when theta = pi
    does not decide it and `_bernstein_bound` proves it (M is built at the
    first such probe); the others go to one `peaks` call, in their order, or
    to none."""
    nu_c = exact_critical(scan.scheme, sign)
    limit = 1.0 + GROWTH_TOL
    span = scan.scheme.offsets.span
    bernstein = None

    def stables(nus_abs: Sequence[float]) -> list[bool]:
        nonlocal bernstein
        nus = sign * np.asarray(nus_abs, dtype=float)
        stable = np.zeros(len(nus), dtype=bool)
        # a huge nu overflows the weights to inf or nan: no bound proves it
        with np.errstate(over="ignore", invalid="ignore"):
            weights = scan.scheme.float_weights(nus)
            total = np.abs(weights).sum(axis=1)
            s2 = total * total
            if nu_c is not None:
                stable = (np.abs(nus) <= nu_c) & (s2 <= _PROVEN_S2)
            if span <= _BERNSTEIN_SPAN:
                bound = (~stable & ~scan._past_pi(weights, s2, limit)[1]).nonzero()[0]
                if bound.size:
                    if bernstein is None:
                        bernstein = _bernstein_matrix(span)
                    a = _cosine_coefficients(scan.scheme.offsets, weights[bound])
                    stable[bound] = _bernstein_bound(a, s2[bound], *bernstein) <= limit
        rest = (~stable).nonzero()[0]
        if rest.size:
            _, g2 = scan.peaks(nus[rest], limit=limit, weights=weights[rest])
            stable[rest] = [not grows(v) for v in g2.tolist()]
        return stable.tolist()

    return stables


def _doubling(tol: float) -> Iterator[float]:
    """tol, 2 tol, 4 tol, ... up to NU_MAX."""
    nu = tol
    while nu <= NU_MAX:
        yield nu
        nu *= 2.0


def _first_unstable(stables: _Verdicts, probes: Iterator[float]) -> tuple[float, Optional[float]]:
    """(last stable, first unstable) of the probes, asked `_PROBE_CHUNK` at a
    time: 0.0 when no probe is stable, None when none is unstable."""
    last_stable = 0.0
    while batch := list(itertools.islice(probes, _PROBE_CHUNK)):
        for nu, ok in zip(batch, stables(batch)):
            if not ok:
                return last_stable, nu
            last_stable = nu
    return last_stable, None


def _midpoint(lo: float, hi: float, tol: float) -> Optional[float]:
    """The bisection's next probe, the midpoint of (lo, hi), or None once the
    bracket is at most tol wide or lo and hi are neighbouring floats."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol and lo < mid < hi else None


def _bisect(stables: _Verdicts, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink a (stable lo, unstable hi) bracket to width tol by bisection,
    two levels per call: the midpoint and both of the next level's, of which
    the midpoint's verdict keeps one.  These are the probes, in order, of a
    bisection asking one nu at a time, so the bracket is bitwise its bracket.

    A tol below the float spacing ends it at two neighbouring floats.
    """
    while (mid := _midpoint(lo, hi, tol)) is not None:
        left, right = _midpoint(lo, mid, tol), _midpoint(mid, hi, tol)
        nus = [nu for nu in (mid, left, right) if nu is not None]
        stable = dict(zip(nus, stables(nus)))
        for nu in (mid, right if stable[mid] else left):
            if nu is None:
                break
            lo, hi = (nu, hi) if stable[nu] else (lo, nu)
    return lo, hi


def _sweep_critical(stables: _Verdicts, tol: float, ceiling: float) -> float:
    """Linear sweep from below; the first unstable point wins.

    The sweep steps by max(tol, NU_TOL), so a tiny tol cannot make it endless.
    When that step is coarser than tol, the bracket (last stable, first
    unstable) is bisected down to tol; otherwise the sweep alone decides.
    A sweep still stable after _SWEEP_PROBES probes raises
    ConfigurationError naming its bracket (last stable, ceiling).
    """
    step = max(tol, NU_TOL)

    def sweep() -> Iterator[float]:
        nu = step
        while nu <= ceiling + step:
            yield nu
            nu += step

    probes = sweep()
    last_stable, unstable = _first_unstable(stables, itertools.islice(probes, _SWEEP_PROBES))
    if unstable is None and next(probes, None) is not None:
        raise ConfigurationError(
            f"the nu_c search's pocket sweep is still stable after {_SWEEP_PROBES} probes: "
            f"the first unstable |nu| lies in ({last_stable:.6g}, {ceiling:.6g}]"
        )
    if unstable is None or step == tol:
        return last_stable
    return _bisect(stables, last_stable, unstable, tol)[0]


@dataclass(frozen=True)
class StabilityReport:
    """Summary of a single-sign stability probe of one scheme."""

    m: int
    n: int
    offsets: OffsetSet
    nu_sign: int
    nu_critical: float
    worst_theta: float

    @property
    def is_stable(self) -> bool:
        """Usable-in-practice verdict: some workable Courant range exists."""
        return self.nu_critical > STABLE_NU_THRESHOLD


def stability_report(
    scheme: Scheme, nu_sign: int, tol: float = NU_TOL
) -> StabilityReport:
    """The scheme's stability at Courant numbers of one sign.

    `nu_critical` is `critical_courant(scheme, nu_sign, tol)`, and
    `worst_theta` is the theta of `max_growth` at one probe just past it,
    |nu| = nu_critical + 10 * tol: the first mode to break, in [0, pi].  The
    search and that probe share one theta grid.
    """
    scan = _GrowthScan(scheme)
    sign = 1 if nu_sign >= 0 else -1
    nu_c = _critical_courant(scan, sign, tol)
    worst_theta = scan.peaks([sign * (nu_c + 10.0 * tol)])[0][0]
    return StabilityReport(
        m=scheme.m,
        n=scheme.n,
        offsets=scheme.offsets,
        nu_sign=sign,
        nu_critical=float(nu_c),
        worst_theta=float(worst_theta),
    )


def truncated_first_layer_critical(n: int, tol: float = NU_TOL) -> float:
    """Critical Courant number of the centered m=2 scheme truncated to its linear layer.

    Keeping only the j<=1 layers of the order-n centered second-derivative
    scheme leaves a first-order-in-time update whose stability range shrinks
    with n instead of growing.
    """
    scheme = master_scheme(SchemeSpec(2, n, default_offsets(2, n)))
    return critical_courant(scheme.truncated(1), +1, tol=tol)


def first_order_stable_r(m: int, sign: int) -> Optional[int]:
    """Window shift r giving a stable first-order scheme for sign(a_m), if any.

    The pattern is parity-driven: for even m = 2l only the centered window
    r = l works and only when sign = (-1)^(l-1); for odd m = 2l-1 one of the
    two near-centered windows works for each sign.
    """
    check_orders(m, 1)
    sign = 1 if sign >= 0 else -1
    if m % 2 == 0:
        half = m // 2
        return half if sign == (-1) ** (half - 1) else None
    half = (m + 1) // 2
    if sign == (-1) ** half:
        return half
    return half - 1


@dataclass(frozen=True)
class Classification:
    """Exact stability landscape of all first-order windows for one m."""

    m: int
    stable_r: dict[int, Optional[int]]
    nu_critical: dict[tuple[int, int], Fraction]


def classify_first_order(m: int) -> Classification:
    """Exact critical Courant number of every window r = 0..m under both signs.

    Window r has the symbol g = 1 + nu*z with z = e^{-ir theta}(e^{i theta}-1)^m,
    so |z|^2 = y^m with y = 2 - 2cos theta in [0, 4].  For nu = s*t, t > 0,
    |g|^2 <= 1 iff 2s Re z + t y^m <= 0 for every theta.
    - On the window `first_order_stable_r(m, s)` names,
      s Re z = -y^ceil(m/2) / 2^(m mod 2), so the condition is tightest at
      y = 4 and holds exactly for t <= 1/2^(m-1).
    - On every other (s, r) some theta has s Re z > 0, and that theta grows
      at every t > 0: nu_c = 0.
    """
    stable_r = {sign: first_order_stable_r(m, sign) for sign in (+1, -1)}
    ceiling = Fraction(1, 2 ** (m - 1))
    nu_critical = {
        (sign, r): ceiling if r == stable_r[sign] else Fraction(0)
        for sign in (+1, -1)
        for r in range(m + 1)
    }
    return Classification(m=m, stable_r=stable_r, nu_critical=nu_critical)


# -- named advection ladders -------------------------------------------------

# each named ladder's lowest member s: the centred ladder has no s = 0 (n = 0)
FIRST_MEMBER = {"uw": 0, "lw": 1, "bw": 0}
FAMILIES = tuple(FIRST_MEMBER)


def advection_family_spec(kind: str, s: int) -> tuple[int, int]:
    """(order n, left width r) of the s-th member of a named m=1 ladder.

    uw: odd orders n = 2s+1 with one extra upwind point (r = s+1);
    lw: even orders n = 2s, centered (r = s), s >= 1;
    bw: even orders n = 2s+2 with two extra upwind points (r = s+2).
    All ladders use the a < 0 (rightward wave) convention.
    """
    if s < 0:
        raise ConfigurationError(f"family index s must be >= 0, got {s}")
    if kind == "uw":
        return 2 * s + 1, s + 1
    if kind == "lw":
        first = FIRST_MEMBER["lw"]
        if s < first:
            raise ConfigurationError(f"the centered even ladder starts at s = {first}")
        return 2 * s, s
    if kind == "bw":
        return 2 * s + 2, s + 2
    raise ConfigurationError(f"unknown family {kind!r}; expected one of {FAMILIES}")


def advection_family_scheme(kind: str, s: int) -> Scheme:
    n, r = advection_family_spec(kind, s)
    return master_scheme(SchemeSpec(1, n, OffsetSet.contiguous(r, n)))


def advection_family_stability(s: int, kind: str, tol: float = NU_TOL) -> float:
    """Measured |nu| stability endpoint of a ladder member (probed at nu < 0)."""
    return critical_courant(advection_family_scheme(kind, s), -1, tol=tol)
