"""Single-mode (von Neumann) stability analysis of generated schemes.

A periodic mode e^{i p x} passes through one explicit step with gain
g(theta; nu) = sum_k c_k(nu) e^{i k theta}, theta = p dx.  A scheme is stable
at Courant number nu when max_theta |g|^2 <= 1 (up to a small roundoff
allowance).  This module owns that verdict: `grows` is the one rule every
caller applies to a peak, here in the nu_c search and in the solver's run
warning and convergence refusal.  The maximum is located on a dense theta
grid and polished with a derivative-free golden-section refinement, and the
stability boundary in nu is then bracketed by doubling and resolved by
bisection.

The grid and its basis e^{i k theta} depend only on the stencil, so one search
(`max_growth`, `critical_courant`, `stability_report`) builds them once and
every nu it probes costs one matrix-vector product plus the scalar gains of
the polish.  The weights at each probed nu are `Scheme.float_weights`, read
from the layer table's float rows; the scan builds no exact weight
polynomial.  Nothing outlives the search.

The polish only ever raises the maximum, so a stability verdict stops as soon
as it is decided: at the grid when the grid maximum already exceeds the
limit, or after the first polished peak that does.  The verdicts are those of
a fully polished scan; every value this module reports (`max_growth`,
`amplification`, a report's worst theta) is still fully polished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .exact import ConfigurationError, OffsetSet
from .schemes import Scheme, SchemeSpec, master_scheme

# |g|^2 <= 1 + GROWTH_TOL counts as stable: absorbs float roundoff in the
# gain evaluation without masking genuine growth.
GROWTH_TOL = 1e-10
# a report whose measured critical Courant number is below this is unstable
STABLE_NU_THRESHOLD = 1e-3
# resolution of the theta grid scan
THETA_SAMPLES = 4096
# the grid scan's largest local maxima polished by golden-section search
POLISHED_PEAKS = 3
# bisection stops once the bracket is narrower than this
NU_TOL = 1e-4
# doubling search gives up beyond this Courant number
NU_MAX = 64.0

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _basis(thetas: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """e^{i k theta}: one row per theta, one column per offset k."""
    b = np.multiply.outer(thetas, ks) * 1j
    return np.exp(b, out=b)


def _squared(g):
    """|g|^2 of complex gains, as the real part of g * conj(g)."""
    return (g * g.conjugate()).real


def _point_growth(iks: np.ndarray, ws_c: np.ndarray, theta: float) -> float:
    """|g|^2 at one theta, from iks = 1j * offsets and the complex weights.

    Bit for bit `_squared` of the same gain: the real part of g * conj(g) is
    re*re - im*(-im), and subtracting -b is adding b.
    """
    g = complex(np.exp(theta * iks) @ ws_c)
    return g.real * g.real + g.imag * g.imag


class _GrowthScan:
    """The theta grid and Fourier basis of one scheme, built once per search.

    Only the weights depend on nu, so a probe costs one matrix-vector product
    on the grid plus the scalar gains of the golden-section polish.
    """

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        ks = np.array(scheme.offsets, dtype=float)
        self.iks = 1j * ks
        self.thetas = np.linspace(0.0, 2.0 * math.pi, THETA_SAMPLES, endpoint=False)
        self.basis = _basis(self.thetas, ks)

    def peak(self, nu: float, limit: float = math.inf) -> tuple[float, float]:
        """(worst theta, max |g|^2) at nu; see `max_growth`.

        The polish only raises the maximum, so once the maximum exceeds
        `limit` the scan stops and returns it as far as it got: enough for a
        verdict against `limit`.  A maximum at or below `limit` is the fully
        polished one.
        """
        ws_c = self.scheme.float_weights(nu).astype(complex)
        thetas = self.thetas
        # a huge nu overflows the gain to inf or nan, which `grows` reads as
        # unstable: the peak is the verdict, and numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            g2 = _squared(self.basis @ ws_c)

            best_idx = int(np.argmax(g2))
            best_theta, best_val = float(thetas[best_idx]), float(g2[best_idx])
            if best_val > limit:
                return best_theta, best_val

            # local maxima in the circular sense, against one wrapped copy
            wrapped = np.concatenate((g2[-1:], g2, g2[:1]))
            is_peak = (g2 >= wrapped[:-2]) & (g2 >= wrapped[2:])
            peak_idx = np.flatnonzero(is_peak)
            if peak_idx.size:
                top = peak_idx[np.argsort(g2[peak_idx])[::-1][:POLISHED_PEAKS]]
                step = 2.0 * math.pi / thetas.size
                iks = self.iks
                for idx in top:
                    theta0 = float(thetas[idx])
                    t, v = _golden_max(
                        lambda t: _point_growth(iks, ws_c, t), theta0 - step, theta0 + step
                    )
                    if v > best_val:
                        best_theta, best_val = t % (2.0 * math.pi), v
                        if best_val > limit:
                            break
            return best_theta, best_val


def amplification(scheme: Scheme, nu: float, theta) -> np.ndarray | float:
    """Squared gain |g(theta; nu)|^2 of a single Fourier mode; vectorized in theta."""
    ks = np.array(scheme.offsets, dtype=float)
    ws = scheme.float_weights(nu)
    if np.ndim(theta) == 0:
        return _point_growth(1j * ks, ws.astype(complex), float(theta))
    return _squared(_basis(np.asarray(theta, dtype=float), ks) @ ws)


def _golden_max(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section search for a maximum of f on [a, b]."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while d - c > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def max_growth(scheme: Scheme, nu: float) -> tuple[float, float]:
    """(worst theta, max |g|^2) over theta in [0, 2*pi).

    The scan of `THETA_SAMPLES` grid points is refined around its
    `POLISHED_PEAKS` largest local maxima with a golden-section search, so
    sharp peaks between grid points are not missed.
    """
    return _GrowthScan(scheme).peak(nu)


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
    and a bisection narrows it to tol when tol is finer than that step.

    A tol finer than the float spacing near the boundary ends the bisection
    at two neighbouring floats.

    Note the guard watches the stability *verdict*, not the raw gain: the
    gain legitimately dips back to 1 at whole-number Courant values (exact
    shifts) without re-entering the stable range.

    Each probe stops as soon as its verdict is decided: at the grid when the
    grid maximum of |g|^2 already exceeds 1 + GROWTH_TOL, or after the first
    polished peak that does.  The polish only raises the maximum, so the
    verdicts, and the nu_c they give, are those of fully polished scans.
    """
    return _critical_courant(_GrowthScan(scheme), nu_sign, tol)


def _critical_courant(scan: _GrowthScan, nu_sign: int, tol: float) -> float:
    """`critical_courant` on a scan that every probe of the search shares."""
    check_tol(tol)
    sign = 1 if nu_sign >= 0 else -1
    limit = 1.0 + GROWTH_TOL

    def stable(nu_abs: float) -> bool:
        return not grows(scan.peak(sign * nu_abs, limit=limit)[1])

    hi = tol
    while hi <= NU_MAX and stable(hi):
        hi *= 2.0
    if hi > NU_MAX:
        return NU_MAX
    if hi == tol:
        # unstable at the first probe: bisect [0, tol] at least as finely as
        # the stable threshold, or a coarse tol would read every nu_c below it as 0
        lo, hi = _bisect(stable, 0.0, hi, min(tol, STABLE_NU_THRESHOLD))
    else:
        lo, hi = _bisect(stable, hi / 2.0, hi, tol)

    if lo > 0.0:
        # lo + tol rounds to lo when tol is below the spacing; hi is unstable
        above = np.linspace(max(lo + tol, hi), min(NU_MAX, 2.0 * lo + 16.0 * tol), 8)
        below = np.linspace(0.125 * lo, lo, 8)
        pocket_above = any(stable(float(p)) for p in above)
        pocket_below = not all(stable(float(p)) for p in below)
        if pocket_above or pocket_below:
            return _sweep_critical(stable, tol, hi)
    return lo


def _bisect(
    stable: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Shrink a (stable lo, unstable hi) bracket to width tol by bisection.

    A tol below the float spacing ends it at two neighbouring floats.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # tol is below the float spacing here: lo and hi are neighbours
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _sweep_critical(
    stable: Callable[[float], bool], tol: float, ceiling: float
) -> float:
    """Linear sweep from below; the first unstable point wins.

    The sweep steps by max(tol, NU_TOL), so a tiny tol cannot make it endless.
    When that step is coarser than tol, the bracket (last stable, first
    unstable) is bisected down to tol; otherwise the sweep alone decides.
    """
    step = max(tol, NU_TOL)
    nu = step
    last_stable = 0.0
    while nu <= ceiling + step:
        if not stable(nu):
            return last_stable if step == tol else _bisect(stable, last_stable, nu, tol)[0]
        last_stable = nu
        nu += step
    return last_stable


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
    |nu| = nu_critical + 10 * tol: the first mode to break.  The search and
    that probe share one theta grid and basis.
    """
    scan = _GrowthScan(scheme)
    sign = 1 if nu_sign >= 0 else -1
    nu_c = _critical_courant(scan, sign, tol)
    worst_theta, _ = scan.peak(sign * (nu_c + 10.0 * tol))
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
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    scheme = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
    return critical_courant(scheme.truncated(1), +1, tol=tol)


@dataclass(frozen=True)
class BoundAuditRow:
    """Exact critical Courant number of one binomial scheme vs. the geometric ceiling."""

    m: int
    r: int
    sign: int
    nu_critical: Fraction
    bound: Fraction
    within: bool


def stability_bound_audit(m_max: int) -> tuple[BoundAuditRow, ...]:
    """Check nu_critical <= 1/2^(m-1) for every first-order window, m <= m_max.

    For each (m, r) the favorable coefficient sign (the one with the larger
    range, +1 on a tie) is reported.
    """
    rows = []
    for m in range(1, m_max + 1):
        cls = classify_first_order(m)
        bound = Fraction(1, 2 ** (m - 1))
        for r in range(m + 1):
            sign = max((+1, -1), key=lambda s: cls.nu_critical[(s, r)])
            nu_c = cls.nu_critical[(sign, r)]
            rows.append(BoundAuditRow(m, r, sign, nu_c, bound, nu_c <= bound))
    return tuple(rows)


def first_order_stable_r(m: int, sign: int) -> Optional[int]:
    """Window shift r giving a stable first-order scheme for sign(a_m), if any.

    The pattern is parity-driven: for even m = 2l only the centered window
    r = l works and only when sign = (-1)^(l-1); for odd m = 2l-1 one of the
    two near-centered windows works for each sign.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
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

FAMILIES = ("uw", "lw", "bw")


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
        if s < 1:
            raise ConfigurationError("the centered even ladder starts at s = 1")
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
