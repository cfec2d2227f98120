"""Output checks for the benchmark, computed apart from the program.

Nothing here imports fdmarch.  Every check takes plain data (numpy arrays,
integers, Fractions) and returns a list of problems; an empty list means the
output is accepted.  The benchmark's tests feed known-wrong results to each
check and require a non-empty list.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

# -- advection-ladder ------------------------------------------------------------
# fig-advection grid: 100 cells on [-5, 5), a = -1, dt = 0.08, so nu = -4/5.

ADV_BOX = (-5.0, 5.0)
ADV_CELLS = 100
ADV_NU = Fraction(-4, 5)
# spectral reference vs. direct marching: observed <= 3e-13 at 625 steps
ADV_FIELD_TOL = 1e-10
# sum of values before and after; observed <= 3.7e-12
ADV_MASS_TOL = 1e-10
# on the triangle, order 5 must beat order 1 by at least this factor
ADV_ORDER_GAIN = 5.0


def uw_offsets(n: int) -> tuple[int, ...]:
    """The uw ladder window of odd order n: one extra point upwind of centre."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"the uw ladder has odd orders only, got {n}")
    return tuple(range(-(n + 1) // 2, (n - 1) // 2 + 1))


def lagrange_weights(offsets: Sequence[int], nu: Fraction) -> tuple[Fraction, ...]:
    """L_i(nu) = prod_{j != i} (nu - k_j) / (k_i - k_j), exactly."""
    out = []
    for i, ki in enumerate(offsets):
        w = Fraction(1)
        for j, kj in enumerate(offsets):
            if j != i:
                w *= Fraction(nu - kj, ki - kj)
        out.append(w)
    return tuple(out)


def grid_x(box: tuple[float, float], cells: int) -> np.ndarray:
    lo, hi = box
    dx = (hi - lo) / cells
    return lo + dx * np.arange(cells)


def initial_profile(name: str, x: np.ndarray) -> np.ndarray:
    if name == "triangle":
        return np.maximum(0.0, 1.0 - np.abs(x))
    if name == "rectangle":
        return np.where(np.abs(x) <= 1.0, 1.0, 0.0)
    raise ValueError(f"no reference for profile {name!r}")


def spectral_march(
    u0: np.ndarray, offsets: Sequence[int], weights: Sequence[float], steps: int
) -> np.ndarray:
    """ifft(g(theta)^steps * fft(u0)) for u_j <- sum_k w_k u_{j+k}, periodic."""
    cells = u0.size
    theta = 2.0 * math.pi * np.fft.fftfreq(cells)
    g = np.exp(1j * np.multiply.outer(theta, np.asarray(offsets, float))) @ np.asarray(
        weights, float
    )
    return np.real(np.fft.ifft(np.fft.fft(u0) * g**steps))


def check_advection(
    n: int, profile: str, steps: int, x: np.ndarray, u: np.ndarray
) -> list[str]:
    """One marched fig-advection snapshot of the uw scheme of order n.

    The field must match the spectral evolution of the exact initial data,
    conserve the sum of its values, and, for n = 5 on the triangle, be at
    least ADV_ORDER_GAIN times closer to the exact (translated) profile than
    the order-1 reference.
    """
    problems = []
    x_ref = grid_x(ADV_BOX, ADV_CELLS)
    if x.shape != x_ref.shape or not np.array_equal(x, x_ref):
        return [f"order {n} {profile}: grid differs from the fig-advection grid"]
    u0 = initial_profile(profile, x_ref)
    offs = uw_offsets(n)
    weights = [float(w) for w in lagrange_weights(offs, ADV_NU)]
    ref = spectral_march(u0, offs, weights, steps)
    err = float(np.max(np.abs(u - ref)))
    if not err <= ADV_FIELD_TOL:
        problems.append(
            f"order {n} {profile}: max |u - spectral| = {err:.3e} > {ADV_FIELD_TOL:g}"
        )
    dmass = abs(float(u.sum()) - float(u0.sum()))
    if not dmass <= ADV_MASS_TOL:
        problems.append(f"order {n} {profile}: mass changed by {dmass:.3e}")
    if n == 5 and profile == "triangle":
        # after whole box crossings the exact solution is the initial data
        exact = initial_profile(profile, _wrap(x_ref + float(ADV_NU) * 0.1 * steps))
        w1 = [float(w) for w in lagrange_weights(uw_offsets(1), ADV_NU)]
        err1 = float(np.max(np.abs(spectral_march(u0, uw_offsets(1), w1, steps) - exact)))
        err5 = float(np.max(np.abs(u - exact)))
        if not err5 * ADV_ORDER_GAIN <= err1:
            problems.append(
                f"order 5 error {err5:.3e} is not {ADV_ORDER_GAIN:g}x below order 1's {err1:.3e}"
            )
    return problems


def _wrap(x: np.ndarray) -> np.ndarray:
    lo, hi = ADV_BOX
    return lo + np.mod(x - lo, hi - lo)


# -- burgers-shock ----------------------------------------------------------------
# Ramp u0 = clip(1 - (x - x0), 0, 1) under u_t + u u_x = 0: the ramp steepens
# into a shock at t = 1, x = x0 + 1, which then moves at speed 1/2.

BURGERS_FRONT_TOL_DX = 2.0  # observed |front - exact| <= 0.21 dx
BURGERS_MASS_TOL = 1e-9  # absolute, on a mass of ~5.5e3; observed <= 2e-11
BURGERS_RAMP_TOL = 2e-3  # on x - x0 in [0.6, 0.9] at t = 0.5; observed <= 6e-4


def exact_front(t: float) -> float:
    """Shock position relative to x0 for t > 1."""
    return 1.0 + 0.5 * (t - 1.0)


def downward_crossing(x: np.ndarray, u: np.ndarray, level: float = 0.5) -> float | None:
    """Leftmost j with u_j >= level > u_{j+1}, linearly interpolated."""
    hits = np.flatnonzero((u[:-1] >= level) & (u[1:] < level))
    if hits.size == 0:
        return None
    j = int(hits[0])
    return float(x[j] + (u[j] - level) / (u[j] - u[j + 1]) * (x[j + 1] - x[j]))


def check_burgers_snapshot(
    t: float,
    x: np.ndarray,
    u: np.ndarray,
    x0: float,
    mass0: float,
    program_front: float | None = None,
) -> list[str]:
    """Mass at every snapshot; the ramp interior for t < 1; for t > 1 both
    this module's front and the program's `program_front` against the exact one."""
    problems = []
    dx = float(x[1] - x[0])
    dmass = abs(float(u.sum()) - mass0)
    if not dmass <= BURGERS_MASS_TOL:
        problems.append(f"t={t:g}: mass changed by {dmass:.3e}")
    if t < 1.0:
        xi = x - x0
        inner = (xi >= t + 0.1) & (xi <= 0.9)
        err = float(np.max(np.abs(u[inner] - (1.0 - xi[inner]) / (1.0 - t))))
        if not err <= BURGERS_RAMP_TOL:
            problems.append(f"t={t:g}: ramp interior off by {err:.3e}")
        return problems
    if t == 1.0:  # the shock is forming: no front to check yet
        return problems
    want = x0 + exact_front(t)
    fronts = {"own": downward_crossing(x, u), "shock_front": program_front}
    for who, front in fronts.items():
        if front is None or not abs(front - want) <= BURGERS_FRONT_TOL_DX * dx:
            problems.append(
                f"t={t:g}: {who} front at {front} is not within "
                f"{BURGERS_FRONT_TOL_DX:g} dx of {want:.6f}"
            )
    return problems


# -- scheme-zoo: generation ----------------------------------------------------------

# Courant numbers at which the order conditions are re-checked, as (a, b) = a/b.
CHECK_NUS = ((-4, 5), (1, 3), (7, 2), (-9, 7))


def check_generation(
    m: int,
    n: int,
    offsets: Sequence[int],
    coeffs: Mapping[int, Sequence[Fraction]],
    leading: tuple[int, Sequence[Fraction]] | None = None,
) -> list[str]:
    """Order conditions, in integers, at each nu = a/b in CHECK_NUS.

    coeffs[k] lists c_0..c_n of the weight polynomial on offset k.  With D
    the common denominator, W_k = D b^n c_k(a/b) is an integer, and for
    p = 0..nm the moment sum_k k^p W_k must be D p!/j! a^j b^(n-j) when
    p = jm, and 0 otherwise.  For m = 1 each W_k must also be the Lagrange
    weight and `leading` = (power, coefficients) must be N and
    -prod(nu - k_i) / N!.
    """
    problems = []
    ks = list(offsets)
    if len(ks) != n * m + 1 or sorted(set(ks)) != ks:
        return [f"offsets {ks} are not n*m+1 distinct ascending integers"]
    table = [list(coeffs[k]) for k in ks]
    if any(len(row) > n + 1 for row in table):
        return ["a weight polynomial has degree above n"]
    den = math.lcm(*(Fraction(c).denominator for row in table for c in row))
    ints = [[int(Fraction(c) * den) for c in row] for row in table]
    for a, b in CHECK_NUS:
        w = [sum(c * a**j * b ** (n - j) for j, c in enumerate(row)) for row in ints]
        for p in range(n * m + 1):
            got = sum(k**p * wk for k, wk in zip(ks, w))
            if p % m == 0:
                j = p // m
                want = den * (math.factorial(p) // math.factorial(j)) * a**j * b ** (n - j)
            else:
                want = 0
            if got != want:
                problems.append(f"moment p={p} fails at nu={a}/{b}")
                break
        if m == 1:
            for i, ki in enumerate(ks):
                num = math.prod(a - b * kj for j, kj in enumerate(ks) if j != i)
                dnm = math.prod(ki - kj for j, kj in enumerate(ks) if j != i)
                if w[i] * dnm != den * num:
                    problems.append(f"weight on {ki} is not the Lagrange weight at nu={a}/{b}")
                    break
    if m == 1:
        problems += _check_leading_error(ks, leading)
    return problems


def _check_leading_error(ks, leading) -> list[str]:
    big_n = len(ks)
    if leading is None:
        return ["m=1 scheme without a leading error term"]
    power, poly = leading
    if power != big_n:
        return [f"leading error at dx^{power}, want dx^{big_n}"]
    poly = [Fraction(c) for c in poly]
    if len(poly) > big_n + 1:
        return ["leading error polynomial has degree above N"]
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    fac = math.factorial(big_n)
    for a, b in CHECK_NUS:
        got = fac * sum(c * a**j * b ** (big_n - j) for j, c in enumerate(ints))
        want = -den * math.prod(a - b * k for k in ks)
        if got != want:
            return [f"leading error is not -prod(nu - k_i)/N! at nu={a}/{b}"]
    return []


# -- scheme-zoo: stability ---------------------------------------------------------

NU_C_TOL = 2e-4  # bisection resolves nu_c to 1e-4 from below
STABLE_THRESHOLD = 1e-3  # nu_c at or below this counts as "no stable range"
GROWTH_SLACK = 1e-9  # |g|^2 - 1 at or below this counts as stable
THETA_SAMPLES = 8192


def diffusion_nu_c(n: int, truncated: bool) -> Fraction | None:
    """Known critical Courant numbers of the centred m = 2 ladder, a > 0."""
    full = {1: Fraction(1, 2), 2: Fraction(2, 3)}
    trunc = {1: Fraction(1, 2), 2: Fraction(3, 8), 3: Fraction(45, 136), 4: Fraction(315, 1024)}
    return (trunc if truncated else full).get(n)


def stable_window(m: int, sign: int) -> int | None:
    """Parity rule for first-order windows {-r..m-r} under sign(a) = sign.

    With g(pi) = 1 + nu (-1)^r (-2)^m only the window whose g(pi) moves below
    1 for the given sign can be stable.  Even m = 2l: r = l, and only when
    sign = (-1)^(l-1).  Odd m = 2l - 1: r = l when sign = (-1)^l, else r = l - 1.
    """
    if m % 2 == 0:
        half = m // 2
        return half if sign == (-1) ** (half - 1) else None
    half = (m + 1) // 2
    return half if sign == (-1) ** half else half - 1


def check_windows(m: int, nu_c: Mapping[tuple[int, int], float]) -> list[str]:
    """nu_c[(sign, r)] for every first-order window of derivative order m.

    Every window stays at or below the ceiling 1/2^(m-1); the window the
    parity rule names reaches it, and every other window has no stable range.
    """
    problems = []
    ceiling = 0.5 ** (m - 1)
    for sign in (+1, -1):
        rule = stable_window(m, sign)
        for r in range(m + 1):
            v = nu_c[(sign, r)]
            if not v <= ceiling + NU_C_TOL:
                problems.append(f"m={m} sign={sign:+d} r={r}: nu_c {v} above 1/2^(m-1)")
            if r == rule and not abs(v - ceiling) <= NU_C_TOL:
                problems.append(f"m={m} sign={sign:+d} r={r}: stable window at {v}, want {ceiling}")
            if r != rule and not v <= STABLE_THRESHOLD:
                problems.append(f"m={m} sign={sign:+d} r={r}: stable at {v}, parity rule says not")
    return problems


def check_nu_c(value: float, expected: Fraction | float) -> list[str]:
    if not abs(value - float(expected)) <= NU_C_TOL:
        return [f"nu_c {value} differs from {float(expected)} by more than {NU_C_TOL:g}"]
    return []


def max_growth_excess(
    offsets: Sequence[int], coeffs: Mapping[int, Sequence[Fraction]], nu: float
) -> float:
    """max over a dense theta grid of |g(theta; nu)|^2 - 1."""
    ks = np.asarray(offsets, float)
    ws = np.array([_horner(coeffs[k], nu) for k in offsets])
    theta = np.linspace(0.0, 2.0 * math.pi, THETA_SAMPLES, endpoint=False)
    g = np.exp(1j * np.multiply.outer(theta, ks)) @ ws
    return float(np.max(g.real**2 + g.imag**2)) - 1.0


def check_nu_c_bracket(
    offsets: Sequence[int],
    coeffs: Mapping[int, Sequence[Fraction]],
    sign: int,
    value: float,
    width: float,
) -> list[str]:
    """Own growth scan: stable at |nu| = value, unstable at value + width
    (twice the tolerance the search was run with)."""
    problems = []
    at = max_growth_excess(offsets, coeffs, sign * value)
    if not at <= GROWTH_SLACK:
        problems.append(f"|g|^2 - 1 = {at:.3e} at the reported nu_c {value}")
    above = max_growth_excess(offsets, coeffs, sign * (value + width))
    if not above > GROWTH_SLACK:
        problems.append(f"still stable ({above:.3e}) at nu_c + {width:g}")
    return problems


def _horner(poly: Sequence[Fraction], x: float) -> float:
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + float(c)
    return acc
