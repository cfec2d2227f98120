"""Generation of explicit one-step marching schemes with exact coefficients.

For the linear constant-coefficient problem du/dt = a * d^m u / dx^m, an
explicit update of temporal order n combines exactly N = n*m + 1 grid values:

    u_j(t + dt) = sum_i c_i(nu) * u_{j+k_i}(t),      nu = dt * a / dx^m.

The weight on offset k_i is a degree-n polynomial in the Courant number nu,

    c_i(nu) = sum_{j=0..n} nu^j / j! * L_i^{(j*m)}(0),

where L_i is the Lagrange cardinal polynomial of the stencil.  Everything
here is exact: a scheme's layer table holds each nu^j layer as integers over
its least common denominator, and the Fraction and float rows are views of
those integers.  Floating point only appears when a caller evaluates weights
at a float Courant number.

The size rules live here too, so they hold wherever a scheme is built,
the command line included: `check_orders` refuses a scheme over
`MAX_SCHEME_POINTS` stencil points before any window is built,
`check_table_size` a table whose integers would be too large to audit and
print in time, and `parse_scheme_dump` a text over `MAX_DUMP_CHARS`.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .exact import (
    ConfigurationError,
    OffsetSet,
    RatPoly,
    Rational,
    lagrange_basis,
    lagrange_numerators,
)


class StencilSizeError(ConfigurationError):
    """The offset count does not match the order: need exactly n*m + 1 points."""


class UnsupportedSchemeError(ConfigurationError):
    """The requested transformation is not defined for this scheme."""


def check_orders(m: int, n: int) -> None:
    """Refuse a derivative order m or a marching order n below 1, or a
    scheme of them over `MAX_SCHEME_POINTS`: the one rule on the orders,
    checked before any window of them is built."""
    if m < 1:
        raise StencilSizeError(f"derivative order m must be >= 1, got {m}")
    if n < 1:
        raise StencilSizeError(f"marching order n must be >= 1, got {n}")
    check_scheme_points(m, n)


# A scheme is refused above this many stencil points, N = n*m + 1, before
# anything is built: the exact build and its order audit grow about as N^3
# (N = 140: `coeffs --m 1 --n 139` takes 0.6-0.7 s on 2 shared CPUs, its
# audit 0.15 s of it).  The largest scheme the tests and acceptance criteria
# build, fig-advection's order 29 (N = 30), stays 140^3 / 30^3 = 102x below
# it.
MAX_SCHEME_POINTS = 140


def check_scheme_points(m: int, n: int) -> None:
    """Refuse a scheme of orders m and n on over `MAX_SCHEME_POINTS` points.
    Orders below 1 count no points: `check_orders`, or a ladder's rule,
    names them."""
    points = n * m + 1
    if m >= 1 and n >= 1 and points > MAX_SCHEME_POINTS:
        raise StencilSizeError(
            f"an order n={n} scheme for m={m} has n*m+1 = {points} stencil points, "
            f"over the limit of {MAX_SCHEME_POINTS}"
        )


# An exact table on N points is refused when N^3 * size^2 exceeds this, where
# size = (bits of its largest integer) + N * (bits of its largest |offset|)
# bounds the build's integers, and the order audit's slots are about size
# bits wide (each of its N moments multiplies a packed integer of n+1 slots
# by k^2 for each pair of offsets +-k and by k for each other offset: N^2
# products in all on a one-sided stencil, about N^2/2 on a centred one).
# On 2 shared CPUs, `fdmarch coeffs` (build, audit, print) on the widest
# far-from-zero and random wide stencils admitted at N = 30, 60, 100 and
# 140 took 0.3-1.4 s, their audits 0.04-0.67 s; the audit alone took
# 0.17-2.9 s in the triple loop of products k^p * W that the packed audit
# replaced.  The costliest contiguous window up to 140 points (m = 139,
# offsets 0..139) uses 3.4e13.
MAX_TABLE_WORK = 4 * 10**13


def check_table_size(offsets: OffsetSet, bits: int = 0) -> int:
    """Refuse an exact table on `offsets` whose integers reach `bits` bits by
    the MAX_TABLE_WORK rule, N^3 * size^2 with size = bits + N * (bits of
    the widest offset), about the width of the order audit's slots, or
    whose size is over what `str` prints of an int
    (`sys.get_int_max_str_digits`).  With bits = 0 the rule reads the
    offsets alone, before anything is built from them.  Returns the most
    bits the table's integers may have."""
    points = len(offsets)
    reach_bits = points * max(-offsets[0], offsets[-1]).bit_length()
    limit = math.isqrt(MAX_TABLE_WORK // points**3)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:  # 2**b < 10**digits for b <= digits * log2(10), rounded down
        limit = min(limit, digits * 3321928 // 10**6)
    if bits + reach_bits > limit:
        raise ConfigurationError(
            f"an exact scheme on {points} points needs integers of over {limit} bits, "
            f"the limit for {points} points"
        )
    return limit - reach_bits


# A scheme dump is refused over this many characters, before it is split.
# The longest dump `format_scheme_dump` prints of a table the rules above
# admit is 35 579 356 characters: N = 126 (m = 1, offsets -63..62), whose
# integers may reach 3 715 bits, so 126 x 126 weights of up to 2 240
# characters; rounded up here.  On 2 shared CPUs the slowest text of this
# length to refuse, 4 M short keys of unknown fields, took 5.7-6.4 s.
MAX_DUMP_CHARS = 36 * 10**6


@dataclass(frozen=True)
class SchemeSpec:
    """Problem signature: spatial derivative order m, temporal order n, stencil."""

    m: int
    n: int
    offsets: OffsetSet

    def __post_init__(self):
        check_orders(self.m, self.n)
        offs = OffsetSet(self.offsets)
        object.__setattr__(self, "offsets", offs)
        need = self.n * self.m + 1
        if len(offs) != need:
            raise StencilSizeError(
                f"an order n={self.n} scheme for derivative order m={self.m} "
                f"needs exactly n*m+1 = {need} stencil points, got {len(offs)}"
            )

    @property
    def points(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class LayerTable:
    """Stencil weights split by power of nu, held as integers: row j is
    (D_j, W_j), and W_j[i] / D_j multiplies nu**j at offsets[i].

    D_j > 0 is the row's least common denominator, so gcd(D_j, *W_j) = 1:
    the table is canonical, and `==` compares the exact weights.  `rows`
    (one Fraction per weight) and `float_rows` are views derived from the
    integers.  Every float weight the package uses is read from
    `float_rows`, by row for the layered march, whose stencils the solver
    builds from these rows on each run, and by a Horner over the rows at a
    float nu (`Scheme.float_weights`).
    """

    offsets: OffsetSet
    int_rows: tuple[tuple[int, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.int_rows)

    @functools.cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """rows[j][i] = W_j[i] / D_j, the exact weights as Fractions."""
        return tuple(tuple(Fraction(w, den) for w in ints) for den, ints in self.int_rows)

    @functools.cached_property
    def float_rows(self) -> np.ndarray:
        """The rows as one (rows, N) float64 array, each W_j[i] / D_j by int/int
        true division, which rounds correctly, computed once per table;
        read-only, since every caller of this table shares it."""
        rows = np.array([[w / den for w in ints] for den, ints in self.int_rows], dtype=float)
        rows.flags.writeable = False
        return rows


@dataclass(frozen=True)
class Scheme:
    """A generated update rule, held as its layer table alone.

    Row j of `layers` is the nu^j layer of c_i(nu) = sum_j nu^j/j! * L_i^(jm)(0),
    so column i holds the exact weight polynomial of offset k_i; `coeffs` is
    that column view, derived from the table and never stored beside it, and
    `float_weights` reads the table's float rows.
    """

    spec: SchemeSpec
    layers: LayerTable

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def offsets(self) -> OffsetSet:
        return self.spec.offsets

    @functools.cached_property
    def coeffs(self) -> dict[int, RatPoly]:
        """Per offset, in ascending order, its exact weight polynomial in nu:
        the table's column at that offset, trailing zeros stripped."""
        return {k: RatPoly(column) for k, column in zip(self.offsets, zip(*self.layers.rows))}

    def coefficient(self, offset: int) -> RatPoly:
        return self.coeffs[offset]

    def weights_at(self, nu) -> dict[int, object]:
        """Every offset's weight at nu: exact when nu is int/Fraction, else the
        floats of `float_weights`."""
        if isinstance(nu, (int, Fraction)):
            nu = Fraction(nu)
            return {k: poly(nu) for k, poly in self.coeffs.items()}
        return dict(zip(self.offsets, self.float_weights(nu).tolist()))

    def float_weights(self, nu) -> np.ndarray:
        """The (N,) weights at nu as floats, in ascending offset order.

        At an int or Fraction nu these are the exact weights, each rounded
        once.  At a float nu they are a Horner over the layer table's float
        rows that starts from nu * 0.0 and runs over every row, as
        `RatPoly.__call__` does on a column, so a weight is bitwise that
        Horner's, except that a column which is identically zero reads +0.0
        where that Horner gives nu * 0, -0.0 at a negative nu.  Overflow to
        inf, and the nan of inf - inf or of an infinite nu, pass without a
        warning, as they do in Python floats.

        A 1-D float array of K values of nu gives the (K, N) weights, row k
        by the same Horner at nu[k], so bitwise the weights at that nu alone:
        nu runs as a (K, 1) column, and each (N,) row of the table broadcasts
        against it.
        """
        if isinstance(nu, (int, Fraction)):
            return np.array(list(self.weights_at(nu).values()), dtype=float)
        nu = np.asarray(nu, dtype=float)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            acc = nu * 0.0
            for row in self.layers.float_rows[::-1]:
                acc = acc * nu + row
        return acc

    def truncated(self, max_power: int) -> "Scheme":
        """Variant keeping only the nu-layers j <= max_power.

        Dropping layers breaks the order conditions, so the result is a
        lower-accuracy scheme on the same stencil (useful for studying how the
        higher layers affect stability).
        """
        if not 0 <= max_power <= self.n:
            raise UnsupportedSchemeError(
                f"truncation power must lie in [0, n={self.n}], got {max_power}"
            )
        return Scheme(self.spec, LayerTable(self.offsets, self.layers.int_rows[: max_power + 1]))


def _audited(spec: SchemeSpec, table: LayerTable) -> Scheme:
    _check_order_conditions(spec, table)
    return Scheme(spec, table)


def _evolution_moment(p: int, m: int) -> int:
    """p!/(p/m)! when m divides p, else 0: the exact evolution's moment,
    sum_i k_i^p c_i(nu) = p!/(p/m)! * nu^(p/m), that a scheme must match for
    p < N = n*m + 1.  The order audit checks it there, and `error_term`
    subtracts it from p = N up."""
    return 0 if p % m else math.factorial(p) // math.factorial(p // m)


def _check_order_conditions(spec: SchemeSpec, table: LayerTable) -> None:
    """Every stencil moment must reproduce the matched Taylor data exactly.

    For p = 0 .. n*m the weighted power sum sum_i k_i^p c_i(nu) has to equal
    p!/(p/m)! * nu^(p/m) when m divides p, and zero otherwise.  This holds by
    construction; a failure means the generator itself is broken.

    The check reads the table's integers: with layer j (the nu^j weights)
    held as W_j over D_j, the moment M_pj = sum_i k_i^p * W_ji must equal
    E_pj = D_j * p!/j! when p = j*m and 0 otherwise.  All layers of a moment
    are checked at once, with one packed integer per stencil point,
    X_i = sum_j W_ji * 2^(B*j): then sum_i k_i^p * X_i = sum_j M_pj * 2^(B*j),
    and one `==` with sum_j E_pj * 2^(B*j) checks the moment's every layer.
    The slot width B is at least one bit more than |M_pj - E_pj| can need,
    bounded by N * max|k|^(N-1) * max|W| + max_j D_j * (j*m)!/j! from the
    table's own integers, rounded up to whole bytes, so each difference fits
    its slot with its sign: the packed sums are equal exactly when every
    layer's are, and when they differ, the lowest failing layer is the
    difference's trailing zero bits // B.  Each X_i is built in one pass:
    its weights, biased by 2^(B-1) into [0, 2^B), are joined as B/8-byte
    slots and read as one integer, less the packed bias shared by every
    point.

    Each offset k > 0 whose -k is on the stencil is paired with it, since
    k^p * X_k + (-k)^p * X_-k = k^p * (X_k +- X_-k): the even moments sum
    k^p * (X_k + X_-k) and the odd ones k^p * (X_k - X_-k), each pair list
    advanced by k^2 on the moments of its parity, plus k^p * X_k over the
    unpaired offsets, 0 among them (X_0 counts at p = 0 alone).  The packed
    sum at each p is the same integer, from about half as many products.
    Low moments go first, so a corrupted weight fails fast, and a failure
    names the lowest moment p and, within it, the lowest layer.
    """
    m, ks = spec.m, spec.offsets
    targets = [den * _evolution_moment(j * m, m) for j, (den, _) in enumerate(table.int_rows)]
    widest = max(max(max(ints), -min(ints)) for _, ints in table.int_rows)
    reach = max(map(abs, ks)) ** (len(ks) - 1)
    bits = (len(ks) * reach * widest + max(targets)).bit_length() + 1
    size = -(-bits // 8)  # bytes a slot
    width = 8 * size
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * len(table), "little")
    packed = {
        k: int.from_bytes(b"".join([(w + half).to_bytes(size, "little") for w in col]), "little")
        - bias
        for k, col in zip(ks, zip(*(ints for _, ints in table.int_rows)))
    }
    paired = [k for k in ks if k > 0 and -k in packed]
    lone = [k for k in ks if abs(k) not in paired]
    squares = [k * k for k in paired]
    # by parity, k^p * (X_k + (-1)^p * X_-k) at the latest p of that parity
    sides = [
        [packed[k] + packed[-k] for k in paired],
        [k * (packed[k] - packed[-k]) for k in paired],
    ]
    singles = [packed[k] for k in lone]  # k^p * X_k
    for p in range(len(ks)):  # p = 0 .. n*m
        parity = p % 2
        if p > 1:
            sides[parity] = list(map(operator.mul, sides[parity], squares))
        if p:
            singles = list(map(operator.mul, singles, lone))
        j, rest = divmod(p, m)
        expected = targets[j] << (width * j) if not rest and j < len(targets) else 0
        miss = sum(sides[parity], sum(singles)) - expected
        if miss:
            layer = ((miss & -miss).bit_length() - 1) // width
            raise ArithmeticError(
                f"order condition failed at moment p={p}, layer {layer} for {spec}"
            )


def master_scheme(spec: SchemeSpec) -> Scheme:
    """Generate the unique order-n scheme on a minimal (n*m+1 point) stencil.

    Layer j holds the j*m-th derivatives at zero of the Lagrange basis,
    divided by j!: with L_i = numer_i / w_i in integers, the weight on offset
    i is (j*m)!/j! * numer_i[j*m] / w_i.  Over den = lcm(w_i) that is the
    integer (j*m)!/j! * numer_i[j*m] * (den / w_i), and each row is divided
    by its gcd with den.  `check_table_size` reads the offsets before the
    numerators are built, and a bound on the table's integers as lcm(w_i)
    grows, before any row is built.  The order conditions are re-checked
    exactly before the scheme is returned.
    """
    m = spec.m
    check_table_size(spec.offsets)
    numerators = lagrange_numerators(spec.offsets)
    # a bound on the table's integers: den times the largest numerator and scale
    bits = max(max(map(abs, numer)) for numer, _ in numerators).bit_length()
    bits += (math.factorial(spec.n * m) // math.factorial(spec.n)).bit_length()
    den = 1
    for _, w in numerators:  # checked as it grows, so a refused lcm stops early
        den = math.lcm(den, w)
        check_table_size(spec.offsets, bits + den.bit_length())
    cofactors = [den // w for _, w in numerators]
    int_rows = []
    for j in range(spec.n + 1):
        scale = math.factorial(j * m) // math.factorial(j)
        ints = [scale * numer[j * m] * c for (numer, _), c in zip(numerators, cofactors)]
        g = math.gcd(den, *ints)
        int_rows.append((den // g, tuple(w // g for w in ints)))
    return _audited(spec, LayerTable(spec.offsets, tuple(int_rows)))


def first_order_scheme(m: int, r: int) -> Scheme:
    """Closed-form n=1 scheme on the contiguous window {-r, ..., m-r}.

    The nu-layer weights are alternating binomial coefficients:
    the weight on offset k is (-1)^m * (-1)^(r+k) * C(m, r+k), plus the
    identity contribution at k=0.
    """
    check_orders(m, 1)
    spec = SchemeSpec(m, 1, OffsetSet.contiguous(r, m))
    sign_m = (-1) ** m
    row0 = tuple(1 if k == 0 else 0 for k in spec.offsets)
    row1 = tuple(sign_m * (-1) ** (r + k) * math.comb(m, r + k) for k in spec.offsets)
    return _audited(spec, LayerTable(spec.offsets, ((1, row0), (1, row1))))


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent series sum_p coeffs[p] * x**(shift+p); coefficients live in nu."""

    shift: int
    coeffs: tuple[RatPoly, ...]

    def coefficient(self, power: int) -> RatPoly:
        idx = power - self.shift
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        return RatPoly.zero()

    @property
    def powers(self) -> range:
        return range(self.shift, self.shift + len(self.coeffs))


def generation_function(scheme: Scheme) -> LaurentPoly:
    """Symbol sum_k c_k(nu) x^k of a first-order scheme on a contiguous stencil.

    Verifies symbolically that the whole series factors as
    1 + nu * x^(-r) * (x - 1)^m before returning it; any mismatch is an
    internal error.  Schemes with n > 1 or gappy stencils are rejected.
    """
    spec = scheme.spec
    if spec.n != 1:
        raise UnsupportedSchemeError(
            "the product form of the symbol exists only for first-order (n=1) schemes"
        )
    if not spec.offsets.is_contiguous():
        raise UnsupportedSchemeError("the product form needs a contiguous stencil")
    # both tables are canonical, so `==` compares the exact weights with the
    # binomials of (x - 1)^m that `first_order_scheme` lays out
    if scheme.layers != first_order_scheme(spec.m, -spec.offsets[0]).layers:
        raise ArithmeticError("generation-function identity failed")
    return LaurentPoly(
        shift=spec.offsets[0],
        coeffs=tuple(scheme.coeffs[k] for k in spec.offsets),
    )


def advection_coefficients(n: int, offsets: Iterable[int], nu) -> tuple[Rational, ...]:
    """Weights for m=1 by direct interpolation: the Lagrange basis evaluated at nu.

    For the first derivative the full scheme collapses to polynomial
    interpolation of the shifted profile, so c_i(nu) = L_i(nu) exactly.
    """
    ks = OffsetSet(offsets)
    if len(ks) != n + 1:
        raise StencilSizeError(
            f"order n={n} advection needs n+1 = {n + 1} points, got {len(ks)}"
        )
    nu = Fraction(nu)
    return tuple(p(nu) for p in lagrange_basis(ks))


@dataclass(frozen=True)
class ErrorTerm:
    """One-step defect of a generated scheme against the exact evolution.

    Expanding both in Taylor series, the scheme minus the exact evolution
    is sum_p dx^p * D_p(nu) * u^(p), where

        D_p(nu) = sum_i c_i(nu) * k_i^p / p!  -  [m | p] * nu^(p/m) / (p/m)!

    is the p-th moment defect.  The order conditions make D_p = 0 for p < N,
    N = n*m + 1.  `defects` holds the nonzero (p, D_p) for
    p = N .. max(N + 1, m(n + 1)) in ascending p, each exact: D_p at every
    power it lists, through the power where the exact evolution's first
    unmatched term, -nu^(n+1)/(n+1)!, enters.
    """

    spec: SchemeSpec
    defects: tuple[tuple[int, RatPoly], ...]

    def terms(self) -> tuple[tuple[int, RatPoly], ...]:
        """(dx power p, D_p) for the nonzero dx^p u^(p) terms, in ascending p."""
        return self.defects

    def leading(self) -> tuple[int, RatPoly]:
        """Lowest surviving (dx power, coefficient); the derivative order equals the power."""
        return self.defects[0]


def error_term(scheme: Scheme) -> ErrorTerm:
    """Exact moment defects of a minimal-stencil scheme, read from its table.

    With layer j held as W_j over D_j, the moment M_pj = sum_i k_i^p * W_ji,
    the sum the order audit checks for p < N, gives
    D_p(nu) = sum_j nu^j * M_pj / (D_j * p!), less nu^(p/m)/(p/m)! when m
    divides p (`_evolution_moment` over p!; then p/m > n, past the table's
    layers).  Only p = N .. max(N + 1, m(n + 1)) is formed, layer by layer,
    one Fraction per coefficient.  A truncated table fails the order
    conditions below N, so the defect would start there: it is refused.
    """
    spec, table = scheme.spec, scheme.layers
    m, n, big_n = spec.m, spec.n, spec.points
    if len(table) != n + 1:
        raise UnsupportedSchemeError("the error term needs all n + 1 layers of the table")
    powers = [k**big_n for k in spec.offsets]  # k_i^p
    defects = []
    for p in range(big_n, max(big_n + 1, m * (n + 1)) + 1):
        scale = math.factorial(p)
        coeffs = [
            Fraction(sum(map(operator.mul, powers, ints)), den * scale)
            for den, ints in table.int_rows
        ]
        exact = _evolution_moment(p, m)
        if exact:  # p/m > n: past the table's layers
            coeffs += [0] * (p // m - n - 1) + [Fraction(-exact, scale)]
        if any(coeffs):
            defects.append((p, RatPoly(coeffs)))
        powers = list(map(operator.mul, powers, spec.offsets))
    return ErrorTerm(spec, tuple(defects))


def nonlinear_layers(n: int, offsets: Iterable[int]) -> LayerTable:
    """Layered weights for conserved-density updates of u_t = f(u) u_x.

    Row j of the table is applied to the j-th conserved density with scale
    nu**j, nu = dt/dx.  The rows are exactly the nu-layers of the linear m=1
    scheme on the same stencil, so feeding the identity density into every row
    reproduces linear advection.
    """
    return master_scheme(SchemeSpec(1, n, OffsetSet(offsets))).layers


def preferred_sign(m: int) -> int:
    """Conventional sign of the coefficient a_m used for defaults.

    For even m this is the sign that admits a stable centered first-order
    scheme; for odd m it is the sign that makes plane waves travel rightward.
    """
    if m % 2 == 0:
        return (-1) ** (m // 2 - 1)
    return -((-1) ** ((m - 1) // 2))


def default_offsets(
    m: int, n: int, a_sign: float = 0, offsets: Optional[Iterable[int]] = None
) -> OffsetSet:
    """The given `offsets`, or the stencil window used when the caller does
    not pick one.

    Given offsets come back as an OffsetSet, unchecked against m and n:
    `SchemeSpec` refuses a mismatch when the scheme is built.  Otherwise the
    orders are checked first (`check_orders`).  Even-span windows are
    centered.  Odd spans (odd m and odd n) get the extra point on the upwind
    side of the wave direction implied by sign(a_m).  `a_sign` is the
    coefficient a_m itself or just its sign; 0 selects the conventional sign
    for this m.  This is the one place a coefficient's sign picks a window.
    """
    if offsets is not None:
        return OffsetSet(offsets)
    check_orders(m, n)
    if a_sign == 0:
        a_sign = preferred_sign(m)
    a_sign = 1 if a_sign > 0 else -1
    span = n * m
    if span % 2 == 0:
        r = span // 2
    else:
        rightward = a_sign * (-1) ** ((m - 1) // 2) < 0
        r = (span + 1) // 2 if rightward else (span - 1) // 2
    return OffsetSet.contiguous(r, span)


# -- plain-text dump format -------------------------------------------------

def format_scheme_dump(scheme: Scheme) -> str:
    """Lossless key=value dump with exact rational coefficients.

    Lines: m=, n=, offsets= (comma separated), then one c[k]= line per offset
    listing the nu-polynomial coefficients c_0,...,c_n of that weight.
    """
    spec = scheme.spec
    lines = [
        f"m={spec.m}",
        f"n={spec.n}",
        "offsets=" + ",".join(str(k) for k in spec.offsets),
    ]
    for k in spec.offsets:
        poly = scheme.coeffs[k]
        vals = ",".join(str(poly.coefficient(j)) for j in range(spec.n + 1))
        lines.append(f"c[{k}]={vals}")
    return "\n".join(lines) + "\n"


# A dump has at most this many fields: m, n, offsets and one line per point.
MAX_DUMP_FIELDS = MAX_SCHEME_POINTS + 3
# `_dump_fields` splits a text about this many characters at a time.
DUMP_BLOCK_CHARS = 1 << 20


def _dump_fields(text: str) -> dict[str, str]:
    """The key=value fields of a scheme dump, skipping blank and '#' lines.

    The lines are those of `text.splitlines()`, walked lazily: the text is
    split one block of about `DUMP_BLOCK_CHARS` characters at a time, each
    block ending at a newline, so a text of many short lines is never held
    as one list.  The one two-character line break, CR LF, ends at its
    newline, so no break falls across two blocks.  The walk stops at the
    first field past `MAX_DUMP_FIELDS`; `parse_scheme_dump` refuses such a
    text once it has read the header.
    """
    fields: dict[str, str] = {}
    start = 0
    while start < len(text):
        end = text.find("\n", start + DUMP_BLOCK_CHARS)
        end = len(text) if end < 0 else end + 1
        for raw in text[start:end].splitlines():
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed scheme dump line: {raw!r}")
            key = key.strip()
            if key in fields:
                raise ValueError(f"scheme dump repeats the {key!r} field")
            fields[key] = value.strip()
            if len(fields) > MAX_DUMP_FIELDS:
                return fields
        start = end
    return fields


# a weight as `format_scheme_dump` writes it: an integer, over a positive
# one unless whole, in ASCII digits
_WEIGHT_PAIR = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?", re.ASCII)


def _weight_pair(text: str, key: str) -> tuple[int, int]:
    """(numerator, denominator > 0) of one weight of the dump line `key` in
    lowest terms, the Fraction that `Fraction(text)` reads: the form a dump
    writes is split into two ints and reduced by their gcd, a text with an
    exponent is refused with a ValueError that names `key`, and any other
    text is read by `Fraction(text)` itself, which raises what it raises.  A
    zero denominator raises ZeroDivisionError either way."""
    pair = _WEIGHT_PAIR.fullmatch(text)
    if pair is None:
        # a dump writes no exponent, and Fraction expands one such as
        # 1e10000000 into all of its digits
        if "e" in text.lower():
            raise ValueError(f"{key} has a weight written with an exponent")
        weight = Fraction(text)
        return weight.numerator, weight.denominator
    num, den = int(pair[1]), int(pair[2] or 1)
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    return num // g, den // g


def parse_scheme_dump(text: str) -> Scheme:
    """Rebuild a scheme from `format_scheme_dump` output and re-verify it.

    A text over `MAX_DUMP_CHARS` is refused before it is split, a scheme
    over `MAX_SCHEME_POINTS` (by `SchemeSpec`) before any weight is parsed,
    and a text of over `MAX_DUMP_FIELDS` fields once its header is read.
    Each weight is read by `_weight_pair` as two ints, or refused by it, and
    each row of the table is cleared from those pairs to its least common
    denominator.
    """
    if len(text) > MAX_DUMP_CHARS:
        raise ConfigurationError(f"a scheme dump is over the limit of {MAX_DUMP_CHARS} characters")
    fields = _dump_fields(text)
    try:
        m, n = int(fields["m"]), int(fields["n"])
        offsets = OffsetSet(int(k) for k in fields["offsets"].split(","))
    except KeyError as exc:
        raise ValueError(f"scheme dump is missing the {exc.args[0]!r} field") from exc
    spec = SchemeSpec(m, n, offsets)
    if len(fields) > MAX_DUMP_FIELDS:
        raise ValueError(f"scheme dump has over {MAX_DUMP_FIELDS} fields")
    unknown = fields.keys() - {"m", "n", "offsets"} - {f"c[{k}]" for k in offsets}
    if unknown:
        raise ValueError(f"scheme dump has unknown fields: {', '.join(sorted(unknown))}")
    columns = []  # per offset, its n + 1 weights as (numerator, denominator)
    for k in offsets:
        key = f"c[{k}]"
        if key not in fields:
            raise ValueError(f"scheme dump is missing the {key} line")
        parts = fields[key].split(",")
        if len(parts) != n + 1:
            raise ValueError(f"{key} must list exactly n+1 = {n + 1} values")
        try:
            columns.append([_weight_pair(part, key) for part in parts])
        except ZeroDivisionError as exc:
            raise ValueError(f"{key} has a weight with a zero denominator") from exc
    # each row cleared to its least common denominator, held to
    # `check_table_size` as it grows, so a row of large coprime denominators
    # is refused early
    max_bits = check_table_size(offsets)
    int_rows = []
    for row in zip(*columns):
        den = 1
        for _, d in row:
            den = math.lcm(den, d)
            if den.bit_length() > max_bits:
                check_table_size(offsets, den.bit_length())
        int_rows.append((den, tuple(num * (den // d) for num, d in row)))
    table = LayerTable(offsets, tuple(int_rows))
    check_table_size(
        offsets, max(abs(w).bit_length() for den, ints in table.int_rows for w in (den, *ints))
    )
    # verification guards against hand-edited or corrupted dumps
    try:
        return _audited(spec, table)
    except ArithmeticError as exc:
        raise ValueError(f"scheme dump is inconsistent: {exc}") from exc
