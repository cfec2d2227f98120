"""Generation of explicit one-step marching schemes with exact coefficients.

For the linear constant-coefficient problem du/dt = a * d^m u / dx^m, an
explicit update of temporal order n combines exactly N = n*m + 1 grid values:

    u_j(t + dt) = sum_i c_i(nu) * u_{j+k_i}(t),      nu = dt * a / dx^m.

The weight on offset k_i is a degree-n polynomial in the Courant number nu,

    c_i(nu) = sum_{j=0..n} nu^j / j! * L_i^{(j*m)}(0),

where L_i is the Lagrange cardinal polynomial of the stencil.  Everything
here is exact rational arithmetic; floating point only appears when a caller
evaluates weights at a float Courant number.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exact import (
    ConfigurationError,
    OffsetSet,
    RatPoly,
    Rational,
    aux_polynomials,
    lagrange_basis,
    lagrange_numerators,
)


class StencilSizeError(ConfigurationError):
    """The offset count does not match the order: need exactly n*m + 1 points."""


class UnsupportedSchemeError(ConfigurationError):
    """The requested transformation is not defined for this scheme."""


def check_orders(m: int, n: int) -> None:
    """Refuse a derivative order m or a marching order n below 1: the one
    rule on the orders, checked before any window of them is built."""
    if m < 1:
        raise StencilSizeError(f"derivative order m must be >= 1, got {m}")
    if n < 1:
        raise StencilSizeError(f"marching order n must be >= 1, got {n}")


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
    """Stencil weights split by power of nu: rows[j][i] multiplies nu**j at offsets[i].

    `float_rows` is the table in float64, each weight rounded once; every
    float weight the package uses is read from it, by row for the layered
    march, whose stencils the solver builds from these rows on each run, and
    by a Horner over the rows at a float nu (`Scheme.float_weights`).
    """

    offsets: OffsetSet
    rows: tuple[tuple[Rational, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, j: int) -> tuple[Rational, ...]:
        return self.rows[j]

    def __iter__(self) -> Iterator[tuple[Rational, ...]]:
        return iter(self.rows)

    @property
    def reach(self) -> int:
        return max(abs(self.offsets[0]), abs(self.offsets[-1]))

    @functools.cached_property
    def float_rows(self) -> np.ndarray:
        """The rows as one (rows, N) float64 array, converted once per table;
        read-only, since every caller of this table shares it."""
        rows = np.array(self.rows, dtype=float)
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
        by the same Horner at nu[k], so bitwise the weights at that nu alone.
        """
        if isinstance(nu, (int, Fraction)):
            return np.array(list(self.weights_at(nu).values()), dtype=float)
        rows = self.layers.float_rows
        # a float nu runs as a batch of one; a batch runs flat, nu[k]
        # repeated over its N weights and each row repeated K times, so every
        # step of the Horner is elementwise on arrays of one shape
        nus = np.asarray(nu, dtype=float)
        shape = nus.shape + rows.shape[1:]
        nu = nus.ravel().repeat(rows.shape[1])
        rows = rows.repeat(nus.size, axis=0).reshape(len(rows), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            acc = nu * 0.0
            for row in rows[::-1]:
                acc *= nu
                acc += row
        return acc.reshape(shape)

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
        return _scheme_from_rows(self.spec, self.layers.rows[: max_power + 1], verify=False)


def _scheme_from_rows(
    spec: SchemeSpec, rows: Sequence[Sequence[Rational]], verify: bool = True
) -> Scheme:
    rows = tuple(
        tuple(w if type(w) is Fraction else Fraction(w) for w in row) for row in rows
    )
    scheme = Scheme(spec, LayerTable(spec.offsets, rows))
    if verify:
        _check_order_conditions(scheme)
    return scheme


def _check_order_conditions(scheme: Scheme) -> None:
    """Every stencil moment must reproduce the matched Taylor data exactly.

    For p = 0 .. n*m the weighted power sum sum_i k_i^p c_i(nu) has to equal
    p!/(p/m)! * nu^(p/m) when m divides p, and zero otherwise.  This holds by
    construction; a failure means the generator itself is broken.

    The check runs on the layers the scheme carries, in integers: layer j
    (the nu^j coefficients) is cleared to its common denominator D_j, and
    sum_i k_i^p * D_j * c_ji must equal D_j * p!/j! when p = j*m and 0
    otherwise.  Low moments go first, so a corrupted weight fails fast.
    """
    m, ks = scheme.m, scheme.offsets
    layers = []
    for row in scheme.layers.rows:
        den = math.lcm(*(w.denominator for w in row))
        layers.append((den, [w.numerator * (den // w.denominator) for w in row]))
    kp = [1] * len(ks)
    for p in range(len(ks)):  # p = 0 .. n*m
        if p:
            kp = list(map(operator.mul, kp, ks))
        for j, (den, ints) in enumerate(layers):
            expected = den * math.factorial(p) // math.factorial(j) if p == j * m else 0
            if sum(map(operator.mul, kp, ints)) != expected:
                raise ArithmeticError(
                    f"order condition failed at moment p={p}, layer {j} for {scheme.spec}"
                )


def master_scheme(spec: SchemeSpec) -> Scheme:
    """Generate the unique order-n scheme on a minimal (n*m+1 point) stencil.

    Layer j holds the j*m-th derivatives at zero of the Lagrange basis,
    divided by j!: with L_i = numer_i / w_i in integers, the weight on offset
    i is (j*m)!/j! * numer_i[j*m] / w_i, one Fraction per weight.  The order
    conditions are re-checked exactly before the scheme is returned.
    """
    m = spec.m
    numerators = lagrange_numerators(spec.offsets)
    rows = []
    for j in range(spec.n + 1):
        scale = math.factorial(j * m) // math.factorial(j)
        rows.append(tuple(Fraction(scale * numer[j * m], w) for numer, w in numerators))
    return _scheme_from_rows(spec, rows)


def first_order_scheme(m: int, r: int) -> Scheme:
    """Closed-form n=1 scheme on the contiguous window {-r, ..., m-r}.

    The nu-layer weights are alternating binomial coefficients:
    the weight on offset k is (-1)^m * (-1)^(r+k) * C(m, r+k), plus the
    identity contribution at k=0.
    """
    check_orders(m, 1)
    spec = SchemeSpec(m, 1, OffsetSet.contiguous(r, m))
    sign_m = (-1) ** m
    row0 = tuple(Fraction(1 if k == 0 else 0) for k in spec.offsets)
    row1 = tuple(
        Fraction(sign_m * (-1) ** (r + k) * math.comb(m, r + k)) for k in spec.offsets
    )
    return _scheme_from_rows(spec, (row0, row1))


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
    m = spec.m
    r = -spec.offsets[0]
    for k in spec.offsets:
        # coefficient of x^(r+k) in (x-1)^m, shifted by x^-r
        binom = Fraction((-1) ** (m - r - k) * math.comb(m, r + k))
        expected = RatPoly((1 if k == 0 else 0, binom))
        if scheme.coeffs[k] != expected:
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

    With N = n*m + 1 stencil points the defect is

        dx^N     * A(nu) * u^(N)     / N!
      + dx^(N+1) * B(nu) * u^(N+1)   / (N+1)!
      - nu^(n+1) * dx^(m(n+1)) * u^(m(n+1)) / (n+1)!   (temporal remainder)

    where A collects the beyond-range interpolation defects of x^N and B those
    of x^(N+1).  In every term the dx power equals the derivative order, so
    terms at the same dx power merge; `terms()` returns the merged list.
    """

    spec: SchemeSpec
    spatial_main: RatPoly
    spatial_next: RatPoly

    def terms(self) -> tuple[tuple[int, RatPoly], ...]:
        """(dx power p, coefficient polynomial in nu) for the dx^p u^(p) terms.

        Factorials are folded into the coefficients; the temporal remainder is
        merged into the spatial term of equal dx power when they coincide.
        Identically-zero entries are dropped.
        """
        big_n = self.spec.points
        n, m = self.spec.n, self.spec.m
        merged: dict[int, RatPoly] = {}
        merged[big_n] = self.spatial_main / math.factorial(big_n)
        merged[big_n + 1] = merged.get(big_n + 1, RatPoly.zero()) + (
            self.spatial_next / math.factorial(big_n + 1)
        )
        t = m * (n + 1)
        temporal = RatPoly.monomial(n + 1, Fraction(-1, math.factorial(n + 1)))
        merged[t] = merged.get(t, RatPoly.zero()) + temporal
        return tuple(
            (p, poly) for p, poly in sorted(merged.items()) if poly
        )

    def leading(self) -> tuple[int, RatPoly]:
        """Lowest surviving (dx power, coefficient); the derivative order equals the power."""
        return self.terms()[0]


def error_term(scheme: Scheme) -> ErrorTerm:
    """Exact leading-error data for a minimal-stencil scheme.

    For m=1 the merged leading coefficient collapses to the closed product
    form -prod_i(nu - k_i) / N!, which is asserted here.
    """
    spec = scheme.spec
    _, p_poly, q_poly = aux_polynomials(spec.offsets)
    a = _taylor_sum(p_poly, spec.m, spec.n)
    b = _taylor_sum(q_poly, spec.m, spec.n)
    term = ErrorTerm(spec, a, b)
    if spec.m == 1:
        product = RatPoly.from_roots(spec.offsets)  # prod(nu - k_i)
        expected = product / Fraction(-math.factorial(spec.points))
        power, coeff = term.leading()
        if power != spec.points or coeff != expected:
            raise ArithmeticError("m=1 product form of the leading error failed")
    return term


def _taylor_sum(poly: RatPoly, m: int, n: int) -> RatPoly:
    """sum_{j=0..n} nu^j / j! * poly^(j*m)(0) as a polynomial in nu."""
    coeffs = [
        poly.derivative_at_zero(j * m) / Fraction(math.factorial(j))
        for j in range(n + 1)
    ]
    return RatPoly(coeffs)


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


def default_offsets(m: int, n: int, a_sign: float = 0) -> OffsetSet:
    """Stencil window used when the caller does not pick one.

    Even-span windows are centered.  Odd spans (odd m and odd n) get the
    extra point on the upwind side of the wave direction implied by
    sign(a_m).  `a_sign` is the coefficient a_m itself or just its sign;
    0 selects the conventional sign for this m.  This is the one place a
    coefficient's sign picks a window.
    """
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


def _dump_fields(text: str) -> dict[str, str]:
    """The key=value fields of a scheme dump, skipping blank and '#' lines."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed scheme dump line: {raw!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"scheme dump repeats the {key!r} field")
        fields[key] = value.strip()
    return fields


def _dump_header(fields: dict[str, str]) -> tuple[int, int, OffsetSet]:
    """The m, n and offsets a dump's fields declare."""
    try:
        return (
            int(fields["m"]),
            int(fields["n"]),
            OffsetSet(int(k) for k in fields["offsets"].split(",")),
        )
    except KeyError as exc:
        raise ValueError(f"scheme dump is missing the {exc.args[0]!r} field") from exc


def scheme_dump_order(text: str) -> tuple[int, int]:
    """The (m, n) a `format_scheme_dump` text declares, read without parsing
    or checking its coefficients: a caller can size the scheme first."""
    m, n, _ = _dump_header(_dump_fields(text))
    return m, n


def parse_scheme_dump(text: str) -> Scheme:
    """Rebuild a scheme from `format_scheme_dump` output and re-verify it."""
    fields = _dump_fields(text)
    m, n, offsets = _dump_header(fields)
    unknown = fields.keys() - {"m", "n", "offsets"} - {f"c[{k}]" for k in offsets}
    if unknown:
        raise ValueError(f"scheme dump has unknown fields: {', '.join(sorted(unknown))}")
    spec = SchemeSpec(m, n, offsets)
    columns = []
    for k in offsets:
        key = f"c[{k}]"
        if key not in fields:
            raise ValueError(f"scheme dump is missing the {key} line")
        parts = fields[key].split(",")
        if len(parts) != n + 1:
            raise ValueError(f"{key} must list exactly n+1 = {n + 1} values")
        try:
            columns.append([Fraction(part) for part in parts])
        except ZeroDivisionError as exc:
            raise ValueError(f"{key} has a weight with a zero denominator") from exc
    rows = tuple(zip(*columns))
    # verification guards against hand-edited or corrupted dumps
    try:
        return _scheme_from_rows(spec, rows, verify=True)
    except ArithmeticError as exc:
        raise ValueError(f"scheme dump is inconsistent: {exc}") from exc
