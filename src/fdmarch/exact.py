"""Exact rational arithmetic: dense polynomials over Fraction and Lagrange stencil bases.

Nothing in this module touches floating point.  Stencil offsets are plain
integers and every `RatPoly` coefficient is a `fractions.Fraction` (the
Lagrange numerators are built in plain ints first), so the structural
identities the scheme generator relies on (cardinal interpolation, moment
sums, beyond-range corrections) can be asserted with ``==`` rather than
with tolerances.

It also holds the package's one refusal type, `ConfigurationError`: it sits
here, at the bottom of the import graph, so that every input rule of every
module raises it where the rule lives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

# Exact scalar type used throughout the package: arbitrary precision, always
# reduced, positive denominator -> canonical string form.
Rational = Fraction

RationalLike = Union[Rational, int]


class ConfigurationError(ValueError):
    """A request the package refuses: an input no rule accepts (an empty or
    duplicated stencil, a wrong stencil size, a tol outside the search, a run
    inconsistent with its grid, ...).  Every input rule raises it, or one of
    its subclasses, where the rule lives; the CLI prints its message and
    exits 2."""


class InvalidOffsetsError(ConfigurationError):
    """A stencil offset set is empty or contains duplicates."""


class OffsetSet(tuple):
    """Sorted tuple of distinct integer grid offsets k_1 < ... < k_N."""

    def __new__(cls, offsets: Iterable[int]) -> "OffsetSet":
        ks = sorted(int(k) for k in offsets)
        if not ks:
            raise InvalidOffsetsError("offset set must not be empty")
        for a, b in zip(ks, ks[1:]):
            if a == b:
                raise InvalidOffsetsError(f"duplicate offset {a}")
        return super().__new__(cls, ks)

    @classmethod
    def contiguous(cls, r: int, m: int) -> "OffsetSet":
        """The m+1 consecutive offsets {-r, ..., m-r} (r points left of zero)."""
        if m < 0 or not 0 <= r <= m:
            raise InvalidOffsetsError(
                f"contiguous window needs 0 <= r <= m, got r={r}, m={m}"
            )
        return cls(range(-r, m - r + 1))

    @property
    def span(self) -> int:
        return self[-1] - self[0]

    def is_contiguous(self) -> bool:
        return self.span == len(self) - 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"OffsetSet({tuple(self)})"


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[p]`` multiplies ``x**p``.  Trailing zeros are stripped on
    construction, so the representation is canonical: two polynomials are
    equal iff their coefficient tuples are.  The zero polynomial has an empty
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "RatPoly":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_roots(cls, roots: Iterable[RationalLike]) -> "RatPoly":
        """Monic polynomial prod_i (x - root_i), built by repeated linear multiply."""
        return cls(_node_product(Fraction(root) for root in roots))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Rational:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatPoly | RationalLike") -> "RatPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for p, c in enumerate(b):
            cs[p] += c
        return RatPoly(cs)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly | RationalLike") -> "RatPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RatPoly | RationalLike") -> "RatPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "RatPoly | RationalLike") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            # an integer-valued Fraction scales as its int numerator: same
            # exact products, without a Fraction x Fraction gcd per term
            if type(other) is Fraction and other.denominator == 1:
                other = other.numerator
            return RatPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for p, a in enumerate(self.coeffs):
            if not a:
                continue
            for q, b in enumerate(other.coeffs):
                cs[p + q] += a * b
        return RatPoly(cs)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "RatPoly":
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent: int) -> "RatPoly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        out = RatPoly.one()
        for _ in range(exponent):
            out = out * self
        return out

    # -- evaluation / calculus ----------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments, float for float."""
        acc = x * 0  # zero of the argument's type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order: int = 1) -> "RatPoly":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(p * c for p, c in enumerate(cs) if p > 0)
        return RatPoly(cs)

    def derivative_at_zero(self, order: int) -> Rational:
        """order-th derivative at x = 0: order! times the x**order coefficient."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        return math.factorial(order) * self.coefficient(order)

    # -- display -----------------------------------------------------------

    def format(self, var: str = "x") -> str:
        """Human-readable form like ``1 - 5/2 x + 3 x^2``."""
        if not self.coeffs:
            return "0"
        parts = []
        for p, c in enumerate(self.coeffs):
            if not c:
                continue
            if p == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)} "
                sign = "-" if c < 0 else ""
                pow_ = var if p == 1 else f"{var}^{p}"
                term = f"{sign}{mag}{pow_}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RatPoly({self.coeffs!r})"


def _as_poly(value) -> "RatPoly":
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RatPoly((value,))
    return NotImplemented


def _node_product(roots: Iterable) -> list:
    """Coefficients of prod_i (x - root_i), lowest power first.

    Works in the roots' own exact type: integer roots give integer
    coefficients, with no Fraction arithmetic.
    """
    cs = [1]
    for root in roots:
        cs.append(cs[-1])
        for p in range(len(cs) - 2, 0, -1):
            cs[p] = cs[p - 1] - root * cs[p]
        cs[0] = -root * cs[0]
    return cs


def _deflate(coeffs: Sequence, root) -> list:
    """Exact division of a coefficient list by (x - root); the remainder must vanish."""
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("cannot deflate a constant polynomial")
    q = [0] * d
    acc = 0
    for p in range(d, 0, -1):
        acc = coeffs[p] + root * acc
        q[p - 1] = acc
    if coeffs[0] + root * acc:
        raise ValueError(f"{root} is not a root; deflation leaves a remainder")
    return q


def lagrange_numerators(offsets: Iterable[int]) -> tuple[tuple[list[int], int], ...]:
    """Integer form of the Lagrange basis: L_i(x) = numer_i(x) / w_i.

    numer_i = prod_{j != i} (x - k_j) as integer coefficients, lowest power
    first, and w_i = numer_i(k_i) = prod_{j != i} (k_i - k_j).  Each numerator
    is the full node product deflated by (x - k_i), which keeps the
    construction O(N^2) overall.
    """
    ks = OffsetSet(offsets)
    node_product = _node_product(ks)
    return tuple(
        (_deflate(node_product, k), math.prod(k - kj for kj in ks if kj != k))
        for k in ks
    )


def lagrange_basis(offsets: Iterable[int]) -> tuple[RatPoly, ...]:
    """Cardinal interpolation polynomials for the given integer nodes.

    Returns one degree-(N-1) polynomial per node with L_i(k_j) = delta_ij
    exactly, built from the integer numerators and weights of
    `lagrange_numerators` with one Fraction per coefficient.
    """
    return tuple(
        RatPoly(Fraction(c, w) for c in numer)
        for numer, w in lagrange_numerators(offsets)
    )


def derivatives_at_zero(basis: Sequence[RatPoly], order: int) -> tuple[Rational, ...]:
    """order-th derivative of each basis polynomial at x = 0, exactly."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    fac = Fraction(math.factorial(order))
    return tuple(fac * p.coefficient(order) for p in basis)


def aux_polynomials(offsets: Iterable[int]) -> tuple[RatPoly, RatPoly, RatPoly]:
    """Node product s(x) = prod(x - k_i) and the two beyond-range correction polynomials.

    With N nodes, interpolation reproduces x^p only for p < N.  The defects of
    the first two out-of-range powers are captured by

        P(x) = x^N     - s(x)
        Q(x) = x^(N+1) - (x + sum_i k_i) * s(x)

    whose leading terms cancel exactly, leaving degree <= N-1.
    """
    ks = OffsetSet(offsets)
    n = len(ks)
    s = RatPoly.from_roots(ks)
    p = RatPoly.monomial(n) - s
    q = RatPoly.monomial(n + 1) - RatPoly((sum(ks), 1)) * s
    # leading-term cancellation is structural; if it fails the build is broken
    assert p.degree <= n - 1 and q.degree <= n - 1
    return s, p, q
