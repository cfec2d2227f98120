"""Exact-arithmetic layer: polynomials, stencil bases, and their structural identities."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmarch.exact import (
    InvalidOffsetsError,
    OffsetSet,
    RatPoly,
    Rational,
    _deflate,
    aux_polynomials,
    derivatives_at_zero,
    lagrange_basis,
)

from reference_tables import derivative_at_zero, from_roots

# random distinct integer offset sets, 1..8 points in a modest window
offset_sets = st.sets(st.integers(-6, 6), min_size=1, max_size=8).map(
    lambda s: OffsetSet(s)
)


# -- OffsetSet -------------------------------------------------------------------

class TestOffsetSet:
    def test_sorts_input(self):
        assert tuple(OffsetSet([3, -1, 0])) == (-1, 0, 3)

    def test_rejects_empty(self):
        with pytest.raises(InvalidOffsetsError):
            OffsetSet([])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidOffsetsError):
            OffsetSet([0, 1, 1])

    def test_contiguous_window(self):
        assert tuple(OffsetSet.contiguous(2, 5)) == (-2, -1, 0, 1, 2, 3)

    def test_contiguous_rejects_bad_shift(self):
        with pytest.raises(InvalidOffsetsError):
            OffsetSet.contiguous(3, 2)
        with pytest.raises(InvalidOffsetsError):
            OffsetSet.contiguous(-1, 2)

    def test_span_and_contiguity(self):
        assert OffsetSet([-2, 0, 1]).span == 3
        assert not OffsetSet([-2, 0, 1]).is_contiguous()
        assert OffsetSet([-1, 0, 1]).is_contiguous()
        assert OffsetSet([5]).is_contiguous()


# -- RatPoly ---------------------------------------------------------------------

class TestRatPoly:
    def test_canonical_trailing_zeros(self):
        assert RatPoly((1, 2, 0, 0)) == RatPoly((1, 2))
        assert RatPoly((0, 0)).degree == -1
        assert not RatPoly.zero()

    def test_rational_type_is_exact(self):
        assert Rational is F
        assert all(isinstance(c, F) for c in RatPoly((1, F(1, 3))).coeffs)

    def test_coefficients_stay_fractions(self):
        """Every coefficient is a Fraction, including on the fast paths that
        skip re-wrapping and scale by an integer-valued Fraction's numerator."""
        p = RatPoly((1, -2, 3))
        q = RatPoly((F(1, 2), F(-4, 3)))
        results = {
            "from ints": p,
            "int-valued Fraction scalar": F(-8) * q,
            "scalar on the right": q * F(6, 2),
            "sum": p + q,
        }
        for how, poly in results.items():
            assert all(type(c) is F for c in poly.coeffs), how
        assert results["int-valued Fraction scalar"] == RatPoly((-4, F(32, 3)))
        assert results["scalar on the right"] == RatPoly((F(3, 2), -4))

    def test_arithmetic(self):
        p = RatPoly((1, 2))       # 1 + 2x
        q = RatPoly((0, 0, 3))    # 3x^2
        assert p + q == RatPoly((1, 2, 3))
        assert p - p == RatPoly.zero()
        assert p * q == RatPoly((0, 0, 3, 6))
        assert 2 * p == RatPoly((2, 4))
        assert p / 2 == RatPoly((F(1, 2), 1))
        assert (1 - RatPoly.x()) == RatPoly((1, -1))
        assert RatPoly.x() ** 3 == RatPoly.monomial(3)

    def test_from_roots(self):
        # (x-1)(x+2) = x^2 + x - 2
        assert from_roots([1, -2]) == RatPoly((-2, 1, 1))
        assert from_roots([]) == RatPoly.one()

    @pytest.mark.parametrize(
        "roots",
        [[3], [-2, 0, 5], list(range(-7, 8)), [F(1, 2), -3, F(-5, 7), 4], [F(6, 3), 2, True]],
        ids=["one", "ints", "window", "mixed", "integral-fractions"],
    )
    def test_from_roots_matches_the_fraction_product(self, roots):
        """Integer roots take the integer path; the polynomial is the
        product over Fraction roots, coefficient for coefficient."""
        fraction_product = RatPoly.one()
        for root in roots:
            fraction_product = fraction_product * RatPoly((-F(root), F(1)))
        got = from_roots(roots)
        assert got == fraction_product
        assert got == from_roots([F(r) for r in roots])
        assert all(type(c) is F for c in got.coeffs)

    def test_evaluation_exact_and_float(self):
        p = RatPoly((1, 0, 1))  # 1 + x^2
        assert p(F(1, 2)) == F(5, 4)
        assert isinstance(p(F(1, 2)), F)
        assert p(0.5) == pytest.approx(1.25)
        assert isinstance(p(0.5), float)

    def test_derivatives(self):
        p = RatPoly((5, 4, 3, 2))  # 5 + 4x + 3x^2 + 2x^3
        assert p.derivative() == RatPoly((4, 6, 6))
        assert p.derivative(2) == RatPoly((6, 12))
        assert p.derivative(5) == RatPoly.zero()
        assert derivative_at_zero(p, 2) == 6
        assert derivative_at_zero(p, 0) == 5
        assert derivative_at_zero(p, 9) == 0

    def test_format(self):
        assert RatPoly((1, F(-5, 2), 3)).format("nu") == "1 - 5/2 nu + 3 nu^2"
        assert RatPoly((0, 1)).format() == "x"
        assert RatPoly((0, -1)).format() == "-x"
        assert RatPoly.zero().format() == "0"

    @given(
        st.lists(st.fractions(max_denominator=20), max_size=6),
        st.fractions(max_denominator=10),
    )
    @settings(max_examples=50)
    def test_derivative_matches_difference_quotient_structure(self, coeffs, x0):
        # p(x) = p(x0) + p'(x0)(x-x0) + ... reproduced exactly via Taylor shift
        p = RatPoly(coeffs)
        shifted = RatPoly.zero()
        for order in range(p.degree + 1):
            c = p.derivative(order)(x0) / math.factorial(order)
            shifted = shifted + c * from_roots([x0] * order)
        assert shifted == p


# -- deflation -------------------------------------------------------------------

class TestDeflate:
    def test_exact_division(self):
        p = from_roots([1, 2, 3])
        assert RatPoly(_deflate(p.coeffs, 2)) == from_roots([1, 3])

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            _deflate(from_roots([1, 2]).coeffs, 5)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            _deflate(RatPoly.one().coeffs, 0)


# -- Lagrange basis and its identities --------------------------------------------

class TestLagrangeBasis:
    def test_single_point(self):
        assert lagrange_basis([3]) == (RatPoly.one(),)

    def test_cardinal_property_small(self):
        ks = OffsetSet([-1, 0, 2])
        basis = lagrange_basis(ks)
        for i, ki in enumerate(ks):
            for j, kj in enumerate(ks):
                assert basis[i](F(kj)) == (1 if i == j else 0)

    @given(offset_sets)
    @settings(max_examples=50)
    def test_cardinal_property(self, ks):
        basis = lagrange_basis(ks)
        for i, ki in enumerate(ks):
            for j, kj in enumerate(ks):
                assert basis[i](F(kj)) == (1 if i == j else 0)

    @given(offset_sets, st.integers(0, 7))
    @settings(max_examples=50)
    def test_vandermonde_reproduction(self, ks, p):
        """sum_i k_i^p L_i(x) == x^p exactly for every p < N."""
        if p >= len(ks):
            p = p % len(ks)
        basis = lagrange_basis(ks)
        total = RatPoly.zero()
        for k, bp in zip(ks, basis):
            total = total + F(k) ** p * bp
        assert total == RatPoly.monomial(p)

    @given(offset_sets)
    @settings(max_examples=50)
    def test_kronecker_derivative_sums(self, ks):
        """sum_i k_i^p L_i^(l)(0) == l! delta_{p,l} for p, l < N."""
        n = len(ks)
        basis = lagrange_basis(ks)
        for ell in range(n):
            derivs = derivatives_at_zero(basis, ell)
            for p in range(n):
                total = sum(F(k) ** p * d for k, d in zip(ks, derivs))
                assert total == (math.factorial(ell) if p == ell else 0)

    @given(offset_sets)
    @settings(max_examples=50)
    def test_beyond_range_sums(self, ks):
        """The first two out-of-range power sums equal derivatives of P and Q."""
        n = len(ks)
        basis = lagrange_basis(ks)
        _, p_poly, q_poly = aux_polynomials(ks)
        for ell in range(n):
            derivs = derivatives_at_zero(basis, ell)
            sum_n = sum(F(k) ** n * d for k, d in zip(ks, derivs))
            sum_n1 = sum(F(k) ** (n + 1) * d for k, d in zip(ks, derivs))
            assert sum_n == derivative_at_zero(p_poly, ell)
            assert sum_n1 == derivative_at_zero(q_poly, ell)

    @given(offset_sets)
    @settings(max_examples=50)
    def test_partition_of_unity(self, ks):
        total = RatPoly.zero()
        for bp in lagrange_basis(ks):
            total = total + bp
        assert total == RatPoly.one()


class TestAuxPolynomials:
    def test_degree_drop(self):
        ks = OffsetSet([-2, -1, 0, 1, 3])
        s, p, q = aux_polynomials(ks)
        n = len(ks)
        assert s.degree == n
        assert p.degree <= n - 1
        assert q.degree <= n - 1

    def test_construction(self):
        ks = OffsetSet([-1, 0, 1])
        s, p, q = aux_polynomials(ks)
        # s = x(x-1)(x+1) = x^3 - x
        assert s == RatPoly((0, -1, 0, 1))
        assert p == RatPoly.monomial(3) - s
        assert q == RatPoly.monomial(4) - RatPoly((0, 1)) * s  # sum of offsets = 0
