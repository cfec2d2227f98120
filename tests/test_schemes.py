"""Scheme generator: master formula, closed forms, layers, error terms, dumps."""

import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdmarch.schemes
from fdmarch.exact import ConfigurationError, OffsetSet, RatPoly, lagrange_basis, lagrange_numerators
from fdmarch.schemes import (
    MAX_DUMP_CHARS,
    MAX_DUMP_FIELDS,
    MAX_SCHEME_POINTS,
    MAX_TABLE_WORK,
    ErrorTerm,
    LayerTable,
    Scheme,
    SchemeSpec,
    StencilSizeError,
    UnsupportedSchemeError,
    _check_order_conditions,
    _weight_pair,
    advection_coefficients,
    check_table_size,
    default_offsets,
    error_term,
    first_order_scheme,
    format_scheme_dump,
    generation_function,
    master_scheme,
    nonlinear_layers,
    parse_scheme_dump,
    preferred_sign,
)

from fdmarch.solver import convergence_study
from fdmarch.stability import advection_family_spec, classify_first_order

from reference_tables import (
    ADVECTION_N3_OFFSETS,
    ADVECTION_N3_RAW_LAYERS,
    ADVECTION_N4_OFFSETS,
    ADVECTION_N4_RAW_LAYERS,
    DIFFUSION_N2,
    DIFFUSION_N3,
    DIFFUSION_N4,
    error_term_by_fractions,
    folded_layers,
    from_roots,
    order_conditions_by_loop,
)
from test_stability import PIN_SPECS, pin_id, zoo_gapped_specs

# strategy: a random minimal-stencil spec with small m*n
small_specs = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda mn: st.sets(
        st.integers(-8, 8), min_size=mn[0] * mn[1] + 1, max_size=mn[0] * mn[1] + 1
    ).map(lambda offs: SchemeSpec(mn[0], mn[1], OffsetSet(offs)))
)


# strategy: m <= 4 with n*m <= 12, on a contiguous window or a gapped stencil
def _stencils(mn):
    m, n = mn
    size = n * m + 1
    contiguous = st.integers(0, size - 1).map(lambda r: OffsetSet.contiguous(r, size - 1))
    gapped = st.sets(st.integers(-size - 3, size + 3), min_size=size, max_size=size).map(
        OffsetSet
    )
    return st.one_of(contiguous, gapped).map(lambda offs: SchemeSpec(m, n, offs))


specs_up_to_m4 = (
    st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 12 // m)))
).flatmap(_stencils)


def fornberg_weights(nodes, max_order):
    """Finite-difference weights at x = 0 by Fornberg's recurrence, in Fractions.

    B. Fornberg, Math. Comp. 51 (1988) 699-706.  Returns c with c[d][i] the
    weight of nodes[i] in the d-th derivative, d = 0..max_order.  Independent
    of the Lagrange construction the generator uses.
    """
    xs = [F(x) for x in nodes]
    c = [[F(0)] * len(xs) for _ in range(max_order + 1)]
    c[0][0] = F(1)
    c1, c4 = F(1), xs[0]
    for i in range(1, len(xs)):
        top = min(i, max_order)
        c2, c5, c4 = F(1), c4, xs[i]
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for d in range(top, 0, -1):
                    c[d][i] = c1 * (d * c[d - 1][i - 1] - c5 * c[d][i - 1]) / c2
                c[0][i] = -c1 * c5 * c[0][i - 1] / c2
            for d in range(top, 0, -1):
                c[d][j] = (c4 * c[d][j] - d * c[d - 1][j]) / c3
            c[0][j] = c4 * c[0][j] / c3
        c1 = c2
    return c


# -- spec validation ---------------------------------------------------------------

class TestSchemeSpec:
    def test_wrong_size_names_required_count(self):
        with pytest.raises(StencilSizeError, match="n\\*m\\+1 = 7"):
            SchemeSpec(2, 3, OffsetSet([-1, 0, 1]))

    def test_rejects_bad_orders(self):
        with pytest.raises(StencilSizeError):
            SchemeSpec(0, 1, OffsetSet([0]))
        with pytest.raises(StencilSizeError):
            SchemeSpec(1, 0, OffsetSet([0]))

    def test_points(self):
        spec = SchemeSpec(2, 2, OffsetSet.contiguous(2, 4))
        assert spec.points == 5


# -- master formula ----------------------------------------------------------------

class TestMasterScheme:
    def test_first_order_diffusion(self):
        s = master_scheme(SchemeSpec(2, 1, OffsetSet([-1, 0, 1])))
        assert s.coefficient(-1) == RatPoly((0, 1))      # nu
        assert s.coefficient(0) == RatPoly((1, -2))      # 1 - 2 nu
        assert s.coefficient(1) == RatPoly((0, 1))

    def test_second_order_diffusion_table(self):
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        for k, coeffs in DIFFUSION_N2.items():
            assert s.coefficient(k) == RatPoly(coeffs)
            assert s.coefficient(-k) == RatPoly(coeffs)  # symmetric stencil

    def test_third_and_fourth_order_diffusion_tables(self):
        for n, table in ((3, DIFFUSION_N3), (4, DIFFUSION_N4)):
            s = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
            for k, coeffs in table.items():
                assert s.coefficient(k) == RatPoly(coeffs)
                assert s.coefficient(-k) == RatPoly(coeffs)

    def test_third_order_advection_factored_forms(self):
        s = master_scheme(SchemeSpec(1, 3, OffsetSet([-2, -1, 0, 1])))
        nu = RatPoly.x()
        # c_{-2} = -nu(nu^2-1)/6, c_{-1} = nu(nu+2)(nu-1)/2,
        # c_0 = -(nu+2)(nu^2-1)/2, c_1 = nu(nu+2)(nu+1)/6
        assert s.coefficient(-2) == -(nu * (nu * nu - 1)) / 6
        assert s.coefficient(-1) == nu * (nu + 2) * (nu - 1) / 2
        assert s.coefficient(0) == -((nu + 2) * (nu * nu - 1)) / 2
        assert s.coefficient(1) == nu * (nu + 2) * (nu + 1) / 6

    def test_advection_layer_tables(self):
        for offsets, raw in (
            (ADVECTION_N3_OFFSETS, ADVECTION_N3_RAW_LAYERS),
            (ADVECTION_N4_OFFSETS, ADVECTION_N4_RAW_LAYERS),
        ):
            n = len(offsets) - 1
            s = master_scheme(SchemeSpec(1, n, OffsetSet(offsets)))
            assert s.layers.rows == folded_layers(raw)

    @given(small_specs)
    @settings(max_examples=50, deadline=None)
    def test_order_conditions(self, spec):
        """Moment sums: 1 at p=0, (jm)! nu^j / j! at p=jm, zero otherwise."""
        s = master_scheme(spec)
        for p in range(spec.n * spec.m + 1):
            total = RatPoly.zero()
            for k in spec.offsets:
                total = total + F(k) ** p * s.coefficient(k)
            if p % spec.m == 0:
                j = p // spec.m
                want = RatPoly.monomial(j, F(math.factorial(p), math.factorial(j)))
            else:
                want = RatPoly.zero()
            assert total == want

    @given(small_specs)
    @settings(max_examples=50, deadline=None)
    def test_zeroth_layer_samples_basis_at_origin(self, spec):
        s = master_scheme(spec)
        row0 = s.layers.rows[0]
        basis = lagrange_basis(spec.offsets)
        assert row0 == tuple(bp(F(0)) for bp in basis)
        if 0 in spec.offsets:
            for k, w in zip(spec.offsets, row0):
                assert w == (1 if k == 0 else 0)

    @given(st.integers(1, 10), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_advection_collapse(self, n, r):
        """For m=1 each weight polynomial IS the cardinal basis polynomial."""
        if r > n:
            r = r % (n + 1)
        ks = OffsetSet.contiguous(r, n)
        s = master_scheme(SchemeSpec(1, n, ks))
        basis = lagrange_basis(ks)
        for k, bp in zip(ks, basis):
            assert s.coefficient(k) == bp

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diffusion_from_advection_layers(self, n):
        """Even layers of the (m=1, 2n) scheme rescale to the (m=2, n) layers."""
        ks = OffsetSet.contiguous(n, 2 * n)
        adv = master_scheme(SchemeSpec(1, 2 * n, ks))
        diff = master_scheme(SchemeSpec(2, n, ks))
        for j in range(n + 1):
            scale = F(math.factorial(2 * j), math.factorial(j))
            rescaled = tuple(scale * w for w in adv.layers.rows[2 * j])
            assert rescaled == diff.layers.rows[j]

    @given(specs_up_to_m4)
    @settings(max_examples=60, deadline=None)
    def test_layers_match_fornberg_weights(self, spec):
        """Layer j is Fornberg's weight set for derivative j*m, divided by j!."""
        s = master_scheme(spec)
        c = fornberg_weights(spec.offsets, spec.n * spec.m)
        for j in range(spec.n + 1):
            assert s.layers.rows[j] == tuple(w / math.factorial(j) for w in c[j * spec.m])

    def test_fornberg_reference_on_a_known_table(self):
        # centred second derivative on 3 and 5 points
        assert fornberg_weights([-1, 0, 1], 2)[2] == [1, -2, 1]
        assert fornberg_weights([-2, -1, 0, 1, 2], 2)[2] == [
            F(-1, 12), F(4, 3), F(-5, 2), F(4, 3), F(-1, 12)
        ]

    def test_generation_and_audit_do_no_polynomial_arithmetic(self, monkeypatch):
        """Layers and the order audit run on ints; RatPoly is only a container."""

        def forbidden(*args):
            raise AssertionError("RatPoly arithmetic inside master_scheme")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(RatPoly, name, forbidden)
        s = master_scheme(SchemeSpec(1, 29, OffsetSet.contiguous(15, 29)))
        assert len(s.layers) == 30

    def test_lagrange_numerators_are_integers(self):
        ks = OffsetSet([-3, -1, 0, 2, 5])
        for (numer, w), k, bp in zip(lagrange_numerators(ks), ks, lagrange_basis(ks)):
            assert all(type(c) is int for c in numer) and type(w) is int
            assert w == math.prod(k - kj for kj in ks if kj != k)
            assert RatPoly(numer) == bp * w


# -- closed-form first-order schemes ------------------------------------------------

class TestFirstOrderScheme:
    def test_upwind(self):
        s = first_order_scheme(1, 1)
        assert s.coefficient(-1) == RatPoly((0, -1))
        assert s.coefficient(0) == RatPoly((1, 1))

    def test_centered_diffusion(self):
        s = first_order_scheme(2, 1)
        assert s.coefficient(-1) == RatPoly((0, 1))
        assert s.coefficient(0) == RatPoly((1, -2))
        assert s.coefficient(1) == RatPoly((0, 1))

    def test_third_derivative_window(self):
        s = first_order_scheme(3, 2)
        assert s.coefficient(-2) == RatPoly((0, -1))
        assert s.coefficient(-1) == RatPoly((0, 3))
        assert s.coefficient(0) == RatPoly((1, -3))
        assert s.coefficient(1) == RatPoly((0, 1))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_master_formula(self, m):
        for r in range(m + 1):
            closed = first_order_scheme(m, r)
            master = master_scheme(SchemeSpec(m, 1, OffsetSet.contiguous(r, m)))
            assert closed.coeffs == master.coeffs


class TestGenerationFunction:
    @staticmethod
    def expected_symbol(m, r):
        """Independently expanded 1 + nu * x^(-r) * (x-1)^m by powers of x."""
        out = {0: RatPoly.one()}
        for i in range(m + 1):
            binom = F(math.comb(m, i) * (-1) ** (m - i))
            power = i - r
            out[power] = out.get(power, RatPoly.zero()) + RatPoly((0, binom))
        return out

    @pytest.mark.parametrize("m,r", [(1, 1), (2, 1), (2, 0), (3, 2), (5, 3)])
    def test_matches_independent_expansion(self, m, r):
        lp = generation_function(first_order_scheme(m, r))
        want = self.expected_symbol(m, r)
        for power in range(-r - 1, m - r + 2):
            assert lp.coefficient(power) == want.get(power, RatPoly.zero())

    def test_upwind_symbol(self):
        lp = generation_function(first_order_scheme(1, 1))
        assert lp.coefficient(0) == RatPoly((1, 1))    # 1 + nu
        assert lp.coefficient(-1) == RatPoly((0, -1))  # -nu x^-1
        assert list(lp.powers) == [-1, 0]

    def test_rejects_higher_order(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        with pytest.raises(UnsupportedSchemeError):
            generation_function(s)

    def test_rejects_gap_stencil(self):
        s = master_scheme(SchemeSpec(3, 1, OffsetSet([-2, -1, 1, 2])))
        with pytest.raises(UnsupportedSchemeError):
            generation_function(s)

    @pytest.mark.parametrize("i", range(4))
    def test_rejects_a_binomial_off_by_one(self, i):
        """A directly built n = 1 scheme, unaudited, whose nu layer has one
        binomial off by one does not factor, and the identity check says so."""
        closed = first_order_scheme(3, 1)
        row0, (den, ints) = closed.layers.int_rows
        bad = ints[:i] + (ints[i] + 1,) + ints[i + 1 :]
        s = Scheme(closed.spec, LayerTable(closed.offsets, (row0, (den, bad))))
        with pytest.raises(ArithmeticError, match="^generation-function identity failed$"):
            generation_function(s)


# -- direct advection weights --------------------------------------------------------

class TestAdvectionCoefficients:
    def test_exact_shift(self):
        assert advection_coefficients(2, [-1, 0, 1], 1) == (0, 0, 1)

    def test_half_cell(self):
        assert advection_coefficients(1, [-1, 0], F(-1, 2)) == (F(1, 2), F(1, 2))

    def test_classic_second_order_polynomials(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        nu = RatPoly.x()
        assert s.coefficient(-1) == nu * (nu - 1) / 2
        assert s.coefficient(0) == 1 - nu * nu
        assert s.coefficient(1) == nu * (nu + 1) / 2

    def test_matches_master_evaluation(self):
        ks = OffsetSet([-2, -1, 0, 1])
        s = master_scheme(SchemeSpec(1, 3, ks))
        nu = F(3, 7)
        direct = advection_coefficients(3, ks, nu)
        via_master = tuple(s.weights_at(nu)[k] for k in ks)
        assert direct == via_master

    def test_size_check(self):
        with pytest.raises(StencilSizeError):
            advection_coefficients(2, [-1, 0], F(1, 2))


# float nu values at the edges of the float range, for the float-weight checks
EXTREME_NUS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e200, 5e-324)

# strategies: schemes of each kind whose float weights are checked bit for bit
WEIGHT_SCHEMES = {
    "master": small_specs.map(master_scheme),
    "first-order": st.integers(1, 5).flatmap(
        lambda m: st.integers(0, m).map(lambda r: first_order_scheme(m, r))
    ),
    "truncated": small_specs.map(master_scheme).flatmap(
        lambda s: st.integers(0, s.n).map(s.truncated)
    ),
}

# -- evaluation and truncation ---------------------------------------------------------

class TestSchemeEvaluation:
    def test_weights_exact_for_fractions(self):
        s = master_scheme(SchemeSpec(2, 1, OffsetSet([-1, 0, 1])))
        w = s.weights_at(F(1, 3))
        assert w == {-1: F(1, 3), 0: F(1, 3), 1: F(1, 3)}
        assert all(isinstance(v, F) for v in w.values())

    @pytest.mark.parametrize("kind", ["master", "first-order", "truncated"])
    @given(data=st.data(), nu=st.floats(-3.0, 3.0) | st.sampled_from(EXTREME_NUS))
    @settings(max_examples=50, deadline=None)
    def test_float_weights_match_exact_horner_bitwise(self, kind, data, nu):
        """Each float weight is the bits of RatPoly's Horner on its column.  A
        truncated column can be identically zero, and reads +0.0 where that
        Horner gives -0.0 at negative nu, so zeros are compared by value."""
        s = data.draw(WEIGHT_SCHEMES[kind])
        got, array = s.weights_at(nu), s.float_weights(nu)
        assert list(got) == list(s.offsets)
        assert array.shape == (len(s.offsets),) and array.dtype == float
        for k, w in zip(s.offsets, array.tolist()):
            want = s.coefficient(k)(nu)  # RatPoly's Horner on Fraction coefficients
            assert type(got[k]) is float
            assert got[k].hex() == w.hex()
            if kind == "master" or want != 0:
                assert got[k].hex() == want.hex()
            else:
                assert got[k] == want

    def test_float_weights_sorted(self):
        s = master_scheme(SchemeSpec(2, 1, OffsetSet([1, -1, 0])))
        assert list(s.offsets) == [-1, 0, 1]
        assert s.float_weights(0.25).tolist() == pytest.approx([0.25, 0.5, 0.25])

    def test_truncated_drops_layers(self):
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        t = s.truncated(1)
        assert t.coefficient(1) == RatPoly((0, F(4, 3)))  # quadratic layer gone
        assert len(t.layers) == 2

    def test_truncated_range_check(self):
        s = master_scheme(SchemeSpec(2, 1, OffsetSet([-1, 0, 1])))
        with pytest.raises(UnsupportedSchemeError):
            s.truncated(5)


class TestSchemeIsItsTable:
    """A scheme stores its layer table and nothing beside it: the weight
    polynomials, and every float weight the march reads, come from the table."""

    def test_fields_are_spec_and_layers(self):
        assert [f.name for f in dataclasses.fields(Scheme)] == ["spec", "layers"]

    @pytest.mark.parametrize(
        "spec",
        [SchemeSpec(1, 1, OffsetSet([-1, 0])), SchemeSpec(1, 3, OffsetSet.contiguous(2, 3)),
         SchemeSpec(2, 2, OffsetSet.contiguous(2, 4))],
    )
    @pytest.mark.parametrize("nu", [-0.5, 0.8, -1.3])
    def test_weights_follow_a_replaced_table(self, spec, nu):
        s = master_scheme(spec)
        for j in range(spec.n):
            t = s.truncated(j)
            swapped = dataclasses.replace(s, layers=t.layers)
            assert swapped.float_weights(nu).tolist() == t.float_weights(nu).tolist()
            assert swapped.coeffs == t.coeffs

    def test_float_rows_are_the_rounded_table_and_read_only(self):
        s = master_scheme(SchemeSpec(1, 3, OffsetSet.contiguous(2, 3)))
        rows = s.layers.float_rows
        assert rows.tolist() == [[float(w) for w in row] for row in s.layers.rows]
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


# -- error terms -----------------------------------------------------------------------

class TestErrorTerm:
    def test_classic_second_order_leading(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        power, coeff = error_term(s).leading()
        nu = RatPoly.x()
        assert power == 3
        assert coeff == -(nu * (nu - 1) * (nu + 1)) / 6

    def test_upwind_leading(self):
        s = master_scheme(SchemeSpec(1, 1, OffsetSet([-1, 0])))
        power, coeff = error_term(s).leading()
        assert power == 2
        assert coeff == -(RatPoly.x() * (RatPoly.x() + 1)) / 2

    def test_exact_shift_kills_leading_coefficient(self):
        ks = OffsetSet([-2, -1, 0, 1])
        s = master_scheme(SchemeSpec(1, 3, ks))
        _, coeff = error_term(s).leading()
        for k in ks:
            assert coeff(F(k)) == 0

    def test_product_form_any_advection_stencil(self):
        ks = OffsetSet([-3, -1, 0, 2])
        s = master_scheme(SchemeSpec(1, 3, ks))
        _, coeff = error_term(s).leading()
        assert coeff == from_roots(ks) / -math.factorial(4)

    def test_symmetric_diffusion_merges_terms(self):
        """On the centered m=2 stencil the dx^N defect vanishes, and the dx^6
        defect holds both the moment and the exact evolution's term."""
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        terms = error_term(s).terms()
        powers = [p for p, _ in terms]
        assert powers == [6]  # dx^5 absent
        coeff = terms[0][1]
        # -nu/90 + nu^2/12 from the sixth moment, and the exact evolution's
        # -nu^3/3!
        assert coeff == RatPoly((0, F(-1, 90), F(1, 12), F(-1, 6)))

    def test_terms_sorted_by_power(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-2, 0, 1])))
        powers = [p for p, _ in error_term(s).terms()]
        assert powers == sorted(powers)

    def test_lax_wendroff_terms_are_the_exact_defects(self):
        """m = 1, n = 2 on -1..1: with sum_i c_i k_i^p = nu^p for p <= 2,
        the odd moments are nu and the even ones nu^2, so D_3 = nu/6 - nu^3/6
        and D_4 = nu^2/24 - nu^4/24, the exact evolution's nu^4/4! included."""
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        assert error_term(s).terms() == (
            (3, RatPoly((0, F(1, 6), 0, F(-1, 6)))),
            (4, RatPoly((0, 0, F(1, 24), 0, F(-1, 24)))),
        )

    def test_third_derivative_terms_are_the_exact_defects(self):
        """m = 3, n = 1 on -2..1: the nu layer is the third difference
        (-1, 3, -3, 1), whose moments p = 4, 5, 6 are -12, 30 and -60, so
        D_4 = -nu/2, D_5 = nu/4 and D_6 = -nu/12 - nu^2/2, the exact
        evolution's -nu^2/2! included."""
        s = master_scheme(SchemeSpec(3, 1, OffsetSet([-2, -1, 0, 1])))
        assert s.layers.rows[1] == (-1, 3, -3, 1)
        assert error_term(s).terms() == (
            (4, RatPoly((0, F(-1, 2)))),
            (5, RatPoly((0, F(1, 4)))),
            (6, RatPoly((0, F(-1, 12), F(-1, 2)))),
        )

    def test_truncated_table_is_refused(self):
        """A truncated table fails the order conditions below N, so the
        defects from N up would not be its error term."""
        s = master_scheme(SchemeSpec(1, 3, OffsetSet([-2, -1, 0, 1])))
        with pytest.raises(UnsupportedSchemeError, match="all n \\+ 1 layers"):
            error_term(s.truncated(2))

    def test_matches_the_fraction_path(self, monkeypatch):
        """`leading()` is `==` to the leading term of the Fraction-path
        reference (s, P and Q by polynomial products), for every PIN_SPECS
        entry, the m = 1 windows of order n = 1..49 (uw's for odd n, centred
        for even n) and the gapped stencils of scheme-zoo's seeds 1-5.  Past
        its leading entry the reference is a truncated expansion; the whole
        of `terms()` is checked against the moment defects below."""
        specs = list(PIN_SPECS)
        specs += [SchemeSpec(1, n, OffsetSet.contiguous((n + 1) // 2, n)) for n in range(1, 50)]
        specs += zoo_gapped_specs(monkeypatch)
        assert len(specs) == len(PIN_SPECS) + 49 + 5 * 7
        for spec in specs:
            scheme = master_scheme(spec)
            term = error_term(scheme)
            assert term.spec == spec
            assert term.leading() == error_term_by_fractions(scheme)[0], spec

    def test_leading_is_the_lowest_moment_defect(self):
        """`leading()` against the layer table's own moments, without
        `aux_polynomials`: the lowest p >= N with D_p != 0 is the leading
        power and D_p its coefficient, on every PIN_SPECS entry and every
        window of `SMALL_WINDOWS`."""
        for spec in list(PIN_SPECS) + SMALL_WINDOWS:
            scheme = master_scheme(spec)
            power = next(p for p in itertools.count(spec.points) if moment_defect(scheme, p))
            assert error_term(scheme).leading() == (power, moment_defect(scheme, power)), spec

    def test_terms_are_the_moment_defects(self, monkeypatch):
        """`terms()` lists D_p at every power p = N .. max(N + 1, m(n + 1))
        where it is nonzero, each `==` to the defect built from the layer
        table's rows, on every PIN_SPECS entry, every window of
        `SMALL_WINDOWS` and the gapped stencils of scheme-zoo's seeds 1-5."""
        specs = list(PIN_SPECS) + SMALL_WINDOWS + zoo_gapped_specs(monkeypatch)
        assert len(specs) == len(PIN_SPECS) + 147 + 5 * 7
        for spec in specs:
            scheme = master_scheme(spec)
            top = max(spec.points + 1, spec.m * (spec.n + 1))
            defects = [(p, moment_defect(scheme, p)) for p in range(spec.points, top + 1)]
            assert error_term(scheme).terms() == tuple((p, d) for p, d in defects if d), spec


def moment_defect(scheme, p):
    """D_p(nu) = sum_i c_i(nu) k_i^p / p!, less nu^(p/m) / (p/m)! when m
    divides p, from the layer table's Fraction rows."""
    spec = scheme.spec
    moments = RatPoly(
        sum(w * k**p for w, k in zip(row, spec.offsets)) / math.factorial(p)
        for row in scheme.layers.rows
    )
    if p % spec.m:
        return moments
    return moments - RatPoly.monomial(p // spec.m, F(1, math.factorial(p // spec.m)))


# every contiguous window for m = 1, n <= 11; m = 2, n <= 5; m = 3, n <= 3;
# m = 4, n <= 2
SMALL_WINDOWS = [
    SchemeSpec(m, n, OffsetSet.contiguous(r, n * m))
    for m, n_max in ((1, 11), (2, 5), (3, 3), (4, 2))
    for n in range(1, n_max + 1)
    for r in range(n * m + 1)
]


# -- nonlinear layer extraction ----------------------------------------------------------

class TestNonlinearLayers:
    def test_two_point_table(self):
        layers = nonlinear_layers(1, [-1, 0])
        assert layers.rows[0] == (0, 1)
        assert layers.rows[1] == (-1, 1)

    def test_four_point_table(self):
        layers = nonlinear_layers(3, [-2, -1, 0, 1])
        assert layers.rows[0] == (0, 0, 1, 0)
        assert layers.rows[1] == (F(1, 6), -1, F(1, 2), F(1, 3))
        assert layers.rows[2] == (0, F(1, 2), -1, F(1, 2))
        assert layers.rows[3] == (F(-1, 6), F(1, 2), F(-1, 2), F(1, 6))

    def test_matches_linear_scheme_layers(self):
        ks = OffsetSet([-1, 0, 1])
        assert nonlinear_layers(2, ks).rows == master_scheme(
            SchemeSpec(1, 2, ks)
        ).layers.rows


# -- defaults and dump round trip -----------------------------------------------------------

class TestDefaults:
    def test_even_span_centers(self):
        assert tuple(default_offsets(2, 2)) == (-2, -1, 0, 1, 2)
        assert tuple(default_offsets(1, 2)) == (-1, 0, 1)

    def test_odd_span_leans_upwind(self):
        # rightward wave (a < 0 for m=1): extra point on the left
        assert tuple(default_offsets(1, 1, a_sign=-1)) == (-1, 0)
        assert tuple(default_offsets(1, 1, a_sign=+1)) == (0, 1)
        assert tuple(default_offsets(1, 3, a_sign=-1)) == (-2, -1, 0, 1)

    def test_preferred_signs(self):
        # even m: sign admitting a stable centered window; odd m: rightward wave
        assert preferred_sign(1) == -1
        assert preferred_sign(2) == 1
        assert preferred_sign(3) == 1
        assert preferred_sign(4) == -1


class TestDumpRoundTrip:
    def test_round_trip(self):
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        text = format_scheme_dump(s)
        back = parse_scheme_dump(text)
        assert back.spec == s.spec
        assert back.coeffs == s.coeffs

    def test_dump_shape(self):
        s = first_order_scheme(1, 1)
        lines = format_scheme_dump(s).splitlines()
        assert lines[0] == "m=1"
        assert lines[1] == "n=1"
        assert lines[2] == "offsets=-1,0"
        assert lines[3] == "c[-1]=0,-1"
        assert lines[4] == "c[0]=1,1"

    def test_parse_rejects_tampered_weights(self):
        s = first_order_scheme(1, 1)
        text = format_scheme_dump(s).replace("c[0]=1,1", "c[0]=1,2")
        with pytest.raises(ValueError, match="inconsistent"):
            parse_scheme_dump(text)

    def test_parse_rejects_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            parse_scheme_dump("m=1\nn=1\n")

    def test_parse_rejects_unknown_field(self):
        text = format_scheme_dump(first_order_scheme(1, 1)) + "bogus=7\n"
        with pytest.raises(ValueError, match="unknown fields: bogus"):
            parse_scheme_dump(text)

    def test_parse_rejects_weight_line_for_a_foreign_offset(self):
        text = format_scheme_dump(first_order_scheme(1, 1)) + "c[3]=0,0\n"
        with pytest.raises(ValueError, match=r"unknown fields: c\[3\]"):
            parse_scheme_dump(text)

    @pytest.mark.parametrize("weight", ["1e3", "1E3", "2.5e-1", "1e10000000"])
    def test_parse_rejects_an_exponent(self, weight):
        text = f"m=1\nn=1\noffsets=-1,0\nc[-1]=0,{weight}\nc[0]=1,1\n"
        with pytest.raises(ValueError, match=r"c\[-1\] has a weight written with an exponent"):
            parse_scheme_dump(text)

    def test_parse_rejects_zero_denominator(self):
        text = "m=1\nn=1\noffsets=-1,0\nc[-1]=0,1/0\nc[0]=1,1\n"
        with pytest.raises(ValueError, match=r"c\[-1\] has a weight with a zero denominator"):
            parse_scheme_dump(text)

    @pytest.mark.parametrize("repeat", ["m=1\n", "c[0]=1,1\n", "c[0]=1,2\n"])
    def test_parse_rejects_repeated_field(self, repeat):
        text = format_scheme_dump(first_order_scheme(1, 1)) + repeat
        with pytest.raises(ValueError, match="repeats the"):
            parse_scheme_dump(text)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13])
    def test_block_walk_reads_the_lines_of_splitlines(self, monkeypatch, block):
        """Split a few characters at a time, a dump with every line break
        `str.splitlines` knows, CR LF and a CR before a CR LF among them, and
        blank and comment lines between its fields, gives the fields of one
        split of the whole text."""
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029", "\r\r\n"]
        dump = format_scheme_dump(master_scheme(SchemeSpec(2, 2, default_offsets(2, 2))))
        lines = [f" {line}\t" for line in dump.splitlines()]
        pieces = []
        for i, line in enumerate(lines):
            pieces += [line, breaks[i % len(breaks)], "# note", breaks[-1 - i % len(breaks)], "  "]
            pieces.append(breaks[(i + 5) % len(breaks)])
        text = "".join(pieces)
        whole = {}
        for raw in text.splitlines():
            line = raw.strip()
            if line and line[0] != "#":
                key, _, value = line.partition("=")
                whole[key.strip()] = value.strip()
        monkeypatch.setattr(fdmarch.schemes, "DUMP_BLOCK_CHARS", block)
        assert fdmarch.schemes._dump_fields(text) == whole
        assert format_scheme_dump(parse_scheme_dump(text)) == dump

    def test_parse_refuses_a_dump_of_too_many_fields(self):
        """A dump holds at most MAX_DUMP_FIELDS fields; one more is refused
        once the header is read, and the walk reads no line past it."""
        dump = format_scheme_dump(first_order_scheme(1, 1))
        extra = MAX_DUMP_FIELDS - 5
        text = dump + "".join(f"x{i}=0\n" for i in range(extra))
        with pytest.raises(ValueError, match="^scheme dump has unknown fields: x0, x1, x10, "):
            parse_scheme_dump(text)
        more = text + "x=0\n"
        with pytest.raises(ValueError, match=f"^scheme dump has over {MAX_DUMP_FIELDS} fields$"):
            parse_scheme_dump(more)
        with pytest.raises(ValueError, match=f"^scheme dump has over {MAX_DUMP_FIELDS} fields$"):
            parse_scheme_dump(more + "m=1\nnot a field\n")
        with pytest.raises(ValueError, match="^scheme dump is missing the 'm' field$"):
            parse_scheme_dump("".join(f"{i}=\n" for i in range(10**5)))


def fraction_outcome(read, text):
    """(numerator, denominator) of what `read` makes of text, or the type and
    message of what it raises."""
    try:
        weight = read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return (weight.numerator, weight.denominator) if isinstance(weight, F) else weight


# weight texts: the form a dump writes, and its neighbours that Fraction
# reads or refuses: signs, spaces, a / b, a signed denominator, decimals,
# underscores, non-ASCII digits and zero denominators
_digits = st.text("0123456789", min_size=1, max_size=25)
_weight_texts = st.one_of(
    st.builds(
        lambda sign, num, den: f"{sign}{num}" + (f"/{den}" if den is not None else ""),
        st.sampled_from(["", "+", "-"]), _digits, st.none() | _digits,
    ),
    st.lists(
        st.sampled_from(["0", "1", "7", "9", "+", "-", "/", " ", "\t", ".", "_", "e", "\u0663"]),
        max_size=10,
    ).map("".join),
)


def read_weight(text):
    """`_weight_pair` on a weight of a dump's c[0] line."""
    return _weight_pair(text, "c[0]")


EXPONENT_REFUSAL = (ValueError, "c[0] has a weight written with an exponent")


class TestWeightPairs:
    @given(_weight_texts)
    @settings(max_examples=500)
    def test_reads_what_fraction_reads(self, text):
        """The same lowest-terms pair as `Fraction(text)`, or the same
        refusal, on every text without an exponent; a text with one is
        refused unread, so it never reaches `Fraction`, which would expand
        an exponent such as 0e1000000 digit by digit."""
        if "e" in text.lower():
            assert fraction_outcome(read_weight, text) == EXPONENT_REFUSAL
        else:
            assert fraction_outcome(read_weight, text) == fraction_outcome(F, text)

    @pytest.mark.parametrize(
        "text",
        ["-3/6", "+4/2", "007/014", "-0/5", "5/0", "-5/0", "0/0", "1/-3", " 1/3", "1 / 3",
         "1_000/3", "1.5", "-.5", "1/3.", "\u0663/4", "", "+", "1/", "9" * 4301, "9/" + "9" * 4301],
    )
    def test_reads_what_fraction_reads_on_the_edges(self, text):
        assert fraction_outcome(read_weight, text) == fraction_outcome(F, text)

    @pytest.mark.parametrize("text", ["1e3", "1E3", "2.5e-1", "0e1000000", "1/3e2", "e", " 1e0"])
    def test_refuses_an_exponent_unread(self, monkeypatch, text):
        """A text with an exponent is refused before `Fraction` sees it."""
        monkeypatch.setattr(fdmarch.schemes, "Fraction", None)
        assert fraction_outcome(read_weight, text) == EXPONENT_REFUSAL

    def test_an_equal_pair_is_one(self):
        """X/X reduces to 1/1 however large X is, so it adds nothing to a
        row's denominator."""
        big = str(3**4000)
        assert read_weight(f"-{big}/{big}") == (-1, 1)


def _tampered_dump(text, deltas):
    """A scheme dump with deltas[(j, i)] added to the nu^j weight on offsets[i]."""
    lines = text.splitlines()
    for (j, i), delta in deltas.items():
        key, _, values = lines[3 + i].partition("=")
        vals = values.split(",")
        vals[j] = str(F(vals[j]) + delta)
        lines[3 + i] = f"{key}={','.join(vals)}"
    return "\n".join(lines) + "\n"


AUDITED_SPECS = [
    SchemeSpec(1, 29, OffsetSet.contiguous(15, 29)),
    SchemeSpec(2, 3, OffsetSet.contiguous(3, 6)),
    SchemeSpec(4, 2, OffsetSet([-5, -4, -2, -1, 0, 1, 2, 3, 5])),
    # a window with no pair of offsets +-k, and one without the offset 0:
    # the audit's unpaired and centreless paths
    SchemeSpec(1, 3, OffsetSet(range(4))),
    SchemeSpec(2, 2, OffsetSet([-2, -1, 1, 2, 3])),
]
AUDITED_IDS = ["m1-n29", "m2-n3-centred", "m4-n2-gapped", "m1-n3-one-sided", "m2-n2-centreless"]
# the first three, whose tables `layer_table_pins.json` pins
PINNED_AUDITED = 3
# those with the offset 0, where row 0 can be the identity, and those with a
# pair of offsets +-k
CENTRED = [pytest.param(s, id=i) for s, i in zip(AUDITED_SPECS, AUDITED_IDS) if 0 in s.offsets]
PAIRED = [
    pytest.param(s, id=i)
    for s, i in zip(AUDITED_SPECS, AUDITED_IDS)
    if any(k > 0 and -k in s.offsets for k in s.offsets)
]
# a stencil with a wide gap: its moments outgrow its weights by powers of 64
WIDE_SPEC = SchemeSpec(1, 3, OffsetSet([-1, 0, 1, 64]))


class TestOrderAudit:
    @pytest.mark.parametrize("spec", AUDITED_SPECS, ids=AUDITED_IDS)
    def test_every_single_weight_tamper_is_rejected(self, spec):
        s = master_scheme(spec)
        text = format_scheme_dump(s)
        assert parse_scheme_dump(text).layers == s.layers
        for j in range(spec.n + 1):
            for i in range(spec.points):
                with pytest.raises(ValueError, match="inconsistent"):
                    parse_scheme_dump(_tampered_dump(text, {(j, i): F(1, 10**9)}))

    @pytest.mark.parametrize("spec", AUDITED_SPECS, ids=AUDITED_IDS)
    def test_tamper_seen_only_by_the_top_moment_is_rejected(self, spec):
        """Adding d/w_i to a layer keeps every moment p < n*m and moves only p = n*m."""
        text = format_scheme_dump(master_scheme(spec))
        weights = [w for _, w in lagrange_numerators(spec.offsets)]
        top = spec.n * spec.m
        for j in range(spec.n + 1):
            deltas = {(j, i): F(1, 10**9 * w) for i, w in enumerate(weights)}
            with pytest.raises(ValueError, match=f"moment p={top}, layer {j}"):
                parse_scheme_dump(_tampered_dump(text, deltas))


def audit_outcome(audit, spec, table):
    """The message an order audit raises on `table`, or None if it passes."""
    try:
        audit(spec, table)
    except ArithmeticError as exc:
        return str(exc)
    return None


def edited(table, edits):
    """`table` with edits[j] = (D_j, W_j) replacing its row j, integers as given."""
    rows = list(table.int_rows)
    for j, row in edits.items():
        rows[j] = row
    return LayerTable(table.offsets, tuple(rows))


def slot_width(spec, table):
    """The least slot width B the packed audit admits, from the table's own
    integers; the audit rounds it up to whole bytes."""
    targets = [
        den * math.factorial(j * spec.m) // math.factorial(j)
        for j, (den, _) in enumerate(table.int_rows)
    ]
    widest = max(abs(w) for _, ints in table.int_rows for w in ints)
    reach = max(map(abs, spec.offsets)) ** (spec.points - 1)
    return (spec.points * reach * widest + max(targets)).bit_length() + 1


class TestPackedAuditMatchesTheLoop:
    """The packed audit passes and fails exactly where the triple loop of
    `order_conditions_by_loop` does, naming the same moment and layer, on
    tables edited directly."""

    @pytest.mark.parametrize("spec", AUDITED_SPECS, ids=AUDITED_IDS)
    def test_every_single_weight_tamper(self, spec):
        table = master_scheme(spec).layers
        assert audit_outcome(_check_order_conditions, spec, table) is None
        assert audit_outcome(order_conditions_by_loop, spec, table) is None
        for j, (den, ints) in enumerate(table.int_rows):
            for i in range(spec.points):
                for delta in (1, -(2**70)):
                    row = (den, ints[:i] + (ints[i] + delta,) + ints[i + 1 :])
                    tampered = edited(table, {j: row})
                    message = audit_outcome(_check_order_conditions, spec, tampered)
                    assert message is not None
                    assert message == audit_outcome(order_conditions_by_loop, spec, tampered)

    @pytest.mark.parametrize("spec", AUDITED_SPECS, ids=AUDITED_IDS)
    def test_top_moment_tamper(self, spec):
        """Adding 1/w_i to each weight of layer j moves only the moment p = n*m."""
        table = master_scheme(spec).layers
        weights = [w for _, w in lagrange_numerators(spec.offsets)]
        scale = math.lcm(*weights)
        top = spec.n * spec.m
        for j, (den, ints) in enumerate(table.int_rows):
            row = (den * scale, tuple(v * scale + den * scale // w for v, w in zip(ints, weights)))
            tampered = edited(table, {j: row})
            message = audit_outcome(_check_order_conditions, spec, tampered)
            assert message == f"order condition failed at moment p={top}, layer {j} for {spec}"
            assert message == audit_outcome(order_conditions_by_loop, spec, tampered)

    @pytest.mark.parametrize("spec", [*AUDITED_SPECS, WIDE_SPEC], ids=[*AUDITED_IDS, "m1-n3-wide"])
    def test_tampers_that_keep_the_low_moments(self, spec):
        """Adding t * C / prod_{l in S, l != i} (k_i - k_l) to the weights of
        the points i in S, C making these integers, keeps every moment
        p < |S| - 1 and moves p = |S| - 1 by t * C: an error that outgrows
        the weights by a power of the offsets.  Added to one layer, or to two
        at different scales, it is named alike by both audits."""
        table = master_scheme(spec).layers
        ks = spec.offsets
        chosen = sorted({0, 1, spec.points // 2, spec.points - 2, spec.points - 1})
        subsets = [*itertools.combinations(chosen, 2), *itertools.combinations(chosen, 3)]
        layers = sorted({0, 1, len(table) // 2, len(table) - 2, len(table) - 1})

        def bump(j, shift, scale):
            den, ints = table.int_rows[j]
            return (den, tuple(w + scale * shift.get(i, 0) for i, w in enumerate(ints)))

        for subset in subsets:
            ws = [math.prod(ks[i] - ks[l] for l in subset if l != i) for i in subset]
            shift = {i: math.lcm(*ws) // w for i, w in zip(subset, ws)}
            for j in layers:
                for t in (1, 2**300):
                    edits = [{j: bump(j, shift, t)}]
                    if j + 1 < len(table):
                        edits.append({j: bump(j, shift, t), j + 1: bump(j + 1, shift, -1)})
                    for edit in edits:
                        tampered = edited(table, edit)
                        message = audit_outcome(_check_order_conditions, spec, tampered)
                        assert message is not None
                        assert message == audit_outcome(order_conditions_by_loop, spec, tampered)

    @pytest.mark.parametrize("spec", CENTRED)
    def test_zero_rows_over_wide_denominators(self, spec):
        """Row 0 the identity and every later row zero over 2^t: the moment
        p = m fails first, in layer 1, however far its target outgrows the
        weights."""
        row0 = (1, tuple(int(k == 0) for k in spec.offsets))
        for t in (0, 64, 1000):
            zero = (2**t, (0,) * spec.points)
            tampered = LayerTable(spec.offsets, (row0,) + (zero,) * spec.n)
            message = audit_outcome(_check_order_conditions, spec, tampered)
            assert message == f"order condition failed at moment p={spec.m}, layer 1 for {spec}"
            assert message == audit_outcome(order_conditions_by_loop, spec, tampered)

    @pytest.mark.parametrize("spec", AUDITED_SPECS, ids=AUDITED_IDS)
    def test_carry_tamper(self, spec):
        """W_ji += 2^B and W_(j+1)i -= 1, with B the untouched table's width,
        leaves every packed integer of width B as it was; the tampered table's
        own width is wider, so the audit still sees layer j fail at p = 0."""
        table = master_scheme(spec).layers
        width = slot_width(spec, table)

        def packed(t):
            columns = zip(*(ints for _, ints in t.int_rows))
            return [sum(w << (width * j) for j, w in enumerate(col)) for col in columns]

        for j in range(spec.n):
            (den, ints), (den_up, ints_up) = table.int_rows[j], table.int_rows[j + 1]
            for i in range(spec.points):
                tampered = edited(table, {
                    j: (den, ints[:i] + (ints[i] + 2**width,) + ints[i + 1 :]),
                    j + 1: (den_up, ints_up[:i] + (ints_up[i] - 1,) + ints_up[i + 1 :]),
                })
                assert packed(tampered) == packed(table)
                assert slot_width(spec, tampered) > width
                message = audit_outcome(_check_order_conditions, spec, tampered)
                assert message == f"order condition failed at moment p=0, layer {j} for {spec}"
                assert message == audit_outcome(order_conditions_by_loop, spec, tampered)

    @staticmethod
    def pair_tampers(spec, table, sign):
        """(layer j, tampered table, the moment p where it fails first) for
        each layer j, delta in (1, -2^70) and pair +-k on the stencil:
        delta added to W_jk and sign * delta to W_j,-k fails at p = 0
        (sign 1) or p = 1 (sign -1).  A second tamper cancels that moment
        too, so the next one of its parity fails: with sign 1, -2 * delta
        added at the offset 0 as well; with sign -1, the tamper of the next
        pair +-l scaled by -k added to this one scaled by l."""
        index = {k: i for i, k in enumerate(spec.offsets)}
        pairs = [k for k in spec.offsets if k > 0 and -k in index]
        for j, (den, ints) in enumerate(table.int_rows):
            for delta in (1, -(2**70)):
                for k, l in zip(pairs, pairs[1:] + pairs[:1]):
                    shifts = [({k: delta, -k: sign * delta}, 0 if sign == 1 else 1)]
                    if sign == 1 and 0 in index:
                        shifts.append(({k: delta, -k: delta, 0: -2 * delta}, 2))
                    if sign == -1 and l != k:
                        shifts.append(({k: l * delta, -k: -l * delta, l: -k * delta, -l: k * delta}, 3))
                    for shift, p in shifts:
                        row = list(ints)
                        for offset, d in shift.items():
                            row[index[offset]] += d
                        yield j, edited(table, {j: (den, tuple(row))}), p

    @pytest.mark.parametrize("spec", PAIRED)
    def test_even_pair_tamper(self, spec):
        """delta added to W_jk and to W_j,-k moves the even moments and
        cancels in the odd ones."""
        table = master_scheme(spec).layers
        for j, tampered, p in self.pair_tampers(spec, table, 1):
            message = audit_outcome(_check_order_conditions, spec, tampered)
            assert message == f"order condition failed at moment p={p}, layer {j} for {spec}"
            assert message == audit_outcome(order_conditions_by_loop, spec, tampered)

    @pytest.mark.parametrize("spec", PAIRED)
    def test_odd_pair_tamper(self, spec):
        """delta added to W_jk and -delta to W_j,-k cancels in the even
        moments, so an odd moment fails first."""
        table = master_scheme(spec).layers
        for j, tampered, p in self.pair_tampers(spec, table, -1):
            message = audit_outcome(_check_order_conditions, spec, tampered)
            assert message == f"order condition failed at moment p={p}, layer {j} for {spec}"
            assert message == audit_outcome(order_conditions_by_loop, spec, tampered)


class TestPointLimit:
    def test_every_builder_refuses_a_scheme_over_the_limit(self, monkeypatch):
        """Each way to a scheme refuses 141 points, in the words the CLI
        prints, before it builds a window or a numerator."""

        def build(*args, **kwargs):
            raise AssertionError("a refused scheme built a window or numerators")

        monkeypatch.setattr(OffsetSet, "contiguous", build)
        monkeypatch.setattr(fdmarch.schemes, "lagrange_numerators", build)
        over = f"n\\*m\\+1 = 141 stencil points, over the limit of {MAX_SCHEME_POINTS}"
        calls = [
            (lambda: SchemeSpec(1, 140, range(141)), "n=140", "m=1"),
            (lambda: default_offsets(1, 140), "n=140", "m=1"),
            (lambda: first_order_scheme(140, 70), "n=1", "m=140"),
            (lambda: classify_first_order(140), "n=1", "m=140"),
            (lambda: nonlinear_layers(140, range(141)), "n=140", "m=1"),
            (lambda: convergence_study(1, 140, float("nan")), "n=140", "m=1"),
        ]
        for call, n, m in calls:
            with pytest.raises(StencilSizeError, match=f"^an order {n} scheme for {m} has {over}$"):
                call()


class TestTableSizeRule:
    def test_every_contiguous_window_is_admitted(self, monkeypatch):
        """Every contiguous window up to MAX_SCHEME_POINTS passes
        the size rule.  Of the windows of N points, 0..N-1 has the largest
        offsets and numerators; for one m its integers grow with n while the
        limit falls, so the largest n under MAX_SCHEME_POINTS covers the rest.
        The order audit is stubbed, since it adds seconds and no size check."""
        monkeypatch.setattr(fdmarch.schemes, "_check_order_conditions", lambda spec, table: None)
        for m in range(1, MAX_SCHEME_POINTS):
            n = (MAX_SCHEME_POINTS - 1) // m
            master_scheme(SchemeSpec(m, n, OffsetSet(range(n * m + 1))))

    def test_offsets_alone_refused_before_any_numerator(self, monkeypatch):
        """Offsets of 400 digits are refused before the Lagrange numerators,
        which grow as N^2 products of them, are built."""

        def numerators(offsets):
            raise AssertionError("the numerators of a refused stencil were built")

        monkeypatch.setattr(fdmarch.schemes, "lagrange_numerators", numerators)
        spec = SchemeSpec(1, 29, OffsetSet(10**400 + k for k in range(30)))
        with pytest.raises(ConfigurationError, match="needs integers of over 14284 bits"):
            master_scheme(spec)

    def test_limit_is_the_work_bound_or_the_printable_size(self):
        with pytest.raises(ConfigurationError, match="over 3818 bits, the limit for 140 points"):
            check_table_size(OffsetSet(range(140)), 3818 - 140 * 8 + 1)
        check_table_size(OffsetSet(range(140)), 3818 - 140 * 8)
        with pytest.raises(ConfigurationError, match="over 14284 bits, the limit for 2 points"):
            check_table_size(OffsetSet([0, 1]), 14284 - 2 + 1)
        check_table_size(OffsetSet([0, 1]), 14284 - 2)

    def test_dump_bound_holds_every_admitted_dump(self):
        """MAX_DUMP_CHARS is at least the longest dump `format_scheme_dump`
        can print of a table the rules admit, N = 2..MAX_SCHEME_POINTS.  An
        upper bound per N: m = 1, so N weights a line; the window of least
        reach, which leaves the integers the most bits (each further bit of
        reach takes N bits from them); every offset as wide as the widest;
        and every weight -W/D with W and D of the most digits."""
        longest = 0
        for points in range(2, MAX_SCHEME_POINTS + 1):
            offsets = OffsetSet.contiguous(points // 2, points - 1)
            digits = len(str(2 ** check_table_size(offsets) - 1))
            offset = len(str(offsets[0]))
            header = len(f"m=1\nn={points - 1}\noffsets=\n") + points * (offset + 1)
            line = len("c[]=\n") + offset + points * (2 * digits + 3)  # "-W/D," each
            longest = max(longest, header + points * line)
        assert longest > 35 * 10**6
        assert MAX_DUMP_CHARS >= longest

    def test_dump_over_the_bound_refused_before_it_is_split(self, monkeypatch):
        """A dump padded with a comment to MAX_DUMP_CHARS still parses; one
        character more is refused before its lines are read."""
        dump = format_scheme_dump(master_scheme(SchemeSpec(2, 2, default_offsets(2, 2))))
        text = dump + "#" * (MAX_DUMP_CHARS - len(dump))
        assert parse_scheme_dump(text).spec == SchemeSpec(2, 2, default_offsets(2, 2))

        def fields(text):
            raise AssertionError("a refused dump was split")

        monkeypatch.setattr(fdmarch.schemes, "_dump_fields", fields)
        message = f"^a scheme dump is over the limit of {MAX_DUMP_CHARS} characters$"
        with pytest.raises(ConfigurationError, match=message):
            parse_scheme_dump(text + "#")


# -- frozen tables -----------------------------------------------------------------------

# the sha256 of each pinned table's dump and its float rows as float hex,
# frozen while the table still held one Fraction per weight
LAYER_TABLE_PINS = Path(__file__).parent / "data" / "layer_table_pins.json"
BURGERS_WINDOWS = {1: [-1, 0], 2: [-1, 0, 1], 3: [-2, -1, 0, 1]}  # the fig-burgers windows


def pinned_tables():
    """name -> scheme of every pinned table: the `PIN_SPECS` entries, the 15 uw
    orders of fig-advection, the first `PINNED_AUDITED` of `AUDITED_SPECS`
    with every truncation, and the layered tables of fig-burgers' three
    windows."""
    tables = {f"pin/{pin_id(spec)}": master_scheme(spec) for spec in PIN_SPECS}
    for s in range(15):
        n, r = advection_family_spec("uw", s)
        tables[f"uw/n{n}"] = master_scheme(SchemeSpec(1, n, OffsetSet.contiguous(r, n)))
    for spec, name in zip(AUDITED_SPECS[:PINNED_AUDITED], AUDITED_IDS):
        scheme = master_scheme(spec)
        tables[f"audited/{name}"] = scheme
        for j in range(spec.n + 1):
            tables[f"audited/{name}/truncated{j}"] = scheme.truncated(j)
    for n, window in BURGERS_WINDOWS.items():
        layers = nonlinear_layers(n, window)
        tables[f"burgers/n{n}"] = Scheme(SchemeSpec(1, n, layers.offsets), layers)
    return tables


def table_pin(scheme):
    return {
        "dump_sha256": hashlib.sha256(format_scheme_dump(scheme).encode()).hexdigest(),
        "float_rows": [[w.hex() for w in row] for row in scheme.layers.float_rows.tolist()],
    }


class TestLayerTablesArePinned:
    def test_tables(self):
        pins = json.loads(LAYER_TABLE_PINS.read_text())
        tables = pinned_tables()
        assert tables.keys() == pins.keys()
        for name, scheme in tables.items():
            assert table_pin(scheme) == pins[name], name
