"""Scheme generator: master formula, closed forms, layers, error terms, dumps."""

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmarch.exact import OffsetSet, RatPoly, lagrange_basis, lagrange_numerators
from fdmarch.schemes import (
    ErrorTerm,
    LayerTable,
    Scheme,
    SchemeSpec,
    StencilSizeError,
    UnsupportedSchemeError,
    advection_coefficients,
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

from reference_tables import (
    ADVECTION_N3_OFFSETS,
    ADVECTION_N3_RAW_LAYERS,
    ADVECTION_N4_OFFSETS,
    ADVECTION_N4_RAW_LAYERS,
    DIFFUSION_N2,
    DIFFUSION_N3,
    DIFFUSION_N4,
    folded_layers,
)

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
        row0 = s.layers[0]
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
            rescaled = tuple(scale * w for w in adv.layers[2 * j])
            assert rescaled == diff.layers[j]

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
        got, items, array = s.weights_at(nu), s.float_items(nu), s.float_weights(nu)
        assert [k for k, _ in items] == list(s.offsets) == list(got)
        for i, (k, w) in enumerate(items):
            want = s.coefficient(k)(nu)  # RatPoly's Horner on Fraction coefficients
            assert type(got[k]) is float and type(w) is float
            assert got[k].hex() == w.hex() == array[i].hex()
            if kind == "master" or want != 0:
                assert got[k].hex() == want.hex()
            else:
                assert got[k] == want

    def test_float_items_sorted(self):
        s = master_scheme(SchemeSpec(2, 1, OffsetSet([1, -1, 0])))
        items = s.float_items(0.25)
        assert [k for k, _ in items] == [-1, 0, 1]
        assert [w for _, w in items] == pytest.approx([0.25, 0.5, 0.25])

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
            assert swapped.float_items(nu) == t.float_items(nu)
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
        assert coeff == RatPoly.from_roots(ks) / -math.factorial(4)

    def test_symmetric_diffusion_merges_terms(self):
        """On the centered m=2 stencil the dx^N defect vanishes and terms merge."""
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        terms = error_term(s).terms()
        powers = [p for p, _ in terms]
        assert powers == [6]  # dx^5 absent; dx^6 spatial + temporal merged
        coeff = terms[0][1]
        # nu/90 from the x^6 interpolation defect, 1/12 nu^2, then the
        # -nu^3/3! temporal remainder folded with the q-side nu^3/12 term
        assert coeff == RatPoly((0, F(-1, 90), F(1, 12), F(-1, 6)))

    def test_terms_sorted_by_power(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-2, 0, 1])))
        powers = [p for p, _ in error_term(s).terms()]
        assert powers == sorted(powers)


# -- nonlinear layer extraction ----------------------------------------------------------

class TestNonlinearLayers:
    def test_two_point_table(self):
        layers = nonlinear_layers(1, [-1, 0])
        assert layers[0] == (0, 1)
        assert layers[1] == (-1, 1)

    def test_four_point_table(self):
        layers = nonlinear_layers(3, [-2, -1, 0, 1])
        assert layers[0] == (0, 0, 1, 0)
        assert layers[1] == (F(1, 6), -1, F(1, 2), F(1, 3))
        assert layers[2] == (0, F(1, 2), -1, F(1, 2))
        assert layers[3] == (F(-1, 6), F(1, 2), F(-1, 2), F(1, 6))

    def test_matches_linear_scheme_layers(self):
        ks = OffsetSet([-1, 0, 1])
        assert nonlinear_layers(2, ks).rows == master_scheme(
            SchemeSpec(1, 2, ks)
        ).layers.rows

    def test_reach(self):
        assert nonlinear_layers(3, [-2, -1, 0, 1]).reach == 2


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

    def test_parse_rejects_zero_denominator(self):
        text = "m=1\nn=1\noffsets=-1,0\nc[-1]=0,1/0\nc[0]=1,1\n"
        with pytest.raises(ValueError, match=r"c\[-1\] has a weight with a zero denominator"):
            parse_scheme_dump(text)

    @pytest.mark.parametrize("repeat", ["m=1\n", "c[0]=1,1\n", "c[0]=1,2\n"])
    def test_parse_rejects_repeated_field(self, repeat):
        text = format_scheme_dump(first_order_scheme(1, 1)) + repeat
        with pytest.raises(ValueError, match="repeats the"):
            parse_scheme_dump(text)


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
]
AUDITED_IDS = ["m1-n29", "m2-n3-centred", "m4-n2-gapped"]


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
