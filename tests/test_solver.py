"""Periodic marching: linear steps, nonlinear layered steps, shock tracking, convergence."""

import contextlib
import functools
import io
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmarch.cli
import fdmarch.solver
import fdmarch.stability
from fdmarch.exact import OffsetSet
from fdmarch.schemes import (
    LayerTable,
    Scheme,
    SchemeSpec,
    default_offsets,
    master_scheme,
    nonlinear_layers,
)
from fdmarch.stability import advection_family_spec, max_growth
from fdmarch.solver import (
    ConfigurationError,
    DensityFamily,
    FloatStencil,
    GridField,
    LinearProblem,
    LinearTerm,
    burgers_densities,
    burgers_ramp,
    convergence_study,
    gaussian,
    identity_densities,
    make_profile,
    rectangle,
    run_linear,
    run_nonlinear,
    shock_front,
    sine_profile,
    step_linear,
    step_nonlinear,
    triangle,
)
from fdmarch.solver import (
    MAX_MARCH_STEPS,
    MAX_MARCH_WORK,
    WINDOW_LIMIT,
    _SliceSum,
    _Workspace,
    _layered_workspace,
    _march,
    _shared_magnitudes,
)

bounded_fields = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    min_size=12,
    max_size=30,
).map(lambda vals: GridField(np.array(vals), dx=0.1, origin=0.0))


# -- grid fields and profiles ---------------------------------------------------------

class TestGridField:
    def test_sample_left_edges(self):
        f = GridField.sample(lambda x: x, (0.0, 1.0), 4)
        assert f.x() == pytest.approx([0.0, 0.25, 0.5, 0.75])
        assert f.dx == 0.25
        assert f.n_cells == 4
        assert f.length == pytest.approx(1.0)

    def test_mass(self):
        f = GridField(np.array([1.0, 2.0, 3.0]), 0.5, 0.0)
        assert f.mass() == 6.0

    def test_rejects_empty_and_3d(self):
        for shape in [(), (0,), (0, 4), (2, 0), (2, 2, 2)]:
            with pytest.raises(ConfigurationError):
                GridField(np.zeros(shape), 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            GridField.sample(triangle, (0.0, 1.0), 0)
        with pytest.raises(ConfigurationError):
            GridField.sample(triangle, (1.0, 1.0), 8)

    def test_stack_and_rows(self):
        fields = [GridField.sample(p, (-2.0, 2.0), 8) for p in (triangle, rectangle, gaussian)]
        stack = GridField.stack(fields)
        assert stack.values.shape == (3, 8)
        assert (stack.n_cells, stack.dx, stack.origin) == (8, 0.5, -2.0)
        assert np.array_equal(stack.x(), fields[0].x())
        rows = stack.rows()
        assert len(rows) == 3
        for row, f in zip(rows, fields):
            assert (row.dx, row.origin) == (f.dx, f.origin)
            assert row.values.tobytes() == f.values.tobytes()
        assert fields[0].rows()[0].values.tobytes() == fields[0].values.tobytes()

    def test_stack_needs_one_grid(self):
        f = GridField.sample(triangle, (-2.0, 2.0), 8)
        for other in [
            GridField.sample(triangle, (-2.0, 2.0), 16),
            GridField.sample(triangle, (-1.0, 3.0), 8),
            GridField(f.values, 0.25, -2.0),
            GridField.stack([f, f]),
        ]:
            with pytest.raises(ConfigurationError):
                GridField.stack([f, other])

    def test_summaries_refuse_a_stack(self):
        """mass and shock_front never sum or scan across rows."""
        stack = GridField(np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0]]), 0.5, 0.0)
        with pytest.raises(ConfigurationError, match="one field"):
            stack.mass()
        with pytest.raises(ConfigurationError, match="one field"):
            shock_front(stack)
        assert [r.mass() for r in stack.rows()] == [1.0, 3.0]
        assert [shock_front(r) for r in stack.rows()] == [0.25, 0.75]


class TestProfiles:
    def test_triangle(self):
        x = np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
        assert triangle(x) == pytest.approx([0.0, 0.5, 1.0, 0.75, 0.0, 0.0])

    def test_rectangle(self):
        x = np.array([-1.5, -1.0, 0.0, 1.0, 1.5])
        assert rectangle(x) == pytest.approx([0.0, 1.0, 1.0, 1.0, 0.0])

    def test_gaussian_peak(self):
        assert gaussian(np.array([0.0]))[0] == 1.0

    def test_ramp(self):
        x = np.array([-3.0, 0.0, 0.4, 1.0, 2.0])
        assert burgers_ramp(x) == pytest.approx([1.0, 1.0, 0.6, 0.0, 0.0])

    def test_sine_is_box_periodic(self):
        prof = sine_profile((-5.0, 5.0))
        assert prof(np.array([-5.0]))[0] == pytest.approx(0.0)
        assert prof(np.array([-2.5]))[0] == pytest.approx(1.0)
        assert prof(np.array([5.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            make_profile("plateau", (0.0, 1.0))


# -- linear stepping --------------------------------------------------------------------

class TestStepLinear:
    def test_exact_shift(self):
        s = master_scheme(SchemeSpec(1, 2, OffsetSet([-1, 0, 1])))
        f = GridField(np.arange(8, dtype=float), 0.1, 0.0)
        out = step_linear(f, s, 1.0)
        assert np.array_equal(out.values, np.roll(f.values, -1))

    def test_constant_field_fixed_point(self):
        s = master_scheme(SchemeSpec(2, 2, OffsetSet.contiguous(2, 4)))
        f = GridField(np.full(16, 3.25), 0.1, 0.0)
        out = step_linear(f, s, 0.37)
        assert out.values == pytest.approx(f.values, abs=1e-14)

    def test_impulse_spreads(self):
        s = master_scheme(SchemeSpec(2, 1, OffsetSet([-1, 0, 1])))
        f = GridField(np.eye(9)[4], 0.1, 0.0)
        out = step_linear(f, s, 0.25)
        want = np.zeros(9)
        want[3:6] = (0.25, 0.5, 0.25)
        assert out.values == pytest.approx(want)

    def test_grid_too_small(self):
        s = master_scheme(SchemeSpec(1, 3, OffsetSet([-2, -1, 0, 1])))
        f = GridField(np.zeros(4), 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            step_linear(f, s, 0.5)

    @given(bounded_fields, st.integers(1, 3), st.sampled_from([-0.9, -0.3, 0.4, 0.8]))
    @settings(max_examples=50, deadline=None)
    def test_mass_conservation(self, field, n, nu):
        s = master_scheme(SchemeSpec(1, n, OffsetSet.contiguous((n + 1) // 2, n)))
        out = step_linear(field, s, nu)
        scale = max(1.0, float(np.sum(np.abs(field.values))))
        assert abs(out.mass() - field.mass()) <= 1e-10 * scale

    @given(bounded_fields, st.integers(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_integer_courant_is_a_permutation(self, field, shift):
        """m=1 with nu equal to a stencil offset moves values without changing them."""
        s = master_scheme(SchemeSpec(1, 4, OffsetSet.contiguous(2, 4)))
        out = step_linear(field, s, shift)
        assert np.array_equal(out.values, np.roll(field.values, -shift))


class TestApplyStencil:
    """One stencil step, a one-step `_march`, against rolled copies."""

    @staticmethod
    def rolled_reference(values, items):
        """The stencil as a weighted sum of rolled copies, added in item order."""
        out = np.zeros_like(values)
        for k, w in items:
            if w:
                # roll by -k so position j reads values[j + k] with periodic wrap
                out += w * np.roll(values, -k)
        return out

    @pytest.mark.parametrize("kind", ["negative", "positive", "mixed"])
    def test_matches_rolled_copies_bitwise(self, kind):
        rng = np.random.default_rng({"negative": 1, "positive": 2, "mixed": 3}[kind])
        for n_cells in range(3, 41):
            reach = (n_cells - 1) // 2
            pool = {
                "negative": range(-reach, 0),
                "positive": range(1, reach + 1),
                "mixed": range(-reach, reach + 1),
            }[kind]
            values = rng.normal(size=n_cells)
            for _ in range(4):
                size = rng.integers(1, len(pool) + 1)
                # always include both ends of the pool, so the reach is (N-1)//2
                chosen = rng.choice(pool, size=size, replace=False).tolist()
                offsets = sorted(set(chosen) | {pool[0], pool[-1]})
                weights = rng.normal(size=len(offsets))
                weights[rng.integers(len(offsets))] = 0.0
                items = [(int(k), float(w)) for k, w in zip(offsets, weights)]
                got = _march(values, [FloatStencil(items)], 1)
                assert np.array_equal(got, self.rolled_reference(values, items)), (n_cells, items)
                rng.shuffle(items)
                got = _march(values, [FloatStencil(items)], 1)
                assert np.array_equal(got, self.rolled_reference(values, items)), (n_cells, items)

    def test_spectral_oracle_order_29(self):
        """625 steps of the order-29 uw scheme at nu = -4/5 on 100 cells equal the
        exact discrete evolution: every Fourier mode times g(theta)^steps."""
        f = GridField.sample(triangle, (-5.0, 5.0), 100)
        offs = OffsetSet.contiguous(15, 29)
        problem = LinearProblem((LinearTerm(1, -1.0, offs),), dt=0.08, n=29)
        steps = 625
        out = run_linear(problem, f, steps)
        (scheme,), (nu,) = problem.schemes(), problem.courant_numbers(f.dx)
        assert nu == pytest.approx(-0.8)
        theta = 2.0 * np.pi * np.arange(f.n_cells) / f.n_cells
        weights = scheme.float_weights(nu).tolist()
        g = sum(w * np.exp(1j * k * theta) for k, w in zip(scheme.offsets, weights))
        want = np.fft.ifft(g**steps * np.fft.fft(f.values)).real
        assert np.max(np.abs(out.values - want)) < 1e-10


def window_sizes(points):
    """Cell counts for a stencil of `points` items: a small grid, the largest
    on the window-product side of `WINDOW_LIMIT` and the least above it."""
    return (2 * points + 1, WINDOW_LIMIT // points, WINDOW_LIMIT // points + 1)


class TestKernelPaths:
    """A one-step `_march` against the rolled reference, by bytes, on both sides
    of `WINDOW_LIMIT`: the window product and the slice loop add the same
    terms in the same order from +0.0."""

    rolled_reference = staticmethod(TestApplyStencil.rolled_reference)

    @pytest.mark.parametrize("points", [2, 5, 16, 30])
    def test_shuffled_items(self, points):
        rng = np.random.default_rng(points)
        for n_cells in window_sizes(points):
            values = rng.normal(size=n_cells) * 10.0 ** rng.uniform(-8, 8, size=n_cells)
            offsets = rng.choice(np.arange(-points, points + 1), size=points, replace=False)
            weights = rng.normal(size=points) * 10.0 ** rng.uniform(-4, 4, size=points)
            items = [(int(k), float(w)) for k, w in zip(offsets, weights)]
            for _ in range(3):
                rng.shuffle(items)
                want = self.rolled_reference(values, items)
                got = _march(values, [FloatStencil(items)], 1)
                assert got.tobytes() == want.tobytes(), (n_cells, items)

    @pytest.mark.parametrize("points", [3, 6, 30])
    def test_zero_weights_over_non_finite_values(self, points):
        """inf and nan under zero weights are skipped on both paths, and where
        they meet a nonzero weight both paths give the same non-finite bytes."""
        rng = np.random.default_rng(100 + points)
        offsets = list(range(-(points // 2), points - points // 2))
        for n_cells in window_sizes(points):
            values = rng.normal(size=n_cells)
            values[rng.choice(n_cells, size=3, replace=False)] = (np.inf, -np.inf, np.nan)
            for zeros in ({0}, {points - 1}, set(range(0, points, 2)), set(range(points))):
                draws = rng.normal(size=points)
                weights = [0.0 if i in zeros else float(w) for i, w in enumerate(draws)]
                items = list(zip(offsets, weights))
                with np.errstate(invalid="ignore"):
                    want = self.rolled_reference(values, items)
                    got = _march(values, [FloatStencil(items)], 1)
                    assert got.tobytes() == want.tobytes(), (n_cells, zeros)
                    rng.shuffle(items)
                    want = self.rolled_reference(values, items)
                    got = _march(values, [FloatStencil(items)], 1)
                    assert got.tobytes() == want.tobytes(), (n_cells, zeros)

    @pytest.mark.parametrize("points", [2, 7, 30])
    def test_sum_starts_at_positive_zero(self, points):
        """Negative weights on a zero field make -0.0 terms; the sum from +0.0
        is +0.0 everywhere."""
        offsets = list(range(-(points // 2), points - points // 2))
        items = [(k, -1.0 - 0.5 * i) for i, k in enumerate(offsets)]
        for n_cells in window_sizes(points):
            got = _march(np.zeros(n_cells), [FloatStencil(items)], 1)
            assert got.tobytes() == np.zeros(n_cells).tobytes()
            assert got.tobytes() == self.rolled_reference(np.zeros(n_cells), items).tobytes()


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 100, WINDOW_LIMIT])
def test_numpy_add_reduce_folds_rows_in_order(n):
    """The window product's sum rests on this: numpy reduces a C-contiguous
    (K, n) float array over axis 0 row after row, from `initial`.  A numpy
    whose reduction order differs fails here, by name."""
    rng = np.random.default_rng(n)
    for rows in (1, 2, 3, 5, 8, 9, 17, 64):
        a = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-12, 12, size=(rows, n))
        a[:, 0] = -0.0
        fold = np.zeros(n)
        for row in a:
            fold = fold + row
        got = np.add.reduce(a, axis=0, initial=0.0)
        assert a.flags.c_contiguous
        assert got.tobytes() == fold.tobytes(), rows
        assert not np.signbit(got[0])


@pytest.mark.parametrize("n", [2, 3, 100, WINDOW_LIMIT // 4])
def test_numpy_add_reduce_folds_stacked_rows_in_order(n):
    """The stacked window product's sum: a C-contiguous (stack, K, n) array
    reduced over axis -2 folds each stack entry's K rows in order, from
    `initial`, the same bits as reducing that entry alone."""
    rng = np.random.default_rng(n)
    for stack in (1, 2, 3):
        for rows in (1, 2, 5, 9, 30):
            shape = (stack, rows, n)
            a = rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 12, size=shape)
            a[:, :, 0] = -0.0
            got = np.add.reduce(a, axis=-2, initial=0.0)
            for i in range(stack):
                want = np.add.reduce(a[i], axis=0, initial=0.0)
                assert got[i].tobytes() == want.tobytes(), (stack, rows)
            assert not np.signbit(got[:, 0]).any()


def uw_problem(n, dx=0.1):
    """fig-advection's order-n uw scheme at nu = -4/5 on a grid of spacing dx."""
    n_, r = advection_family_spec("uw", (n - 1) // 2)
    return LinearProblem((LinearTerm(1, -1.0, OffsetSet.contiguous(r, n_)),), 0.8 * dx, n)


class TestStackedKernel:
    """A (rows, cells) stack marches as one; each row comes out with the bytes
    a lone march of it gives, on both sides of `WINDOW_LIMIT`."""

    @staticmethod
    def assert_rows_alone(march, stack):
        """march(stack) equals march(row) for every row, byte for byte."""
        got = march(stack)
        assert got.values.shape == stack.values.shape
        for i, row in enumerate(stack.rows()):
            want = march(row).values
            assert [v.hex() for v in got.values[i]] == [float(v).hex() for v in want], i

    @pytest.mark.parametrize("n", [1, 5, 29])
    @pytest.mark.parametrize("profiles", [(triangle, rectangle), (triangle, rectangle, gaussian)])
    def test_uw_ladder_rows(self, n, profiles):
        box = (-5.0, 5.0)
        stack = GridField.stack([GridField.sample(p, box, 100) for p in profiles])
        problem = uw_problem(n)
        assert problem.courant_numbers(stack.dx) == pytest.approx((-0.8,))
        seen = []

        def march(field):
            return run_linear(problem, field, 60, callback=lambda s, f: seen.append(f.values.shape))

        self.assert_rows_alone(march, stack)
        assert seen[:60] == [(len(profiles), 100)] * 60

    def test_stack_above_window_limit(self):
        """Four rows of 1000 cells under 6 points take the slice loop; each row
        alone takes the window product."""
        rng = np.random.default_rng(11)
        stack = GridField(rng.normal(size=(4, 1000)), 0.01, 0.0)
        problem = uw_problem(5, stack.dx)
        points = len(problem.term_offsets(problem.terms[0]))
        assert points * 1000 <= WINDOW_LIMIT < 4 * points * 1000
        self.assert_rows_alone(lambda f: run_linear(problem, f, 25), stack)

    @pytest.mark.parametrize("cells", [100, 1000])
    def test_non_finite_row_leaves_the_others(self, cells):
        """inf and nan in one row spread through that row only; the other rows
        keep the bytes of their lone marches (window product at 100 cells,
        slice loop at 1000)."""
        rng = np.random.default_rng(cells)
        values = rng.normal(size=(3, cells))
        values[1, [3, cells // 2]] = (np.inf, np.nan)
        stack = GridField(values, 10.0 / cells, -5.0)
        problem = uw_problem(15, stack.dx)
        with np.errstate(invalid="ignore", over="ignore"):
            got = run_linear(problem, stack, 30)
            for i in (0, 2):
                want = run_linear(problem, stack.rows()[i], 30).values
                assert got.values[i].tobytes() == want.tobytes(), i
        assert np.isfinite(got.values[[0, 2]]).all()
        assert not np.isfinite(got.values[1]).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layered_update_rows(self, n):
        """The layered Burgers update runs on the same kernel for a stack."""
        box = (-5.0, 5.0)
        windows = TestLayeredKernel.WINDOWS
        layers = nonlinear_layers(n, windows[n])
        profiles = (burgers_ramp, sine_profile(box), gaussian)
        stack = GridField.stack([GridField.sample(p, box, 200) for p in profiles])
        self.assert_rows_alone(
            lambda f: run_nonlinear(f, layers, burgers_densities(n), 0.5, 40), stack
        )



def traced_peak(march):
    """The peak of the memory tracemalloc traces, numpy's buffers included,
    while `march()` runs."""
    tracemalloc.start()
    try:
        march()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoPerStepAllocation:
    """A run allocates its workspace once: 1000 steps of a (2, 100) stack
    peak at no more traced memory than 10 steps, give or take 16 KB."""

    def test_run_linear(self):
        box = (-5.0, 5.0)
        stack = GridField.stack([GridField.sample(p, box, 100) for p in (triangle, rectangle)])
        problem = uw_problem(29)
        run_linear(problem, stack, 1)  # the scheme is built and kept outside the traced runs
        short = traced_peak(lambda: run_linear(problem, stack, 10))
        long = traced_peak(lambda: run_linear(problem, stack, 1000))
        assert long <= short + 16 * 1024, (short, long)

    def test_run_nonlinear(self):
        box = (-5.0, 5.0)
        stack = GridField.stack([GridField.sample(p, box, 100) for p in (burgers_ramp, gaussian)])
        layers = nonlinear_layers(3, TestLayeredKernel.WINDOWS[3])
        march = lambda steps: run_nonlinear(stack, layers, burgers_densities(3), 0.5, steps)
        march(1)  # the table's float rows are kept outside the traced runs
        short = traced_peak(lambda: march(10))
        long = traced_peak(lambda: march(1000))
        assert long <= short + 16 * 1024, (short, long)

    @pytest.mark.parametrize("rows", [0, 2])
    def test_steps_march_on_their_own_interior(self, rows, monkeypatch):
        """Only a run's first step copies a field in: each later step is
        handed the (rows, cells) view of the interior the step before it
        wrote, the very view its workspace keeps for that buffer, so it
        copies nothing; for `run_linear` and for `run_nonlinear`, which
        hands each step's field to the next `step_nonlinear` call."""
        seen = []
        real = fdmarch.solver._Workspace.step

        def recording(self, values):
            face = self.turns[0][1]  # the current buffer's interior as a field
            out = real(self, values)
            seen.append((values, out, values is face))
            return out

        monkeypatch.setattr(fdmarch.solver._Workspace, "step", recording)
        box = (-5.0, 5.0)
        fields = [GridField.sample(p, box, 100) for p in (burgers_ramp, gaussian)]
        field = GridField.stack(fields) if rows else fields[0]
        layers = nonlinear_layers(2, TestLayeredKernel.WINDOWS[2])
        for march in (
            lambda: run_linear(uw_problem(5), field, 6),
            lambda: run_nonlinear(field, layers, burgers_densities(2), 0.5, 6),
        ):
            seen.clear()
            march()
            assert seen[0][0] is field.values and not seen[0][2]
            for (_, before, _), (values, _, own) in zip(seen, seen[1:]):
                assert values is before and own
                assert values.shape == field.values.shape

def rolled_march(values, stencils, steps):
    """The plain reference march: per step, each stencil in turn replaces u
    by the sum from +0.0 of w * np.roll(u, -k) over its (k, w) items, in
    item order, zero weights skipped."""
    u = values
    for _ in range(steps):
        for items in stencils:
            out = np.zeros_like(u)
            for k, w in items:
                if w:
                    out = out + w * np.roll(u, -k, axis=-1)
            u = out
    return u


with np.errstate(invalid="ignore"):
    MADE_NAN = float((np.array([math.inf]) - math.inf)[0])
# When two NaNs of different bits meet in an add, which one comes out depends
# on the loop numpy picks for the array's shape (vector body or scalar tail),
# in the reference as in the kernel.  So the only NaN drawn is the one
# inf - inf makes on this machine, and every NaN of a march has its bits.
cell_values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, MADE_NAN]),
)
# weight magnitudes drawn often, so that items of one stencil share them
SHARED_MAGNITUDES = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1), Fraction(2))
stencil_weights = st.one_of(
    st.sampled_from([0.0] + [float(s * m) for m in SHARED_MAGNITUDES for s in (1, -1)]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def workspace_marches(draw):
    """(values, per-stencil items, steps): a 1-D field or a stack of 1-3 rows,
    1-3 stencils of distinct offsets in any order, zero weights allowed
    anywhere, on a grid each stencil fits."""
    reach = draw(st.integers(0, 3))
    cells = draw(st.integers(2 * reach + 1, 2 * reach + 9))
    rows = draw(st.integers(0, 3))  # 0: one 1-D field
    shape = (rows, cells) if rows else (cells,)
    values = np.array(draw(st.lists(cell_values, min_size=max(rows, 1) * cells,
                                    max_size=max(rows, 1) * cells))).reshape(shape)
    offsets = st.lists(st.integers(-reach, reach), min_size=1, max_size=2 * reach + 1, unique=True)
    stencils = [
        [(k, draw(stencil_weights)) for k in draw(offsets)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return values, stencils, draw(st.integers(0, 5))


class TestWorkspaceMarch:
    """The run's workspace march (`_march`) against the rolled reference, by
    bytes, on the window product and on the slice loop."""

    @given(workspace_marches(), st.booleans())
    @example(  # a zero weight inside the window: the live rows take the slice loop
        (np.array([[1.0, -0.0, math.inf, 2.5, -3.0], [0.0, MADE_NAN, -1.0, 4.0, 0.5]]),
         [[(-1, 0.25), (0, 0.0), (1, 0.75)], [(1, -1.0), (-2, 1.0)]], 3),
        False,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rolled_reference(self, case, loop):
        values, items, steps = case
        stencils = [FloatStencil(it) for it in items]
        # rows x points x cells stays far below WINDOW_LIMIT here; 0 forces the loop
        limit = 0 if loop else WINDOW_LIMIT
        assert values.size * max(len(it) for it in items) <= WINDOW_LIMIT
        with np.errstate(all="ignore"), mock.patch.object(fdmarch.solver, "WINDOW_LIMIT", limit):
            want = rolled_march(values, items, steps)
            got = _march(values, stencils, steps)
            assert got.shape == values.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            if values.ndim == 2:
                for row, got_row in zip(values, got):
                    alone = _march(row, stencils, steps)
                    assert np.array_equal(got_row.view(np.int64), alone.view(np.int64))

    def test_gapped_live_rows_take_the_slice_loop(self):
        """Live rows that are not one consecutive run are never gathered into
        the window product: far below `WINDOW_LIMIT` they take the slice loop."""
        ext, scratch = np.zeros(12), np.empty(10)
        full = FloatStencil([(-1, -0.5), (0, 0.25), (1, 0.5)])
        assert full.rows == slice(0, 3)
        assert _SliceSum(ext, 10, full, scratch, []).window is not None
        gapped = FloatStencil([(-1, -0.5), (0, 0.0), (1, 0.5)])  # lw order 2, row 1
        assert gapped.rows is None
        assert 3 * 10 <= WINDOW_LIMIT
        assert _SliceSum(ext, 10, gapped, scratch, []).window is None


class TestRunLinear:
    def test_term_order_independence(self):
        rng = np.random.default_rng(7)
        f = GridField(rng.normal(size=64), dx=10.0 / 64, origin=-5.0)
        t_adv = LinearTerm(1, -1.0)
        t_diff = LinearTerm(2, 0.05)
        dt = 0.01
        a = run_linear(LinearProblem((t_adv, t_diff), dt, 2), f, 40)
        b = run_linear(LinearProblem((t_diff, t_adv), dt, 2), f, 40)
        scale = float(np.max(np.abs(a.values)))
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * max(1.0, scale)

    def test_unstable_run_warns_but_runs(self):
        f = GridField.sample(gaussian, (-5.0, 5.0), 100)
        problem = LinearProblem((LinearTerm(2, 1.0),), dt=0.008, n=1)  # nu = 0.8
        with pytest.warns(RuntimeWarning, match="unstable"):
            out = run_linear(problem, f, 3)
        assert out.values.shape == f.values.shape
        # nu = -inf: the growth peak is NaN, which the nu_c search reads as unstable
        problem = LinearProblem((LinearTerm(1, -1e308),), dt=10.0, n=1)
        assert math.isnan(max_growth(problem.schemes()[0], problem.courant_numbers(f.dx)[0])[1])
        with pytest.warns(RuntimeWarning, match=r"unstable at nu=-inf: max \|g\|\^2 = nan"):
            out = run_linear(problem, f, 1)
        assert not np.isfinite(out.values).all()

    def test_one_scan_per_term_per_call(self, monkeypatch):
        """A problem scans each term's growth once per grid spacing and keeps
        the verdict for every later run on it; the m = 1 term runs inside its
        exact stable range and is not scanned at all.  Every unstable run
        warns."""
        scans = []
        real = fdmarch.stability.max_growth

        def counting(scheme, nu, *args, **kwargs):
            scans.append((scheme.m, nu))
            return real(scheme, nu, *args, **kwargs)

        monkeypatch.setattr(fdmarch.stability, "max_growth", counting)
        problem = LinearProblem((LinearTerm(2, 1.0), LinearTerm(1, -1.0)), dt=0.008, n=1)
        for profile in (gaussian, triangle, rectangle):
            with pytest.warns(RuntimeWarning, match="term m=2 is unstable"):
                run_linear(problem, GridField.sample(profile, (-5.0, 5.0), 100), 2)
        assert [m for m, _ in scans] == [2]
        with pytest.warns(RuntimeWarning, match="term m=2 is unstable"):
            run_linear(problem, GridField.sample(gaussian, (-5.0, 5.0), 125), 2)
        assert [m for m, _ in scans] == [2, 2]
        assert scans[1][1] == problem.courant_numbers(0.08)[0]

    def test_callback_sees_every_step(self):
        f = GridField.sample(triangle, (-5.0, 5.0), 50)
        problem = LinearProblem((LinearTerm(1, -1.0),), dt=0.1, n=1)
        seen = []
        run_linear(problem, f, 5, callback=lambda s, g: seen.append(s))
        assert seen == [1, 2, 3, 4, 5]

    def test_callback_fields_stay_as_handed_out(self):
        """Fields kept from the callback are not overwritten by later steps."""
        f = GridField.sample(triangle, (-5.0, 5.0), 50)
        problem = LinearProblem((LinearTerm(1, -1.0), LinearTerm(2, 0.05)), dt=0.01, n=3)
        want = {k: run_linear(problem, f, k).values.copy() for k in range(1, 6)}
        kept = {}
        run_linear(problem, f, 5, callback=kept.__setitem__)
        assert sorted(kept) == [1, 2, 3, 4, 5]
        for step, g in kept.items():
            assert np.array_equal(g.values, want[step])

    def test_heavy_damping_of_low_order(self):
        """First-order transport at nu=0.8 flattens a triangle over a long run."""
        f = GridField.sample(triangle, (-5.0, 5.0), 100)
        problem = LinearProblem((LinearTerm(1, -1.0),), dt=0.08, n=1)
        out = run_linear(problem, f, 6250)
        assert float(np.max(out.values)) < 0.2

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (3, 1), (2, 2)])
    @pytest.mark.parametrize("a", [0.0, 0.5, -2.0])
    def test_default_window_is_default_offsets(self, m, n, a):
        """A term without offsets takes `default_offsets`' window for its
        coefficient, so a = 0 takes the conventional one."""
        problem = LinearProblem((LinearTerm(m, a),), 0.1, n)
        assert problem.term_offsets(problem.terms[0]) == default_offsets(m, n, a)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinearProblem((), dt=0.1, n=1)
        for dt in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="time step must be a finite number > 0"):
                LinearProblem((LinearTerm(1, -1.0),), dt=dt, n=1)
        f = GridField.sample(triangle, (-5.0, 5.0), 50)
        with pytest.raises(ConfigurationError):
            run_linear(LinearProblem((LinearTerm(1, -1.0),), 0.1, 1), f, -1)


# -- nonlinear stepping ------------------------------------------------------------------

class TestStepNonlinear:
    def test_identity_densities_reduce_to_linear(self):
        ks = OffsetSet([-2, -1, 0, 1])
        layers = nonlinear_layers(3, ks)
        scheme = master_scheme(SchemeSpec(1, 3, ks))
        rng = np.random.default_rng(3)
        f = GridField(rng.normal(size=32), 0.1, 0.0)
        nu = 0.45
        a = step_nonlinear(f, layers, identity_densities(3), nu)
        b = step_linear(f, scheme, nu)
        assert a.values == pytest.approx(b.values, abs=1e-13)

    def test_constant_field_fixed_point(self):
        layers = nonlinear_layers(2, [-1, 0, 1])
        f = GridField(np.full(20, 0.75), 0.05, 0.0)
        out = step_nonlinear(f, layers, burgers_densities(2), 0.5)
        assert out.values == pytest.approx(f.values, abs=1e-14)

    def test_density_family_too_short(self):
        layers = nonlinear_layers(3, [-2, -1, 0, 1])
        f = GridField(np.zeros(16), 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            step_nonlinear(f, layers, burgers_densities(1), 0.5)

    @given(
        st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=12, max_size=24),
        st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_mass_conservation(self, vals, n):
        f = GridField(np.array(vals), 0.05, 0.0)
        offs = OffsetSet.contiguous((n + 1) // 2, n)
        out = step_nonlinear(f, nonlinear_layers(n, offs), burgers_densities(n), 0.4)
        scale = max(1.0, float(np.sum(np.abs(f.values))))
        assert abs(out.mass() - f.mass()) <= 1e-10 * scale

    def test_one_step_ramp_oracle(self):
        """Inside the ramp one order-3 step reproduces the steepening series:
        u' = (1 + dt + dt^2 + dt^3)(1 - x) + dt^3 dx / 2, exactly up to roundoff."""
        dx, dt = 0.05, 0.025
        box = (-5.0, 5.0)
        f = GridField.sample(burgers_ramp, box, round((box[1] - box[0]) / dx))
        layers = nonlinear_layers(3, [-2, -1, 0, 1])
        out = step_nonlinear(f, layers, burgers_densities(3), dt / dx)
        x = f.x()
        interior = (x - 2 * dx >= 0.0) & (x + dx <= 1.0)
        assert interior.sum() > 10
        series = 1.0 + dt + dt**2 + dt**3
        oracle = series * (1.0 - x[interior]) + dt**3 * dx / 2.0
        assert out.values[interior] == pytest.approx(oracle, abs=1e-13)
        # and therefore matches the exact steepened ramp to the series truncation
        exact = (1.0 - x[interior]) / (1.0 - dt)
        assert np.max(np.abs(out.values[interior] - exact)) < 1e-6

    def test_run_nonlinear_callback(self):
        f = GridField.sample(burgers_ramp, (-5.0, 5.0), 100)
        layers = nonlinear_layers(1, [-1, 0])
        seen = []
        run_nonlinear(f, layers, burgers_densities(1), 0.5, 4,
                      callback=lambda s, g: seen.append(s))
        assert seen == [1, 2, 3, 4]


@st.composite
def density_inputs(draw):
    """(u, n, k): a 1-D array or a stack of 1-3 rows of any floats, special
    values drawn often, an order n in 1..6 and a density count k in 1..n."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rows = draw(st.integers(0, 3))  # 0: one 1-D array
    cells = draw(st.integers(1, 8))
    shape = (rows, cells) if rows else (cells,)
    special = st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         3e44, -1e45, 1.3e154]
    )
    size = max(rows, 1) * cells
    values = draw(st.lists(st.one_of(st.floats(), special), min_size=size, max_size=size))
    return np.array(values).reshape(shape), n, k


class TestLayeredKernel:
    """The one-pad layered update against the per-density reference kernel."""

    @staticmethod
    def pow_densities(n):
        """Burgers densities as sign * u**p / p, through numpy's pow."""
        return tuple(
            (lambda u, sign=(-1.0) ** j, p=j + 1: sign * u**p / p) for j in range(n + 1)
        )

    @staticmethod
    def reference_step(values, layers, funcs, nu):
        """Each density evaluated on the field and padded on its own, a
        one-step `_march` per row, rows added with weight nu**j in order."""
        out = np.zeros_like(values)
        for j, row in enumerate(layers.rows):
            items = [(k, float(w)) for k, w in zip(layers.offsets, row)]
            dens = np.asarray(funcs[j](values), dtype=float)
            out += nu**j * _march(dens, [FloatStencil(items)], 1)
        return out

    WINDOWS = {1: [-1, 0], 2: [-1, 0, 1], 3: [-2, -1, 0, 1]}  # the fig-burgers windows

    def march_both(self, n, cells, steps, funcs):
        layers = nonlinear_layers(n, self.WINDOWS[n])
        field = GridField.sample(burgers_ramp, (-5.0, 5.0), cells)
        ref = field.values
        for _ in range(steps):
            ref = self.reference_step(ref, layers, funcs, 0.5)
        got = run_nonlinear(field, layers, burgers_densities(n), 0.5, steps)
        return got.values, ref

    @pytest.mark.parametrize(
        "offsets",
        [[-1, 0], [0, 1], [-1, 0, 1], [-3, 0, 2], [-2, -1, 0, 1], [0, 1, 2, 3], [-2, -1, 0, 1, 2]],
    )
    def test_identity_densities_bitwise(self, offsets):
        n = len(offsets) - 1
        layers = nonlinear_layers(n, offsets)
        rng = np.random.default_rng(n)
        values = rng.normal(size=17)
        family = identity_densities(n)
        got = step_nonlinear(GridField(values, 0.1, 0.0), layers, family, -0.35)
        want = self.reference_step(values, layers, family.funcs, -0.35)
        assert np.array_equal(got.values, want)

    def test_burgers_order_one_bitwise(self):
        got, ref = self.march_both(1, 1000, 400, self.pow_densities(1))
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [2, 3])
    def test_burgers_higher_orders_close(self, n):
        got, ref = self.march_both(n, 1000, 1, self.pow_densities(n))
        assert np.max(np.abs(got - ref)) <= 1e-13
        got, ref = self.march_both(n, 1000, 2000, self.pow_densities(n))
        assert np.max(np.abs(got - ref)) <= 1e-11

    def test_first_two_burgers_densities_bitwise(self):
        u = np.random.default_rng(5).uniform(-2.0, 2.0, size=257)
        funcs = burgers_densities(3).funcs
        assert funcs[0](u) is u
        for j, want in enumerate(self.pow_densities(1)):
            assert np.array_equal(funcs[j](u), want(u))

    @given(
        st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=16),
        st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_burgers_densities_within_two_ulp(self, vals, n):
        u = np.array(vals)
        for j, func in enumerate(burgers_densities(n).funcs):
            got = func(u)
            for x, y in zip(vals, got):
                exact = Fraction((-1) ** j) * Fraction(x) ** (j + 1) / (j + 1)
                assert abs(Fraction(float(y)) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    @staticmethod
    def chain_densities(n):
        """Burgers densities as sign * (u * u * ... * u) / p: the power chain,
        then the sign, then the divisor, one operation each."""

        def make(j):
            sign, p = (-1.0) ** j, j + 1

            def density(u):
                q = u
                for _ in range(p - 1):
                    q = q * u
                return sign * q / p

            return density

        return tuple(make(j) for j in range(n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slice_loop_march_bitwise(self, n, monkeypatch):
        """On 5000 cells every row of the table sums one slice at a time, unit
        weights included, and the step starts from row 0's sum.  300 steps of
        a ramp whose right part holds exact zeros, as -0.0 (so every density
        of it is -0.0 too), keep every bit, sign of zero included, of the
        per-density reference fed with `chain_densities` and summed on the
        window path."""
        layers = nonlinear_layers(n, self.WINDOWS[n])
        assert any(abs(w) == 1 for row in layers.rows[1:] for w in row)
        cells, steps = 5000, 300
        assert len(layers.offsets) * cells > WINDOW_LIMIT
        field = GridField.sample(burgers_ramp, (-5.0, 5.0), cells)
        field.values[field.values == 0.0] = -0.0
        got = run_nonlinear(field, layers, burgers_densities(n), 0.5, steps).values
        monkeypatch.setattr(fdmarch.solver, "WINDOW_LIMIT", math.inf)
        ref = field.values
        for _ in range(steps):
            ref = self.reference_step(ref, layers, self.chain_densities(n), 0.5)
        assert np.count_nonzero(got == 0.0) > cells // 4
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-160, 3e-108])
    @example([1.7976931348623157e308, -1e155, 1e103, -6e77, 1.3407807929942596e154])
    @settings(max_examples=300, deadline=None)
    def test_burgers_densities_bitwise_chain(self, vals):
        """Each density, scaled in one operation, is bitwise sign * (u*...*u) / p
        on any finite input: signed zeros, subnormals, powers that underflow and
        powers that overflow to +-inf.  The argument is left as it was."""
        u = np.array(vals)
        before = u.copy()
        with np.errstate(over="ignore", under="ignore"):
            got = [func(u) for func in burgers_densities(3).funcs]
        assert np.array_equal(u.view(np.int64), before.view(np.int64))
        for j, dens in enumerate(got):
            for x, y in zip(vals, dens):
                q = x
                for _ in range(j):
                    q = q * x
                want = (-1.0) ** j * q / (j + 1)
                if math.isnan(want):
                    assert math.isnan(y)
                else:
                    assert float(y).hex() == want.hex(), (j, x)

    @given(density_inputs())
    @example((  # every kind of float, one row; 3e44 and -1e45 overflow at p = 7
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, -1e-160, 3e44, -1e45, 1.3e154, 0.7, -1.3]),
        6, 6,
    ))
    @example((np.array([[math.nan, -0.0, 1e45], [-5e-324, -math.inf, 2.5]]), 6, 4))
    @settings(max_examples=300, deadline=None)
    def test_evaluate_chain_matches_funcs(self, case):
        """`burgers_densities(n).evaluate(u, outs)` runs one power chain for
        densities 1..len(outs), yet writes each the bits funcs[j] gives with
        its own chain, as does the plain family of those funcs: on 1-D arrays
        and stacks of any float, NaN, +-inf, signed zeros, subnormals and
        powers that overflow included.  `u` is left as it was."""
        u, n, k = case
        family = burgers_densities(n)
        before = u.copy()
        outs = [np.full_like(u, 7.0) for _ in range(k)]
        plain = [np.full_like(u, 7.0) for _ in range(k)]
        with np.errstate(all="ignore"):
            family.evaluate(u, outs)
            DensityFamily("plain", family.funcs).evaluate(u, plain)
            want = [family.funcs[j](u) for j in range(1, k + 1)]
        assert np.array_equal(u.view(np.int64), before.view(np.int64))
        for j, (got, by_func, w) in enumerate(zip(outs, plain, want), 1):
            assert np.array_equal(got.view(np.int64), w.view(np.int64)), j
            assert np.array_equal(by_func.view(np.int64), w.view(np.int64)), j

    def test_layer_table_converted_once(self, monkeypatch):
        """The float rows are computed once per table, however many runs read them."""
        layers = nonlinear_layers(3, self.WINDOWS[3])
        field = GridField.sample(burgers_ramp, (-5.0, 5.0), 100)
        converted = []
        to_float = LayerTable.float_rows.func

        def counting(table):
            converted.append(table)
            return to_float(table)

        counted = functools.cached_property(counting)
        counted.__set_name__(LayerTable, "float_rows")
        monkeypatch.setattr(LayerTable, "float_rows", counted)
        for _ in range(2):
            run_nonlinear(field, layers, burgers_densities(3), 0.5, 50)
        assert len(converted) == 1 and converted[0] is layers

    def test_one_step_call_per_step(self, monkeypatch):
        calls = []
        real = fdmarch.solver.step_nonlinear

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(fdmarch.solver, "step_nonlinear", counting)
        field = GridField.sample(burgers_ramp, (-5.0, 5.0), 100)
        run_nonlinear(field, nonlinear_layers(2, self.WINDOWS[2]), burgers_densities(2), 0.5, 50)
        assert len(calls) == 50


def mixed_densities(n):
    """A plain `DensityFamily`, evaluated through the base `evaluate`: its
    odd densities are Burgers' funcs, and its even ones return the padded
    buffer itself."""
    funcs = burgers_densities(n).funcs
    return DensityFamily("mixed", tuple(f if j % 2 else (lambda u: u) for j, f in enumerate(funcs)))


def rolled_layered_step(values, layers, funcs, nu):
    """The layered step as weighted rolled copies, kept as the reference:
    evaluate every density on the field, funcs[0] included, and sum each
    row's w * np.roll(density, -k) over its items in order, zero weights
    skipped.  Row 0's sum, from +0.0, is the step's sum; each later one,
    from its first term, is scaled by nu**j and added to it."""
    out = None
    for j, row in enumerate(layers.float_rows):
        dens = np.asarray(funcs[j](values), dtype=float)
        acc = np.zeros_like(values) if j == 0 else None
        for k, w in zip(layers.offsets, row.tolist()):
            if w:
                term = w * np.roll(dens, -k, axis=-1)
                acc = term if acc is None else acc + term
        if j == 0:
            out = acc
        elif acc is not None:
            out = out + acc * nu**j
    return out


@st.composite
def layered_marches(draw):
    """(values, n, offsets, family, nu, steps): a 1-D field or a stack of 1-3
    rows of NaN-free cells, signed zeros and infinities among them, and an
    order-n layer table on n + 1 distinct offsets the grid fits."""
    n = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1, unique=True))
    reach = max(abs(k) for k in offsets)
    cells = draw(st.integers(2 * reach + 1, 2 * reach + 9))
    rows = draw(st.integers(0, 3))  # 0: one 1-D field
    shape = (rows, cells) if rows else (cells,)
    size = max(rows, 1) * cells
    finite_or_inf = st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    )
    values = np.array(draw(st.lists(finite_or_inf, min_size=size, max_size=size)))
    family = draw(st.sampled_from([identity_densities, burgers_densities, mixed_densities]))(n)
    nu = draw(st.floats(-1.0, 1.0, allow_nan=False))
    return values.reshape(shape), n, sorted(offsets), family, nu, draw(st.integers(1, 4))


class TestLayeredWorkspace:
    """`run_nonlinear`, marching in one workspace, against k steps of the
    rolled reference, by bytes, on the window product and on the slice
    loop."""

    @given(layered_marches(), st.booleans())
    @example(  # all -0.0 at nu < 0: only row 0's +0.0 start makes the step +0.0
        (np.full(6, -0.0), 1, [-1, 0], identity_densities(1), -0.5, 1), False
    )
    @example((np.full((2, 6), -0.0), 1, [-1, 0], burgers_densities(1), -0.5, 1), True)
    @example((np.full((2, 7), -0.0), 2, [-1, 0, 1], mixed_densities(2), -0.5, 2), False)
    @example(  # three live terms in a later row, whose sum rounds by its order
        (np.array([[0.1, 0.7, -3.3, 123.456, 1e-3, 5.5, -0.25],
                   [2.0 / 3.0, -7.1, 0.3, 9.9, -41.5, 1.25, 0.05]]),
         2, [-1, 0, 1], burgers_densities(2), 0.37, 2),
        False,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rolled_steps(self, case, loop):
        values, n, offsets, family, nu, steps = case
        layers = nonlinear_layers(n, offsets)
        field = GridField(values, 0.1, 0.0)
        before = values.copy()
        # rows x points x cells stays far below WINDOW_LIMIT here; 0 forces the loop
        limit = 0 if loop else WINDOW_LIMIT
        assert values.size * len(offsets) <= WINDOW_LIMIT
        kept = {}
        with np.errstate(all="ignore"), mock.patch.object(fdmarch.solver, "WINDOW_LIMIT", limit):
            want = [values]
            for _ in range(steps):
                want.append(rolled_layered_step(want[-1], layers, family.funcs, nu))
            got = run_nonlinear(field, layers, family, nu, steps, callback=kept.__setitem__)
            lone = step_nonlinear(field, layers, family, nu)
        assert np.array_equal(values.view(np.int64), before.view(np.int64))
        assert got.values.shape == values.shape
        assert np.array_equal(got.values.view(np.int64), want[steps].view(np.int64))
        # the callback's fields are copies that later steps left as they were
        assert sorted(kept) == list(range(1, steps + 1))
        for step, kept_field in kept.items():
            assert np.array_equal(kept_field.values.view(np.int64), want[step].view(np.int64))
            assert not np.shares_memory(kept_field.values, got.values)
        assert np.array_equal(lone.values.view(np.int64), want[1].view(np.int64))
        assert not np.shares_memory(lone.values, values)

    def test_workspace_shared_across_steps(self, monkeypatch):
        """Every step of a run gets the same workspace, and without one a step
        builds its own."""
        seen = []
        real = fdmarch.solver.step_nonlinear

        def recording(*args, **kwargs):
            seen.append(kwargs.get("workspace"))
            return real(*args, **kwargs)

        monkeypatch.setattr(fdmarch.solver, "step_nonlinear", recording)
        field = GridField.sample(burgers_ramp, (-5.0, 5.0), 100)
        run_nonlinear(field, nonlinear_layers(2, [-1, 0, 1]), burgers_densities(2), 0.5, 5)
        assert len(seen) == 5 and seen[0] is not None
        assert all(ws is seen[0] for ws in seen)

    @pytest.mark.parametrize("make", [burgers_densities, identity_densities])
    def test_set_up_once_per_run(self, make, monkeypatch):
        """A run sets up every `_SliceSum` before its first step, row 0's over
        each of its two buffers and one per later row over that row's density
        buffer, so 50 steps build as many as one; each step evaluates the
        densities with one `evaluate` call."""
        family = make(3)
        builds, evaluations = [], []
        real_init, real_evaluate = _SliceSum.__init__, type(family).evaluate

        def counting_init(self, *args, **kwargs):
            builds.append(args[0])
            real_init(self, *args, **kwargs)

        def counting_evaluate(self, u, outs):
            evaluations.append(len(outs))
            real_evaluate(self, u, outs)

        monkeypatch.setattr(_SliceSum, "__init__", counting_init)
        monkeypatch.setattr(type(family), "evaluate", counting_evaluate)
        field = GridField.sample(burgers_ramp, (-5.0, 5.0), 100)
        layers = nonlinear_layers(3, [-2, -1, 0, 1])
        for steps in (1, 50):
            builds.clear()
            evaluations.clear()
            run_nonlinear(field, layers, family, 0.5, steps)
            assert len(builds) == 2 + 3
            assert len({id(ext) for ext in builds}) == 5
            assert evaluations == [3] * steps


def drawn_table(offsets, rows):
    """The `LayerTable` of exact `rows` (Fractions, one per offset) on `offsets`."""
    int_rows = []
    for row in rows:
        den = math.lcm(*(w.denominator for w in row))
        int_rows.append((den, tuple(int(w * den) for w in row)))
    return LayerTable(OffsetSet(offsets), tuple(int_rows))


shared_weight = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, s: s * m, st.sampled_from(SHARED_MAGNITUDES), st.sampled_from((1, -1))),
)


@st.composite
def shared_magnitude_marches(draw):
    """(values, offsets, rows, family, nu, steps): a 1-D field or a stack of
    1-3 rows whose cells include -0.0, +-inf and `MADE_NAN`, and a table of
    2-4 rows on 1-5 distinct offsets whose weights are 0 or +-1/2, 1/3, 1/6,
    1 or 2, so that magnitudes repeat within a row."""
    offsets = sorted(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True)))
    rows = [[draw(shared_weight) for _ in offsets] for _ in range(draw(st.integers(2, 4)))]
    reach = max(abs(k) for k in offsets)
    cells = draw(st.integers(2 * reach + 1, 2 * reach + 9))
    stack = draw(st.integers(0, 3))  # 0: one 1-D field
    size = max(stack, 1) * cells
    values = np.array(draw(st.lists(cell_values, min_size=size, max_size=size)))
    family = draw(st.sampled_from([identity_densities, burgers_densities, mixed_densities]))
    nu = draw(st.sampled_from([0.5, -0.5, 0.37, -1.0]))
    shape = (stack, cells) if stack else (cells,)
    return values.reshape(shape), offsets, rows, family(len(rows) - 1), nu, draw(st.integers(1, 3))


def first_pair(a, b):
    """A one-step case whose later rows lead with the live pair (a, b) of
    magnitude 1/2 on cells holding -0.0, +-inf and `MADE_NAN`."""
    half = Fraction(1, 2)
    rows = [[Fraction(0), Fraction(1), Fraction(0)], [a * half, b * half, Fraction(1, 3)],
            [Fraction(0), a * half, b * half]]
    values = np.array([1.5, -0.0, math.inf, MADE_NAN, 0.25, -math.inf, 3.0, -2.0])
    return values, [-1, 0, 1], rows, burgers_densities(2), 0.5, 1


class TestSharedMagnitudes:
    """Items that share a weight magnitude add or subtract slices of one
    product, and a sum from its first term combines its first two terms in
    one call: against the rolled reference by `int64` view, on the slice
    loop and the window product, with -0.0, +-inf and NaN cells."""

    @given(shared_magnitude_marches(), st.booleans())
    @example(first_pair(1, 1), True)
    @example(first_pair(1, -1), True)
    @example(first_pair(-1, 1), True)
    @example(first_pair(-1, -1), True)
    @example(  # a single live item in each later row: its product alone
        (np.array([MADE_NAN, -0.0, 2.0, -math.inf, 0.5]), [-1, 0, 1],
         [[0, 1, 0], [0, Fraction(-1, 3), 0], [Fraction(2), 0, 0]], identity_densities(2), -0.5, 2),
        True,
    )
    @example(  # no shared magnitude: n = 3's row 1 of the fig-burgers table
        (np.array([0.3, MADE_NAN, -0.0, 7.0, -math.inf, 1.25, 0.0]), [-2, -1, 0, 1],
         [[0, 0, 1, 0], [Fraction(1, 6), -1, Fraction(1, 2), Fraction(1, 3)]],
         burgers_densities(1), 0.5, 2),
        True,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rolled_steps(self, case, loop):
        values, offsets, rows, family, nu, steps = case
        layers = drawn_table(offsets, [[Fraction(w) for w in row] for row in rows])
        limit = 0 if loop else WINDOW_LIMIT
        with np.errstate(all="ignore"), mock.patch.object(fdmarch.solver, "WINDOW_LIMIT", limit):
            want = values
            for _ in range(steps):
                want = rolled_layered_step(want, layers, family.funcs, nu)
            got = run_nonlinear(GridField(values, 0.1, 0.0), layers, family, nu, steps)
        assert np.array_equal(got.values.view(np.int64), want.view(np.int64))

    def test_first_pairs_take_one_call(self):
        """A sum from its first term combines a leading +-t (unit weight or
        shared magnitude) with the second term, unless both are negated; a
        first term that is a product of its own never combines."""
        ext, scratch = np.zeros((12, 1)), np.empty(10)
        cases = [
            ([(-1, 0.5), (0, 0.5), (1, 0.25)], True),
            ([(-1, 0.5), (0, -0.5), (1, 0.25)], True),
            ([(-1, -0.5), (0, 0.5), (1, 0.25)], True),
            ([(-1, -0.5), (0, -0.5), (1, 0.25)], False),
            ([(-1, -1.0), (0, 0.25), (1, 0.75)], True),  # -t, then a product of its own
            ([(-1, -1.0), (0, -1.0)], False),
            ([(-1, 0.25), (0, 1.0), (1, 0.25)], True),  # 0.25 is shared with the third
            ([(-1, 0.25), (0, 1.0), (1, 0.75)], False),  # 0.25 is a product of its own
            ([(0, 0.75)], False),
        ]
        for items, pair in cases:
            with mock.patch.object(fdmarch.solver, "WINDOW_LIMIT", 0):
                row_sum = _SliceSum(ext, 10, FloatStencil(items), scratch, [])
            assert row_sum.pair is pair, items

    def test_negating_a_term_flips_nan_bits(self):
        """Why a (-, -) first pair keeps the multiply path: w * x keeps a NaN's
        sign bit for w < 0, and np.negative(|w| * x) flips it."""
        x = np.array([MADE_NAN, 3.0])
        kept, flipped = np.multiply(x, -0.5), np.negative(np.multiply(x, 0.5))
        assert kept.view(np.int64)[0] == x.view(np.int64)[0]
        assert flipped.view(np.int64)[0] != x.view(np.int64)[0]
        assert np.array_equal(kept[1:], flipped[1:])

    def test_products_shared_across_rows(self):
        """On the slice loop, each shared magnitude of a row is one product,
        and the rows of a workspace reuse the same product buffers: as many
        as the widest row's shared magnitudes."""
        layers = nonlinear_layers(3, TestLayeredKernel.WINDOWS[3])
        stencils = [FloatStencil(zip(layers.offsets, row.tolist())) for row in layers.float_rows]
        shared = [_shared_magnitudes(st) for st in stencils]
        assert shared == [[], [], [0.5], [1 / 6, 0.5]]
        ws = _layered_workspace((5000,), layers, burgers_densities(3), 0.5)
        sums = TestAlignedWorkspace.sums(ws)
        assert all(s.window is None for s in sums)
        assert [len(s.products) for s in sums] == [0, 0, 0, 1, 2]
        starts = {prod.ctypes.data for s in sums for _, _, prod in s.products}
        assert len(starts) == max(map(len, shared)) == 2


class RecordingNumpy:
    """`numpy` as the solver sees it, keeping every `out=` array a ufunc call
    or reduce writes."""

    def __init__(self):
        self.outs = []

    def __getattr__(self, name):
        real = getattr(np, name)
        if not isinstance(real, np.ufunc):
            return real
        outs = self.outs

        class Recorded:
            def __call__(self, *args, out=None, **kwargs):
                outs.append(out)
                return real(*args, out=out, **kwargs)

            def reduce(self, *args, out=None, **kwargs):
                outs.append(out)
                return real.reduce(*args, out=out, **kwargs)

        return Recorded()


class TestAlignedWorkspace:
    """Every array a step writes starts on a 64-byte cache line: each turn
    buffer's interior, each density buffer, the row and scratch arrays, the
    products and the window product's terms, whatever the halo width lo and
    the stack height R."""

    @staticmethod
    def workspaces(lo, shape):
        offsets = list(range(-lo, 2))
        layers = nonlinear_layers(len(offsets) - 1, offsets)
        items = [(k, w) for k, w in zip(offsets, [0.5, -0.5, 0.25, -0.25, 1.0][: len(offsets)])]
        return {
            "linear": _Workspace(shape, FloatStencil(items)),
            "layered": _layered_workspace(shape, layers, burgers_densities(len(layers) - 1), 0.5),
        }

    @staticmethod
    def sums(ws):
        return [turn[3] for turn in ws.turns] + [row_sum for row_sum, _ in ws.sums]

    @pytest.mark.parametrize("lo", [0, 1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("cells", [20, 5000])  # window product, slice loop
    def test_every_written_array_starts_on_a_line(self, lo, rows, cells, monkeypatch):
        shape = (rows, cells) if rows > 1 else (cells,)
        values = np.random.default_rng(lo).uniform(-1.0, 1.0, size=shape)
        for kind, ws in self.workspaces(lo, shape).items():
            arrays = [turn[4] for turn in ws.turns] + ws.bufs
            arrays += [a for a in [ws.row] if a is not None]
            recording = RecordingNumpy()
            monkeypatch.setattr(fdmarch.solver, "np", recording)
            u = values
            for _ in range(3):
                u = ws.step(u)
            monkeypatch.undo()
            outs = [o for o in recording.outs if o is not None]
            assert outs, kind
            assert all(s.window is None for s in self.sums(ws)) == (cells == 5000)
            for a in arrays + outs:
                assert a.ctypes.data % 64 == 0, (kind, a.shape)
            # each turn writes the interior of the other turn's buffer
            (ext_a, *_, out_a, _), (ext_b, *_, out_b, _) = ws.turns
            assert out_a.ctypes.data == ext_b.ctypes.data + 8 * lo * rows
            assert out_b.ctypes.data == ext_a.ctypes.data + 8 * lo * rows


def loop_shock_front(field, level=0.5):
    """The cell-by-cell scan `shock_front` replaced: first j with v[j] >= level > v[j+1]."""
    v = field.values
    x = field.x()
    for j in range(field.n_cells - 1):
        if v[j] >= level > v[j + 1]:
            frac = (v[j] - level) / (v[j] - v[j + 1])
            return float(x[j] + frac * field.dx)
    return None


def hexed(front):
    return None if front is None else float.hex(front)


class TestShockFront:
    def test_interpolated_crossing(self):
        f = GridField(np.array([1.0, 1.0, 0.8, 0.2, 0.0, 0.0]), 1.0, 0.0)
        assert shock_front(f) == pytest.approx(2.5)

    def test_ignores_upward_crossing(self):
        f = GridField(np.array([0.2, 0.9, 0.3, 0.1]), 1.0, 0.0)
        assert shock_front(f) == pytest.approx(1.0 + 0.4 / 0.6)

    def test_none_when_absent(self):
        assert shock_front(GridField(np.full(6, 0.9), 1.0, 0.0), level=0.95) is None
        assert shock_front(GridField(np.full(6, 0.1), 1.0, 0.0)) is None

    @pytest.mark.parametrize(
        "values, level",
        [
            ([1.0, 1.0, 0.8, 0.2, 0.0, 0.0], 0.5),
            ([0.2, 0.9, 0.3, 0.1], 0.5),
            ([0.9] * 6, 0.95),
            ([0.1] * 6, 0.5),
            ([0.0, 0.2, 0.7, 1.0], 0.5),  # upward only
            ([1.0, 0.5, 0.5, 0.2], 0.5),  # values exactly at the level
            ([0.5, 0.5, 0.5], 0.5),
            ([0.7], 0.5),
            ([1.0, 0.0, 1.0, 0.0], 0.5),  # two crossings: the leftmost wins
        ],
    )
    def test_matches_loop(self, values, level):
        f = GridField(np.array(values), 0.1, -0.3)
        assert hexed(shock_front(f, level)) == hexed(loop_shock_front(f, level))

    def test_matches_loop_on_ramp(self):
        f = GridField.sample(burgers_ramp, (-5.0, 5.0), 10_000)
        front = shock_front(f)
        assert front is not None and hexed(front) == hexed(loop_shock_front(f))

    @given(
        st.sampled_from([0.5, 0.0, -0.25, 1.0]).flatmap(
            lambda level: st.tuples(
                st.just(level),
                st.lists(
                    st.one_of(st.just(level), st.floats(-2.0, 2.0, allow_nan=False)),
                    min_size=1,
                    max_size=40,
                ),
            )
        ),
        st.floats(1e-3, 1.0),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_on_drawn_profiles(self, case, dx, origin):
        level, values = case
        f = GridField(np.array(values), dx, origin)
        assert hexed(shock_front(f, level)) == hexed(loop_shock_front(f, level))


# -- convergence ladder ---------------------------------------------------------------------

class TestConvergence:
    def test_one_scan_and_build_per_study(self, monkeypatch):
        """Every grid's run takes the study's own scheme and stability verdict:
        one build for the whole ladder, and one growth scan, or none where
        the m = 1 closed form decides."""
        scans, builds = [], []
        real_scan, real_build = fdmarch.stability.max_growth, fdmarch.solver.master_scheme

        def scan(*args, **kwargs):
            scans.append(args[1])
            return real_scan(*args, **kwargs)

        def build(spec):
            builds.append(spec)
            return real_build(spec)

        monkeypatch.setattr(fdmarch.stability, "max_growth", scan)
        monkeypatch.setattr(fdmarch.solver, "master_scheme", build)
        res = convergence_study(1, 29, 0.8)
        assert len(res.errors) == 4
        # |nu| = 0.8 lies in the uw window's exact stable range: no scan
        assert len(scans) == 0 and len(builds) == 1
        res = convergence_study(2, 2, 0.5, grids=(16, 32, 64))
        assert len(res.errors) == 3
        assert len(scans) == 1 and len(builds) == 2

    def test_first_order_transport(self):
        res = convergence_study(1, 1, 0.8)
        assert res.order_dt == pytest.approx(1.0, abs=0.25)
        assert res.errors[0] > res.errors[-1]
        assert not res.exact

    def test_second_order_diffusion(self):
        res = convergence_study(2, 2, 0.5)
        assert res.order_dt == pytest.approx(2.0, abs=0.25)
        # headline order counts powers of dt; dx slope is m times steeper
        assert res.order_dx == pytest.approx(2 * res.order_dt, rel=1e-12)

    def test_exact_shift_reports_exact(self):
        res = convergence_study(1, 2, 1.0)
        assert res.exact
        assert res.order_dt is None and res.order_dx is None
        assert max(res.errors) < 1e-12

    def test_refuses_unstable(self):
        with pytest.raises(ConfigurationError, match="unstable"):
            convergence_study(2, 1, 0.8)
        # a NaN growth peak is unstable, as in the nu_c search and run_linear
        with pytest.raises(ConfigurationError, match=r"unstable at nu=-1e\+200 \(max \|g\|\^2 = nan"):
            convergence_study(1, 2, 1e200)

    def test_custom_profile_only_for_transport(self):
        with pytest.raises(ConfigurationError):
            convergence_study(2, 1, 0.3, profile=gaussian)

    def test_custom_profile_translation_reference(self):
        res = convergence_study(1, 2, 0.8, profile=gaussian, box=(-5.0, 5.0))
        assert res.order_dt == pytest.approx(2.0, abs=0.25)

    def test_ladder_metadata(self):
        res = convergence_study(1, 1, 0.8, grids=(32, 64))
        assert res.grid_sizes == (32, 64)
        assert res.dxs[0] == pytest.approx(2 * res.dxs[1])
        assert res.dts[0] == pytest.approx(2 * res.dts[1])
        # fixed physical horizon: steps * dt agrees across the ladder
        assert res.steps[0] * res.dts[0] == pytest.approx(res.steps[1] * res.dts[1], rel=0.05)

    def test_subnormal_step_refused(self):
        # dt = 0.5 * (1/32) / 1e308 = 1.56e-310 is subnormal
        with pytest.raises(ConfigurationError, match="not normal floats"):
            convergence_study(1, 1, 0.5, a=1e308)

    def test_ladder_step_limit_leaves_test_ladders_room(self):
        # the longest ladder of the suite, diffusion at |nu| = 0.4 on 32..256 cells
        assert 100 * sum(convergence_study(2, 1, 0.4).steps) <= MAX_MARCH_STEPS

    def test_ladder_work_limit_leaves_test_ladders_room(self):
        # the ladder of the suite doing the most work, m = 2, n = 3 at
        # |nu| = 0.4 on 32..256 cells, on 7 stencil points
        res = convergence_study(2, 3, 0.4)
        work = 7 * sum(g * steps for g, steps in zip(res.grid_sizes, res.steps))
        assert 100 * work <= MAX_MARCH_WORK

    def test_small_grid_refused_before_any_march(self, monkeypatch):
        """The order-29 stencil reaches 15 cells: a 16-cell grid is refused
        before the 64-cell grid ahead of it marches."""
        marches = []
        monkeypatch.setattr(fdmarch.solver, "_march", lambda *args: marches.append(args))
        with pytest.raises(ConfigurationError, match="stencil reach 15 needs more than 30 cells"):
            convergence_study(1, 29, 0.8, grids=(64, 16))
        assert marches == []

    def test_non_finite_error_refused(self, monkeypatch):
        real = fdmarch.solver._march

        def poisoned(values, stencils, steps, callback=None):
            return np.full_like(real(values, stencils, steps, callback), np.nan)

        monkeypatch.setattr(fdmarch.solver, "_march", poisoned)
        with pytest.raises(ConfigurationError, match="not all finite"):
            convergence_study(1, 1, 0.8, grids=(8, 16))


class TestOneFloatEvaluator:
    """Every float a march reads comes from `Scheme.float_weights`, for a
    linear term, or from `LayerTable.float_rows`, for a layered table:
    scaling what that one function returns changes every march on it.  The
    scale keeps every growth peak below 1, so no run warns."""

    SCALE = 1.0 - 2.0**-20

    @staticmethod
    def cli_files(argv, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            assert fdmarch.cli.main([*argv, "--out", str(out_dir)]) == 0
        return sorted((p.name, p.read_bytes()) for p in out_dir.iterdir())

    def linear_marches(self, out_dir):
        f = GridField.sample(triangle, (-5.0, 5.0), 100)
        scheme = master_scheme(SchemeSpec(1, 3, OffsetSet.contiguous(2, 3)))
        problem = LinearProblem((LinearTerm(1, -1.0),), dt=0.08, n=3)
        return {
            "step_linear": step_linear(f, scheme, -0.8).values.tobytes(),
            "run_linear": run_linear(problem, f, 5).values.tobytes(),
            "convergence_study": convergence_study(1, 3, 0.8).errors,
            "cli": self.cli_files(["run", "fig-advection", "--orders", "1"], out_dir),
        }

    def layered_marches(self, out_dir):
        f = GridField.sample(burgers_ramp, (-5.0, 5.0), 200)
        layers, densities = nonlinear_layers(2, [-1, 0, 1]), burgers_densities(2)
        return {
            "step_nonlinear": step_nonlinear(f, layers, densities, 0.5).values.tobytes(),
            "run_nonlinear": run_nonlinear(f, layers, densities, 0.5, 5).values.tobytes(),
            "cli": self.cli_files(["run", "fig-burgers", "--orders", "2"], out_dir),
        }

    def test_linear_marches_read_float_weights(self, tmp_path, monkeypatch):
        before = self.linear_marches(tmp_path / "before")
        real = Scheme.float_weights
        monkeypatch.setattr(Scheme, "float_weights", lambda s, nu: real(s, nu) * self.SCALE)
        after = self.linear_marches(tmp_path / "after")
        assert [k for k in before if after[k] == before[k]] == []

    def test_layered_marches_read_float_rows(self, tmp_path, monkeypatch):
        before = self.layered_marches(tmp_path / "before")
        real = LayerTable.float_rows.func
        monkeypatch.setattr(LayerTable, "float_rows", property(lambda t: real(t) * self.SCALE))
        after = self.layered_marches(tmp_path / "after")
        assert [k for k in before if after[k] == before[k]] == []
