"""Periodic 1-D time marching with generated schemes.

Fields live on a uniform grid with periodic wrap-around.  A field holds one
row of cell values, or a stack of rows on the same grid, shape (rows, cells);
every step treats the rows alike and independently.  An explicit step reads
a buffer padded along the cell axis with a halo of wrapped values on each
side, as wide as the stencil reaches, and sums weighted shifted slices of
that buffer, one per stencil offset with a nonzero weight, in item order,
starting from +0.0.  Weights are produced by the exact generator and
converted to float, with the arrays the kernel reads, once per run.

The march keeps its buffers cells-major, (cells, rows): the R values of one
cell sit side by side, and a 1-D field is R = 1.  A shift by k cells is
then one contiguous run of n R values, for one row and a stack alike; a
(rows, cells) field is copied in transposed once per run, and what a run
hands out is copied back to (rows, cells).  The kernel takes the sum in one
of two ways, bitwise alike.  While stencil points times n R values stay
within `WINDOW_LIMIT` and the live offsets are consecutive and ascending,
it views the padded buffer as a strided (points, n R) window whose entry r
is the run starting at cell r, multiplies the view of the live entries by a
contiguous block of their weights in that shape, built once per run, in
one call and adds them with one ordered reduce over the points axis; on
small grids a step costs a few numpy calls whatever the order and however
many rows march together.  Otherwise it adds one slice at a time, which
keeps large arrays out of a (points, n R) temporary and needs no gather of
scattered live entries; a slice with weight +1 or -1 is added or
subtracted as it is, with no product, and items that share a weight
magnitude other than 1 add or subtract slices of one product.  Each output
row is the sum a lone march of that row computes.

Every update is one layer table applied once per step: row j hits density
j and is scaled by nu^j.  A linear term is a table of one row, and the
layered update with identity densities is the linear scheme.  A table
marches in a workspace (`_Workspace`), allocated once per run, with two
padded buffers that take turns: a step refills the current buffer's halos
in place from its interior and writes row 0's sum, from +0.0, straight into
the interior of the other.  A multi-term problem marches one workspace per
term, in turn, each copying in the field the one before it wrote.  The
later densities are evaluated once per step, by one call of the family's
`evaluate`, on the halo-padded buffer and into padded density buffers the
workspace owns, one per later row, each with that row's slice sum set up
once per run; the Burgers family shares one power chain across its
densities.  Each later row sums its density buffer, from its first term, is
scaled by nu^j in place and is added.  Densities are therefore evaluated on
the halo-padded, cells-major array, not on the field, and must be
pointwise; they read a workspace buffer that they must neither write nor
keep, and funcs[0] is not called.  Row 0's sum never holds -0.0, so adding
a later row's +-0.0 leaves it as it is, and the result has the bits the
+0.0 start gives.  Every array a step writes starts on a 64-byte cache
line: each buffer's interior, each density buffer, the row and scratch
arrays and the products.  The march hands out no per-step fields: callers take snapshots from what one march
returns and march on from there, and only a run given a callback copies the
field for it after every step.  A single step (`step_linear`,
`step_nonlinear`) is a one-step run in a workspace of its own, and returns
a new array.

Whether a scheme grows at a run's Courant number is `stability.growth_note`'s
one verdict: `run_linear` warns with its text, and `convergence_study`
refuses with it.  A `LinearProblem` forms it once per term and grid spacing
and keeps it, so every run of one problem on one grid reads one verdict.
"""

from __future__ import annotations

import math
import cmath
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .exact import ConfigurationError, OffsetSet
from .schemes import (
    LayerTable,
    Scheme,
    SchemeSpec,
    check_orders,
    default_offsets,
    master_scheme,
    preferred_sign,
)
from .stability import growth_note


@dataclass(frozen=True, eq=False)
class GridField:
    """Samples of u on a uniform periodic grid: values[j] = u(origin + j*dx).

    `values` is one field, shape (cells,), or a stack of fields on the same
    grid, shape (rows, cells), each row values[i, j] = u_i(origin + j*dx).
    The cell axis is the last one either way.  A stack marches as one array,
    and each row comes out with the bits a march of that row alone gives.
    Per-field summaries (`mass`, `shock_front`) refuse a stack; split it with
    `rows()`.
    """

    values: np.ndarray
    dx: float
    origin: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.size == 0:
            raise ConfigurationError(
                "field values must be a non-empty 1-D array or (rows, cells) stack"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def stack(cls, fields: Sequence["GridField"]) -> "GridField":
        """One (rows, cells) field of 1-D fields on the same grid, in order."""
        first = fields[0]
        for f in fields:
            if f.values.ndim != 1 or (f.dx, f.origin, f.n_cells) != (
                first.dx, first.origin, first.n_cells
            ):
                raise ConfigurationError("only 1-D fields on one grid can be stacked")
        return cls(np.stack([f.values for f in fields]), first.dx, first.origin)

    def rows(self) -> tuple["GridField", ...]:
        """The 1-D fields of a stack, in order (one for a 1-D field), each
        sharing its values with this field."""
        return tuple(
            GridField(v, self.dx, self.origin) for v in self.values.reshape(-1, self.n_cells)
        )

    @classmethod
    def sample(
        cls,
        profile: Callable[[np.ndarray], np.ndarray],
        box: tuple[float, float],
        n_cells: int,
    ) -> "GridField":
        """Sample a profile at the n_cells left cell edges of [box[0], box[1])."""
        lo, hi = box
        if not hi > lo:
            raise ConfigurationError(f"empty box {box}")
        if n_cells < 1:
            raise ConfigurationError("need at least one grid cell")
        dx = (hi - lo) / n_cells
        x = lo + dx * np.arange(n_cells)
        return cls(np.asarray(profile(x), dtype=float), dx, lo)

    @property
    def n_cells(self) -> int:
        return int(self.values.shape[-1])

    @property
    def length(self) -> float:
        return self.dx * self.n_cells

    def x(self) -> np.ndarray:
        return self.origin + self.dx * np.arange(self.n_cells)

    def mass(self) -> float:
        return float(_one_row(self, "mass").values.sum())


def _one_row(field: GridField, what: str) -> GridField:
    """`field`, refused when it is a stack: `what` is a per-field summary."""
    if field.values.ndim != 1:
        raise ConfigurationError(f"{what} takes one field; split the stack with rows()")
    return field


# -- initial profiles ---------------------------------------------------------

def triangle(x: np.ndarray) -> np.ndarray:
    """Unit triangle: peak 1 at x=0, linear to 0 at |x|=1, zero outside."""
    return np.maximum(0.0, 1.0 - np.abs(x))


def rectangle(x: np.ndarray) -> np.ndarray:
    """Unit box: 1 on |x| <= 1, 0 outside."""
    return np.where(np.abs(x) <= 1.0, 1.0, 0.0)


def gaussian(x: np.ndarray) -> np.ndarray:
    return np.exp(-x * x)


def burgers_ramp(x: np.ndarray) -> np.ndarray:
    """Plateau-ramp data: 1 for x < 0, falling linearly to 0 across [0, 1]."""
    return np.clip(1.0 - x, 0.0, 1.0)


def sine_profile(box: tuple[float, float]) -> Callable[[np.ndarray], np.ndarray]:
    """One full sine period across the box (periodic for any box length)."""
    lo, hi = box
    p = 2.0 * math.pi / (hi - lo)
    return lambda x: np.sin(p * (x - lo))


# name -> profile of a box; only the sine profile reads the box
_PROFILES = {
    "triangle": lambda box: triangle, "rectangle": lambda box: rectangle,
    "gaussian": lambda box: gaussian, "sine": sine_profile, "burgers": lambda box: burgers_ramp,
}
PROFILE_NAMES = tuple(_PROFILES)


def make_profile(name: str, box: tuple[float, float]) -> Callable[[np.ndarray], np.ndarray]:
    if name not in _PROFILES:
        raise ConfigurationError(f"unknown profile {name!r}; expected one of {PROFILE_NAMES}")
    return _PROFILES[name](box)


# -- linear problems ----------------------------------------------------------

def term_coefficient(m: int, a: Optional[float] = None) -> float:
    """The coefficient of a term a * d^m u / dx^m: `a`, or by default the
    conventional sign for m (`preferred_sign`).  Zero and non-finite values
    are refused."""
    if a is None:
        return float(preferred_sign(m))
    if not (a != 0 and math.isfinite(a)):
        raise ConfigurationError(f"coefficient a must be nonzero and finite, got {a:g}")
    return a


@dataclass(frozen=True)
class LinearTerm:
    """One right-hand-side term a * d^m u / dx^m."""

    m: int
    a: float
    offsets: Optional[OffsetSet] = None


@dataclass(frozen=True)
class LinearProblem:
    """du/dt = sum of terms, marched with order-n schemes and time step dt."""

    terms: tuple[LinearTerm, ...]
    dt: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ConfigurationError("a linear problem needs at least one term")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"time step must be a finite number > 0, got {self.dt:g}")

    def term_offsets(self, term: LinearTerm) -> OffsetSet:
        return default_offsets(term.m, self.n, term.a, term.offsets)

    def schemes(self) -> tuple[Scheme, ...]:
        """One scheme per term, built and audited on the first call and kept."""
        return self._schemes

    @cached_property
    def _schemes(self) -> tuple[Scheme, ...]:
        return tuple(
            master_scheme(SchemeSpec(t.m, self.n, self.term_offsets(t)))
            for t in self.terms
        )

    def courant_numbers(self, dx: float) -> tuple[float, ...]:
        return tuple(self.dt * t.a / dx**t.m for t in self.terms)

    def growth_notes(self, dx: float) -> tuple[Optional[str], ...]:
        """Each term's `growth_note` at its Courant number on grid spacing dx,
        formed on the first call for that dx and kept, as the schemes are."""
        notes = self._growth_notes.get(dx)
        if notes is None:
            nus = self.courant_numbers(dx)
            notes = tuple(growth_note(s, nu) for s, nu in zip(self.schemes(), nus))
            self._growth_notes[dx] = notes
        return notes

    @cached_property
    def _growth_notes(self) -> dict[float, tuple[Optional[str], ...]]:
        return {}


def check_fit(n_cells: int, offsets: OffsetSet) -> None:
    """Refuse a stencil that reaches around the periodic grid of n_cells."""
    reach = max(abs(offsets[0]), abs(offsets[-1]))
    if n_cells <= 2 * reach:
        raise ConfigurationError(
            f"stencil reach {reach} needs more than {2 * reach} cells, grid has {n_cells}"
        )


class FloatStencil:
    """Float (offset, weight) items of one stencil, as the marching kernel reads them.

    `size` counts every item, and `lo` and `hi` are how far the offsets reach
    to the left and right of a cell: the halo widths of the padded field.
    `live` keeps the items with a nonzero weight, in the given order.  Entry
    r of a window over the padded field is the slice starting at cell r, so
    offset k reads entry lo + k; `rows` is the slice of the live items'
    entries when they are consecutive and ascending, and None otherwise (no
    live item, a zero weight inside the stencil, a gap or an unsorted
    order): the kernel then adds one slice at a time rather than gather the
    entries (see `WINDOW_LIMIT`).  `weights` holds the live weights as a
    column, which the window product repeats into a block of its terms'
    shape; the slice loop reads `live` alone, and forms one product for each
    weight magnitude other than 1 that two or more live items share
    (`_shared_magnitudes`).  Offsets must be distinct.  A march builds its
    stencils on each run call, from `Scheme.float_weights` for a linear term
    and from `LayerTable.float_rows` for a layered table (`_stencil`).
    """

    def __init__(self, items: Iterable[tuple[int, float]]):
        items = tuple(items)
        self.size = len(items)
        self.lo = max(0, -min(k for k, _ in items))
        self.hi = max(0, max(k for k, _ in items))
        self.live = tuple((k, w) for k, w in items if w)
        rows = [self.lo + k for k, _ in self.live]
        self.rows = None
        if rows and rows == list(range(rows[0], rows[0] + len(rows))):
            self.rows = slice(rows[0], rows[0] + len(rows))
        self.weights = np.array([w for _, w in self.live], dtype=float).reshape(-1, 1)


def _stencil(offsets: Sequence[int], weights: np.ndarray) -> FloatStencil:
    """The stencil of float `weights`, one per offset, in offset order."""
    return FloatStencil(zip(offsets, weights.tolist()))


# Rows times stencil points times cells up to which `_SliceSum` takes the
# window product.  Per call on 2 shared x86-64 CPUs (numpy 2.4), on the
# workspace's cache-line-aligned, cells-major buffers, random weights, slice
# loop against window product, min of 7 repeats of 200 calls:
# 1 row x 100 cells x 30 points: 33 against 5 us; 2 x 100 x 30: 32 against
# 9 us; 3 x 100 x 30: 35 against 9 us; 1 x 1000 x 6: 8 against 6 us;
# 1 x 2000 x 6: 11 against 10 us; 2 x 1000 x 6: 11 against 10 us;
# 1 x 5000 x 4: 18 against 16 us; 1 x 2000 x 16: 29 against 21 us;
# 8 x 1000 x 8: 38 against 37 us; 4 x 2000 x 8: 36 against 36 us.  On
# unaligned buffers the crossover moved between 10^4 and 5 x 10^4 from run
# to run; aligned, it lies between 2 x 10^4 and 6.4 x 10^4 by point count,
# still above the limit.  On the few-point rows of large grids
# (1 x 10^4 x 2: 11 against 14 us; 1 x 10^4 x 4: 22 against 29 us) the loop
# stays ahead.  So the limit is kept.  Live rows that are not consecutive and
# ascending (a zero weight inside the stencil, a gapped or shuffled stencil)
# take the slice loop at any size: gathering them into the window product
# fell 4-11x behind from 2000 cells and 16 points up, and no benchmark
# workload marches such a stencil below the limit.
WINDOW_LIMIT = 2**13


# The byte boundary every array a step writes starts on: one x86-64 cache
# line.  numpy hands out 16-byte-aligned arrays.  On 10^4 cells, an add of two
# aligned arrays into an output 8, 16 or 32 bytes off a line cost 5.2-5.4
# against 2.7 us into one on a line, and an in-place add up to 2.7 against
# 2.3 us (min of 7 repeats, 2 shared x86-64 CPUs, numpy 2.4).
_ALIGN = 64


def _aligned(shape: tuple[int, ...], lead: int = 0) -> np.ndarray:
    """An uninitialised C-contiguous float array of `shape` whose flat
    element `lead` starts on an `_ALIGN`-byte boundary."""
    size = math.prod(shape)
    raw = np.empty(size + _ALIGN // 8)
    skip = (-(raw.ctypes.data + 8 * lead) % _ALIGN) // 8
    return raw[skip : skip + size].reshape(shape)


def _shared_magnitudes(stencil: FloatStencil) -> list[float]:
    """The weight magnitudes other than 1 that two or more live items share,
    in the order they first appear."""
    counts = Counter(abs(w) for _, w in stencil.live)
    return [m for m, count in counts.items() if count > 1 and m != 1.0]


def _halos(ext: np.ndarray, lo: int, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (halo, source) views of the cells-major `ext`, whose cells lo ..
    lo + n - 1 along the first axis hold a field: assigning each source to
    its halo refills the halos in place, the lo cells before the field with
    its last lo cells and the cells after it with its first ones, so that
    cell (j + k) mod n of the field is ext[lo + k + j].  Each source lies in
    the field alone, so the halos must be no wider than the field.  Empty
    halos are left out."""
    hi = len(ext) - lo - n
    pairs = [(ext[:lo], ext[n : n + lo]), (ext[lo + n :], ext[lo : lo + hi])]
    return [(halo, src) for halo, src in pairs if len(halo)]


class _SliceSum:
    """The stencil's sum of weighted shifted slices of one padded array.

    `ext` is a C-contiguous, cells-major float array padded with the
    stencil's halo: (cells, R) holds the R values of each cell side by side,
    and a 1-D array is R = 1.  n is its field's cell count, so a shift by k
    cells is the contiguous run ext[lo + k : lo + k + n] of n R values.
    `sum_into(out)` writes out[j] = sum of w * flat(ext[stencil.lo + k:])[j]
    over the live (k, w) items, for j < n R, reading what `ext` holds at that
    call; `out` is a 1-D array of n R values that does not overlap `ext`.
    `sum_into(out, initial=None)` starts the sum from the first live term
    instead of +0.0, as numpy's reduce does, and needs a live item; the two
    differ only where the +0.0 start turns a -0.0 sum into +0.0.  Everything
    that does not depend on the values is set up once here: the window, the
    view of its live entries and their weight block, or the slices and the
    plan of products.  The slice loop writes a lone item's product into
    `scratch`, shaped like `out`, and a shared magnitude's product into one of
    `products`, flat arrays of `ext`'s size that the sums of one workspace
    share: a sum appends what it needs, so the list holds as many as the
    widest row's shared magnitudes.  The buffers a sum allocates, its terms
    block and any product it appends, come from `_aligned`.

    The sum starts at +0.0 and adds the terms in item order; zero weights are
    skipped, so a non-finite value under a zero weight reads as nothing.  Up
    to `WINDOW_LIMIT` stencil points times n R values, when the live entries
    are one consecutive, ascending run (`FloatStencil.rows` is a slice), the
    terms are one product of a (live items, n R) view of the (points, n R)
    window, whose entry r is the run starting at cell r, with a C-contiguous
    block of the weights in that shape, added by numpy's reduce over the
    items axis, which on a C-contiguous array runs item after item from
    `initial`.  Otherwise, above the limit or for live entries that would
    have to be gathered (see `WINDOW_LIMIT`), it adds one slice at a time,
    0.0 + term first (or the term's product alone), then out + term.  A
    term whose weight is +-1, or whose magnitude |w| two or more live items
    share, is +-t for an array t formed without its sign: the slice itself,
    or a slice of one product |w| * ext over the run those items read, formed
    once per call.  It is added as out + t or out - t, since out + (-t) is
    out - t by IEEE definition and w * x is -(|w| * x) for w < 0, bit for
    bit.  A sum from its first term whose first term is such a +-a adds the
    second term b in one call, as a + b, a - b or b - a for -a + b, b being
    a product of its own where it has no such t.  If both are negated it
    does not, since -(a + b) would flip a NaN's sign bit, which w * x keeps:
    then, as for a first term that is a product of its own, the first term
    is its product w * x.  Both paths are the same floating-point sum, value
    by value, so each row of a stack comes out as it would alone.
    """

    def __init__(
        self,
        ext: np.ndarray,
        n: int,
        stencil: FloatStencil,
        scratch: np.ndarray,
        products: list[np.ndarray],
    ):
        rows = ext.size // len(ext)  # R
        width = n * rows
        if stencil.rows is not None and stencil.size * width <= WINDOW_LIMIT:
            strides = (ext.strides[0], ext.itemsize)
            self.window = np.ndarray((len(ext) - n + 1, width), ext.dtype, ext, strides=strides)
            self.live = self.window[stencil.rows]
            self.weights = np.repeat(stencil.weights, width, axis=1)
            self.terms = _aligned(self.weights.shape)
            return
        self.window = None
        self.scratch = scratch
        flat, lo = ext.reshape(-1), stencil.lo
        shared = _shared_magnitudes(stencil)
        while len(products) < len(shared):
            products.append(_aligned((ext.size,)))
        # per shared magnitude: (the padded run its items read, |w|, where
        # the product goes), and where a slice of that product starts
        self.products, at = [], {}
        for m, prod in zip(shared, products):
            ks = [k for k, w in stencil.live if abs(w) == m]
            start, stop = (lo + min(ks)) * rows, (lo + max(ks) + n) * rows
            self.products.append((flat[start:stop], m, prod[: stop - start]))
            at[m] = (prod, start)
        # per live item: (its slice, w, the array whose +-copy is the term,
        # or None when the term is a product of its own, whether it is -)
        self.items = []
        for k, w in stencil.live:
            s = flat[(lo + k) * rows : (lo + k) * rows + width]
            term = s if abs(w) == 1.0 else None
            if abs(w) in at:
                prod, start = at[abs(w)]
                term = prod[(lo + k) * rows - start :][:width]
            self.items.append((s, w, term, w < 0))
        # whether a sum from its first term adds or subtracts the first two
        # in one call: not when the first is a product of its own, nor for
        # two negated terms, whose negation would flip a NaN's sign bit
        items = self.items
        self.pair = (
            len(items) > 1
            and items[0][2] is not None
            and not (items[0][3] and items[1][2] is not None and items[1][3])
        )

    def sum_into(self, out: np.ndarray, initial: Optional[float] = 0.0) -> np.ndarray:
        if self.window is not None:
            np.multiply(self.live, self.weights, out=self.terms)
            return np.add.reduce(self.terms, axis=0, initial=initial, out=out)
        for src, m, prod in self.products:
            np.multiply(src, m, out=prod)
        items = iter(self.items)
        acc = initial
        if acc is None and self.pair:
            (_, _, a, minus_a), (s, w, b, minus_b) = next(items), next(items)
            if b is None:
                b, minus_b = np.multiply(s, w, out=self.scratch), False
            if minus_a:  # -a + b is b - a
                np.subtract(b, a, out=out)
            else:
                (np.subtract if minus_b else np.add)(a, b, out=out)
            acc = out
        for s, w, term, minus in items:
            if acc is None:
                np.multiply(s, w, out=out)
            elif term is None:
                np.add(acc, np.multiply(s, w, out=self.scratch), out=out)
            else:  # acc + (-t) is acc - t
                (np.subtract if minus else np.add)(acc, term, out=out)
            acc = out
        if acc is not out:  # no live items
            out[...] = 0.0
        return out


def step_linear(field: GridField, scheme: Scheme, nu: float) -> GridField:
    """One explicit step u_j <- sum_i c_i(nu) u_{j+k_i} with periodic boundaries."""
    check_fit(field.n_cells, scheme.offsets)
    stencil = _stencil(scheme.offsets, scheme.float_weights(nu))
    return GridField(_march(field.values, [stencil], 1), field.dx, field.origin)


def run_linear(
    problem: LinearProblem,
    field: GridField,
    steps: int,
    callback: Optional[Callable[[int, GridField], None]] = None,
) -> GridField:
    """March `steps` steps, applying each term's scheme in sequence per step.

    `field` may be one row or a (rows, cells) stack; the callback's fields and
    the result have its shape.  The march runs in one workspace (`_march`);
    the result, and each callback field, is a copy of it that no later step
    writes.  Emits a RuntimeWarning (but still runs) when a term is outside
    its stable Courant range, by the problem's kept `growth_notes` for the
    field's dx, on every call — periodic single-mode growth
    is diagnosable but sometimes deliberately provoked.  A stencil wider than the grid is
    refused before any scheme is built.
    """
    if steps < 0:
        raise ConfigurationError("step count must be >= 0")
    for term in problem.terms:
        check_fit(field.n_cells, problem.term_offsets(term))
    schemes = problem.schemes()
    nus = problem.courant_numbers(field.dx)
    for scheme, nu, note in zip(schemes, nus, problem.growth_notes(field.dx)):
        if note:
            warnings.warn(
                f"term m={scheme.m} is unstable at nu={nu:.6g}: {note}",
                RuntimeWarning,
                stacklevel=2,
            )
    stencils = [_stencil(s.offsets, s.float_weights(nu)) for s, nu in zip(schemes, nus)]
    keep = None
    if callback is not None:
        keep = lambda s, u: callback(s, GridField(u.copy(), field.dx, field.origin))
    return GridField(_march(field.values, stencils, steps, keep), field.dx, field.origin)


class _Workspace:
    """The padded buffers of a march of one layer table on fields of one
    shape, and what a step reads from them, allocated and set up once.

    The table is row 0's float stencil `first`, then `later`: for each row j
    after it, its stencil and scale nu^j.  Row j reads density j of the
    `DensityFamily` `densities` (None when there are no later rows).  A
    linear term is a table with no later rows.  Every row has the halo
    widths of `first`.
    Every buffer is cells-major: (lo + cells + hi, R) for a field of R rows
    (R = 1 for a 1-D field), the R values of one cell side by side, so each
    shifted slice a sum reads is one contiguous run.  Two such buffers take
    turns: a step refills the current buffer's halos in place from its
    interior and writes row 0's sum (`_SliceSum`, from +0.0) straight into
    the interior of the other.  A table with later rows owns one density
    buffer per later row, shaped like a padded buffer, and each row's
    `_SliceSum` over it, which both turns share.  One `evaluate` call writes
    every later density of the current buffer, padded halos and all, into
    them; each later row then sums its own from its first term into the row
    array, which is scaled in place and added.  The rows share that array,
    allocated only when there are later rows, one scratch array and the
    slice loops' product buffers, as many as the widest row's shared weight
    magnitudes (`_SliceSum`).  Every buffer is allocated by `_aligned` so
    that each array a step writes starts on an `_ALIGN`-byte cache line:
    each turn buffer's interior, which the other turn's row 0 writes, each
    density buffer from its first element, which `evaluate` writes whole,
    and the row, scratch and product arrays.  numpy alone puts the interior
    lo R values into a 16-byte-aligned buffer, off the line.

    `step(values)` takes one step of a field of the workspace's shape,
    copying it, transposed, into the current buffer first unless it is that
    buffer's interior as the previous step returned it, and returns the
    interior the step wrote, as a view of the field's shape; a later step
    overwrites it.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        first: FloatStencil,
        later: Sequence[tuple[FloatStencil, float]] = (),
        densities: Optional[DensityFamily] = None,
    ):
        n = shape[-1]
        size = math.prod(shape)
        rows = size // n
        padded = lambda lead=0: _aligned((first.lo + n + first.hi, rows), lead)
        scratch, products = _aligned((size,)), []
        self.densities = densities
        self.bufs = [padded() for _ in later]
        # each later row's sum over its density buffer, and its scale
        self.sums = [
            (_SliceSum(b, n, st, scratch, products), nu) for b, (st, nu) in zip(self.bufs, later)
        ]
        self.row = _aligned((size,)) if later else None
        exts = [padded(first.lo * rows), padded(first.lo * rows)]
        cells = [ext[first.lo : first.lo + n] for ext in exts]
        # each buffer's interior: flat, as a sum writes it, and as a field
        flats = [c.reshape(-1) for c in cells]
        faces = [c.T.reshape(shape) for c in cells]
        # per turn: (its buffer, its interior as a field, the buffer's halos,
        # row 0's sum over it, and the other's interior, flat and as a field)
        self.turns = [
            (
                ext, face, _halos(ext, first.lo, n), _SliceSum(ext, n, first, scratch, products),
                out, out_face,
            )
            for ext, face, out, out_face in zip(exts, faces, flats[::-1], faces[::-1])
        ]

    def step(self, values: np.ndarray) -> np.ndarray:
        ext, face, halos, row0, out, out_face = self.turns[0]
        if values is not face:
            face[...] = values
        for halo, src in halos:
            halo[...] = src
        row0.sum_into(out)
        if self.sums:
            self.densities.evaluate(ext, self.bufs)
            for row_sum, nu_j in self.sums:
                row_sum.sum_into(self.row, initial=None)
                self.row *= nu_j
                out += self.row
        self.turns.reverse()
        return out_face


def _march(
    values: np.ndarray,
    stencils: Sequence[FloatStencil],
    steps: int,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> np.ndarray:
    """`steps` steps of the stencils in turn on `values`, one row or a stack,
    one workspace per stencil; returns a new array.

    Each step writes out[..., j] = sum of w * u[..., (j + k) mod N] over a
    stencil's items, in order, from +0.0, skipping zero weights, which is the
    same floating-point sum as adding w * np.roll(u, -k).  Each stencil's
    workspace copies in the field the one before it wrote.  Offsets must be
    distinct, and each stencil must fit the grid (`check_fit`).
    `callback(step, u)` is handed the last workspace's field after each step
    and must copy what it keeps.
    """
    workspaces = [_Workspace(values.shape, st) for st in stencils]
    u = values
    for s in range(steps):
        for workspace in workspaces:
            u = workspace.step(u)
        if callback is not None:
            callback(s + 1, u)
    return u.copy()


# -- nonlinear advection -------------------------------------------------------

@dataclass(frozen=True)
class DensityFamily:
    """Conserved densities u_0, u_1, ... fed to the layered update.

    funcs[j] evaluates the j-th density.  funcs[0] must be the identity: the
    update then reduces to the linear scheme on linear data, and it reads
    the field itself for row 0 without calling funcs[0].  Each step evaluates
    every later density once, through one `evaluate` call, on a halo-padded
    workspace buffer rather than on the field itself, into density buffers
    the workspace owns.  So each func must act pointwise: out[i] may depend
    on u[i] alone.  The buffer is the march's own: a func may return it, but
    must neither write into it nor keep it, or anything that shares its
    memory, past the call.
    """

    name: str
    funcs: tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.funcs)

    def evaluate(self, u: np.ndarray, outs: Sequence[np.ndarray]) -> None:
        """Write densities 1 .. len(outs) of `u` into `outs`, in order: each
        funcs[j](u) converted to float and copied into outs[j - 1].  `outs`
        are float arrays shaped like `u` that share no memory with it."""
        for func, out in zip(self.funcs[1:], outs):
            out[...] = func(u)


def _burgers_scaled(q: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """Burgers density j from the power q = u^(j+1), written to `out` (which
    may be q): q / (sign * p), or q * (1 / (sign * p)) when p = j + 1 is a
    power of two and that inverse is exact.  Both round sign * q / p once."""
    p = j + 1
    divisor = (-1.0) ** j * p
    if p & (p - 1) == 0:
        return np.multiply(q, 1.0 / divisor, out=out)
    return np.divide(q, divisor, out=out)


class _BurgersFamily(DensityFamily):
    """`burgers_densities`' family: `evaluate` runs one power chain for all
    densities, with the funcs' rounding."""

    def evaluate(self, u: np.ndarray, outs: Sequence[np.ndarray]) -> None:
        # the running power u^(j+1) lives in the last buffer, scaled in place last
        q = np.multiply(u, u, out=outs[-1])
        for j, out in enumerate(outs, 1):
            if j > 1:
                q *= u
            _burgers_scaled(q, j, out)


def burgers_densities(n: int) -> DensityFamily:
    """Densities for u_t = -u u_x: u_j(u) = (-1)^j u^(j+1) / (j+1).

    These are the successive antiderivatives of the powers of the local speed
    f(u) = -u, which is exactly what the layered update consumes.  The power
    is a chain of multiplies, q = u * u * ... * u, not `pow`, and the sign and
    divisor scale it in one operation (`_burgers_scaled`): q / (sign * p), or
    q * (1 / (sign * p)) when p is a power of two and that inverse is exact.
    Both round the same real number as sign * q / p, so each density is
    bitwise sign * q / p: for j <= 1 that is what sign * u**(j+1) / (j+1)
    gives, and each higher density is within a few ulp of its exact value.
    funcs[j] runs its own chain; the family's `evaluate` shares one chain
    across all densities of a step, q = u * u, then q *= u, each density
    scaled from it into its own buffer and the last in place, so it writes
    the bits the funcs give.
    """

    def make(j: int) -> Callable[[np.ndarray], np.ndarray]:
        if j == 0:
            return lambda u: u

        def density(u: np.ndarray) -> np.ndarray:
            q = u * u
            for _ in range(j - 1):
                q *= u
            return _burgers_scaled(q, j, q)

        return density

    return _BurgersFamily("burgers", tuple(make(j) for j in range(n + 1)))


def identity_densities(n: int) -> DensityFamily:
    """All densities equal to u itself; turns the layered update into linear advection."""
    return DensityFamily("identity", tuple(lambda u: u for _ in range(n + 1)))


def _layered_workspace(
    shape: tuple[int, ...], layers: LayerTable, densities: DensityFamily, nu: float
) -> _Workspace:
    """A workspace marching `layers`, row j on density j scaled by nu^j."""
    if len(densities) < len(layers):
        raise ConfigurationError(
            f"density family {densities.name!r} provides {len(densities)} densities, "
            f"the layer table needs {len(layers)}"
        )
    check_fit(shape[-1], layers.offsets)
    first, *stencils = (_stencil(layers.offsets, row) for row in layers.float_rows)
    nu = float(nu)
    later = [(st, nu**j) for j, st in enumerate(stencils, 1)]
    return _Workspace(shape, first, later, densities)


def step_nonlinear(
    field: GridField,
    layers: LayerTable,
    densities: DensityFamily,
    nu: float,
    *,
    workspace: Optional[_Workspace] = None,
) -> GridField:
    """One conserved-density step: row j of the table hits density j, scaled by nu^j.

    The field's wrapped halo is refilled once, and one `densities.evaluate`
    call writes every density j >= 1 of that padded array into the
    workspace's density buffers (for Burgers, from one shared power chain);
    densities act pointwise, so the padded density reads the same values as
    padding the density would.  Row 0's sum, of the field itself, is the
    step's sum, not rescaled: it starts from +0.0, so it never holds -0.0
    and 0.0 + 1.0 * sum would give its bits again.  Each later row's sum, of
    its density buffer, starts from its first term, is scaled by nu^j in
    place and is added to it, in row order; adding its +-0.0 leaves the
    step's sum as it is, so starting that row from +0.0 would give the same
    bits.  The funcs contract is that of `DensityFamily`.

    Alone, the step runs in a workspace of its own and returns a new array.
    `workspace` is `run_nonlinear`'s, built for these layers, densities and
    nu and this field's shape: the step then writes its result into the
    workspace and returns a field whose values are a (rows, cells) view of
    it, which the next step of that workspace marches on without a copy.
    """
    if workspace is None:
        workspace = _layered_workspace(field.values.shape, layers, densities, nu)
        out = workspace.step(field.values).copy()
    else:
        out = workspace.step(field.values)
    return GridField(out, field.dx, field.origin)


def run_nonlinear(
    field: GridField,
    layers: LayerTable,
    densities: DensityFamily,
    nu: float,
    steps: int,
    callback: Optional[Callable[[int, GridField], None]] = None,
) -> GridField:
    """March `steps` layered steps (`step_nonlinear`) in one workspace.

    The workspace is allocated once per run and each step writes into it;
    `field` is left as it is.  The result, and each callback field, is a
    copy that no later step writes.
    """
    if steps < 0:
        raise ConfigurationError("step count must be >= 0")
    workspace = _layered_workspace(field.values.shape, layers, densities, nu)
    out = field
    for s in range(steps):
        out = step_nonlinear(out, layers, densities, nu, workspace=workspace)
        if callback is not None:
            callback(s + 1, GridField(out.values.copy(), out.dx, out.origin))
    return GridField(out.values.copy(), field.dx, field.origin)


def shock_front(field: GridField, level: float = 0.5) -> Optional[float]:
    """Leftmost downward crossing of `level`, linearly interpolated.

    Scans adjacent cell pairs left to right and returns the interpolated x
    where the profile first falls through the level (upward crossings, e.g. a
    periodic re-entry ramp, are ignored).  None if the profile never does.
    A stack is refused: split it with `GridField.rows()`.
    """
    v = _one_row(field, "shock_front").values
    down = np.flatnonzero((v[:-1] >= level) & (v[1:] < level))
    if down.size == 0:
        return None
    j = int(down[0])
    frac = (v[j] - level) / (v[j] - v[j + 1])
    return float(field.x()[j] + frac * field.dx)


# -- march budget --------------------------------------------------------------

# A march over any of these bounds is refused before a field is sampled: an
# explicit `run`, and a `converge` ladder, whose work and steps sum over its
# grids.  The cell bound, per grid, keeps one array of a march at 80 MB; it is
# 5 x 10^4 times fig-burgers' 200 cells, and refuses a ladder on 4e8 cells
# (3.2 GB per array).  The work is cells x max(steps, 1) x stencil points (a
# run of 0 steps still samples and writes its grid).  The largest march of the
# presets, one fig-advection profile at order 29, is 100 cells x 6250 steps x
# 30 points = 1.9e7, and the largest explicit run of the tests 5e4.  The
# largest ladders of the tests and acceptance criteria are m = 2 at |nu| =
# 0.4 on 32..256 cells: 2 427 776 cell-steps, on 5 points at n = 2 and on 7
# at n = 3 (an argv of the fuzz test), 1.7e7 in all.  The work bound leaves
# the preset march a 105x margin and those ladders 118x; m = 1, n = 29 at
# |nu| = 2e-4 (6.5e9, 17 s) is refused.  On tiny grids a step's fixed cost
# (~4-6 us on 3 cells, 200 000 steps in 1.3-1.6 s; ~6 us on 32 cells)
# dominates instead, so the step count is bounded too: 184x the presets'
# longest march of 6250 steps and 104x the 11 024 steps of those ladders,
# about 5-7 s at that cost (a 1.15e6-step run on 3 cells took 7.6 s on 2
# shared Xeon CPUs); m = 1, n = 1 at |nu| = 2e-4 (1.2e6 steps, 7.8 s) is
# refused.
MAX_MARCH_CELLS = 1e7
MAX_MARCH_WORK = 2e9
MAX_MARCH_STEPS = 1.15e6


def _count(n) -> float:
    """`n` as a float, inf past the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def check_march_budget(grids: Iterable, points: int, what: str, remedy: str) -> None:
    """Refuse a march over MAX_MARCH_CELLS, MAX_MARCH_WORK or MAX_MARCH_STEPS.

    `grids` holds each grid's (cells, steps) and `points` counts the
    stencil's points.  The message names the march, `what`, its count and the
    limit, and ends with `remedy`, what to change.
    """
    cells, steps = zip(*[(_count(c), _count(s)) for c, s in grids])
    work = sum(c * max(s, 1) for c, s in zip(cells, steps)) * points
    for count, quantity, limit in (
        (max(cells), "cells on one grid", MAX_MARCH_CELLS),
        (work, "cells x steps x stencil points", MAX_MARCH_WORK),
        (sum(steps), "steps", MAX_MARCH_STEPS),
    ):
        if count > limit:
            raise ConfigurationError(
                f"the {what} would march {count:.3g} {quantity}, over the limit of "
                f"{limit:.3g}; {remedy}"
            )


# -- convergence ---------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceResult:
    """Refinement-ladder errors with fitted orders (None when exact to roundoff)."""

    m: int
    n: int
    nu: float
    grid_sizes: tuple[int, ...]
    dxs: tuple[float, ...]
    dts: tuple[float, ...]
    steps: tuple[int, ...]
    errors: tuple[float, ...]
    order_dx: Optional[float]
    order_dt: Optional[float]
    exact: bool


def convergence_study(
    m: int,
    n: int,
    nu: float,
    grids: Sequence[int] = (32, 64, 128, 256),
    box: tuple[float, float] = (0.0, 1.0),
    final_time: Optional[float] = None,
    a: Optional[float] = None,
    offsets: Optional[Iterable[int]] = None,
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ConvergenceResult:
    """Max-norm error at a fixed physical time across a grid-refinement ladder.

    `nu` is a magnitude; the Courant number's sign comes from the coefficient
    `a` (default: the conventional sign for this m).  The time step scales as
    dx^m so nu is constant down the ladder; the fitted slope versus dt is the
    headline order (it equals the dx slope divided by m).

    The reference solution is exact: a single Fourier mode is evolved by its
    exact amplification factor, or, for m=1 with a custom profile, the initial
    data is translated.  Unstable configurations are refused, and so is a
    ladder over the march budget (`check_march_budget`), a stencil wider than
    a grid, checked before the stability scan, a time step that is not a
    normal float, or a non-finite error; the orders (`check_orders`) are
    checked before any other input.
    """
    check_orders(m, n)
    a = term_coefficient(m, a)
    nu = abs(float(nu))
    if not (nu > 0 and math.isfinite(nu)):
        raise ConfigurationError("Courant magnitude must be a finite number > 0")
    grids = tuple(int(g) for g in grids)
    if len(set(grids)) < 2:
        raise ConfigurationError("a convergence study needs at least two distinct grid sizes")
    if min(grids) < 1:
        raise ConfigurationError("grid sizes must be at least 1 cell")
    if profile is not None and m != 1:
        raise ConfigurationError(
            "custom profiles have an exact reference only for m=1; "
            "use the default single-mode profile for m >= 2"
        )
    offs = default_offsets(m, n, a, offsets)
    for g in grids:
        check_fit(g, offs)
    scheme = master_scheme(SchemeSpec(m, n, offs))
    signed_nu = math.copysign(nu, a)
    note = growth_note(scheme, signed_nu)
    if note:
        raise ConfigurationError(
            f"scheme m={m} n={n} offsets={tuple(offs)} is unstable at nu={signed_nu:.6g} "
            f"({note}); reduce |nu|"
        )

    lo, hi = box
    if not hi > lo:
        raise ConfigurationError(f"empty box {box}")
    length = hi - lo
    p = 2.0 * math.pi / length
    if final_time is not None and not (final_time > 0 and math.isfinite(final_time)):
        raise ConfigurationError(f"final time must be a finite number > 0, got {final_time:g}")
    remedy = "raise |nu|, shorten the time or use fewer or smaller grids"
    try:
        if final_time is None:
            final_time = 0.5 * length / abs(a) if m == 1 else 2.0 / (abs(a) * p**m)
        what = f"ladder to time {final_time:g}"
        # a lower bound of the budget, one step a grid, on the grid sizes as
        # ints: a size past the float range would overflow its spacing
        check_march_budget([(g, 0) for g in grids], len(offs), what, remedy)
        dxs = [length / g for g in grids]
        dts = [nu * dx**m / abs(a) for dx in dxs]
    except ArithmeticError:  # p^m or dx^m overflowed, or p^m underflowed to 0
        raise ConfigurationError(f"the box {box} has a width^{m} out of float range") from None
    if not all(sys.float_info.min <= dt < math.inf for dt in dts):
        raise ConfigurationError(f"the time steps {min(dts):g}..{max(dts):g} are not normal floats")
    check_march_budget([(g, final_time / dt) for g, dt in zip(grids, dts)], len(offs), what, remedy)
    step_counts = [round(final_time / dt) for dt in dts]
    for g, dt, steps in zip(grids, dts, step_counts):
        if steps < 1:
            raise ConfigurationError(
                f"final time {final_time:g} is under half a step (dt = {dt:g}) on {g} cells"
            )

    errors = []
    for g, dt, steps in zip(grids, dts, step_counts):
        t_end = steps * dt
        field0 = GridField.sample(profile if profile is not None else sine_profile(box), box, g)
        # nu rounded as `LinearProblem.courant_numbers` rounds it, so each error
        # is the one a `run_linear` of this grid gives
        stencil = _stencil(offs, scheme.float_weights(dt * a / field0.dx**m))
        out = _march(field0.values, [stencil], steps)
        if profile is not None:
            # m=1: exact evolution is translation by -a * t
            ref_fn = lambda x: profile(_wrap(x + a * t_end, lo, length))
            ref = np.asarray(ref_fn(field0.x()), dtype=float)
        else:
            factor = cmath.exp(a * (1j * p) ** m * t_end)
            mode = np.exp(1j * p * (field0.x() - lo))
            ref = np.imag(factor * mode)
        errors.append(float(np.max(np.abs(out - ref))))

    if not all(map(math.isfinite, errors)):
        raise ConfigurationError(f"the errors {errors} are not all finite; no order can be fitted")
    exact = max(errors) < 1e-12
    if exact:
        order_dx = order_dt = None
    else:
        slope = np.polyfit(np.log(dxs), np.log(np.maximum(errors, 1e-300)), 1)[0]
        order_dx = float(slope)
        order_dt = float(slope / m)
    return ConvergenceResult(
        m=m,
        n=n,
        nu=signed_nu,
        grid_sizes=grids,
        dxs=tuple(dxs),
        dts=tuple(dts),
        steps=tuple(step_counts),
        errors=tuple(errors),
        order_dx=order_dx,
        order_dt=order_dt,
        exact=exact,
    )


def _wrap(x: np.ndarray, lo: float, length: float) -> np.ndarray:
    return lo + np.mod(x - lo, length)
