"""Two numpy floating-point identities the stability scan relies on.

The scalar gain of the golden-section polish squares g as re*re + im*im on a
Python complex, and multiplies by weights cast to complex once per probe.
Both give the bits of the earlier (g * conj g).real on float weights only while
these identities hold, so a numpy change that breaks one fails here rather
than as a shifted critical Courant number.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(finite, finite)
@example(5e-324, -0.0)
@example(-0.0, 0.0)
@example(-0.0, -0.0)
@example(2.2250738585072014e-308, -1e-310)
@example(1.7976931348623157e308, -1e308)
@example(1e154, 1e154)
@example(-3.0, 4.0)
def test_real_of_g_times_conj_g_is_sum_of_squares(re, im):
    g = np.complex128(complex(re, im))
    with np.errstate(over="ignore", invalid="ignore"):  # the imaginary part may be inf - inf
        numpy_square = float((g * g.conjugate()).real)
    c = complex(g)
    assert numpy_square.hex() == (c.real * c.real + c.imag * c.imag).hex()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=21).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=-n, max_value=0),
            st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        )
    ),
    st.floats(-4.0 * math.pi, 4.0 * math.pi),
)
def test_complex_cast_weights_dot_equals_float_weights_dot(stencil, t):
    left, weights = stencil
    iks = 1j * np.arange(left, left + len(weights), dtype=float)
    ws = np.array(weights, dtype=float)
    basis = np.exp(t * iks)
    assert (basis @ ws.astype(complex)).tobytes() == (basis @ ws).tobytes()
