"""numpy floating-point identities the layered update relies on.

The layered Burgers update scales each density in one operation, q / (sign*p)
or, for p = 2, 4, q * (1 / (sign*p)); adds or subtracts a slice with a unit
weight instead of multiplying it; and takes row 0's sum, started from +0.0, as
the step's sum without adding it to zeros.  Each gives the bits of the earlier
arithmetic only while the identities below hold, so a numpy change that breaks
one fails here rather than as a shifted Burgers snapshot.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

finite = st.floats(allow_nan=False, allow_infinity=False)


def as_bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def finite_arrays_of(n, elements=finite):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


finite_arrays = st.integers(min_value=1, max_value=16).flatmap(finite_arrays_of)
signed_zeros_and_extremes = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -3.0, 1e-320]
)


@settings(max_examples=200, deadline=None)
@given(finite_arrays, st.sampled_from([2.0, -2.0, 4.0, -4.0]))
@example(signed_zeros_and_extremes, -2.0)
@example(signed_zeros_and_extremes, 4.0)
def test_divide_by_power_of_two_is_multiply_by_its_inverse(x, d):
    """x / d == x * (1/d) for d = +-2, +-4, subnormal quotients included."""
    with np.errstate(under="ignore"):
        assert np.array_equal(as_bits(x / d), as_bits(x * (1.0 / d)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=16).map(np.array),
    st.sampled_from([1.0, -1.0]),
    st.integers(min_value=1, max_value=8),
)
@example(signed_zeros_and_extremes, -1.0, 3)
@example(np.array([np.inf, -np.inf, 0.0, -0.0]), -1.0, 4)
def test_sign_moves_into_the_divisor(x, sign, p):
    """(sign*x) / p == x / (sign*p): the same real value, correctly rounded."""
    with np.errstate(under="ignore"):
        assert np.array_equal(as_bits((sign * x) / p), as_bits(x / (sign * p)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.tuples(finite_arrays_of(n), finite_arrays_of(n))
    )
)
@example((np.array([0.0, -0.0, 0.0, -0.0, 1.0]), np.array([0.0, 0.0, -0.0, -0.0, 1.0])))
def test_unit_weight_product_is_add_or_subtract(pair):
    """out + (1.0*s) == out + s and out + (-1.0*s) == out - s."""
    out, s = pair
    with np.errstate(over="ignore"):
        assert np.array_equal(as_bits(out + 1.0 * s), as_bits(out + s))
        assert np.array_equal(as_bits(out + -1.0 * s), as_bits(out - s))


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_arrays_of(6, st.floats(-1e300, 1e300)), min_size=1, max_size=4))
@example([np.array([-0.0, 0.0, -0.0, 5e-324, -1.0, 1.0])])
@example([np.array([-0.0] * 6), np.array([-0.0] * 6)])
def test_sum_from_plus_zero_is_unchanged_by_unit_rescale(terms):
    """A sum started from +0.0 is never -0.0, so 0.0 + 1.0*r == r."""
    r = np.zeros(6)
    for t in terms:
        r += t
    assert not np.signbit(r[r == 0.0]).any()
    assert np.array_equal(as_bits(0.0 + 1.0 * r), as_bits(r))
