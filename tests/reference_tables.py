"""Frozen reference data for the generated-scheme tests.

Every entry was derived independently of the library (by hand or with a
brute-force oracle over exact rationals) before the generator was written;
the tests assert exact rational equality against these tables.

Two oracles follow the tables: the straightforward form of the order audit
(one product k_i^p * W_ji per moment, layer and point), which the library's
packed-integer audit must match exactly, and the paper's route to the error
term (s, P and Q by `RatPoly` arithmetic over Fractions), whose leading term
the library's `ErrorTerm.leading()`, read from the table's moments, must
equal.
"""

import math
import operator
from fractions import Fraction as F

from fdmarch.exact import OffsetSet, RatPoly, _node_product

# -- diffusion (m=2), centered minimal stencils ---------------------------------
# weight polynomials in nu: offset -> coefficients (c_0, c_1, ..., c_n)

DIFFUSION_N2 = {  # offsets -2..2
    0: (F(1), F(-5, 2), F(3)),
    1: (F(0), F(4, 3), F(-2)),
    2: (F(0), F(-1, 12), F(1, 2)),
}

DIFFUSION_N3 = {  # offsets -3..3
    0: (F(1), F(-49, 18), F(14, 3), F(-10, 3)),
    1: (F(0), F(3, 2), F(-13, 4), F(5, 2)),
    2: (F(0), F(-3, 20), F(1), F(-1)),
    3: (F(0), F(1, 90), F(-1, 12), F(1, 6)),
}

DIFFUSION_N4 = {  # offsets -4..4
    0: (F(1), F(-205, 72), F(91, 16), F(-25, 4), F(35, 12)),
    1: (F(0), F(8, 5), F(-61, 15), F(29, 6), F(-7, 3)),
    2: (F(0), F(-1, 5), F(169, 120), F(-13, 6), F(7, 6)),
    3: (F(0), F(8, 315), F(-1, 5), F(1, 2), F(-1, 3)),
    4: (F(0), F(-1, 560), F(7, 480), F(-1, 24), F(1, 24)),
}

# -- advection (m=1) layer tables ------------------------------------------------
# rows as written with 1/j! factored OUT in front (multiply row j by 1/j! to get
# the stored layer weights); offsets ascending.

ADVECTION_N3_OFFSETS = (-2, -1, 0, 1)
ADVECTION_N3_RAW_LAYERS = (
    (F(0), F(0), F(1), F(0)),            # j=0
    (F(1, 6), F(-1), F(1, 2), F(1, 3)),  # j=1  (x 1/1!)
    (F(0), F(1), F(-2), F(1)),           # j=2  (x 1/2!)
    (F(-1), F(3), F(-3), F(1)),          # j=3  (x 1/3!)
)

ADVECTION_N4_OFFSETS = (-2, -1, 0, 1, 2)
ADVECTION_N4_RAW_LAYERS = (
    (F(0), F(0), F(1), F(0), F(0)),
    (F(1, 12), F(-2, 3), F(0), F(2, 3), F(-1, 12)),
    (F(-1, 12), F(4, 3), F(-5, 2), F(4, 3), F(-1, 12)),
    (F(-1, 2), F(1), F(0), F(-1), F(1, 2)),
    (F(1), F(-4), F(6), F(-4), F(1)),
)


def folded_layers(raw_layers):
    """Apply the 1/j! folding convention used by the generator's layer tables."""
    import math

    return tuple(
        tuple(w / math.factorial(j) for w in row) for j, row in enumerate(raw_layers)
    )


# -- polynomial helpers ------------------------------------------------------------


def from_roots(roots):
    """Monic polynomial prod_i (x - root_i), built by repeated linear multiply.

    Integer roots stay ints, so their product is integer arithmetic.
    """
    return RatPoly(_node_product(r if isinstance(r, int) else F(r) for r in roots))


def derivative_at_zero(poly, order):
    """order-th derivative of poly at x = 0: order! times the x**order coefficient."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    return math.factorial(order) * poly.coefficient(order)


# -- oracles -----------------------------------------------------------------------


def order_conditions_by_loop(spec, table):
    """The order audit as a triple loop: for p = 0 .. n*m and every layer j,
    sum_i k_i^p * W_ji must equal D_j * p!/j! when p = j*m and 0 otherwise.
    Raises ArithmeticError at the first failing (p, j), low moments first, in
    the library audit's words."""
    m, ks = spec.m, spec.offsets
    kp = [1] * len(ks)
    for p in range(len(ks)):  # p = 0 .. n*m
        if p:
            kp = list(map(operator.mul, kp, ks))
        for j, (den, ints) in enumerate(table.int_rows):
            expected = den * math.factorial(p) // math.factorial(j) if p == j * m else 0
            if sum(map(operator.mul, kp, ints)) != expected:
                raise ArithmeticError(
                    f"order condition failed at moment p={p}, layer {j} for {spec}"
                )


def error_term_by_fractions(scheme):
    """The error term by the paper's route, as a (dx power, coefficient)
    tuple whose first entry `ErrorTerm.leading()` must equal, by `RatPoly`
    arithmetic over Fractions: s, P and Q by polynomial products, each
    Taylor coefficient as a derivative at zero over j!, the halves A/N! and
    B/(N+1)! and the temporal remainder -nu^(n+1)/(n+1)! summed per dx
    power, zero sums dropped, and the m = 1 product form by a division of
    `from_roots`.  Past its first entry the tuple is this truncated
    expansion, not the defect at every power it lists."""
    spec = scheme.spec
    ks = OffsetSet(spec.offsets)
    size = len(ks)
    s = from_roots(ks)
    p_poly = RatPoly.monomial(size) - s
    q_poly = RatPoly.monomial(size + 1) - RatPoly((sum(ks), 1)) * s
    assert p_poly.degree <= size - 1 and q_poly.degree <= size - 1

    def taylor_sum(poly):
        return RatPoly(
            derivative_at_zero(poly, j * spec.m) / F(math.factorial(j))
            for j in range(spec.n + 1)
        )

    parts = (
        (size, taylor_sum(p_poly) / F(math.factorial(size))),
        (size + 1, taylor_sum(q_poly) / F(math.factorial(size + 1))),
        (spec.m * (spec.n + 1), RatPoly.monomial(spec.n + 1, F(-1, math.factorial(spec.n + 1)))),
    )
    sums = {}
    for power, poly in parts:
        sums[power] = sums.get(power, RatPoly.zero()) + poly
    terms = tuple((power, sums[power]) for power in sorted(sums) if sums[power])
    if spec.m == 1 and terms[0] != (size, s / F(-math.factorial(size))):
        raise ArithmeticError("m=1 product form of the leading error failed")
    return terms
