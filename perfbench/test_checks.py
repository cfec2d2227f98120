"""The benchmark's checks accept right results and reject known-wrong ones.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

STEPS = 625


def march(u0, offsets, weights, steps):
    """Direct periodic marching u_j <- sum_k w_k u_{j+k}."""
    u = u0.copy()
    for _ in range(steps):
        u = sum(w * np.roll(u, -k) for k, w in zip(offsets, weights))
    return u


class TestAdvection:
    x = checks.grid_x(checks.ADV_BOX, checks.ADV_CELLS)

    def marched(self, n, profile, steps=STEPS, bump=0.0):
        offs = checks.uw_offsets(n)
        weights = [float(w) for w in checks.lagrange_weights(offs, checks.ADV_NU)]
        weights[0] += bump
        return march(checks.initial_profile(profile, self.x), offs, weights, steps)

    @pytest.mark.parametrize("n", [1, 5, 29])
    @pytest.mark.parametrize("profile", ["triangle", "rectangle"])
    def test_accepts_direct_marching(self, n, profile):
        u = self.marched(n, profile)
        assert checks.check_advection(n, profile, STEPS, self.x, u) == []

    @pytest.mark.parametrize("n", [1, 5, 29])
    def test_rejects_weight_perturbed_by_1e_9(self, n):
        u = self.marched(n, "triangle", bump=1e-9)
        assert checks.check_advection(n, "triangle", STEPS, self.x, u)

    @pytest.mark.parametrize("n", [1, 5, 29])
    def test_rejects_one_step_short(self, n):
        u = self.marched(n, "rectangle", steps=STEPS - 1)
        assert checks.check_advection(n, "rectangle", STEPS, self.x, u)

    def test_rejects_order_1_result_for_order_5(self):
        u = self.marched(1, "triangle")
        problems = checks.check_advection(5, "triangle", STEPS, self.x, u)
        assert any("not 5x below" in p for p in problems)


class TestBurgers:
    x = checks.grid_x((-5.0, 5.0), 2000)
    x0 = 0.3

    def shock(self, t):
        return np.where(self.x - self.x0 < checks.exact_front(t), 1.0, 0.0)

    @pytest.mark.parametrize("t", [1.5, 2.0])
    def test_accepts_exact_front(self, t):
        u = self.shock(t)
        front = checks.downward_crossing(self.x, u)
        assert checks.check_burgers_snapshot(t, self.x, u, self.x0, u.sum(), front) == []

    @pytest.mark.parametrize("t", [1.5, 2.0])
    def test_rejects_front_moved_by_5_dx(self, t):
        u = np.roll(self.shock(t), 5)  # same mass, front 5 dx to the right
        front = checks.downward_crossing(self.x, u)
        problems = checks.check_burgers_snapshot(t, self.x, u, self.x0, u.sum(), front)
        assert len(problems) == 2 and all("front" in p for p in problems)

    def test_rejects_program_front_moved_by_5_dx(self):
        u = self.shock(2.0)
        dx = self.x[1] - self.x[0]
        front = checks.downward_crossing(self.x, u) + 5 * dx
        problems = checks.check_burgers_snapshot(2.0, self.x, u, self.x0, u.sum(), front)
        assert len(problems) == 1 and "shock_front" in problems[0]

    def test_ramp_interior_and_mass(self):
        t = 0.5
        u = np.clip((1.0 - (self.x - self.x0)) / (1.0 - t), 0.0, 1.0)
        assert checks.check_burgers_snapshot(t, self.x, u, self.x0, u.sum()) == []
        assert checks.check_burgers_snapshot(t, self.x, np.roll(u, 5), self.x0, u.sum())
        assert checks.check_burgers_snapshot(t, self.x, u, self.x0, u.sum() + 1e-6)


# offsets -2..1, order 3, m = 1: weight polynomials c_k(nu) as (c_0, .., c_3)
ADV3 = {
    -2: (F(0), F(1, 6), F(0), F(-1, 6)),
    -1: (F(0), F(-1), F(1, 2), F(1, 2)),
    0: (F(1), F(1, 2), F(-1), F(-1, 2)),
    1: (F(0), F(1, 3), F(1, 2), F(1, 6)),
}
# -prod(nu - k) / 4! with prod = nu^4 + 2 nu^3 - nu^2 - 2 nu
ADV3_LEADING = (4, [F(0), F(2, 24), F(1, 24), F(-2, 24), F(-1, 24)])
# centred m = 2, order 2, offsets -2..2
DIFF2 = {
    -2: (F(0), F(-1, 12), F(1, 2)),
    -1: (F(0), F(4, 3), F(-2)),
    0: (F(1), F(-5, 2), F(3)),
    1: (F(0), F(4, 3), F(-2)),
    2: (F(0), F(-1, 12), F(1, 2)),
}


def with_numerator_changed(table, k, j):
    c = table[k][j]
    row = list(table[k])
    row[j] = F(c.numerator + 1, c.denominator)
    return {**table, k: tuple(row)}


class TestGeneration:
    def test_accepts_reference_tables(self):
        assert checks.check_generation(1, 3, list(ADV3), ADV3, ADV3_LEADING) == []
        assert checks.check_generation(2, 2, list(DIFF2), DIFF2) == []

    @pytest.mark.parametrize("k,j", [(-2, 1), (0, 0), (1, 3)])
    def test_rejects_one_numerator_changed_m1(self, k, j):
        table = with_numerator_changed(ADV3, k, j)
        assert checks.check_generation(1, 3, list(ADV3), table, ADV3_LEADING)

    @pytest.mark.parametrize("k,j", [(-1, 1), (2, 2)])
    def test_rejects_one_numerator_changed_m2(self, k, j):
        table = with_numerator_changed(DIFF2, k, j)
        assert checks.check_generation(2, 2, list(DIFF2), table)

    def test_rejects_wrong_leading_error(self):
        power, poly = ADV3_LEADING
        wrong = (power, [poly[0], poly[1] + 1] + poly[2:])
        assert checks.check_generation(1, 3, list(ADV3), ADV3, wrong)
        assert checks.check_generation(1, 3, list(ADV3), ADV3, (power + 1, poly))


class TestStability:
    @pytest.mark.parametrize("expected", [F(1), F(2), F(3, 8), F(45, 136), F(315, 1024)])
    def test_nu_c_off_by_1e_2(self, expected):
        assert checks.check_nu_c(float(expected) - 5e-5, expected) == []
        assert checks.check_nu_c(float(expected) + 1e-2, expected)
        assert checks.check_nu_c(float(expected) - 1e-2, expected)

    def test_bracket_rejects_nu_c_off_by_1e_2(self):
        offs = list(DIFF2)
        width = checks.NU_C_TOL
        assert checks.check_nu_c_bracket(offs, DIFF2, +1, 2 / 3 - 5e-5, width) == []
        assert checks.check_nu_c_bracket(offs, DIFF2, +1, 2 / 3 + 1e-2, width)
        assert checks.check_nu_c_bracket(offs, DIFF2, +1, 2 / 3 - 1e-2, width)

    def test_windows_parity_and_ceiling(self):
        # m = 2: only the centred window r = 1 is stable, and only for a > 0
        good = {(s, r): 0.0 for s in (+1, -1) for r in range(3)}
        good[(+1, 1)] = 0.5
        assert checks.check_windows(2, good) == []
        assert checks.check_windows(2, {**good, (+1, 1): 0.5 - 1e-2})
        assert checks.check_windows(2, {**good, (-1, 1): 0.5})
        assert checks.check_windows(2, {**good, (+1, 1): 0.0, (+1, 0): 0.5})
