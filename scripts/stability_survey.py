"""Survey of critical Courant numbers across the scheme zoo.

Four tables:
  1. the centered even-derivative (diffusion) ladder, full vs. truncated to
     its linear-in-nu layer — order buys stability, truncation costs it;
  2. every first-order window r = 0..m for m = 1..6 under both coefficient
     signs, exact, against the geometric ceiling 1/2^(m-1);
  3. the stable-window classification per sign (the parity rule);
  4. the three named advection ladders and their stability endpoints.

Usage: python3 scripts/stability_survey.py [--m-max 6]
"""

import argparse
from fractions import Fraction

from fdmarch import (
    OffsetSet,
    SchemeSpec,
    advection_family_spec,
    advection_family_stability,
    classify_first_order,
    critical_courant,
    master_scheme,
)
from fdmarch.cli import MAX_SCHEME_POINTS


def diffusion_ladder(n_max: int = 4) -> None:
    print("## centered second-derivative ladder (a > 0)")
    print(f"{'n':>3} {'nu_c full':>10} {'nu_c linear-layer only':>24}")
    for n in range(1, n_max + 1):
        scheme = master_scheme(SchemeSpec(2, n, OffsetSet.contiguous(n, 2 * n)))
        full = critical_courant(scheme, +1)
        trunc = critical_courant(scheme.truncated(1), +1)
        print(f"{n:>3} {full:>10.4f} {trunc:>24.4f}")
    print()


def first_order_windows(m_max: int) -> None:
    print("## first-order windows vs. the 1/2^(m-1) ceiling")
    print(f"{'m':>3} {'r':>3} {'a>0':>8} {'a<0':>8} {'bound':>8}")
    classes = [classify_first_order(m) for m in range(1, m_max + 1)]
    for cls in classes:
        m = cls.m
        bound = str(Fraction(1, 2 ** (m - 1)))
        for r in range(m + 1):
            plus = str(cls.nu_critical[(+1, r)])
            minus = str(cls.nu_critical[(-1, r)])
            print(f"{m:>3} {r:>3} {plus:>8} {minus:>8} {bound:>8}")
    print()
    print("## stable window per sign")
    for cls in classes:
        parts = []
        for sign in (+1, -1):
            r = cls.stable_r[sign]
            label = f"a{'>' if sign > 0 else '<'}0"
            parts.append(f"{label}: {'r=' + str(r) if r is not None else 'none'}")
        print(f"m={cls.m}: " + "   ".join(parts))
    print()


def advection_ladders(s_max: int = 2) -> None:
    print("## named advection ladders (probed at nu < 0)")
    print(f"{'family':>7} {'s':>3} {'n':>3} {'r':>3} {'nu_c':>8}")
    for kind in ("uw", "lw", "bw"):
        for s in range(s_max + 1):
            if kind == "lw" and s == 0:
                continue  # the centered even ladder starts at s = 1
            n, r = advection_family_spec(kind, s)
            nu_c = advection_family_stability(s, kind)
            print(f"{kind:>7} {s:>3} {n:>3} {r:>3} {nu_c:>8.4f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-max", type=int, default=6)
    args = ap.parse_args()
    # window m has m + 1 points: the bound `fdmarch classify --m` keeps
    if not 1 <= args.m_max <= MAX_SCHEME_POINTS - 1:
        ap.error(f"--m-max must lie in 1..{MAX_SCHEME_POINTS - 1}, got {args.m_max}")
    diffusion_ladder()
    first_order_windows(args.m_max)
    advection_ladders()


if __name__ == "__main__":
    main()
