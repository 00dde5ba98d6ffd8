#!/usr/bin/env python3
"""Check the pendulum correspondence along the fundamental branch.

For a grid of branch parameters, compares the swing period from Gauss
quadrature of the elliptic integral with the closed-form arc length
4 K(m)/sqrt(lambda) of one profile period, and the swing amplitude with
arctan of the profile slope.  Writes the table as CSV.
"""

import argparse
import math

import numpy as np

import muskat
from muskat.export import write_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-grid", type=int, default=12, help="branch parameters to sample")
    ap.add_argument("--out", default="pendulum_map.csv", help="output CSV")
    args = ap.parse_args()

    c = muskat.constants()
    lo = c.lambda_star + 0.02
    grid = lo + (1.0 - lo) * (np.arange(1, args.n_grid + 1) / args.n_grid) ** 2

    rows = {"lambda": [], "L_formula": [], "L_arclength": [], "theta_max": [], "arctan_alpha": []}
    for lam in grid:
        lam = float(lam)
        prof = muskat.profile_at(lam)
        traj = muskat.to_pendulum(muskat.translate_even(prof, 1))
        rows["lambda"].append(lam)
        rows["L_formula"].append(muskat.pendulum_period(lam))
        rows["L_arclength"].append(traj.period_L)
        rows["theta_max"].append(traj.theta_max)
        rows["arctan_alpha"].append(math.atan(prof.alpha))

    columns = {k: np.asarray(v) for k, v in rows.items()}
    worst = np.max(np.abs(columns["L_formula"] - columns["L_arclength"]))
    write_table(args.out, {"kind": "pendulum-map", "worst_period_diff": worst}, columns)
    print(f"wrote {args.out}")
    print(f"worst |L_formula - L_arclength| = {worst:.3e}")
    print(f"swing periods decrease from {columns['L_formula'][0]:.6f} to {columns['L_formula'][-1]:.6f}")
    print(f"swing amplitude approaches pi/2 = {math.pi/2:.6f}: max {columns['theta_max'][0]:.6f}")


if __name__ == "__main__":
    main()
