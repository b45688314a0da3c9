#!/usr/bin/env python3
"""Refinement study: deviation of the reconstructed laws from their targets.

For a fixed smooth density pair and a fixed smooth feasible coupling, the
binned laws of (X1, g(X1,Y2)) and (h(X1,Y2), Y2) are compared against the
source and target densities across grid resolutions. Both deviations should
shrink roughly like 1/n.
"""

import argparse

import numpy as np

from planar_mk.instances import gaussian_2d, smooth_random_density_2d
from planar_mk.measures import Grid1D
from planar_mk.optimizer import ipfp_project
from planar_mk.reduction import (
    build_g_map,
    build_h_map,
    pushforward_check,
    pushforward_check_h,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", type=int, nargs="+", default=[8, 16, 32, 64])
    ap.add_argument("--seed", type=int, default=3, help="seed of the coupling perturbation")
    args = ap.parse_args()

    print(f"{'n':>4} {'g-map L1':>10} {'g-map max':>10} {'h-map L1':>10} {'h-map max':>10}")
    for n in args.resolutions:
        grid = Grid1D.uniform(0.0, 1.0, n)
        f = gaussian_2d(grid, grid, rho=0.4, sigma=(0.25, 0.22))
        f_tilde = gaussian_2d(grid, grid, rho=-0.3, sigma=(0.24, 0.28), mean=(0.45, 0.55))
        f1, f2 = f.marginals[0], f_tilde.marginals[1]
        bump = smooth_random_density_2d(grid, grid, seed=args.seed, amplitude=0.6)
        p = ipfp_project(np.outer(f1.values, f2.values) * bump.values, f1, f2)
        rg = pushforward_check(f, p, build_g_map(f, p))
        rh = pushforward_check_h(f_tilde, p, build_h_map(f_tilde, p))
        print(
            f"{n:>4} {rg.l1_deviation:>10.5f} {rg.max_deviation:>10.6f} "
            f"{rh.l1_deviation:>10.5f} {rh.max_deviation:>10.6f}"
        )


if __name__ == "__main__":
    main()
