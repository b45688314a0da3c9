#!/usr/bin/env python3
"""Stationarity residual before and after optimization.

Solves a few 16x16 instances and reports the interior L2 norm of the
divergence residual at the independent coupling versus at the solver's
optimum, together with the objective values. The drop in the residual is the
operational content of the stationarity condition.
"""

import argparse

import numpy as np

from planar_mk.instances import density_2d_from_function, gaussian_2d, smooth_random_density_2d
from planar_mk.measures import DiscreteDensity2D, Grid1D
from planar_mk.optimizer import SolverConfig, solve


def build_instances(n):
    grid = Grid1D.uniform(0.0, 1.0, n)
    corr = gaussian_2d(grid, grid, rho=0.5)
    yield "correlated, identical pair", corr, corr

    def two_bump(X, Y):
        return (
            np.exp(-((X - 0.3) ** 2 + (Y - 0.35) ** 2) / 0.04)
            + 0.8 * np.exp(-((X - 0.65) ** 2 + (Y - 0.7) ** 2) / 0.05)
            + 0.5 * np.exp(-((X - 0.5) ** 2 - 0.8 * (X - 0.5) * (Y - 0.5) + (Y - 0.5) ** 2) / 0.08)
        )

    bumps = density_2d_from_function(grid, grid, two_bump)
    yield "two-bump, identical pair", bumps, bumps

    base = gaussian_2d(grid, grid, rho=0.45, sigma=(0.24, 0.22))
    pert = smooth_random_density_2d(grid, grid, seed=5, amplitude=0.15)
    tilted = DiscreteDensity2D.from_values(grid, grid, base.values * pert.values)
    yield "perturbed pair", base, tilted


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--max-iters", type=int, default=4000)
    args = ap.parse_args()

    cfg = SolverConfig(max_iters=args.max_iters, grad_tol=1e-7)
    print(f"{'instance':<28} {'L(p0)':>10} {'L(p*)':>10} {'resid(p0)':>10} {'resid(p*)':>10} {'ratio':>7}")
    for name, f, f_tilde in build_instances(args.n):
        report = solve(f, f_tilde, cfg)
        r0 = report.el_residual_start
        print(
            f"{name:<28} {report.L_trace[0]:>10.6f} {report.L_final:>10.6f} "
            f"{r0:>10.5f} {report.el_residual_final:>10.5f} "
            f"{report.el_residual_final / r0:>7.3f}"
        )


if __name__ == "__main__":
    main()
