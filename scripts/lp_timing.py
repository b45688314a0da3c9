#!/usr/bin/env python3
"""Pivots and wall time of the exact transportation LP on fixed instances.

Solves `oracle.solve_full_2d` on compare8's six 8x8 whole-cell shifts, built
by perfbench/workloads.py, and on three instances at the oracle's 16x16 size
cap: the whole-cell shift of seed 1 by (1, 0), the generic pair of seeds 1
and 2, and the narrow Gaussian pair. Prints one line per LP: its pivots,
the least wall seconds over --repeat solves, the milliseconds per pivot and
the objective.

    python3 scripts/lp_timing.py
    python3 scripts/lp_timing.py --repeat 1
"""

import argparse
import sys
import time
from pathlib import Path

from planar_mk import oracle
from planar_mk.instances import gaussian_2d, smooth_random_density_2d
from planar_mk.measures import Grid1D

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import COMPARE_CASES, shift_pair  # noqa: E402  the benchmark's compare8 instances


def build_instances():
    for seed, (sx, sy) in COMPARE_CASES:
        yield f"compare8 shift{seed}_{sx}{sy}", *shift_pair(seed, sx, sy, 8)
    yield "16x16 shift1_10", *shift_pair(1, 1, 0, 16)
    g = Grid1D.uniform(0.0, 1.0, 16)
    yield "16x16 pair 1/2", smooth_random_density_2d(g, g, seed=1), smooth_random_density_2d(g, g, seed=2)
    narrow = gaussian_2d(g, g, mean=(0.5, 0.5), sigma=(0.10, 0.08), rho=0.4)
    narrow_tilde = gaussian_2d(g, g, mean=(0.47, 0.53), sigma=(0.09, 0.11), rho=-0.3)
    yield "16x16 narrow Gaussian pair", narrow, narrow_tilde


def count_pivots(f, f_tilde):
    """Pivots of one solve, counted on `oracle._pivot`, restored after."""
    count = 0
    pivot = oracle._pivot

    def counted(flow, up, down):
        nonlocal count
        count += 1
        return pivot(flow, up, down)

    oracle._pivot = counted
    try:
        oracle.solve_full_2d(f, f_tilde)
    finally:
        oracle._pivot = pivot
    return count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed solves per LP; the least is printed")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    print(f"{'instance':<28} {'pivots':>6} {'seconds':>9} {'ms/pivot':>9} {'objective':>20}")
    for name, f, f_tilde in build_instances():
        pivots = count_pivots(f, f_tilde)
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            result = oracle.solve_full_2d(f, f_tilde)
            best = min(best, time.perf_counter() - start)
        print(f"{name:<28} {pivots:>6} {best:>9.4f} {1e3 * best / max(pivots, 1):>9.4f} {result.objective:>20.15g}")


if __name__ == "__main__":
    main()
