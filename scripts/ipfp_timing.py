#!/usr/bin/env python3
"""IPFP projections and their wall time in the benchmark's descent jobs.

Runs `optimizer.solve` on compare8's six 8x8 whole-cell shifts and on the
three pairs of solve16 and solve64 with their configs, all built by
perfbench/workloads.py in the seed-0 image. A spy on `optimizer._ipfp_core`
counts and times every projection of a solve: the descent's trials, plus
p*'s projection after a start that took no step (p* is otherwise the last
iterate as it stands); a projection ended on the final bump when it called
`optimizer._marginal_residual` and returned. Prints one line per job: the
projections, how many ended on the bump, the least IPFP milliseconds over
--repeat solves, and those milliseconds per projection. Nothing under src/
is changed; the spy is removed after each solve.

    python3 scripts/ipfp_timing.py
    python3 scripts/ipfp_timing.py --repeat 1 --workloads compare8
"""

import argparse
import sys
import time
from pathlib import Path

from planar_mk import optimizer
from planar_mk.optimizer import SolverConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import COMPARE_CASES, SIZES, SOLVE_CONFIG, descent_pairs, shift_pair  # noqa: E402

WORKLOADS = ("compare8", "solve16", "solve64")


def build_jobs(workload):
    """(name, f, f~, config) of each descent job of one workload."""
    n = SIZES[workload]
    if workload == "compare8":  # `compare` solves with the default config
        for seed, (sx, sy) in COMPARE_CASES:
            yield f"shift{seed}_{sx}{sy}", *shift_pair(seed, sx, sy, n), SolverConfig()
    else:
        for name, f, f_tilde in descent_pairs(n):
            yield name, f, f_tilde, SolverConfig(**SOLVE_CONFIG[workload])


def spied_solve(f, f_tilde, config):
    """Projections, bumped projections and IPFP seconds of one solve."""
    core, residual = optimizer._ipfp_core, optimizer._marginal_residual
    projections = bumped = 0
    seconds = 0.0
    inside = bump = False

    def counted_residual(*args):
        nonlocal bump
        bump = bump or inside
        return residual(*args)

    def timed_core(*args):
        nonlocal projections, bumped, seconds, inside, bump
        inside, bump = True, False
        start = time.perf_counter()
        try:
            out = core(*args)
        finally:
            seconds += time.perf_counter() - start
            inside = False
        projections += 1
        bumped += bump
        return out

    optimizer._ipfp_core, optimizer._marginal_residual = timed_core, counted_residual
    try:
        optimizer.solve(f, f_tilde, config)
    finally:
        optimizer._ipfp_core, optimizer._marginal_residual = core, residual
    return projections, bumped, seconds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed solves per job; the least IPFP time is printed")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    print(f"{'job':<20} {'projections':>11} {'bumped':>6} {'ipfp ms':>9} {'ms/proj':>8}")
    for workload in args.workloads:
        for name, f, f_tilde, config in build_jobs(workload):
            runs = [spied_solve(f, f_tilde, config) for _ in range(args.repeat)]
            projections, bumped, _ = runs[0]
            best = min(seconds for _, _, seconds in runs)
            per = 1e3 * best / max(projections, 1)
            print(f"{workload + ' ' + name:<20} {projections:>11} {bumped:>6} {1e3 * best:>9.3f} {per:>8.4f}")


if __name__ == "__main__":
    main()
