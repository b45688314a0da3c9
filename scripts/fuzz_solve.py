#!/usr/bin/env python3
"""`optimizer.solve` on the fuzz set: random valid density pairs, warnings raised as errors.

Builds --count pairs from `numpy.random.default_rng(--seed)`, as ROADMAP's
"fuzz set" defines them: one grid for both densities, 1-6 cells a side,
starts 0, -3, 1e3 or 1e6 and spans 1e-3, 1, 7, 50 or 1e4 per axis; values
exp(sigma * N(0, 1)) with sigma 0.5, 3 or 15, and 0, 30% or 70% of the
cells set to zero. Each pair is solved with {"max_iters": 300}. Prints the
count of each termination reason, the count of each refusal (an exception
out of `solve`, by type and message), the largest `max_marginal_error` of
the solves that ended (report.json's `max_iterate_l1`) and their total
iterations.

    python3 scripts/fuzz_solve.py --count 300 --seed 0

Run it from any directory; it imports src/planar_mk from the checkout it
lives in, so two checkouts' outputs can be diffed.
"""

import argparse
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planar_mk.measures import DiscreteDensity2D, Grid1D  # noqa: E402
from planar_mk.optimizer import SolverConfig, solve  # noqa: E402

STARTS = (0.0, -3.0, 1e3, 1e6)
SPANS = (1e-3, 1.0, 7.0, 50.0, 1e4)
SIGMAS = (0.5, 3.0, 15.0)
ZERO_SHARES = (0.0, 0.3, 0.7)


def fuzz_pair(rng):
    """Two densities on one random grid, with the fuzz set's ranges."""
    grids = []
    for _ in range(2):
        start, span = rng.choice(STARTS), rng.choice(SPANS)
        grids.append(Grid1D.uniform(start, start + span, int(rng.integers(1, 7))))
    shape = (grids[0].n_cells, grids[1].n_cells)
    pair = []
    for _ in range(2):
        values = np.exp(rng.choice(SIGMAS) * rng.standard_normal(shape))
        values.flat[rng.permutation(values.size)[: int(rng.choice(ZERO_SHARES) * values.size)]] = 0.0
        pair.append(DiscreteDensity2D.from_values(*grids, values))
    return pair


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=300, help="pairs to solve")
    ap.add_argument("--seed", type=int, default=0, help="seed of numpy.random.default_rng")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be at least 1")

    rng = np.random.default_rng(args.seed)
    reasons, refusals = Counter(), Counter()
    max_l1, iterations = 0.0, 0
    config = SolverConfig(max_iters=300)
    for _ in range(args.count):
        f, f_tilde = fuzz_pair(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = solve(f, f_tilde, config)
        except Exception as exc:  # a refusal of valid input, counted by its words
            refusals[f"{type(exc).__name__}: {exc}"] += 1
            continue
        reasons[report.termination_reason] += 1
        max_l1 = max(max_l1, report.max_marginal_error)
        iterations += report.iterations

    print(f"pairs {args.count} seed {args.seed}")
    for reason, n in sorted(reasons.items()):
        print(f"termination {reason} {n}")
    print(f"refused {sum(refusals.values())}")
    for message, n in sorted(refusals.items()):
        print(f"refusal {n} {message}")
    print(f"max_iterate_l1 {max_l1:.3e}")
    print(f"iterations {iterations}")


if __name__ == "__main__":
    main()
