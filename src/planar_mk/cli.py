"""Command-line entry point.

Subcommands: solve, oracle, check-el, check-lemmas, compare. Inputs are
density files (JSON or CSV) or LP instance files; outputs are plot-ready CSV
grids plus a versioned report.json whose timing fields are isolated so that
reports of the same inputs are byte-identical apart from timing.

Exit codes: 0 success / converged, 1 usage, I/O or validation failure or a
solver that gave up, 2 solver hit max_iters, 3 oracle size limit, 4 compare
gap above tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import FeasibilityError, check_coupling_grid
from .density_io import (
    DensityFormatError,
    grid_spec,
    json_numbers,
    read_density,
    read_grid_csv,
    read_json,
    write_grid_csv,
)
from .measures import DiscreteDensity2D, per_axis_w2_sum
from .optimizer import SolverConfig, ipfp_project, solve
from .oracle import (
    SizeLimitError,
    TransportInstance,
    UnbalancedInstanceError,
    solve_full_2d,
    solve_lp,
)
from .variational import euler_lagrange_residual, lemma1_checker, lemma2_checker

SCHEMA_VERSION = 1


def _write_report(out_dir: Path, body: dict, seconds: float) -> Path:
    report = dict(body)
    report["schema"] = SCHEMA_VERSION
    report["timing"] = {"seconds": seconds}
    path = out_dir / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")  # one write, not one per chunk
    return path


def _grid_spec(d: DiscreteDensity2D) -> dict:
    return {"x": grid_spec(d.grid_x), "y": grid_spec(d.grid_y)}


def _config(args) -> SolverConfig:
    return SolverConfig.from_json(args.config) if args.config else SolverConfig()


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    f = read_density(args.input_f)
    f_tilde = read_density(args.input_g)
    config = _config(args)
    report = solve(f, f_tilde, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = report.p_star
    write_grid_csv(out_dir / "p_star.csv", p.grid_x, p.grid_y, p.values)
    write_grid_csv(out_dir / "g.csv", p.grid_x, p.grid_y, report.at_p_star.g)
    write_grid_csv(out_dir / "h.csv", p.grid_x, p.grid_y, report.at_p_star.h)

    f1, f2 = p.target_row_marginal, p.target_col_marginal
    independent = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
    el_independent = euler_lagrange_residual(f, f_tilde, independent, report.fields).interior_l2
    body = {
        "command": "solve",
        "version": __version__,
        "config": config.to_dict(),
        "grid": _grid_spec(f),
        "L_final": report.L_final,
        "L_trace": [float(v) for v in report.L_trace],
        "grad_norm_trace": [float(v) for v in report.grad_norm_trace],
        "iterations": report.iterations,
        "termination_reason": report.termination_reason,
        "el_residual": {
            "interior_l2": report.el_residual_final,
            "independent_coupling_interior_l2": el_independent,
        },
        "marginal_error": {"max_iterate_l1": report.max_marginal_error},
        "per_axis_w2_sum": per_axis_w2_sum(f, f_tilde),
    }
    _write_report(out_dir, body, time.perf_counter() - t0)
    return 0 if report.termination_reason != "max_iters" else 2


def _load_instance(path: str) -> TransportInstance:
    doc = read_json(path)
    keys = ("supply", "demand", "cost")
    if not isinstance(doc, dict) or not all(key in doc for key in keys):
        raise ValueError(f"{path}: expected a JSON object with supply, demand and cost")
    parts = [json_numbers(doc[key], f"{path}: {key}") for key in keys]
    try:
        return TransportInstance(*parts)
    except ValueError as exc:  # UnbalancedInstanceError stays one
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    if args.instance:
        plan = solve_lp(_load_instance(args.instance))
        body = {"command": "oracle", "mode": "lp"}
    else:
        f = read_density(args.input_f)
        f_tilde = read_density(args.input_g)
        plan = solve_full_2d(f, f_tilde)
        body = {"command": "oracle", "mode": "full_2d", "grid": _grid_spec(f)}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "plan.csv", plan.flows, delimiter=",")
    body["objective"] = plan.objective
    body["duality_gap"] = plan.duality_gap()
    _write_report(out_dir, body, time.perf_counter() - t0)
    return 0


def cmd_check_el(args) -> int:
    t0 = time.perf_counter()
    f = read_density(args.input_f)
    f_tilde = read_density(args.input_g)
    f1, f2 = f.marginals[0], f_tilde.marginals[1]
    if args.input_p:
        grid_x, grid_y, values = read_grid_csv(args.input_p)
        check_coupling_grid(grid_x, f1, 0)
        check_coupling_grid(grid_y, f2, 1)
        # IPFP would floor a negative entry without a word and sweep NaNs to its iteration cap
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError(f"{args.input_p}: coupling values must be finite and nonnegative")
        p = ipfp_project(values, f1, f2)
    else:
        p = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
    el = euler_lagrange_residual(f, f_tilde, p)  # residual.csv and grad.csv come from its one pass
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_grid_csv(out_dir / "residual.csv", p.grid_x, p.grid_y, el.residual)
    write_grid_csv(out_dir / "grad.csv", p.grid_x, p.grid_y, el.at_p.phi + el.at_p.psi)
    body = {
        "command": "check-el",
        "grid": _grid_spec(f),
        "interior_l2": el.interior_l2,
        "max_abs_residual": float(np.max(np.abs(el.residual))),
        "coupling": "file" if args.input_p else "independent",
    }
    _write_report(out_dir, body, time.perf_counter() - t0)
    return 0


_LEMMA_CASES = {
    "lemma1": [
        ("constant", lambda X, Y: np.ones_like(X), 0.3, 0.7, 1.0),
        ("linear_sum", lambda X, Y: X + Y, 0.0, 0.0, 0.0),
        ("sin_cos", lambda X, Y: np.sin(X) * np.cos(Y), 0.3, 0.7, float(np.sin(0.3) * np.cos(0.7))),
    ],
    "lemma2": [
        ("bilinear", lambda X, Y: X * Y, 0.25, 0.4, 1.0),
        ("square_product", lambda X, Y: X**2 * Y**2, 0.5, 0.5, 1.0),
        ("exponential", lambda X, Y: np.exp(X + 2 * Y), 0.2, 0.1, float(2 * np.exp(0.4))),
    ],
}


def cmd_check_lemmas(args) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkers = {"lemma1": lemma1_checker, "lemma2": lemma2_checker}
    results = {lemma: [] for lemma in _LEMMA_CASES}
    for lemma, cases in _LEMMA_CASES.items():
        for name, beta, a, b, expected in cases:
            rep = checkers[lemma](beta, a, b)
            row = {
                "case": name,
                "expected": expected,
                "limit": rep.limit,
                "error": abs(rep.limit - expected),
                "observed_order": rep.observed_order,
            }
            if rep.reference is not None:
                row["fd_reference"] = rep.reference
            results[lemma].append(row)
    body = {"command": "check-lemmas", "results": results}
    _write_report(out_dir, body, time.perf_counter() - t0)
    return 0


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    tolerance = args.tolerance
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"--tolerance must be a finite number >= 0 (got {tolerance})")
    f = read_density(args.input_f)
    f_tilde = read_density(args.input_g)
    oracle_plan = solve_full_2d(f, f_tilde)  # size check runs before the solve
    report = solve(f, f_tilde, _config(args))
    L_p_star = report.at_p_star.L_value  # L_final too
    gap = abs(L_p_star - oracle_plan.objective)
    body = {
        "command": "compare",
        "grid": _grid_spec(f),
        "L_p_star": L_p_star,
        "oracle_optimum": oracle_plan.objective,
        "gap": gap,
        "tolerance": tolerance,
        "within_tolerance": bool(gap <= tolerance),
        "el_residual_interior_l2": report.el_residual_final,
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, body, time.perf_counter() - t0)
    return 0 if gap <= tolerance else 4


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises ValueError, so that it exits 1 in one `error:` line, not argparse's 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="planar-mk",
        description="Optimal planar couplings by conditional-quantile reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input-f", required=True, help="source density file (.json or .csv)")
        p.add_argument("--input-g", required=True, help="target density file (.json or .csv)")
        p.add_argument("--out-dir", default="out", help="output directory")

    def add_solver(p):
        add_io(p)
        p.add_argument("--config", default=None, help="solver config JSON")

    p_solve = sub.add_parser("solve", help="minimize the reduced objective and export maps")
    add_solver(p_solve)

    p_oracle = sub.add_parser("oracle", help="exact LP optimum (instance file or density pair)")
    p_oracle.add_argument("--instance", default=None, help="JSON with supply/demand/cost")
    p_oracle.add_argument("--input-f", default=None)
    p_oracle.add_argument("--input-g", default=None)
    p_oracle.add_argument("--out-dir", default="out")

    p_el = sub.add_parser("check-el", help="stationarity residual at a coupling")
    add_io(p_el)
    p_el.add_argument("--input-p", default=None, help="coupling grid CSV (default: independent)")

    p_lem = sub.add_parser("check-lemmas", help="averaging-lemma convergence checks")
    p_lem.add_argument("--out-dir", default="out")

    p_cmp = sub.add_parser("compare", help="solver optimum against the exact LP")
    add_solver(p_cmp)
    p_cmp.add_argument("--tolerance", type=float, default=1e-3,
                       help="largest absolute gap |L(p*) - LP optimum| for exit 0, in squared length units")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # looked up per call, not kept in the cached parser, so that a patched module attribute runs
    commands = {"solve": cmd_solve, "oracle": cmd_oracle, "check-el": cmd_check_el,
                "check-lemmas": cmd_check_lemmas, "compare": cmd_compare}
    try:
        args = _parser().parse_args(argv)
        if args.command == "oracle" and not args.instance and not (args.input_f and args.input_g):
            raise ValueError("oracle needs --instance or both --input-f and --input-g")
        return commands[args.command](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        DensityFormatError,
        UnbalancedInstanceError,
        FeasibilityError,
        OSError,
        RuntimeError,  # a solver that gave up: no descent, IPFP out of sweeps or off FEAS_TOL, an LP without a plan
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
