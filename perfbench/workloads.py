"""The benchmark's workloads: inputs, jobs and output checks.

A workload is a fixed list of jobs that one process runs back to back, in
rounds. `build(name, seed, work_dir, smoke)` makes the inputs and input files
(this is the set-up the benchmark times) and returns the jobs. A job's `run`
is the timed part; its `check` reads what the job wrote and returns the
figures the metrics need, or raises `CheckFailed`.

The program is called through module attributes (`cli.main`,
`reduction.build_g_map`, ...) so that the tracer's patches reach it.

Seeds. The seed orders the jobs and, except on compare8, picks one of four
mirror images of every instance: none, x flipped, y flipped, or both. The
squared-distance cost is invariant under the same flip of both sides, so the
work is too. The mirrored perturbed 16x16 pair stalls after exactly 1407
iterations in each of the four images, with L equal to 1e-16 relative. New
random instances would not do: iteration and pivot counts are chaotic in
the input. A 1% smooth perturbation of that pair moved its count between 843
and 1315 over five seeds, which would swamp any time bound. refine256's
stationarity ratio moved from 1.04 to 1.50 over four coupling seeds.
compare8 keeps the acceptance instances for every seed, because mirroring
changes the simplex's pivot path and its time by up to 2x.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from planar_mk import cli, density_io, reduction, variational
from planar_mk.instances import (
    density_2d_from_function,
    gaussian_2d,
    shifted_density_2d,
    smooth_random_density_2d,
)
from planar_mk.measures import DiscreteDensity2D, Grid1D, marginals_2d
from planar_mk.optimizer import ipfp_project


SOLVE_CONFIG = {"solve16": {"grad_tol": 1e-7, "max_iters": 4000}, "solve64": {"grad_tol": 1e-7, "max_iters": 200}}
SOLVE_EXIT_OK = (0, 2)  # 2: the solver hit max_iters, documented behaviour
MARGINAL_TOL = 1e-9
COMPARE_TOLERANCE = 1e-3
PUSHFORWARD_L1_TOL = 0.02  # acceptance criterion 2
COMPARE_CASES = ((1, (1, 0)), (2, (0, 1)), (3, (1, 1)), (4, (2, 1)), (5, (1, 2)), (6, (2, 2)))
REFINE_BUMP_SEED = 3  # scripts/pushforward_refinement.py
MIRRORS = ((), (0,), (1,), (0, 1))  # axes flipped, chosen by seed % 4


class CheckFailed(Exception):
    """A job's output is missing or wrong."""


@dataclass
class Job:
    name: str
    run: Callable[[], int]
    check: Callable[[int], dict]
    out_dir: Path
    outputs: dict = field(default_factory=dict)


# --- instances (acceptance criteria 2, 4 and 5) ------------------------------


def _two_bump(X, Y):
    return (
        np.exp(-((X - 0.3) ** 2 + (Y - 0.35) ** 2) / 0.04)
        + 0.8 * np.exp(-((X - 0.65) ** 2 + (Y - 0.7) ** 2) / 0.05)
        + 0.5 * np.exp(-((X - 0.5) ** 2 - 0.8 * (X - 0.5) * (Y - 0.5) + (Y - 0.5) ** 2) / 0.08)
    )


def descent_pairs(n: int) -> list[tuple[str, DiscreteDensity2D, DiscreteDensity2D]]:
    """Criterion 5's three pairs on an n x n grid."""
    g = Grid1D.uniform(0.0, 1.0, n)
    f_corr = gaussian_2d(g, g, rho=0.5)
    f_bumps = density_2d_from_function(g, g, _two_bump)
    f_base = gaussian_2d(g, g, rho=0.45, sigma=(0.24, 0.22))
    bump = smooth_random_density_2d(g, g, seed=5, amplitude=0.15)
    f_pert = DiscreteDensity2D.from_values(g, g, f_base.values * bump.values)
    return [("gauss", f_corr, f_corr), ("two_bump", f_bumps, f_bumps), ("perturbed", f_base, f_pert)]


def shift_pair(seed: int, sx: int, sy: int, n: int) -> tuple[DiscreteDensity2D, DiscreteDensity2D]:
    """Criterion 4's construction: a smooth density with a vacated margin and its whole-cell shift."""
    g = Grid1D.uniform(0.0, 1.0, n)
    vals = smooth_random_density_2d(g, g, seed=seed).values.copy()
    if sx:
        vals[-sx:, :] = 0
    if sy:
        vals[:, -sy:] = 0
    f = DiscreteDensity2D.from_values(g, g, vals)
    return f, shifted_density_2d(f, sx, sy)


def refine_instance(n: int, bump_seed: int):
    """Criterion 2's Gaussian pair and a smooth feasible coupling of it."""
    grid = Grid1D.uniform(0.0, 1.0, n)
    f = gaussian_2d(grid, grid, rho=0.4, sigma=(0.25, 0.22))
    f_tilde = gaussian_2d(grid, grid, rho=-0.3, sigma=(0.24, 0.28), mean=(0.45, 0.55))
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    bump = smooth_random_density_2d(grid, grid, seed=bump_seed, amplitude=0.6)
    p = ipfp_project(np.outer(f1.values, f2.values) * bump.values, f1, f2)
    return f, f_tilde, p


def mirror(d: DiscreteDensity2D, axes: tuple[int, ...]) -> DiscreteDensity2D:
    """d with its values reversed along the given axes (the grids are uniform)."""
    return DiscreteDensity2D(d.grid_x, d.grid_y, np.ascontiguousarray(np.flip(d.values, axis=axes)))


def independent_residual(f: DiscreteDensity2D, f_tilde: DiscreteDensity2D) -> float:
    """Stationarity residual at the independent coupling: the el_ratio base."""
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    p0 = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
    return variational.euler_lagrange_residual(f, f_tilde, p0).interior_l2


# --- output checks -----------------------------------------------------------


def read_grid(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a grid CSV (see planar_mk.density_io) without the program's reader."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    y_nodes = np.array([float(v) for v in lines[0].split(",")[1:]])
    rows = [ln.split(",") for ln in lines[1:]]
    x_nodes = np.array([float(r[0]) for r in rows])
    values = np.array([[float(v) for v in r[1:]] for r in rows[:-1]])
    return x_nodes, y_nodes, values


def _report(out_dir: Path) -> dict:
    try:
        return json.loads((out_dir / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"report.json unreadable: {exc}") from exc


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def check_solve(code: int, out_dir: Path, f: DiscreteDensity2D, f_tilde: DiscreteDensity2D, grad_tol: float) -> dict:
    _require(code in SOLVE_EXIT_OK, f"solve exited {code}")
    report = _report(out_dir)
    marg = report["marginal_error"]["max_iterate_l1"]
    _require(marg < MARGINAL_TOL, f"iterate marginal error {marg:.3e}")
    trace = np.asarray(report["L_trace"], dtype=float)
    _require(bool(np.all(np.diff(trace) <= 0.0)), "L_trace increases")
    x_nodes, y_nodes, values = read_grid(out_dir / "p_star.csv")
    masses = values * np.outer(np.diff(x_nodes), np.diff(y_nodes))
    row_dev = float(np.sum(np.abs(masses.sum(axis=1) - f.cell_masses.sum(axis=1))))
    col_dev = float(np.sum(np.abs(masses.sum(axis=0) - f_tilde.cell_masses.sum(axis=0))))
    _require(max(row_dev, col_dev) < MARGINAL_TOL, f"p_star.csv marginals off by {max(row_dev, col_dev):.3e}")
    el = report["el_residual"]
    grads = report["grad_norm_trace"]
    return {
        "L": float(report["L_final"]),
        "el_ratio": el["interior_l2"] / el["independent_coupling_interior_l2"],
        "grad_ratio": grads[-1] / grad_tol if grads else math.nan,
        "iterations": int(report["iterations"]),
        "exit": code,
    }


def check_compare(code: int, out_dir: Path, el_base: float) -> dict:
    _require(code == 0, f"compare exited {code}")
    report = _report(out_dir)
    _require(report["within_tolerance"] is True, f"gap {report['gap']:.3e} above tolerance")
    return {
        "L": float(report["L_p_star"]),
        "el_ratio": report["el_residual_interior_l2"] / el_base,
        "lp_gap": float(report["gap"]),
        "exit": code,
    }


def check_refine(code: int, job: Job, f, f_tilde, p, el_base: float) -> dict:
    _require(code == 0, f"check-el exited {code}")
    report = _report(job.out_dir)
    _require(math.isfinite(report["interior_l2"]) and math.isfinite(report["max_abs_residual"]), "residual not finite")
    l1 = max(job.outputs["push_g"].l1_deviation, job.outputs["push_h"].l1_deviation)
    _require(l1 < PUSHFORWARD_L1_TOL, f"pushforward L1 {l1:.4f}")
    cost = reduction.coupling_cost(f, f_tilde, p, job.outputs["g"], job.outputs["h"])
    return {"L": cost.total, "el_ratio": report["interior_l2"] / el_base, "pushforward_l1": l1, "exit": code}


# --- jobs --------------------------------------------------------------------


def _solve_jobs(workload: str, n: int, work: Path, smoke: bool, axes: tuple[int, ...]) -> list[Job]:
    config = dict(SOLVE_CONFIG[workload])
    if smoke:
        config["max_iters"] = 5
    jobs = []
    for name, f, f_tilde in descent_pairs(n):
        f, f_tilde = mirror(f, axes), mirror(f_tilde, axes)
        d = work / name
        d.mkdir(parents=True)
        fa, fb, cfg, out = d / "f.json", d / "g.json", d / "config.json", d / "out"
        density_io.write_density_json(fa, f)
        density_io.write_density_json(fb, f_tilde)
        cfg.write_text(json.dumps(config))
        argv = ["solve", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out), "--config", str(cfg)]
        jobs.append(
            Job(
                name,
                lambda argv=argv: cli.main(argv),
                lambda code, out=out, f=f, ft=f_tilde: check_solve(code, out, f, ft, config["grad_tol"]),
                out,
            )
        )
    return jobs


def _compare_jobs(n: int, work: Path, smoke: bool) -> list[Job]:
    cases = COMPARE_CASES[:2] if smoke else COMPARE_CASES
    jobs = []
    for seed, (sx, sy) in cases:
        name = f"shift{seed}_{sx}{sy}"
        f, f_tilde = shift_pair(seed, sx, sy, n)
        d = work / name
        d.mkdir(parents=True)
        fa, fb, out = d / "f.json", d / "g.json", d / "out"
        density_io.write_density_json(fa, f)
        density_io.write_density_json(fb, f_tilde)
        argv = ["compare", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out),
                "--tolerance", str(COMPARE_TOLERANCE)]
        el_base = functools.cache(functools.partial(independent_residual, f, f_tilde))
        jobs.append(
            Job(
                name,
                lambda argv=argv: cli.main(argv),
                lambda code, out=out, el_base=el_base: check_compare(code, out, el_base()),
                out,
            )
        )
    return jobs


def _refine_jobs(n: int, work: Path, axes: tuple[int, ...]) -> list[Job]:
    f, f_tilde, p = refine_instance(n, REFINE_BUMP_SEED)
    f, f_tilde = mirror(f, axes), mirror(f_tilde, axes)
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    p = ipfp_project(mirror(p.density, axes).values, f1, f2)  # feasible already, so kept as is
    d = work / "refine"
    d.mkdir(parents=True)
    fa, fb, pc, out = d / "f.json", d / "g.json", d / "p.csv", d / "out"
    el_base = functools.cache(functools.partial(independent_residual, f, f_tilde))
    job = Job("refine", None, lambda code: check_refine(code, job, f, f_tilde, p, el_base()), out)

    def run() -> int:
        density_io.write_density_json(fa, f)
        density_io.write_density_json(fb, f_tilde)
        density_io.write_grid_csv(pc, p.density.grid_x, p.density.grid_y, p.values)
        code = cli.main(["check-el", "--input-f", str(fa), "--input-g", str(fb), "--input-p", str(pc),
                         "--out-dir", str(out)])
        g = reduction.build_g_map(f, p)
        h = reduction.build_h_map(f_tilde, p)
        job.outputs.update(
            g=g, h=h, push_g=reduction.pushforward_check(f, p, g), push_h=reduction.pushforward_check_h(f_tilde, p, h)
        )
        return code

    job.run = run
    return [job]


SIZES = {"solve16": 16, "solve64": 64, "compare8": 8, "refine256": 256}
SMOKE_SIZES = {"solve16": 4, "solve64": 6, "compare8": 3, "refine256": 32}


def build(workload: str, seed: int, work: Path, smoke: bool = False) -> list[Job]:
    """Inputs and input files of one workload, in the seed's mirror image and job order."""
    n = (SMOKE_SIZES if smoke else SIZES)[workload]
    axes = MIRRORS[seed % len(MIRRORS)]
    if workload in SOLVE_CONFIG:
        jobs = _solve_jobs(workload, n, work, smoke, axes)
    elif workload == "compare8":
        jobs = _compare_jobs(n, work, smoke)
    elif workload == "refine256":
        jobs = _refine_jobs(n, work, axes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs

