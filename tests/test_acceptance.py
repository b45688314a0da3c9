"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; runtime budgets are asserted where
stated.
"""

import json
import time

import numpy as np
import pytest

from planar_mk.cli import main as cli_main
from planar_mk.density_io import write_density_json
from planar_mk.instances import (
    aligned_atomic_instance,
    density_1d_from_function,
    density_2d_from_function,
    gaussian_2d,
    product_density_2d,
    shifted_density_2d,
    smooth_random_density_2d,
)
from planar_mk.measures import (
    DiscreteDensity2D,
    Grid1D,
    QuantileTable,
    marginals_2d,
    w2_squared_1d,
)
from planar_mk.optimizer import SolverConfig, ipfp_project, project_zero_marginals, solve
from planar_mk.oracle import TransportInstance, comonotone_plan_1d, solve_full_2d, solve_lp
from planar_mk.reduction import build_g_map, build_h_map, pushforward_check
from planar_mk.variational import (
    euler_lagrange_residual,
    evaluate_L,
    first_variation,
    lemma1_checker,
    lemma2_checker,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def shift_instance(seed: int, sx: int, sy: int, n: int = 4):
    """Random smooth density with a vacated margin, paired with its whole-cell
    shift: a nontrivial coupling problem whose exact optimum the atomic LP and
    the reduced objective agree on."""
    g = Grid1D.uniform(0.0, 1.0, n)
    f = smooth_random_density_2d(g, g, seed=seed)
    vals = f.values.copy()
    if sx:
        vals[-sx:, :] = 0
    if sy:
        vals[:, -sy:] = 0
    f = DiscreteDensity2D.from_values(g, g, vals)
    return f, shifted_density_2d(f, sx, sy)


def test_criterion_1_one_dimensional_optimality():
    t0 = time.perf_counter()
    worst_lp = 0.0
    worst_w2 = 0.0
    for trial in range(100):
        n_atoms = 2 + (trial % 31)
        x, a, y, b = aligned_atomic_instance(seed=1000 + trial, n_atoms=n_atoms, resolution=10_000)
        cost = (x[:, None] - y[None, :]) ** 2
        lp = solve_lp(TransportInstance(a, b, cost))
        como = comonotone_plan_1d(x, a, y, b)
        worst_lp = max(worst_lp, abs(lp.objective - como.objective))
        w2 = w2_squared_1d(QuantileTable.from_atoms(x, a), QuantileTable.from_atoms(y, b))
        worst_w2 = max(worst_w2, abs(w2 - lp.objective))
    elapsed = time.perf_counter() - t0
    ok = worst_lp <= 1e-9 and worst_w2 <= 1e-6 and elapsed < 10.0
    _verdict(
        "criterion 1 (1-D optimality)",
        ok,
        f"max |comonotone-LP|={worst_lp:.2e} (<=1e-9), "
        f"max |W2^2-LP|={worst_w2:.2e} (<=1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_pushforward_preservation():
    t0 = time.perf_counter()
    devs = []
    for n in (8, 16, 32):
        g = Grid1D.uniform(0.0, 1.0, n)
        f = gaussian_2d(g, g, rho=0.4, sigma=(0.25, 0.22))
        f_tilde = gaussian_2d(g, g, rho=-0.3, sigma=(0.24, 0.28), mean=(0.45, 0.55))
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(f_tilde)
        p = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        devs.append(pushforward_check(f, p, build_g_map(f, p)).l1_deviation)
    elapsed = time.perf_counter() - t0
    ok = devs[0] > devs[1] > devs[2] and devs[2] < 0.02 and elapsed < 30.0
    _verdict(
        "criterion 2 (pushforward preservation)",
        ok,
        f"L1 deviations {devs[0]:.4f} > {devs[1]:.4f} > {devs[2]:.4f} "
        f"(<0.02 at n=32), {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    instances = []
    g8 = Grid1D.uniform(0.0, 1.0, 8)
    instances.append(
        (
            gaussian_2d(g8, g8, rho=0.4, sigma=(0.25, 0.22)),
            gaussian_2d(g8, g8, rho=-0.3, sigma=(0.24, 0.28), mean=(0.45, 0.55)),
        )
    )
    g6 = Grid1D.uniform(0.0, 1.0, 6)
    instances.append(
        (smooth_random_density_2d(g6, g6, seed=301), smooth_random_density_2d(g6, g6, seed=302))
    )
    rng = np.random.default_rng(2024)
    for f, f_tilde in instances:
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(f_tilde)
        wx, wy = f.grid_x.cell_widths, f_tilde.grid_y.cell_widths
        for k in range(10):
            bump = smooth_random_density_2d(f.grid_x, f_tilde.grid_y, seed=400 + k, amplitude=0.5)
            p = ipfp_project(np.outer(f1.values, f2.values) * bump.values, f1, f2)
            phi, psi = first_variation(f, f_tilde, p)
            eta = project_zero_marginals(rng.normal(size=phi.shape), wx, wy)
            plus = DiscreteDensity2D(f.grid_x, f_tilde.grid_y, p.values + eps * eta)
            minus = DiscreteDensity2D(f.grid_x, f_tilde.grid_y, p.values - eps * eta)
            fd = (evaluate_L(f, f_tilde, plus) - evaluate_L(f, f_tilde, minus)) / (2 * eps)
            analytic = float(np.sum((phi + psi) * eta * p.cell_areas))
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(fd)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(
        "criterion 3 (gradient correctness)",
        ok,
        f"max FD relative error {worst:.2e} (<1e-4) over 2 instances x 10 pairs, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_4_reduction_equivalence():
    t0 = time.perf_counter()
    cfg4 = SolverConfig(max_iters=4000, grad_tol=1e-10)
    worst_gap = 0.0
    cases = [(1, (1, 0)), (2, (0, 1)), (3, (1, 1)), (4, (2, 1)), (5, (1, 2))]
    for seed, (sx, sy) in cases:
        f, f_tilde = shift_instance(seed, sx, sy)
        lp = solve_full_2d(f, f_tilde).objective
        report = solve(f, f_tilde, cfg4)
        worst_gap = max(worst_gap, abs(report.L_final - lp))

    grid = Grid1D.uniform(0.0, 1.0, 16)
    u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.35) ** 2) / 0.045))
    u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.4) ** 2) / 0.08))
    v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.6) ** 2) / 0.065))
    v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.55) ** 2) / 0.029))
    f_prod = product_density_2d(u1, u2)
    ft_prod = product_density_2d(v1, v2)
    report16 = solve(f_prod, ft_prod, SolverConfig(max_iters=3000))
    q = QuantileTable.from_density
    w2sum = w2_squared_1d(q(u1), q(v1)) + w2_squared_1d(q(u2), q(v2))
    rel = abs(report16.L_final - w2sum) / w2sum
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-3 and rel <= 0.02 and elapsed < 300.0
    _verdict(
        "criterion 4 (reduction equivalence)",
        ok,
        f"max |L*-LP| over 5 4x4 instances {worst_gap:.2e} (<=1e-3), "
        f"16x16 product relative gap {rel:.4f} (<=0.02), {elapsed:.0f}s (<300s)",
    )


def test_criterion_5_euler_lagrange_theorem():
    t0 = time.perf_counter()
    g16 = Grid1D.uniform(0.0, 1.0, 16)
    cfg = SolverConfig(max_iters=4000, grad_tol=1e-7)

    def residual_ratio(f, f_tilde):
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(f_tilde)
        independent = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        r0 = euler_lagrange_residual(f, f_tilde, independent).interior_l2
        report = solve(f, f_tilde, cfg)
        return report.el_residual_final / r0

    ratios = []
    f_corr = gaussian_2d(g16, g16, rho=0.5)
    ratios.append(residual_ratio(f_corr, f_corr))

    def two_bump(X, Y):
        return (
            np.exp(-((X - 0.3) ** 2 + (Y - 0.35) ** 2) / 0.04)
            + 0.8 * np.exp(-((X - 0.65) ** 2 + (Y - 0.7) ** 2) / 0.05)
            + 0.5 * np.exp(-((X - 0.5) ** 2 - 0.8 * (X - 0.5) * (Y - 0.5) + (Y - 0.5) ** 2) / 0.08)
        )

    f_bumps = density_2d_from_function(g16, g16, two_bump)
    ratios.append(residual_ratio(f_bumps, f_bumps))

    f_base = gaussian_2d(g16, g16, rho=0.45, sigma=(0.24, 0.22))
    bump = smooth_random_density_2d(g16, g16, seed=5, amplitude=0.15)
    f_pert = DiscreteDensity2D.from_values(g16, g16, f_base.values * bump.values)
    ratios.append(residual_ratio(f_base, f_pert))

    # trivial instance: the known solution p = f makes the residual vanish
    f1, f2 = marginals_2d(f_corr)
    p_trivial = ipfp_project(f_corr.values, f1, f2)
    trivial = euler_lagrange_residual(f_corr, f_corr, p_trivial).interior_l2

    elapsed = time.perf_counter() - t0
    ok = max(ratios) <= 0.25 and trivial <= 1e-12
    _verdict(
        "criterion 5 (stationarity residual)",
        ok,
        f"residual ratios at p* {['%.3f' % r for r in ratios]} (each <=0.25), "
        f"trivial-instance residual {trivial:.1e} (<=1e-12), {elapsed:.0f}s",
    )


def test_criterion_6_lemma_checkers():
    cases1 = [
        ("constant", lambda X, Y: np.ones_like(X), 0.3, 0.7, 1.0),
        ("linear", lambda X, Y: X + Y, 0.0, 0.0, 0.0),
        ("sin*cos", lambda X, Y: np.sin(X) * np.cos(Y), 0.3, 0.7, float(np.sin(0.3) * np.cos(0.7))),
    ]
    cases2 = [
        ("xy", lambda X, Y: X * Y, 0.25, 0.4, 1.0),
        ("x^2y^2", lambda X, Y: X**2 * Y**2, 0.5, 0.5, 1.0),
        ("exp(x+2y)", lambda X, Y: np.exp(X + 2 * Y), 0.2, 0.1, float(2 * np.exp(0.4))),
    ]
    worst = 0.0
    slope_ok = True
    for name, beta, a, b, expected in cases1:
        rep = lemma1_checker(beta, a, b)
        worst = max(worst, abs(rep.limit - expected))
        errs = np.abs(rep.values - expected)
        if errs.max() > 1e-6:  # convergent (non-exact) case: slope must be ~1
            slope_ok = slope_ok and abs(rep.observed_order - 1.0) <= 0.3
    for name, beta, a, b, expected in cases2:
        rep = lemma2_checker(beta, a, b)
        worst = max(worst, abs(rep.limit - expected))
        worst = max(worst, abs(rep.reference - expected))
        errs = np.abs(rep.values - expected)
        if errs.max() > 1e-6:
            slope_ok = slope_ok and abs(rep.observed_order - 1.0) <= 0.3
    ok = worst < 1e-4 and slope_ok
    _verdict(
        "criterion 6 (averaging-lemma checkers)",
        ok,
        f"max |limit-analytic| {worst:.2e} (<1e-4), convergence slopes within +/-0.3: {slope_ok}",
    )


def test_criterion_7_feasibility_and_determinism(tmp_path):
    g = Grid1D.uniform(0.0, 1.0, 6)
    f = smooth_random_density_2d(g, g, seed=500)
    vals = f.values.copy()
    vals[-1:, :] = 0
    f = DiscreteDensity2D.from_values(g, g, vals)
    f_tilde = shifted_density_2d(f, 1, 0)

    report = solve(f, f_tilde, SolverConfig(max_iters=1500))
    feasible = report.max_marginal_error < 1e-9

    fa, fb = tmp_path / "f.json", tmp_path / "g.json"
    write_density_json(fa, f)
    write_density_json(fb, f_tilde)
    digests = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = cli_main(["solve", "--input-f", str(fa), "--input-g", str(fb), "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("timing")
        digests.append(json.dumps(doc, sort_keys=True))
    deterministic = digests[0] == digests[1]
    ok = feasible and deterministic
    _verdict(
        "criterion 7 (feasibility and determinism)",
        ok,
        f"max iterate marginal L1 {report.max_marginal_error:.2e} (<1e-9), "
        f"reports byte-identical excluding timing: {deterministic}",
    )
