import json

import numpy as np
import pytest

from planar_mk.coupling import FeasibilityError
from planar_mk.instances import (
    density_1d_from_function,
    gaussian_2d,
    product_density_2d,
    shifted_density_2d,
    smooth_random_density_2d,
)
from planar_mk.measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D, marginals_2d
from planar_mk.optimizer import (
    IPFPConvergenceError,
    NoDescentError,
    SolverConfig,
    feasible_direction,
    ipfp_project,
    project_zero_marginals,
    solve,
)


def unit_marginal(values):
    g = Grid1D.uniform(0.0, float(len(values)), len(values))
    return DiscreteDensity1D(g, np.asarray(values, dtype=float))


class TestIpfp:
    def test_idempotent_on_feasible_input(self):
        t = unit_marginal([0.5, 0.5])
        p = ipfp_project(np.array([[0.3, 0.2], [0.2, 0.3]]), t, t)
        again = ipfp_project(p.values, t, t)
        assert np.max(np.abs(again.values - p.values)) < 1e-14

    def test_uniform_targets_give_uniform_coupling(self):
        t = unit_marginal([0.5, 0.5])
        p = ipfp_project(np.ones((2, 2)), t, t)
        assert np.allclose(p.values, 0.25)

    def test_symmetric_sinkhorn_fixed_point(self):
        # oracle: 50 naive alternating-scaling iterations written out here
        t = unit_marginal([0.5, 0.5])
        raw = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        v = raw.copy()
        for _ in range(50):
            v *= (0.5 / v.sum(axis=1))[:, None]
            v *= (0.5 / v.sum(axis=0))[None, :]
        p = ipfp_project(raw, t, t)
        assert np.allclose(p.values, v, atol=1e-12)
        assert np.allclose(p.cell_masses.sum(axis=1), [0.5, 0.5], atol=1e-15)
        assert np.allclose(p.cell_masses.sum(axis=0), [0.5, 0.5], atol=1e-15)

    def test_nonconvergence_reported(self):
        t1 = unit_marginal([0.9, 0.1])
        t2 = unit_marginal([0.1, 0.9])
        skewed = np.array([[1e3, 1e-6], [1e-6, 1e3]])
        with pytest.raises(IPFPConvergenceError):
            ipfp_project(skewed, t1, t2, max_iters=1, tol=1e-15)

    def test_respects_floor_on_sparse_input(self):
        g4 = Grid1D.uniform(0.0, 1.0, 4)
        f = smooth_random_density_2d(g4, g4, seed=1)
        vals = f.values.copy()
        vals[2:, :] = 0.0
        f = DiscreteDensity2D.from_values(g4, g4, vals)
        ft = shifted_density_2d(f, 1, 0)
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(ft)
        p = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        assert np.min(p.values) >= 1e-10 * (1 - 1e-9)


class TestFeasibleDirection:
    def test_two_by_two_pattern(self):
        d = feasible_direction((2, 2), 0, 1, 0, 1)
        assert np.array_equal(d, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ValueError):
            feasible_direction((3, 3), 1, 1, 0, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_row_and_column_sums(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        a, a1 = sorted(rng.choice(n, size=2, replace=False))
        b, b1 = sorted(rng.choice(n, size=2, replace=False))
        d = feasible_direction((n, n), a, a1, b, b1)
        assert np.allclose(d.sum(axis=0), 0.0)
        assert np.allclose(d.sum(axis=1), 0.0)
        assert d.sum() == 0.0

    def test_mass_sums_vanish_on_nonuniform_grid(self):
        gx = Grid1D(np.array([0.0, 0.5, 2.0, 3.0]))
        gy = Grid1D(np.array([0.0, 1.0, 1.2, 4.0]))
        areas = np.outer(gx.cell_widths, gy.cell_widths)
        d = feasible_direction((3, 3), 0, 2, 1, 2, cell_areas=areas)
        masses = d * areas
        assert np.allclose(masses.sum(axis=0), 0.0, atol=1e-15)
        assert np.allclose(masses.sum(axis=1), 0.0, atol=1e-15)


class TestProjection:
    def test_projected_field_has_zero_marginals(self):
        rng = np.random.default_rng(3)
        gx = Grid1D(np.sort(rng.uniform(0, 1, 7)))
        gy = Grid1D(np.sort(rng.uniform(0, 1, 9)))
        field = rng.normal(size=(6, 8))
        out = project_zero_marginals(field, gx.cell_widths, gy.cell_widths)
        assert np.max(np.abs(out @ gy.cell_widths)) < 1e-12
        assert np.max(np.abs(gx.cell_widths @ out)) < 1e-12

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(4)
        wx = np.full(5, 0.2)
        wy = np.full(5, 0.2)
        field = rng.normal(size=(5, 5))
        once = project_zero_marginals(field, wx, wy)
        twice = project_zero_marginals(once, wx, wy)
        assert np.allclose(once, twice, atol=1e-13)


class TestSolve:
    def test_identical_densities_reach_zero(self):
        g8 = Grid1D.uniform(0.0, 1.0, 8)
        f = gaussian_2d(g8, g8, rho=0.4)
        report = solve(f, f, SolverConfig(max_iters=4000))
        assert report.L_final < 1e-6
        assert report.termination_reason in ("grad_tol", "stalled")

    def test_product_instance_matches_axis_sum(self):
        from planar_mk.measures import build_cdf, w2_squared_1d

        grid = Grid1D.uniform(0.0, 1.0, 8)
        u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.4) ** 2) / 0.09))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.35) ** 2) / 0.08))
        v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.55) ** 2) / 0.07))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.6) ** 2) / 0.1))
        f = product_density_2d(u1, u2)
        ft = product_density_2d(v1, v2)
        report = solve(f, ft, SolverConfig(max_iters=2000))
        w2sum = w2_squared_1d(build_cdf(u1), build_cdf(v1), 4096) + w2_squared_1d(
            build_cdf(u2), build_cdf(v2), 4096
        )
        assert report.L_final == pytest.approx(w2sum, rel=0.02)

    def test_trace_monotone_and_iterates_feasible(self):
        g = Grid1D.uniform(0.0, 1.0, 6)
        f = smooth_random_density_2d(g, g, seed=61)
        ft = smooth_random_density_2d(g, g, seed=62)
        report = solve(f, ft, SolverConfig(max_iters=500))
        assert np.all(np.diff(report.L_trace) <= 0.0)
        assert report.max_marginal_error < 1e-9
        assert report.termination_reason in ("grad_tol", "max_iters", "stalled")

    def test_deterministic_given_seed(self):
        g = Grid1D.uniform(0.0, 1.0, 5)
        f = smooth_random_density_2d(g, g, seed=71)
        ft = smooth_random_density_2d(g, g, seed=72)
        cfg = SolverConfig(max_iters=200, multistart=3, seed=9)
        r1 = solve(f, ft, cfg)
        r2 = solve(f, ft, cfg)
        assert np.array_equal(r1.L_trace, r2.L_trace)
        assert np.array_equal(r1.p_star.values, r2.p_star.values)
        assert r1.start_finals == r2.start_finals

    def test_multistart_stability_flag_on_easy_instance(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        f = smooth_random_density_2d(g, g, seed=81)
        ft = shifted_density_2d(f, 1, 0)
        report = solve(f, ft, SolverConfig(max_iters=1500, multistart=4))
        assert report.multistart_within_tol >= 0.8
        assert not report.nonconvexity_flag

    def test_no_descent_when_line_search_cannot_probe(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        f = smooth_random_density_2d(g, g, seed=91)
        ft = smooth_random_density_2d(g, g, seed=92)
        # min_step above the largest trial step exhausts the search immediately
        cfg = SolverConfig(step_init=0.1, min_step=1.0, max_iters=10)
        with pytest.raises(NoDescentError):
            solve(f, ft, cfg)

    def test_first_order_condition_and_alternating_sums_at_optimum(self):
        # deep convergence: gradient descent then rectangle polish from its
        # solution; at the optimum the variation kernel pairs to ~0 with every
        # feasible direction and is additively separable (row + column), so
        # all four-point alternating sums vanish
        from planar_mk.variational import first_variation

        g6 = Grid1D.uniform(0.0, 1.0, 6)
        f = gaussian_2d(g6, g6, rho=0.4)
        pg = solve(f, f, SolverConfig(max_iters=1500))
        cd = solve(
            f,
            f,
            SolverConfig(scheme="rectangle_cd", rectangle_passes=40, stall_tol=1e-15),
            initial_values=pg.p_star.values,
        )
        assert cd.L_final <= pg.L_final
        p = cd.p_star
        phi, psi = first_variation(f, f, p)
        grad = phi + psi
        areas = p.density.cell_areas
        rng = np.random.default_rng(42)
        for _ in range(20):
            eta = project_zero_marginals(
                rng.normal(size=grad.shape), g6.cell_widths, g6.cell_widths
            )
            pairing = abs(np.sum(grad * eta * areas))
            assert pairing < 1e-5 * np.sum(np.abs(eta) * areas)
        n = 6
        alt = max(
            abs(grad[a, b] + grad[a1, b1] - grad[a1, b] - grad[a, b1])
            for a in range(n)
            for a1 in range(a + 1, n)
            for b in range(n)
            for b1 in range(b + 1, n)
        )
        assert alt < 1e-4

    def test_rectangle_scheme_cross_checks_gradient_scheme(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        f = smooth_random_density_2d(g, g, seed=95)
        ft = smooth_random_density_2d(g, g, seed=96)
        pg = solve(f, ft, SolverConfig(max_iters=2000, grad_tol=1e-9))
        cd = solve(f, ft, SolverConfig(scheme="rectangle_cd", rectangle_passes=80))
        assert cd.L_final == pytest.approx(pg.L_final, abs=5e-5)
        assert cd.max_marginal_error < 1e-9

    def test_unknown_scheme_rejected(self):
        g = Grid1D.uniform(0.0, 1.0, 3)
        f = smooth_random_density_2d(g, g, seed=97)
        with pytest.raises(ValueError):
            solve(f, f, SolverConfig(scheme="newton"))


class TestSolverConfig:
    def test_round_trips_through_json(self, tmp_path):
        cfg = SolverConfig(scheme="rectangle_cd", grad_tol=1e-7, multistart=2, seed=5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = SolverConfig.from_json(str(path))
        assert loaded == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scheme": "projected_gradient", "momentum": 0.9}))
        with pytest.raises(ValueError):
            SolverConfig.from_json(str(path))
