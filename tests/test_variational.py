import numpy as np
import pytest

from conftest import make_smooth_feasible_coupling
from planar_mk.coupling import FeasibilityError
from planar_mk.instances import (
    density_1d_from_function,
    gaussian_2d,
    product_density_2d,
    smooth_random_density_2d,
)
from planar_mk.measures import (
    DiscreteDensity2D,
    Grid1D,
    build_cdf,
    marginals_2d,
    quantile,
)
from planar_mk.optimizer import ipfp_project, project_zero_marginals
from planar_mk.reduction import build_g_map, build_h_map, conditional_quantile_field, coupling_cost
from planar_mk.variational import (
    CumulativeH,
    Lemma2Schedule,
    cumulative_h,
    euler_lagrange_residual,
    evaluate_L,
    first_variation,
    lemma1_checker,
    lemma2_checker,
    objective_pass,
    simplified_cross_derivatives,
    variational_state,
)


def test_maps_equal_objective_pass_maps_bit_for_bit():
    g16 = Grid1D.uniform(0.0, 1.0, 16)
    f = gaussian_2d(g16, g16, rho=0.35, sigma=(0.25, 0.3))
    ft = smooth_random_density_2d(g16, g16, seed=8)
    p = make_smooth_feasible_coupling(f, ft, seed=9)
    out = objective_pass(
        conditional_quantile_field(f, "x"), conditional_quantile_field(ft, "y"), p.density.cell_masses, g16, g16
    )
    assert np.array_equal(build_g_map(f, p), out.g)
    assert np.array_equal(build_h_map(ft, p), out.h)


class TestEvaluateL:
    def test_zero_at_identity(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        assert evaluate_L(f, f, p) == pytest.approx(0.0, abs=1e-20)

    def test_product_case_matches_axis_sum(self):
        from planar_mk.measures import w2_squared_1d

        grid = Grid1D.uniform(0.0, 1.0, 16)
        u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.4) ** 2) / 0.08))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.35) ** 2) / 0.1))
        v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.55) ** 2) / 0.09))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.6) ** 2) / 0.07))
        f = product_density_2d(u1, u2)
        ft = product_density_2d(v1, v2)
        p = product_density_2d(u1, v2)
        w2sum = w2_squared_1d(build_cdf(u1), build_cdf(v1), 4096) + w2_squared_1d(
            build_cdf(u2), build_cdf(v2), 4096
        )
        assert evaluate_L(f, ft, p) == pytest.approx(w2sum, rel=0.02)

    def test_equals_coupling_cost_composition(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p = make_smooth_feasible_coupling(f, f_tilde, seed=5)
        total = coupling_cost(
            f, f_tilde, p, build_g_map(f, p), build_h_map(f_tilde, p)
        ).total
        assert evaluate_L(f, f_tilde, p) == total

    def test_infeasible_p_rejected(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p_wrong = ipfp_project(f_tilde.values, *marginals_2d(f_tilde))
        with pytest.raises(FeasibilityError):
            evaluate_L(f, f_tilde, p_wrong.density)


class TestFirstVariation:
    def test_matches_central_differences(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p = make_smooth_feasible_coupling(f, f_tilde, seed=7)
        phi, psi = first_variation(f, f_tilde, p)
        grad = phi + psi
        areas = p.density.cell_areas
        wx = f.grid_x.cell_widths
        wy = f_tilde.grid_y.cell_widths
        rng = np.random.default_rng(17)
        eps = 1e-5
        for _ in range(20):
            eta = project_zero_marginals(rng.normal(size=grad.shape), wx, wy)
            plus = DiscreteDensity2D(f.grid_x, f_tilde.grid_y, p.values + eps * eta)
            minus = DiscreteDensity2D(f.grid_x, f_tilde.grid_y, p.values - eps * eta)
            fd = (evaluate_L(f, f_tilde, plus) - evaluate_L(f, f_tilde, minus)) / (2 * eps)
            analytic = float(np.sum(grad * eta * areas))
            assert abs(fd - analytic) / max(1.0, abs(fd)) < 1e-4

    def test_zero_pairing_at_global_minimum(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        phi, psi = first_variation(f, f, p)
        areas = p.density.cell_areas
        rng = np.random.default_rng(23)
        for _ in range(5):
            eta = project_zero_marginals(
                rng.normal(size=phi.shape), f.grid_x.cell_widths, f.grid_y.cell_widths
            )
            assert abs(np.sum((phi + psi) * eta * areas)) < 1e-8

    def test_constant_shift_invariance(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p = make_smooth_feasible_coupling(f, f_tilde, seed=11)
        phi, psi = first_variation(f, f_tilde, p)
        areas = p.density.cell_areas
        rng = np.random.default_rng(29)
        eta = project_zero_marginals(
            rng.normal(size=phi.shape), f.grid_x.cell_widths, f_tilde.grid_y.cell_widths
        )
        base = float(np.sum((phi + psi) * eta * areas))
        shifted = float(np.sum((phi + 3.7 + psi) * eta * areas))
        assert shifted == pytest.approx(base, abs=1e-12)


class TestSimplifiedDerivatives:
    def test_zero_at_identity(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        phi_y, psi_x = simplified_cross_derivatives(f, f, p)
        assert np.max(np.abs(phi_y)) < 1e-11
        assert np.max(np.abs(psi_x)) < 1e-11

    def test_product_case_independent_of_x(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        f1 = density_1d_from_function(grid, lambda x: 1.0 + 0.4 * x)
        m = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.4) ** 2) / 0.07))
        n = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.6) ** 2) / 0.06))
        f = product_density_2d(f1, m)
        ft = product_density_2d(f1, n)
        p = product_density_2d(f1, n)
        phi_y, _ = simplified_cross_derivatives(f, ft, p)
        cn, cm = build_cdf(n), build_cdf(m)
        levels = np.clip(np.asarray(cn(grid.centers)), 1e-15, 1)
        expected = 2.0 * (grid.centers - np.asarray(quantile(cm, levels)))
        for i in range(8):
            assert np.allclose(phi_y[i, :], expected, atol=1e-12)

    def test_consistent_with_differenced_phi(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p = make_smooth_feasible_coupling(f, f_tilde, seed=13)
        phi, psi = first_variation(f, f_tilde, p)
        phi_y, psi_x = simplified_cross_derivatives(f, f_tilde, p)
        fd_y = np.gradient(phi, f_tilde.grid_y.centers, axis=1)
        fd_x = np.gradient(psi, f.grid_x.centers, axis=0)
        step = float(f.grid_x.cell_widths[0])
        assert np.max(np.abs(fd_y - phi_y)) < 5 * step
        assert np.max(np.abs(fd_x - psi_x)) < 5 * step


class TestEulerLagrange:
    def test_identically_zero_at_trivial_solution(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        report = euler_lagrange_residual(f, f, p)
        assert report.interior_l2 <= 1e-12
        assert np.max(np.abs(report.residual)) < 1e-11

    def test_bracket_fields_are_the_maps(self, correlated_pair_8, independent_coupling_8):
        f, f_tilde = correlated_pair_8
        p = independent_coupling_8
        report = euler_lagrange_residual(f, f_tilde, p)
        assert np.allclose(report.bracket_g, build_g_map(f, p), atol=1e-10)
        assert np.allclose(report.bracket_h, build_h_map(f_tilde, p), atol=1e-10)

    def test_cumulative_h_boundary_conditions(self, correlated_pair_8, independent_coupling_8):
        f, f_tilde = correlated_pair_8
        H = cumulative_h(independent_coupling_8)
        assert isinstance(H, CumulativeH)
        assert np.allclose(H.values[0, :], 0.0, atol=1e-15)
        assert np.allclose(H.values[:, 0], 0.0, atol=1e-15)
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(f_tilde)
        assert np.allclose(
            H.values[-1, 1:], np.cumsum(f2.cell_masses), atol=1e-10
        )
        assert np.allclose(
            H.values[1:, -1], np.cumsum(f1.cell_masses), atol=1e-10
        )
        assert np.all(np.diff(H.values, axis=0) >= -1e-15)
        assert np.all(np.diff(H.values, axis=1) >= -1e-15)

    def test_state_bundles_fields(self, correlated_pair_8, independent_coupling_8):
        f, f_tilde = correlated_pair_8
        state = variational_state(f, f_tilde, independent_coupling_8)
        assert state.L_value >= 0.0
        assert np.allclose(state.grad, state.phi + state.psi, atol=0)
        assert state.el_interior_l2 > 0.0


class TestLemma1:
    def test_constant_integrand_exact(self):
        report = lemma1_checker(lambda X, Y: np.ones_like(X), 0.3, 0.7)
        assert np.allclose(report.values, 1.0, atol=1e-14)
        assert report.limit == pytest.approx(1.0, abs=1e-12)

    def test_linear_integrand_first_order(self):
        report = lemma1_checker(lambda X, Y: X + Y, 0.0, 0.0)
        # mean over the eps-square of x+y is exactly eps
        assert np.allclose(report.values, report.scales, rtol=1e-12)
        assert report.limit == pytest.approx(0.0, abs=1e-12)
        assert report.observed_order == pytest.approx(1.0, abs=0.3)

    def test_smooth_integrand_extrapolates(self):
        expected = float(np.sin(0.3) * np.cos(0.7))
        report = lemma1_checker(lambda X, Y: np.sin(X) * np.cos(Y), 0.3, 0.7)
        assert report.limit == pytest.approx(expected, abs=1e-6)
        assert report.observed_order == pytest.approx(1.0, abs=0.3)

    def test_rejects_nondecreasing_eps(self):
        with pytest.raises(ValueError):
            lemma1_checker(lambda X, Y: X, 0.0, 0.0, eps_sequence=[1e-3, 1e-2])


class TestLemma2:
    def test_bilinear_quotient_identically_one(self):
        report = lemma2_checker(lambda X, Y: X * Y, 0.25, 0.4)
        assert np.allclose(report.values, 1.0, atol=1e-7)
        assert report.limit == pytest.approx(1.0, abs=1e-7)

    def test_square_product(self):
        report = lemma2_checker(lambda X, Y: X**2 * Y**2, 0.5, 0.5)
        assert report.limit == pytest.approx(1.0, abs=1e-4)
        assert report.reference == pytest.approx(1.0, abs=1e-6)
        assert report.observed_order == pytest.approx(1.0, abs=0.3)

    def test_exponential(self):
        expected = float(2.0 * np.exp(0.4))
        report = lemma2_checker(lambda X, Y: np.exp(X + 2 * Y), 0.2, 0.1)
        assert report.limit == pytest.approx(expected, abs=1e-4)
        assert report.reference == pytest.approx(expected, rel=1e-6)
        assert report.observed_order == pytest.approx(1.0, abs=0.3)

    def test_custom_schedule(self):
        sched = Lemma2Schedule(d0=0.02, ratio=0.5, count=6, theta=0.2)
        report = lemma2_checker(lambda X, Y: np.sin(X * Y), 0.3, 0.3, schedule=sched)
        # beta_xy = cos(xy) - xy sin(xy)
        expected = float(np.cos(0.09) - 0.09 * np.sin(0.09))
        assert report.limit == pytest.approx(expected, abs=1e-4)
