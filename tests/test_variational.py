import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import density_cdf, make_smooth_feasible_coupling, shift_pair
from planar_mk.coupling import CouplingDensity, FeasibilityError
from planar_mk.instances import (
    density_1d_from_function,
    gaussian_2d,
    product_density_2d,
    smooth_random_density_2d,
)
from planar_mk.measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D, QuantileTable, marginals_2d
from planar_mk.optimizer import ipfp_project, project_zero_marginals, solve
from planar_mk.reduction import (
    build_g_map,
    build_h_map,
    conditional_quantile_field,
    coupling_cost,
    pushforward_check,
    pushforward_check_h,
)
from planar_mk.variational import (
    cumulative_h,
    euler_lagrange_residual,
    evaluate_L,
    first_variation,
    lemma1_checker,
    lemma2_checker,
    objective_pass,
    simplified_cross_derivatives,
)


def test_maps_equal_objective_pass_maps_bit_for_bit():
    g16 = Grid1D.uniform(0.0, 1.0, 16)
    f = gaussian_2d(g16, g16, rho=0.35, sigma=(0.25, 0.3))
    ft = smooth_random_density_2d(g16, g16, seed=8)
    p = make_smooth_feasible_coupling(f, ft, seed=9)
    out = objective_pass(
        conditional_quantile_field(f, "x"), conditional_quantile_field(ft, "y"), p.cell_masses, g16, g16
    )
    assert np.array_equal(build_g_map(f, p), out.g)
    assert np.array_equal(build_h_map(ft, p), out.h)


class TestEvaluateL:
    def test_zero_at_identity(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        assert evaluate_L(f, f, p) == pytest.approx(0.0, abs=1e-20)

    def test_product_case_matches_axis_sum(self):
        from planar_mk.measures import per_axis_w2_sum

        grid = Grid1D.uniform(0.0, 1.0, 16)
        u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.4) ** 2) / 0.08))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.35) ** 2) / 0.1))
        v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.55) ** 2) / 0.09))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.6) ** 2) / 0.07))
        f = product_density_2d(u1, u2)
        ft = product_density_2d(v1, v2)
        p = product_density_2d(u1, v2)
        assert evaluate_L(f, ft, p) == pytest.approx(per_axis_w2_sum(f, ft), rel=0.02)

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
            evaluate_L(f, f_tilde, p_wrong)


@pytest.mark.parametrize("entry", [evaluate_L, first_variation, euler_lagrange_residual])
def test_coupling_on_another_grid_rejected(entry, correlated_pair_8, independent_coupling_8):
    # same shape and cell masses as a feasible coupling, but on [0, 2]^2
    f, f_tilde = correlated_pair_8
    g2 = Grid1D.uniform(0.0, 2.0, 8)
    p = DiscreteDensity2D(g2, g2, independent_coupling_8.values / 4.0)
    with pytest.raises(ValueError, match="x-grid"):
        entry(f, f_tilde, p)


@st.composite
def coupled_pair(draw, min_cells=1, max_cells=8):
    """f, f~ and a positive raw array on random nonuniform grids of min_cells to max_cells cells per axis.

    f lies on (gx, ga) and f~ on (gb, gy), so p lives on (gx, gy).
    """
    grids = []
    for _ in range(4):
        n = draw(st.integers(min_cells, max_cells))
        widths = draw(arrays(np.float64, n, elements=st.floats(0.2, 2.0)))
        grids.append(Grid1D(np.cumsum(np.r_[draw(st.floats(-1.0, 1.0)), widths])))
    gx, ga, gb, gy = grids

    def positive(shape):
        return np.exp(draw(arrays(np.float64, shape, elements=st.floats(-3.0, 3.0))))

    f = DiscreteDensity2D.from_values(gx, ga, positive((gx.n_cells, ga.n_cells)))
    f_tilde = DiscreteDensity2D.from_values(gb, gy, positive((gb.n_cells, gy.n_cells)))
    return f, f_tilde, positive((gx.n_cells, gy.n_cells))


def _bytes(out) -> list:
    """Every float an output holds, as bytes, in a fixed order."""
    if isinstance(out, float):
        return [np.float64(out).tobytes()]
    if isinstance(out, np.ndarray):
        return [out.shape, out.tobytes()]
    if isinstance(out, tuple):
        return [b for item in out for b in _bytes(item)]
    return [b for value in vars(out).values() for b in _bytes(value)]


class TestCouplingIsADensity:
    @settings(max_examples=40, deadline=None)
    @given(pair=coupled_pair())
    def test_coupling_and_plain_density_give_the_same_bytes(self, pair):
        f, f_tilde, raw = pair
        p = ipfp_project(raw, f.marginals[0], f_tilde.marginals[1])
        q = DiscreteDensity2D(p.grid_x, p.grid_y, p.values)
        assert isinstance(p, DiscreteDensity2D) and type(q) is DiscreteDensity2D
        g, h = build_g_map(f, p), build_h_map(f_tilde, p)
        for d in (p, q):
            assert coupling_cost(f, f_tilde, d, g, h).total == evaluate_L(f, f_tilde, d)
        calls = [
            lambda d: evaluate_L(f, f_tilde, d),
            lambda d: first_variation(f, f_tilde, d),
            lambda d: build_g_map(f, d),
            lambda d: build_h_map(f_tilde, d),
            lambda d: pushforward_check(f, d, g),
            lambda d: pushforward_check_h(f_tilde, d, h),
            lambda d: coupling_cost(f, f_tilde, d, g, h),
            lambda d: cumulative_h(d),
            lambda d: euler_lagrange_residual(f, f_tilde, d),
        ]
        for call in calls:
            assert _bytes(call(p)) == _bytes(call(q))

    def test_cells_may_be_zero(self):
        # feasible: both marginals are uniform, and two cells carry nothing
        g = Grid1D.uniform(0.0, 1.0, 2)
        uniform = DiscreteDensity1D(g, np.ones(2))
        p = CouplingDensity(g, g, np.array([[2.0, 0.0], [0.0, 2.0]]), uniform, uniform)
        assert p.values.min() == 0.0


class TestFirstVariation:
    def test_matches_central_differences(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p = make_smooth_feasible_coupling(f, f_tilde, seed=7)
        phi, psi = first_variation(f, f_tilde, p)
        grad = phi + psi
        areas = p.cell_areas
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
        areas = p.cell_areas
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
        areas = p.cell_areas
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
        levels = np.clip(density_cdf(n, grid.centers), 1e-15, 1)
        expected = 2.0 * (grid.centers - QuantileTable.from_density(m)(levels))
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
        assert np.array_equal(report.at_p.g, build_g_map(f, p))
        assert np.array_equal(report.at_p.h, build_h_map(f_tilde, p))

    def test_bracket_fields_are_the_maps_at_a_shift_optimum(self):
        # an optimum, with floor cells in the vacated margin
        f, f_tilde = shift_pair(3, 1, 1, 8)
        p = solve(f, f_tilde).p_star
        report = euler_lagrange_residual(f, f_tilde, p)
        assert np.array_equal(report.at_p.g, build_g_map(f, p))
        assert np.array_equal(report.at_p.h, build_h_map(f_tilde, p))

    def test_cumulative_h_boundary_conditions(self, correlated_pair_8, independent_coupling_8):
        f, f_tilde = correlated_pair_8
        H = cumulative_h(independent_coupling_8)
        assert H.shape == (9, 9)  # sampled on the grid nodes
        assert np.allclose(H[0, :], 0.0, atol=1e-15)
        assert np.allclose(H[:, 0], 0.0, atol=1e-15)
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(f_tilde)
        assert np.allclose(
            H[-1, 1:], np.cumsum(f2.cell_masses), atol=1e-10
        )
        assert np.allclose(
            H[1:, -1], np.cumsum(f1.cell_masses), atol=1e-10
        )
        assert np.all(np.diff(H, axis=0) >= -1e-15)
        assert np.all(np.diff(H, axis=1) >= -1e-15)


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
        report = lemma2_checker(lambda X, Y: np.sin(X * Y), 0.3, 0.3)
        # beta_xy = cos(xy) - xy sin(xy)
        expected = float(np.cos(0.09) - 0.09 * np.sin(0.09))
        assert report.limit == pytest.approx(expected, abs=1e-4)
