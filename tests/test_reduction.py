import numpy as np
import pytest
from hypothesis import given, settings

from conftest import density_1d_from_function, density_cdf, make_smooth_feasible_coupling, product_density_2d
from planar_mk.coupling import FEAS_TOL, FeasibilityError
from planar_mk.instances import gaussian_2d, smooth_random_density_2d
from planar_mk.measures import (
    DiscreteDensity1D,
    DiscreteDensity2D,
    Grid1D,
    QuantileTable,
    marginals_2d,
)
from planar_mk.optimizer import ipfp_project
from planar_mk.oracle import solve_full_2d
from planar_mk.reduction import (
    DegenerateSliceError,
    _at_centers,
    _slice_costs,
    build_g_map,
    build_h_map,
    conditional_quantile_field,
    coupling_cost,
    pushforward_check,
    pushforward_check_h,
)
from planar_mk.rng import Xoshiro256StarStar
from planar_mk.variational import evaluate, objective_pass
from test_variational import coupled_pair

# log-scale of the multiplicative noise in `random_feasible_coupling_values`
_ROUGHNESS = 0.5


def random_feasible_coupling_values(f1: DiscreteDensity1D, f2: DiscreteDensity1D, seed: int) -> np.ndarray:
    """Random positive values for IPFP projection into the coupling polytope."""
    rng = Xoshiro256StarStar(seed)
    base = np.outer(f1.values, f2.values)
    noise = rng.uniform(-1.0, 1.0, size=base.shape)
    return base * np.exp(_ROUGHNESS * noise)


def unit_cell_grid(n):
    return Grid1D.uniform(0.0, float(n), n)


class TestConditionalCdf:
    def test_product_density_independence(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        rng = np.random.default_rng(0)
        u = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 4))
        v = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 4))
        d = product_density_2d(u, v)
        probs = conditional_quantile_field(d, "x").probs
        for i in range(4):
            assert np.allclose(probs[i], QuantileTable.from_density(v).probs[0], atol=1e-12)

    def test_hand_computed_2x2_slice(self):
        g = unit_cell_grid(2)
        d = DiscreteDensity2D(g, g, np.array([[0.4, 0.1], [0.2, 0.3]]))
        assert np.allclose(conditional_quantile_field(d, "x").probs[0], [0.0, 0.8, 1.0])
        assert np.allclose(conditional_quantile_field(d, "y").probs[1], [0.0, 0.25, 1.0])

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_empty_slice_raises(self, axis):
        g = unit_cell_grid(2)
        values = np.array([[0.0, 0.0], [0.5, 0.5]])  # x-cell 0 carries no mass; transposed, y-cell 0
        d = DiscreteDensity2D(g, g, values if axis == "x" else values.T)
        with pytest.raises(DegenerateSliceError, match="slice 0 carries no mass"):
            conditional_quantile_field(d, axis)

    def test_uniform_every_slice(self):
        g = Grid1D.uniform(0.0, 1.0, 5)
        d = DiscreteDensity2D(g, g, np.ones((5, 5)))
        probs = conditional_quantile_field(d, "x").probs
        for i in range(5):
            assert np.allclose(probs[i], np.linspace(0, 1, 6))


class _LevelRecorder:
    """A stand-in table that keeps the levels it is asked for and returns them as values and slopes."""

    def value_and_slope(self, t, cache=None):
        self.levels = t.copy()
        return t, t


class TestAtCenters:
    def test_levels_clamp_like_np_clip(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 1.0, size=(64, 16))
        rows[::2, :3] = 0.0   # leading zero masses: level 0, clamped up
        rows[::3, -4:] = 0.0  # trailing zero masses: level 1, roundoff included
        reference = np.cumsum(rows, axis=1)
        reference -= 0.5 * rows
        reference /= rows.sum(axis=1)[:, None]
        assert (reference > 1.0).any()  # the upper clamp is exercised too
        np.clip(reference, 1e-15, 1.0, out=reference)
        recorder = _LevelRecorder()
        for slices in (rows, np.asfortranarray(rows)):  # C rows, and transposed masses as h passes them
            _at_centers(recorder, slices)
            assert np.array_equal(recorder.levels, reference)
            assert (recorder.levels[::2, 0] == 1e-15).all()

    def test_nan_row_still_raises(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        table = conditional_quantile_field(DiscreteDensity2D(g, g, np.ones((4, 4))), "x")
        rows = np.full((4, 4), 1.0 / 16.0)
        rows[2, 1] = np.nan
        with pytest.raises(ValueError, match="quantile level"):
            _at_centers(table, rows)


class TestGMap:
    def test_identity_when_p_matches_f(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        g = build_g_map(f, p)
        assert np.max(np.abs(g - f.grid_y.centers[None, :])) < 1e-12

    def test_product_densities_collapse_conditionals(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        f1 = density_1d_from_function(grid, lambda x: 1.0 + 0.5 * x)
        m = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.4) ** 2) / 0.08))
        n = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.6) ** 2) / 0.05))
        f = product_density_2d(f1, m)
        p = product_density_2d(f1, n)
        g = build_g_map(f, p)
        # g(x, y) = M^{-1}(N(y)) independent of x; the linear CDF evaluated at
        # a cell center is exactly the center mass level
        levels = np.clip(density_cdf(n, grid.centers), 1e-15, 1)
        expected = QuantileTable.from_density(m)(levels)
        for i in range(8):
            assert np.allclose(g[i, :], expected, atol=1e-12)

    def test_hand_computed_2x2_table(self):
        g2 = unit_cell_grid(2)
        f = DiscreteDensity2D(g2, g2, np.array([[0.4, 0.1], [0.2, 0.3]]))
        p = DiscreteDensity2D(g2, g2, np.array([[0.25, 0.25], [0.35, 0.15]]))
        g = build_g_map(f, p)
        # slice CDFs: row 0 masses (.8,.2), row 1 masses (.4,.6); levels
        # (.25,.75) and (.35,.85) -> invert the piecewise-linear quantiles
        expected = np.array([[0.25 / 0.8, 0.75 / 0.8], [0.35 / 0.4, 1 + 0.45 / 0.6]])
        assert np.allclose(g, expected, atol=1e-12)

    def test_marginal_mismatch_rejected(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        bad = ipfp_project(f_tilde.values, *marginals_2d(f_tilde))
        with pytest.raises(FeasibilityError):
            build_g_map(f, bad)

    def test_monotone_along_free_axis(self, correlated_pair_8):
        f, f_tilde = correlated_pair_8
        p = make_smooth_feasible_coupling(f, f_tilde, seed=9)
        g = build_g_map(f, p)
        h = build_h_map(f_tilde, p)
        assert np.all(np.diff(g, axis=1) >= -1e-12)
        assert np.all(np.diff(h, axis=0) >= -1e-12)


class TestHMap:
    def test_identity_when_p_matches_f_tilde(self, correlated_pair_8):
        _, f_tilde = correlated_pair_8
        p = ipfp_project(f_tilde.values, *marginals_2d(f_tilde))
        h = build_h_map(f_tilde, p)
        assert np.max(np.abs(h - f_tilde.grid_x.centers[:, None])) < 1e-12

    def test_product_densities_independent_of_y(self):
        grid = Grid1D.uniform(0.0, 1.0, 8)
        f2 = density_1d_from_function(grid, lambda y: 1.0 + 0.3 * y)
        q = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.55) ** 2) / 0.06))
        r = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.4) ** 2) / 0.09))
        f_tilde = product_density_2d(q, f2)
        p = product_density_2d(r, f2)
        h = build_h_map(f_tilde, p)
        # h(x, y) = Q^{-1}(R(x)) independent of y
        levels = np.clip(density_cdf(r, grid.centers), 1e-15, 1)
        expected = QuantileTable.from_density(q)(levels)
        for j in range(8):
            assert np.allclose(h[:, j], expected, atol=1e-12)

    def test_transpose_of_g_construction(self):
        g4 = Grid1D.uniform(0.0, 1.0, 4)
        ft = smooth_random_density_2d(g4, g4, seed=21)
        _, f2 = marginals_2d(ft)
        f1 = DiscreteDensity1D.from_values(g4, np.linspace(0.5, 1.5, 4))
        p = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        h = build_h_map(ft, p)
        ft_t = DiscreteDensity2D(g4, g4, ft.values.T)
        p_t = DiscreteDensity2D(g4, g4, p.values.T)
        g_of_transpose = build_g_map(ft_t, p_t)
        assert np.allclose(h, g_of_transpose.T, atol=1e-14)


class TestPushforward:
    def test_exact_when_p_matches_f(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        report = pushforward_check(f, p, build_g_map(f, p))
        assert report.l1_deviation == pytest.approx(0.0, abs=1e-12)

    def test_mass_is_preserved(self, correlated_pair_8, independent_coupling_8):
        f, _ = correlated_pair_8
        report = pushforward_check(f, independent_coupling_8, build_g_map(f, independent_coupling_8))
        assert report.binned_masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_map_rejected(self, correlated_pair_8, independent_coupling_8):
        f, _ = correlated_pair_8
        g = build_g_map(f, independent_coupling_8)
        with pytest.raises(ValueError):
            pushforward_check(f, independent_coupling_8, g + 0.3)

    @pytest.mark.parametrize("check_h", [False, True])
    def test_refinement_decreases_deviation(self, check_h):
        devs = []
        for n in (8, 16, 32):
            gx = Grid1D.uniform(0.0, 1.0, n)
            f = gaussian_2d(gx, gx, rho=0.25, sigma=(0.3, 0.28))
            ft = gaussian_2d(gx, gx, rho=-0.2, sigma=(0.28, 0.3), mean=(0.48, 0.52))
            p = make_smooth_feasible_coupling(f, ft, seed=3)
            if check_h:
                report = pushforward_check_h(ft, p, build_h_map(ft, p))
            else:
                report = pushforward_check(f, p, build_g_map(f, p))
            devs.append(report.l1_deviation)
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] < 0.05

    @pytest.mark.parametrize("check_h", [False, True])
    def test_closed_form_deposit_matches_cell_overlaps(self, check_h):
        rng = np.random.default_rng(5)
        gx = Grid1D(np.cumsum(np.r_[0.0, rng.uniform(0.2, 1.8, 12)]))
        gy = Grid1D(np.cumsum(np.r_[-1.0, rng.uniform(0.2, 1.8, 10)]))
        f = smooth_random_density_2d(gx, gy, seed=11)
        p = make_smooth_feasible_coupling(f, f, seed=12)
        masses = p.cell_masses
        if check_h:
            binned = pushforward_check_h(f, p, build_h_map(f, p)).binned_masses.T
            masses, axis, edges = masses.T, "y", gx.nodes
        else:
            binned = pushforward_check(f, p, build_g_map(f, p)).binned_masses
            axis, edges = "x", gy.nodes
        expected = np.zeros_like(binned)
        table = conditional_quantile_field(f, axis)
        for s in range(masses.shape[0]):
            levels = np.clip(np.cumsum(masses[s]) / masses[s].sum(), 1e-15, 1.0)
            hi = QuantileTable(table.probs[s], table.values[s])(levels)
            lo = np.r_[edges[0], hi[:-1]]
            for a, b, m in zip(lo, hi, masses[s]):
                for k in range(edges.size - 1):
                    overlap = min(b, edges[k + 1]) - max(a, edges[k])
                    expected[s, k] += m * max(overlap, 0.0) / (b - a)
        assert np.max(np.abs(binned - expected)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(pair=coupled_pair(min_cells=2, max_cells=12))
    def test_binned_slices_keep_the_marginals(self, pair):
        # each x-slice of the g check's bins holds its p-slice's mass, and so
        # does each y-slice of the h check's: the rebuilt maps keep f's
        # x-marginal and f~'s y-marginal to the coupling's own FEAS_TOL
        f, f_tilde, raw = pair
        p = ipfp_project(raw, f.marginals[0], f_tilde.marginals[1])
        masses = p.cell_masses
        g_sums = pushforward_check(f, p, build_g_map(f, p)).binned_masses.sum(axis=1)
        h_sums = pushforward_check_h(f_tilde, p, build_h_map(f_tilde, p)).binned_masses.sum(axis=0)
        assert np.max(np.abs(g_sums - masses.sum(axis=1))) <= 1e-14
        assert np.max(np.abs(h_sums - masses.sum(axis=0))) <= 1e-14
        assert np.abs(g_sums - f.marginals[0].cell_masses).sum() <= FEAS_TOL
        assert np.abs(h_sums - f_tilde.marginals[1].cell_masses).sum() <= FEAS_TOL

    def test_product_case_below_tolerance(self):
        grid = Grid1D.uniform(0.0, 1.0, 32)
        u1 = density_1d_from_function(grid, lambda x: 1.0 + 0.3 * np.sin(2 * x))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.45) ** 2) / 0.1))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.55) ** 2) / 0.12))
        f = product_density_2d(u1, u2)
        p = product_density_2d(u1, v2)
        report = pushforward_check(f, p, build_g_map(f, p))
        assert report.l1_deviation < 0.02


class TestSliceCosts:
    @pytest.mark.parametrize("shape", [(1, 257), (257, 1), (3, 3), (16, 16), (64, 64), (257, 257)])
    def test_equal_to_per_slice_dot(self, shape):
        # the per-slice loop the batched kernel replaced: one np.dot per
        # slice on the caller's rows, against C-ordered squares
        rng = np.random.default_rng(sum(shape))
        masses = 10.0 ** rng.uniform(-12.0, 0.0, size=shape)
        resid = rng.standard_normal(shape)
        # C-ordered rows, and transposed rows as the x-term of L passes them
        for rows, res in ((masses, resid), (masses.T, resid.T), (masses.T, np.ascontiguousarray(resid.T))):
            sq = np.square(res, order="C")
            expected = np.array([np.dot(sq[s], rows[s]) for s in range(rows.shape[0])])
            got = _slice_costs(sq, rows)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), rows.flags.c_contiguous


class TestCouplingCost:
    def test_zero_for_identity_coupling(self, correlated_pair_8):
        f, _ = correlated_pair_8
        p = ipfp_project(f.values, *marginals_2d(f))
        cost = coupling_cost(f, f, p, build_g_map(f, p), build_h_map(f, p))
        assert cost.total == pytest.approx(0.0, abs=1e-20)

    def test_product_marginals_sum_of_axis_w2(self):
        from planar_mk.measures import per_axis_w2_sum

        grid = Grid1D.uniform(0.0, 1.0, 16)
        u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.35) ** 2) / 0.06))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.4) ** 2) / 0.09))
        v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.6) ** 2) / 0.07))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.55) ** 2) / 0.05))
        f = product_density_2d(u1, u2)
        ft = product_density_2d(v1, v2)
        p = product_density_2d(u1, v2)
        cost = coupling_cost(f, ft, p, build_g_map(f, p), build_h_map(ft, p))
        assert cost.total == pytest.approx(per_axis_w2_sum(f, ft), rel=0.02)

    def test_concentrated_cells_squared_distance(self):
        g = Grid1D.uniform(-0.5, 1.5, 2)  # centers 0 and 1
        va = np.zeros((2, 2))
        va[0, 0] = 1.0
        vb = np.zeros((2, 2))
        vb[1, 1] = 1.0
        f = DiscreteDensity2D.from_values(g, g, va)
        ft = DiscreteDensity2D.from_values(g, g, vb)
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(ft)
        p = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        cost = coupling_cost(f, ft, p, build_g_map(f, p), build_h_map(ft, p))
        assert cost.total == pytest.approx(2.0, abs=1e-3)

    def test_agrees_with_evaluate_L_exactly(self):
        # one objective: evaluate, objective_pass and coupling_cost on the
        # pass's own maps sum the same per-slice costs, on any grid
        rng = np.random.default_rng(31)
        for seed in range(40):
            nx, ny = rng.integers(3, 13, size=2)
            gx = Grid1D(np.cumsum(np.r_[rng.uniform(-1, 1), rng.uniform(0.2, 2.0, nx)]))
            gy = Grid1D(np.cumsum(np.r_[rng.uniform(-1, 1), rng.uniform(0.2, 2.0, ny)]))
            f = smooth_random_density_2d(gx, gy, seed=100 + seed)
            ft = smooth_random_density_2d(gx, gy, seed=200 + seed)
            f1, _ = marginals_2d(f)
            _, f2 = marginals_2d(ft)
            p = ipfp_project(random_feasible_coupling_values(f1, f2, seed=300 + seed), f1, f2)
            out = objective_pass(
                conditional_quantile_field(f, "x"), conditional_quantile_field(ft, "y"),
                p.cell_masses, gx, gy,
            )
            total = coupling_cost(f, ft, p, out.g, out.h).total
            assert evaluate(f, ft, p).L_value == out.L_value == total, seed

    def test_oracle_lower_bound_on_random_couplings(self):
        # The LP places atoms at cell centers while the reduced cost runs
        # through interpolated quantiles, so the bound carries a
        # discretization allowance at the within-cell variance scale.
        g8 = Grid1D.uniform(0.0, 1.0, 8)
        f = gaussian_2d(g8, g8, mean=(0.3, 0.35), sigma=(0.18, 0.2), rho=0.3)
        ft = gaussian_2d(g8, g8, mean=(0.7, 0.65), sigma=(0.2, 0.18), rho=-0.25)
        lp = solve_full_2d(f, ft).objective
        assert lp > 0.1  # well-separated pair; the bound is not vacuous
        f1, _ = marginals_2d(f)
        _, f2 = marginals_2d(ft)
        disc_tol = 0.5 * float(g8.cell_widths[0] ** 2 + g8.cell_widths[0] ** 2)
        for seed in range(5):
            p = ipfp_project(random_feasible_coupling_values(f1, f2, seed=50 + seed), f1, f2)
            cost = coupling_cost(f, ft, p, build_g_map(f, p), build_h_map(ft, p))
            assert lp <= cost.total + disc_tol + 1e-6
