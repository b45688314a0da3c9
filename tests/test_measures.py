import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mk.measures import (
    CDF1D,
    DiscreteDensity1D,
    DiscreteDensity2D,
    Grid1D,
    QuantileTable,
    build_cdf,
    marginals_2d,
    quantile,
    w2_squared_1d,
)
from planar_mk.oracle import TransportInstance, solve_lp


def uniform_density(n, lo=0.0, hi=1.0):
    g = Grid1D.uniform(lo, hi, n)
    return DiscreteDensity1D(g, np.full(n, 1.0 / (hi - lo)))


class TestGrid:
    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError):
            Grid1D(np.array([0.0, 1.0, 0.5]))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            Grid1D(np.array([0.0]))

    def test_uniform_widths_and_centers(self):
        g = Grid1D.uniform(0.0, 2.0, 4)
        assert np.allclose(g.cell_widths, 0.5)
        assert np.allclose(g.centers, [0.25, 0.75, 1.25, 1.75])


class TestBuildCdf:
    def test_two_equal_cells(self):
        d = uniform_density(2)
        assert np.allclose(build_cdf(d).cum, [0.0, 0.5, 1.0])

    def test_single_cell(self):
        d = uniform_density(1)
        assert np.allclose(build_cdf(d).cum, [0.0, 1.0])

    def test_linear_density_prefix_sums(self):
        # f(x) = 2x on [0,1], 4 cells, midpoint masses 1/16, 3/16, 5/16, 7/16
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity1D.from_values(g, 2.0 * g.centers)
        assert np.allclose(build_cdf(d).cum, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0], atol=1e-12)

    def test_density_mass_validation(self):
        g = Grid1D.uniform(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            DiscreteDensity1D(g, np.array([1.0, 0.5]))  # mass 0.75

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        g = Grid1D.uniform(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="finite"):
            DiscreteDensity1D(g, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            DiscreteDensity1D.from_values(g, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            DiscreteDensity2D(g, g, np.array([[bad, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            DiscreteDensity2D.from_values(g, g, np.array([[bad, 1.0], [1.0, 1.0]]))


class TestQuantile:
    def test_left_continuity_at_atom(self):
        c = CDF1D.from_atoms(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert quantile(c, 0.5) == 0.0
        assert quantile(c, 0.500001) == 1.0
        assert quantile(c, 1.0) == 1.0

    def test_identity_on_uniform(self):
        c = build_cdf(uniform_density(8))
        assert quantile(c, 0.25) == pytest.approx(0.25, abs=1e-14)

    def test_sqrt_inverse_of_linear_density(self):
        # F(x) = x^2 in the continuum, so F^{-1}(1/4) = 1/2; exact on this grid
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity1D.from_values(g, 2.0 * g.centers)
        c = build_cdf(d)
        assert quantile(c, 0.25) == pytest.approx(0.5, abs=0.05)
        assert quantile(c, 0.5625) == pytest.approx(0.75, abs=0.05)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0000001, np.nan])
    def test_domain_errors(self, t):
        c = build_cdf(uniform_density(4))
        with pytest.raises(ValueError):
            quantile(c, t)

    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_in_t(self, levels):
        g = Grid1D.uniform(0.0, 1.0, 6)
        rng = np.random.default_rng(0)
        d = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 6))
        c = build_cdf(d)
        t = np.sort(np.asarray(levels))
        q = quantile(c, t)
        assert np.all(np.diff(q) >= -1e-14)

    def test_round_trip_within_two_cells(self):
        rng = np.random.default_rng(1)
        g = Grid1D.uniform(-1.0, 2.0, 16)
        d = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 16))
        c = build_cdf(d)
        xs = np.linspace(-0.9, 1.9, 37)
        ts = np.clip(c(xs), 1e-12, 1.0)
        back = quantile(c, ts)
        assert np.max(np.abs(back - xs)) <= 2 * g.cell_widths.max() + 1e-12

    def test_quantile_table_matches_quantile(self):
        rng = np.random.default_rng(2)
        g = Grid1D.uniform(0.0, 1.0, 9)
        d = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 9))
        c = build_cdf(d)
        table = QuantileTable.from_cdf(c)
        t = rng.uniform(0.01, 1.0, 100)
        assert np.allclose(table(t), quantile(c, t), atol=0)

    def test_quantile_table_slope_is_inverse_density(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity1D.from_values(g, np.array([0.5, 1.5, 1.0, 1.0]))
        table = QuantileTable.from_cdf(build_cdf(d))
        # inside the first ramp the slope is 1/f = 1/0.5
        _, slope = table.value_and_slope(np.array([0.05]))
        assert slope[0] == pytest.approx(2.0)


@st.composite
def stacked_table_and_levels(draw):
    """Rows with flat steps in probs and values, and levels that hit breakpoints and 1."""
    n_rows = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(2, 8))
    n_levels = draw(st.integers(1, 6))
    step = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-6, 10.0)
    probs, values, levels = [], [], []
    for _ in range(n_rows):
        inc = draw(st.lists(step, min_size=n_nodes - 1, max_size=n_nodes - 1).filter(lambda v: sum(v) > 0))
        c = np.cumsum(inc)
        row = np.concatenate([[0.0], c / c[-1]])
        probs.append(row)
        x0 = draw(st.floats(-5.0, 5.0))
        values.append(x0 + np.concatenate([[0.0], np.cumsum(draw(st.lists(step, min_size=n_nodes - 1, max_size=n_nodes - 1)))]))
        level = st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0) | st.sampled_from([float(t) for t in row if t > 0])
        levels.append(draw(st.lists(level, min_size=n_levels, max_size=n_levels)))
    return np.array(probs), np.array(values), np.array(levels)


def _scalar_value_and_slope(probs, values, t):
    """Reference: left-continuous inversion of one level by a linear scan."""
    k = next(i for i in range(1, probs.size) if probs[i] >= t)
    lo, hi = probs[k - 1], probs[k]
    dv = values[k] - values[k - 1]
    return values[k - 1] + (t - lo) / (hi - lo) * dv, dv / (hi - lo)


class TestStackedQuantileTable:
    @given(stacked_table_and_levels(), st.sampled_from([0.0, -0.5, 1.0 + 1e-9, np.nan]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_their_own_tables_bit_for_bit(self, case, bad_level):
        probs, values, levels = case
        table = QuantileTable(probs, values)
        val, slope = table.value_and_slope(levels)
        assert np.array_equal(table(levels), val)
        for s in range(probs.shape[0]):
            v1, s1 = QuantileTable(probs[s], values[s]).value_and_slope(levels[s])
            assert np.array_equal(val[s], v1) and np.array_equal(slope[s], s1)
            ref = [_scalar_value_and_slope(probs[s], values[s], t) for t in levels[s]]
            assert np.array_equal(v1, [r[0] for r in ref]) and np.array_equal(s1, [r[1] for r in ref])
        bad = levels.copy()
        bad[-1, -1] = bad_level
        with pytest.raises(ValueError):
            table.value_and_slope(bad)

    def test_selected_rows(self):
        probs = np.array([[0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.0, 1.0, 1.0]])
        table = QuantileTable(probs, np.array([[0.0, 1.0, 2.0]] * 3))
        t = np.array([[0.5, 1.0], [0.5, 1.0]])
        val, slope = table.value_and_slope(t, [2, 1])
        assert np.array_equal(val, [[0.5, 1.0], [1 + 1 / 3, 2.0]])
        assert np.array_equal(slope, [[1.0, 1.0], [4 / 3, 4 / 3]])
        with pytest.raises(ValueError):
            table(np.array([0.5, 0.5]))  # one level for a three-row table


class TestW2:
    def test_identical_marginals(self):
        c = build_cdf(uniform_density(5))
        assert w2_squared_1d(c, c, 100) == 0.0

    def test_point_masses(self):
        c0 = CDF1D.from_atoms(np.array([0.0]), np.array([1.0]))
        c1 = CDF1D.from_atoms(np.array([1.0]), np.array([1.0]))
        assert w2_squared_1d(c0, c1, 64) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_atom_shift_against_lp(self):
        # uniform atoms {0,1,2} vs {1,2,3}: LP oracle gives cost 1
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 3.0])
        m = np.full(3, 1 / 3)
        lp = solve_lp(TransportInstance(m, m, (x[:, None] - y[None, :]) ** 2))
        assert lp.objective == pytest.approx(1.0, abs=1e-12)
        w2 = w2_squared_1d(CDF1D.from_atoms(x, m), CDF1D.from_atoms(y, m), 9999)
        assert w2 == pytest.approx(lp.objective, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D.uniform(0.0, 1.0, 6)
        a = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 6))
        b = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 6))
        ca, cb = build_cdf(a), build_cdf(b)
        w_ab = w2_squared_1d(ca, cb, 500)
        w_ba = w2_squared_1d(cb, ca, 500)
        assert w_ab >= 0.0
        assert w_ab == pytest.approx(w_ba, rel=1e-12, abs=1e-15)

    def test_zero_iff_equal_on_grid(self):
        g = Grid1D.uniform(0.0, 1.0, 6)
        rng = np.random.default_rng(3)
        a = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 6))
        b = DiscreteDensity1D.from_values(g, a.values + 0.2 * rng.uniform(0.1, 1.0, 6))
        assert w2_squared_1d(build_cdf(a), build_cdf(a), 200) == 0.0
        assert w2_squared_1d(build_cdf(a), build_cdf(b), 200) > 1e-8

    def test_unaligned_atoms_converge_like_inverse_quadrature(self):
        # atoms {0,1} w (1/3,2/3) vs {0.5,2} w (0.6,0.4): exact value 0.55,
        # with one integrand jump (height 0.75) off the quadrature lattice
        F = CDF1D.from_atoms(np.array([0.0, 1.0]), np.array([1 / 3, 2 / 3]))
        G = CDF1D.from_atoms(np.array([0.5, 2.0]), np.array([0.6, 0.4]))
        lp = solve_lp(
            TransportInstance(
                np.array([1 / 3, 2 / 3]),
                np.array([0.6, 0.4]),
                (np.array([0.0, 1.0])[:, None] - np.array([0.5, 2.0])[None, :]) ** 2,
            )
        )
        assert lp.objective == pytest.approx(0.55, abs=1e-12)
        for n_quad in (500, 5000):
            err = abs(w2_squared_1d(F, G, n_quad) - lp.objective)
            assert err <= 2.0 / n_quad

    def test_rejects_tiny_quadrature(self):
        c = build_cdf(uniform_density(3))
        with pytest.raises(ValueError):
            w2_squared_1d(c, c, 1)


class TestMarginals:
    def test_product_density_exact(self):
        g = Grid1D.uniform(0.0, 1.0, 3)
        rng = np.random.default_rng(4)
        u = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 3))
        v = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 3))
        d = DiscreteDensity2D(g, g, np.outer(u.values, v.values))
        mu, mv = marginals_2d(d)
        assert np.allclose(mu.values, u.values, atol=1e-14)
        assert np.allclose(mv.values, v.values, atol=1e-14)

    def test_uniform_2x2(self):
        g = Grid1D.uniform(0.0, 2.0, 2)  # unit cells
        d = DiscreteDensity2D(g, g, np.array([[0.25, 0.25], [0.25, 0.25]]))
        mu, mv = marginals_2d(d)
        assert np.allclose(mu.cell_masses, [0.5, 0.5])
        assert np.allclose(mv.cell_masses, [0.5, 0.5])

    def test_hand_computed_2x2(self):
        g = Grid1D.uniform(0.0, 2.0, 2)
        d = DiscreteDensity2D(g, g, np.array([[0.4, 0.1], [0.2, 0.3]]))
        mu, mv = marginals_2d(d)
        assert np.allclose(mu.cell_masses, [0.5, 0.5])
        assert np.allclose(mv.cell_masses, [0.6, 0.4])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_marginals_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        gx = Grid1D.uniform(0.0, 1.0, 5)
        gy = Grid1D.uniform(-1.0, 1.0, 4)
        d = DiscreteDensity2D.from_values(gx, gy, rng.uniform(0.01, 1.0, (5, 4)))
        mu, mv = marginals_2d(d)
        assert abs(mu.total_mass() - 1.0) <= 1e-12
        assert abs(mv.total_mass() - 1.0) <= 1e-12
