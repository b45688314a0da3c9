import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import comonotone_plan_1d, density_cdf
from planar_mk.measures import (
    EPS_FLOOR,
    DiscreteDensity1D,
    DiscreteDensity2D,
    Grid1D,
    QuantileTable,
    RampCache,
    floor_and_normalize,
    floor_density,
    marginals_2d,
    w2_squared_1d,
)
from planar_mk.oracle import TransportInstance, solve_lp

density_table = QuantileTable.from_density
atom_table = QuantileTable.from_atoms


def uniform_density(n, lo=0.0, hi=1.0):
    g = Grid1D.uniform(lo, hi, n)
    return DiscreteDensity1D(g, np.full(n, 1.0 / (hi - lo)))


# hypothesis's explain phase varies every drawn atom of a failing atoms()
# example and took minutes on top of shrinking, so those tests skip it
_NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


@st.composite
def atoms(draw):
    """1-40 distinct positions with nonnegative masses, zero and tiny ones included."""
    n = draw(st.integers(1, 40))
    x = draw(st.lists(st.integers(-2_000_000, 2_000_000), min_size=n, max_size=n, unique=True))
    mass = st.sampled_from([0.0, 1e-16]) | st.floats(0.0, 1.0)
    m = draw(st.lists(mass, min_size=n, max_size=n).filter(lambda v: sum(v) > 0))
    return 1e-6 * np.array(x, dtype=float), np.array(m)


def _atom_levels(x, m):
    """Atoms in position order and their cumulative masses, normalized by the last."""
    order = np.argsort(x, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(m[order])])
    return x[order], cum / cum[-1]


def _searchsorted_step_quantile(x, m, t):
    """Reference for atoms: the first atom whose cumulative mass reaches t."""
    xs, cum = _atom_levels(x, m)
    return xs[np.searchsorted(cum, t, side="left") - 1]


def _legacy_density_table(d):
    """The table the former prefix-sum CDF of d inverted to: its levels over the nodes."""
    cum = np.concatenate([[0.0], np.cumsum(d.cell_masses)])
    cum /= cum[-1]
    return QuantileTable(cum, d.grid.nodes)


def _legacy_atom_table(x, m):
    """The table the former step CDF inverted to: a sentinel node below the
    atoms carried level 0, and the atom at node i spanned levels cum[i-1] to cum[i]."""
    order = np.argsort(x, kind="stable")
    x, m = x[order], m[order]
    cum = np.concatenate([[0.0], np.cumsum(m)])
    cum /= cum[-1]
    span = x[-1] - x[0] if x.size > 1 else 1.0
    nodes = np.concatenate([[x[0] - max(span, 1.0)], x])
    return QuantileTable(np.repeat(cum, 2)[1:-1], np.repeat(nodes[1:], 2))


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

    def test_owns_read_only_nodes_widths_and_centers(self):
        given = np.array([0.0, 0.1, 0.5, 0.75, 1.0])
        g = Grid1D(given)
        given[1] = 0.9  # an aliased grid would read widths [0.9, -0.4, 0.25, 0.25]
        assert np.array_equal(g.nodes, [0.0, 0.1, 0.5, 0.75, 1.0])
        for name in ("nodes", "cell_widths", "centers"):
            arr = getattr(g, name)
            assert arr is getattr(g, name), name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert np.array_equal(g.cell_widths, np.diff(g.nodes))
        assert np.array_equal(g.centers, 0.5 * (g.nodes[:-1] + g.nodes[1:]))


class TestFloor:
    @pytest.mark.parametrize("s", [2.0**-10, 16.0, 2.0**10])
    def test_a_dilated_grid_floors_the_same_share_of_the_domain(self, s):
        # a dilation by a power of two scales widths and values exactly, so
        # the floored density on the dilated grid is the unit grid's times
        # s^-2, bit for bit: the floor is a share of the domain, not a density
        rng = np.random.default_rng(7)
        gx, gy = (Grid1D(np.cumsum(np.r_[0.0, rng.uniform(0.2, 2.0, n)])) for n in (5, 4))
        raw = rng.exponential(size=(5, 4))
        raw[rng.random(raw.shape) < 0.5] = 0.0
        areas = np.outer(gx.cell_widths, gy.cell_widths)
        unit = floor_and_normalize(raw, areas)
        assert unit.min() == floor_density(areas) / np.sum(np.maximum(raw, floor_density(areas)) * areas)
        dilated_areas = np.outer(Grid1D(s * gx.nodes).cell_widths, Grid1D(s * gy.nodes).cell_widths)
        assert floor_and_normalize(raw * s**-2, dilated_areas).tobytes() == (unit * s**-2).tobytes()
        widths = Grid1D(s * gx.nodes).cell_widths
        assert floor_and_normalize(raw[:, 0] / s, widths).tobytes() == (
            floor_and_normalize(raw[:, 0], gx.cell_widths) / s
        ).tobytes()


class TestBuildCdf:
    def test_two_equal_cells(self):
        d = uniform_density(2)
        assert np.allclose(density_table(d).probs, [0.0, 0.5, 1.0])

    def test_single_cell(self):
        d = uniform_density(1)
        assert np.allclose(density_table(d).probs, [0.0, 1.0])

    def test_linear_density_prefix_sums(self):
        # f(x) = 2x on [0,1], 4 cells, midpoint masses 1/16, 3/16, 5/16, 7/16
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity1D.from_values(g, 2.0 * g.centers)
        table = density_table(d)
        assert np.allclose(table.probs, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0], atol=1e-12)
        assert np.array_equal(table.values[0], g.nodes)

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

    def test_negative_values_rejected_not_floored(self):
        # the floor lifts zeros to a positive mass; a negative cell is an input error
        g = Grid1D.uniform(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDensity1D.from_values(g, np.array([-5.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDensity2D.from_values(g, g, np.array([[-5.0, 1.0], [1.0, 1.0]]))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_from_density_matches_the_prefix_sum_table(self, seed, n):
        rng = np.random.default_rng(seed)
        g = Grid1D(np.cumsum(np.r_[rng.uniform(-1.0, 1.0), rng.uniform(0.01, 1.0, n)]))
        d = DiscreteDensity1D.from_values(g, rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7))
        table, legacy = density_table(d), _legacy_density_table(d)
        assert np.array_equal(table.probs, legacy.probs) and np.array_equal(table.values, legacy.values)


class TestQuantile:
    def test_left_continuity_at_atom(self):
        table = atom_table(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert table(0.5) == 0.0
        assert table(0.500001) == 1.0
        assert table(1.0) == 1.0

    @given(atoms(), st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None, phases=_NO_EXPLAIN)
    def test_step_quantile_matches_searchsorted_bit_for_bit(self, case, levels):
        table = atom_table(*case)
        cum = _atom_levels(*case)[1]
        for t in (np.array(levels), cum[cum > 0]):
            assert np.array_equal(table(t), _searchsorted_step_quantile(*case, t))

    @given(atoms())
    @example((np.array([3.0, -1.0, 2.0]), np.array([0.0, 1e-16, 0.5])))
    @settings(max_examples=100, deadline=None, phases=_NO_EXPLAIN)
    def test_from_atoms_matches_the_sentinel_step_table(self, case):
        table, legacy = atom_table(*case), _legacy_atom_table(*case)
        assert np.array_equal(table.probs, legacy.probs) and np.array_equal(table.values, legacy.values)

    @pytest.mark.parametrize(
        "x, m",
        [
            ([0.0, 1.0], [0.2, 0.3, 0.5]),
            ([0.0, 1.0, 2.0], [0.5, 0.5]),
            ([[0.0, 1.0]], [[0.5, 0.5]]),
            (0.0, 1.0),
        ],
    )
    def test_from_atoms_rejects_mismatched_shapes(self, x, m):
        with pytest.raises(ValueError, match="one length"):
            atom_table(np.array(x), np.array(m))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_from_atoms_rejects_non_finite_atoms(self, bad):
        with pytest.raises(ValueError, match="finite"):
            atom_table(np.array([0.0, bad]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            atom_table(np.array([0.0, 1.0]), np.array([0.5, bad]))

    def test_from_atoms_normalizes_by_its_own_cumulative_total(self):
        # the pairwise total of these masses rounds below their cumulative
        # sum, so dividing the cumsum by it would push cum[-2] above 1
        x = np.arange(9.0)
        head = [0.36, 0.76, 0.03, 0.45, 0.37, 0.48, 0.13, 0.22]
        for last in (0.0, 1e-16):
            probs = atom_table(x, np.array(head + [last])).probs[0]
            assert np.all(np.diff(probs) >= 0) and probs[-1] == 1.0

    def test_identity_on_uniform(self):
        table = density_table(uniform_density(8))
        assert table(0.25) == pytest.approx(0.25, abs=1e-14)

    def test_sqrt_inverse_of_linear_density(self):
        # F(x) = x^2 in the continuum, so F^{-1}(1/4) = 1/2; exact on this grid
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity1D.from_values(g, 2.0 * g.centers)
        table = density_table(d)
        assert table(0.25) == pytest.approx(0.5, abs=0.05)
        assert table(0.5625) == pytest.approx(0.75, abs=0.05)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0000001, np.nan])
    def test_domain_errors(self, t):
        table = density_table(uniform_density(4))
        with pytest.raises(ValueError):
            table(t)

    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_in_t(self, levels):
        g = Grid1D.uniform(0.0, 1.0, 6)
        rng = np.random.default_rng(0)
        d = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 6))
        t = np.sort(np.asarray(levels))
        q = density_table(d)(t)
        assert np.all(np.diff(q) >= -1e-14)

    def test_round_trip_within_two_cells(self):
        rng = np.random.default_rng(1)
        g = Grid1D.uniform(-1.0, 2.0, 16)
        d = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 16))
        table = density_table(d)
        xs = np.linspace(-0.9, 1.9, 37)
        ts = np.clip(density_cdf(d, xs), 1e-12, 1.0)
        back = table(ts)
        assert np.max(np.abs(back - xs)) <= 2 * g.cell_widths.max() + 1e-12

    def test_quantile_table_slope_is_inverse_density(self):
        g = Grid1D.uniform(0.0, 1.0, 4)
        d = DiscreteDensity1D.from_values(g, np.array([0.5, 1.5, 1.0, 1.0]))
        table = density_table(d)
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

    def test_levels_need_one_row_per_table_row(self):
        probs = np.array([[0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.0, 1.0, 1.0]])
        table = QuantileTable(probs, np.array([[0.0, 1.0, 2.0]] * 3))
        with pytest.raises(ValueError):
            table(np.array([0.5, 0.5]))  # one level for a three-row table


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tables_rejected(self, bad):
        # NaN compares false, so it would slip past the order checks
        with pytest.raises(ValueError, match="finite"):
            QuantileTable([0.0, bad, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="finite"):
            QuantileTable([0.0, 0.5, 1.0], [0.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            QuantileTable([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], [[0.0, 0.5, 1.0], [0.0, abs(bad), abs(bad)]])


@st.composite
def ramp_table(draw, n_rows, n_knots):
    """Rows as the program makes them: floored densities, whose tails crowd
    knots near 0 and 1, with empty cells (repeated probs) and flat steps in
    values; and, on an even knot count, `from_atoms` rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs, values = [], []
    for _ in range(n_rows):
        if n_knots % 2 == 0 and draw(st.booleans()):
            masses = rng.random(n_knots // 2) * (rng.random(n_knots // 2) < 0.8)
            masses[0] += 1e-3
            row = QuantileTable.from_atoms(np.cumsum(rng.random(n_knots // 2) + 0.1), masses)
            probs.append(row.probs[0])
            values.append(row.values[0])
            continue
        masses = rng.random(n_knots - 1) * (rng.random(n_knots - 1) < draw(st.sampled_from([0.5, 1.0])))
        tail = draw(st.integers(0, (n_knots - 1) // 2))
        masses[:tail] = masses[masses.size - tail:] = EPS_FLOOR
        masses[masses.size // 2] += 1.0
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        probs.append(cum / cum[-1])
        steps = rng.random(n_knots - 1) * (rng.random(n_knots - 1) < draw(st.sampled_from([0.7, 1.0])))
        values.append(rng.normal() + np.concatenate([[0.0], np.cumsum(steps)]))
    return QuantileTable(np.array(probs), np.array(values))


def _knot_levels(table, rng, size):
    """Levels that sit on a knot of their row, or one ulp to either side of it."""
    rows = np.arange(table.probs.shape[0])[:, None]
    knots = table.probs[rows, rng.integers(1, table.probs.shape[1], size=size)]
    side = rng.integers(-1, 2, size=size)
    t = np.where(side < 0, np.nextafter(knots, 0.0), np.where(side > 0, np.nextafter(knots, 2.0), knots))
    return np.clip(t, 5e-324, 1.0)


class TestRampCache:
    @given(st.data(), st.integers(1, 4), st.integers(2, 300), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_cached_calls_equal_fresh_calls_bit_for_bit(self, data, n_rows, n_knots, n_levels):
        tables = [data.draw(ramp_table(n_rows, n_knots)), data.draw(ramp_table(n_rows, n_knots))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table, cache = tables[0], RampCache()
        t = 1.0 - rng.random((n_rows, n_levels))
        steps = st.sampled_from(["same", "nudge", "redraw", "knots", "one", "tiny", "other_shape", "other_table"])
        for step in data.draw(st.lists(steps, min_size=1, max_size=12)):
            some = rng.random(t.shape) < 0.3
            if step == "nudge":  # onto an end of the level's own ramp, or one ulp to either side
                idx = np.stack([table.probs[s].searchsorted(t[s]) for s in range(n_rows)])
                idx -= rng.integers(0, 2, size=idx.shape) * (idx > 1)
                knots = np.take_along_axis(table.probs, idx, axis=1)
                toward = rng.choice([0.0, 2.0, np.nan], size=t.shape)
                nudged = np.where(np.isnan(toward), knots, np.nextafter(knots, toward))
                t = np.where(some, np.clip(nudged, 5e-324, 1.0), t)
            elif step == "redraw":
                t = 1.0 - rng.random(t.shape)
            elif step == "knots":
                t = np.where(some, _knot_levels(table, rng, t.shape), t)
            elif step in ("one", "tiny"):
                t = np.where(some, 1.0 if step == "one" else 1e-15, t)
            elif step == "other_shape":
                t = 1.0 - rng.random((n_rows, int(rng.integers(1, 41))))
            elif step == "other_table":
                table = tables[1] if table is tables[0] else tables[0]
            levels = t[0] if n_rows == 1 and t.shape[1] % 2 else t  # a one-row table takes any shape
            val, slope = table.value_and_slope(levels, cache)
            fresh_val, fresh_slope = table.value_and_slope(levels)
            assert val.tobytes() == fresh_val.tobytes() and slope.tobytes() == fresh_slope.tobytes(), step
            assert val.shape == fresh_val.shape == slope.shape == np.shape(levels)

    def test_cached_slopes_are_read_only(self):
        # the slopes a cached call returns are the cache's own; writing into them raises
        table = QuantileTable([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0]])
        cache = RampCache()
        for levels in ([[0.2, 0.7], [0.2, 0.7]], [[0.3, 0.6], [0.3, 0.4]], [[0.3, 0.6], [0.3, 0.45]]):
            _, slope = table.value_and_slope(np.array(levels), cache)  # bind, one row moved, none moved
            with pytest.raises(ValueError, match="read-only"):
                slope[0, 0] = 0.0
            assert np.array_equal(slope, table.value_and_slope(np.array(levels))[1])
        _, own = table.value_and_slope(np.array([[0.2, 0.7], [0.2, 0.7]]))
        own[0, 0] = 0.0  # without a cache the slopes are the caller's

    def test_kept_rows_read_the_cache(self):
        # a row whose levels keep their brackets is neither searched nor
        # gathered again; a row with a moved level is
        table = QuantileTable([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        cache = RampCache()
        table.value_and_slope(np.array([[0.2, 0.7], [0.2, 0.7]]), cache)
        cache.v0 += 10.0
        val, _ = table.value_and_slope(np.array([[0.3, 0.6], [0.3, 0.4]]), cache)
        assert np.array_equal(val, [[10.6, 11.2], [0.6, 0.8]])
        assert np.array_equal(cache.v0, [[10.0, 11.0], [0.0, 0.0]])


class TestW2:
    def test_identical_marginals(self):
        table = density_table(uniform_density(5))
        assert w2_squared_1d(table, table) == 0.0

    def test_uniforms_on_unaligned_grids(self):
        # U(0,1) on 3 cells vs U(-1,3) on 5: the quantile difference is
        # 1 - 3u, whose square integrates to exactly 1; the pieces' value
        # differences alone would give less
        a = uniform_density(3)
        b = uniform_density(5, -1.0, 3.0)
        assert abs(w2_squared_1d(density_table(a), density_table(b)) - 1.0) <= 1e-14

    def test_point_masses(self):
        q0 = atom_table(np.array([0.0]), np.array([1.0]))
        q1 = atom_table(np.array([1.0]), np.array([1.0]))
        assert w2_squared_1d(q0, q1) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_atom_shift_against_lp(self):
        # uniform atoms {0,1,2} vs {1,2,3}: LP oracle gives cost 1
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 3.0])
        m = np.full(3, 1 / 3)
        lp = solve_lp(TransportInstance(m, m, (x[:, None] - y[None, :]) ** 2))
        assert lp.objective == pytest.approx(1.0, abs=1e-12)
        w2 = w2_squared_1d(atom_table(x, m), atom_table(y, m))
        assert w2 == pytest.approx(lp.objective, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D.uniform(0.0, 1.0, 6)
        a = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 6))
        b = DiscreteDensity1D.from_values(g, rng.uniform(0.05, 1.0, 6))
        qa, qb = density_table(a), density_table(b)
        w_ab = w2_squared_1d(qa, qb)
        w_ba = w2_squared_1d(qb, qa)
        assert w_ab >= 0.0
        assert w_ab == pytest.approx(w_ba, rel=1e-12, abs=1e-15)

    def test_zero_iff_equal_on_grid(self):
        g = Grid1D.uniform(0.0, 1.0, 6)
        rng = np.random.default_rng(3)
        a = DiscreteDensity1D.from_values(g, rng.uniform(0.1, 1.0, 6))
        b = DiscreteDensity1D.from_values(g, a.values + 0.2 * rng.uniform(0.1, 1.0, 6))
        assert w2_squared_1d(density_table(a), density_table(a)) == 0.0
        assert w2_squared_1d(density_table(a), density_table(b)) > 1e-8

    def test_unaligned_atoms_converge_like_inverse_quadrature(self):
        # atoms {0,1} w (1/3,2/3) vs {0.5,2} w (0.6,0.4): exact value 0.55,
        # with one quantile jump at a level no lattice k/n hits
        F = atom_table(np.array([0.0, 1.0]), np.array([1 / 3, 2 / 3]))
        G = atom_table(np.array([0.5, 2.0]), np.array([0.6, 0.4]))
        lp = solve_lp(
            TransportInstance(
                np.array([1 / 3, 2 / 3]),
                np.array([0.6, 0.4]),
                (np.array([0.0, 1.0])[:, None] - np.array([0.5, 2.0])[None, :]) ** 2,
            )
        )
        assert lp.objective == pytest.approx(0.55, abs=1e-12)
        assert abs(w2_squared_1d(F, G) - 0.55) <= 1e-14

    @given(atoms(), atoms())
    @example((np.array([0.0, 1.0]), np.array([5e-324, 0.8])), (np.array([0.5]), np.array([1.0])))
    @settings(max_examples=100, deadline=None, phases=_NO_EXPLAIN)
    def test_exact_on_unaligned_atoms(self, xa, yb):
        (x, a), (y, b) = xa, yb
        F, G = atom_table(x, a), atom_table(y, b)
        w2 = w2_squared_1d(F, G)
        assert w2 == w2_squared_1d(G, F)
        como = comonotone_plan_1d(x, a / a.sum(), y, b / b.sum())
        assert abs(w2 - como.objective) <= 1e-12

    def test_needs_one_row_tables(self):
        one = density_table(uniform_density(2))
        two = QuantileTable(np.array([[0.0, 0.5, 1.0]] * 2), np.array([[0.0, 0.5, 1.0]] * 2))
        for qf, qg in ((one, two), (two, one)):
            with pytest.raises(ValueError, match="one-row"):
                w2_squared_1d(qf, qg)


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
