import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import density_1d_from_function, make_smooth_feasible_coupling, product_density_2d, shift_pair
from planar_mk import optimizer, variational
from planar_mk.coupling import FEAS_TOL, FeasibilityError
from planar_mk.instances import (
    density_2d_from_function,
    gaussian_2d,
    shifted_density_2d,
    smooth_random_density_2d,
)
from planar_mk.measures import (
    EPS_FLOOR,
    DiscreteDensity1D,
    DiscreteDensity2D,
    Grid1D,
    RampCache,
    floor_density,
    marginals_2d,
)
from planar_mk.optimizer import (
    IPFPConvergenceError,
    NoDescentError,
    SolverConfig,
    ipfp_project,
    project_zero_marginals,
    solve,
)
from planar_mk.reduction import conditional_quantile_field


def feasible_direction(
    shape: tuple[int, int],
    a: int,
    a1: int,
    b: int,
    b1: int,
    cell_areas: np.ndarray | None = None,
) -> np.ndarray:
    """Four-cell bump direction: +1 at (a,b),(a1,b1), -1 at (a1,b),(a,b1).

    Row and column sums vanish identically. With cell_areas given, the
    pattern is divided by the areas so the zero sums hold in mass terms on
    nonuniform grids as well (identical on unit-cell grids). Raises for a
    degenerate rectangle and for an index outside the grid.
    """
    if a == a1 or b == b1:
        raise ValueError("degenerate rectangle: need a != a1 and b != b1")
    if not (0 <= a < shape[0] and 0 <= a1 < shape[0] and 0 <= b < shape[1] and 0 <= b1 < shape[1]):
        raise ValueError(f"bump indices ({a}, {a1}, {b}, {b1}) lie outside the {shape} grid")
    d = np.zeros(shape)
    d[a, b] = 1.0
    d[a1, b1] = 1.0
    d[a1, b] = -1.0
    d[a, b1] = -1.0
    if cell_areas is not None:
        d = d / cell_areas
    return d


def unit_marginal(values):
    g = Grid1D.uniform(0.0, float(len(values)), len(values))
    return DiscreteDensity1D(g, np.asarray(values, dtype=float))


def reference_ipfp_values(raw, f1, f2, max_iters=10_000, tol=1e-13):
    """The IPFP sweep with three products per sweep that `ipfp_project` replaced.

    Its floor rule is written out: the input is floored at EPS_FLOOR times
    the density EPS_FLOOR over the domain's area, a mass of 1e-20 in all,
    and the scaled output is returned with no floor. Returns the values and
    the sweeps run.
    """
    areas = np.outer(f1.grid.cell_widths, f2.grid.cell_widths)
    row_target, col_target = f1.cell_masses, f2.cell_masses

    def residual(v):
        rows = float(np.sum(np.abs((v * areas).sum(axis=1) - row_target)))
        return max(rows, float(np.sum(np.abs((v * areas).sum(axis=0) - col_target))))

    v = np.maximum(np.asarray(raw, dtype=float), EPS_FLOOR * EPS_FLOOR / np.sum(areas))
    err, sweeps = residual(v), 0
    while not err < tol:
        if sweeps == max_iters:
            raise IPFPConvergenceError(f"IPFP residual {err:.3e} after {max_iters} iterations")
        v = v * (row_target / (v * areas).sum(axis=1))[:, None]
        v = v * (col_target / (v * areas).sum(axis=0))[None, :]
        err, sweeps = residual(v), sweeps + 1
    return v, sweeps


def dilate(d, s):
    """The density d on its grids dilated by s about the origin, with the same cell masses."""
    return DiscreteDensity2D(Grid1D(s * d.grid_x.nodes), Grid1D(s * d.grid_y.nodes), d.values * s**-2)


def random_marginals(rng, seed):
    """x- and y-marginals of smooth densities on random nonuniform grids."""
    nx, ny = rng.integers(2, 20, size=2)
    gx = Grid1D(np.cumsum(np.r_[rng.uniform(-1, 1), rng.uniform(0.2, 2.0, nx)]))
    gy = Grid1D(np.cumsum(np.r_[rng.uniform(-1, 1), rng.uniform(0.2, 2.0, ny)]))
    return (
        marginals_2d(smooth_random_density_2d(gx, gy, seed=seed))[0],
        marginals_2d(smooth_random_density_2d(gx, gy, seed=seed + 1))[1],
    )


def assert_matches_matrix_form(got, expected, f1, f2, label=None):
    """Equal to the matrix form to 1e-13 relative, nonnegative and through the gate."""
    assert np.max(np.abs(got - expected) / expected) <= 1e-13, label
    assert_gate_and_nonnegative(got, f1, f2, label)


def assert_gate_and_nonnegative(values, f1, f2, label=None):
    areas = np.outer(f1.grid.cell_widths, f2.grid.cell_widths)
    assert optimizer._marginal_residual(values * areas, f1.cell_masses, f2.cell_masses) < optimizer._IPFP_TOL, label
    assert np.min(values) >= 0.0, label


class TestIpfpMatchesMatrixForm:
    """The scaling-vector IPFP against the matrix-form sweep it replaced.

    The summation order differs, so agreement is to 1e-13 relative per cell
    (about 7e-15 observed), not bit for bit; the sweep counts are the same.
    """

    def test_random_positive_inputs_on_nonuniform_grids(self):
        rng = np.random.default_rng(41)
        for seed in range(30):
            f1, f2 = random_marginals(rng, 10 * seed)
            raw = np.exp(rng.uniform(-3.0, 3.0, size=(f1.values.size, f2.values.size)))
            expected, sweeps = reference_ipfp_values(raw, f1, f2)
            assert sweeps > 0
            assert_matches_matrix_form(ipfp_project(raw, f1, f2).values, expected, f1, f2, seed)

    def test_sparse_inputs_are_floored_then_scaled(self):
        # zeros are floored at the input floor, and scaling a row down
        # shaves its floored cells below it: they are returned as scaled
        for seed in range(8):
            rng = np.random.default_rng(seed)
            f1, f2 = random_marginals(rng, seed)
            raw = np.exp(rng.uniform(-3.0, 3.0, size=(f1.values.size, f2.values.size)))
            raw[rng.random(raw.shape) < 0.5] = 0.0
            expected, _ = reference_ipfp_values(raw, f1, f2)
            got = ipfp_project(raw, f1, f2).values
            areas = np.outer(f1.grid.cell_widths, f2.grid.cell_widths)
            assert np.min(got) < EPS_FLOOR * floor_density(areas), seed
            assert_matches_matrix_form(got, expected, f1, f2, seed)

    @pytest.mark.parametrize("case", [(3, 1, 1), (6, 2, 2)], ids=["shift3_11", "shift6_22"])
    def test_floor_tight_inputs_skip_the_refloor_loop(self, case):
        # a column of these pairs holds exactly the density floor's mass,
        # which scaling cannot keep; with no re-floor loop left to skip,
        # the projection passes the gate anyway
        f, f_tilde = shift_pair(*case, 8)
        f1, f2 = f.marginals[0], f_tilde.marginals[1]
        rng = np.random.default_rng(5)
        for trial in range(5):
            raw = np.outer(f1.values, f2.values) * np.exp(rng.uniform(-1.0, 1.0, size=(8, 8)))
            expected, sweeps = reference_ipfp_values(raw, f1, f2)
            assert sweeps > 0, trial
            got = ipfp_project(raw, f1, f2).values  # through the coupling check
            assert_matches_matrix_form(got, expected, f1, f2, trial)

    def test_raises_at_the_same_sweep_budget(self, monkeypatch):
        rng = np.random.default_rng(43)
        f1, f2 = random_marginals(rng, 7)
        raw = np.exp(rng.uniform(-3.0, 3.0, size=(f1.values.size, f2.values.size)))
        _, needed = reference_ipfp_values(raw, f1, f2)
        for budget in (0, 1, needed - 1):
            monkeypatch.setattr(optimizer, "_IPFP_SWEEPS", budget)
            with pytest.raises(IPFPConvergenceError) as ref_exc:
                reference_ipfp_values(raw, f1, f2, max_iters=budget)
            with pytest.raises(IPFPConvergenceError) as exc:
                ipfp_project(raw, f1, f2)
            assert str(exc.value) == str(ref_exc.value)
        monkeypatch.setattr(optimizer, "_IPFP_SWEEPS", needed)
        expected, _ = reference_ipfp_values(raw, f1, f2, max_iters=needed)
        assert_matches_matrix_form(ipfp_project(raw, f1, f2).values, expected, f1, f2)


@st.composite
def ipfp_problem(draw, zeros):
    """A raw array on two random nonuniform grids, and marginals it can be scaled onto.

    With zeros, a drawn mask zeroes cells of the raw array outside its first
    row and column, so the support links every row to every column. The
    marginals are those of a second array with the same zero pattern, so a
    coupling on that support exists. Where none exists ([[1, 0], [0, 0]]
    against uniform marginals), only the floored cells can move mass and
    IPFP crawls.
    """
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    grids = [
        Grid1D(np.cumsum(np.r_[draw(st.floats(-1.0, 1.0)), draw(arrays(np.float64, n, elements=st.floats(0.2, 2.0)))]))
        for n in shape
    ]
    raw, plan = (np.exp(draw(arrays(np.float64, shape, elements=st.floats(-3.0, 3.0)))) for _ in range(2))
    if zeros:
        zero = draw(arrays(np.bool_, shape))
        zero[0, :] = zero[:, 0] = False
        raw[zero] = plan[zero] = 0.0
    masses = plan * np.outer(grids[0].cell_widths, grids[1].cell_widths)
    f1, f2 = (
        DiscreteDensity1D.from_values(g, masses.sum(axis=1 - axis) / g.cell_widths)
        for axis, g in enumerate(grids)
    )
    return raw, f1, f2


@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "half_zero"])
class TestIpfpProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_output_passes_the_gate_and_is_nonnegative(self, zeros, data):
        raw, f1, f2 = data.draw(ipfp_problem(zeros))
        assert_gate_and_nonnegative(ipfp_project(raw, f1, f2).values, f1, f2)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_returned_masses_and_residual_are_the_values(self, zeros, data):
        # the descent reads the masses and residual IPFP returns instead of rebuilding them
        raw, f1, f2 = data.draw(ipfp_problem(zeros))
        areas = np.outer(f1.grid.cell_widths, f2.grid.cell_widths)
        targets = f1.cell_masses, f2.cell_masses
        values, masses, residual = optimizer._ipfp_core(raw, areas, *targets)
        assert masses.tobytes() == (values * areas).tobytes()
        assert residual == optimizer._marginal_residual(values * areas, *targets)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_feasible_input_is_returned_bit_for_bit(self, zeros, data):
        raw, f1, f2 = data.draw(ipfp_problem(zeros))
        p = ipfp_project(raw, f1, f2)
        assert np.array_equal(ipfp_project(p.values, f1, f2).values, p.values)


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

    def test_nonconvergence_reported(self, monkeypatch):
        t1 = unit_marginal([0.9, 0.1])
        t2 = unit_marginal([0.1, 0.9])
        skewed = np.array([[1e3, 1e-6], [1e-6, 1e3]])
        monkeypatch.setattr(optimizer, "_IPFP_SWEEPS", 1)
        monkeypatch.setattr(optimizer, "_IPFP_TOL", 1e-15)
        with pytest.raises(IPFPConvergenceError):
            ipfp_project(skewed, t1, t2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
    def test_bad_raw_values_are_refused_before_any_sweep(self, monkeypatch, bad):
        # the floor would hide a negative entry, and a NaN or an infinity
        # would sweep to the cap: each is refused before IPFP starts
        def no_sweeps(*args):
            raise AssertionError("IPFP ran on bad input")

        monkeypatch.setattr(optimizer, "_ipfp_core", no_sweeps)
        f1, f2 = random_marginals(np.random.default_rng(3), 3)
        raw = np.outer(f1.values, f2.values)
        raw[1, 0] = bad
        with pytest.raises(ValueError, match="IPFP input values must be finite and nonnegative"):
            ipfp_project(raw, f1, f2)

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

    @pytest.mark.parametrize("s", [2.0**-10, 16.0, 2.0**10])
    def test_a_dilated_floor_tight_pair_gets_the_same_cell_masses(self, s):
        # compare8's shift3_11, a pair with a column at the density floor's
        # mass, and the same pair on grids dilated by a power of two: the
        # input floor and the values scale by s^-2 exactly, the cell masses
        # not at all
        f, f_tilde = shift_pair(3, 1, 1, 8)
        raw = np.outer(f.marginals[0].values, f_tilde.marginals[1].values)
        raw *= np.exp(np.random.default_rng(5).uniform(-1.0, 1.0, size=raw.shape))
        masses = []
        for scale, (d, dt) in ((1.0, (f, f_tilde)), (s, (dilate(f, s), dilate(f_tilde, s)))):
            f1, f2 = d.marginals[0], dt.marginals[1]
            masses.append(ipfp_project(raw * scale**-2, f1, f2).cell_masses)
        assert masses[0].tobytes() == masses[1].tobytes()

    def test_every_descent_projection_passes_the_gate(self, monkeypatch):
        # compare8's shift3_11: a column holds exactly the density floor's
        # mass, which scaling cannot keep. Every projection of its descent
        # passes the _IPFP_TOL gate all the same, nonnegative, and returns
        # the masses and residual of its values, bit for bit
        returned = []
        core = optimizer._ipfp_core

        def spy(*args):
            out = core(*args)
            returned.append((out, *args[1:]))
            return out

        monkeypatch.setattr(optimizer, "_ipfp_core", spy)
        solve(*shift_pair(3, 1, 1, 8), SolverConfig())
        assert returned
        for (values, masses, residual), areas, row_target, col_target in returned:
            err = optimizer._marginal_residual(values * areas, row_target, col_target)
            assert err < optimizer._IPFP_TOL
            assert np.min(values) >= 0.0
            assert masses.tobytes() == (values * areas).tobytes()
            assert residual == err


class TestFeasibleDirection:
    def test_two_by_two_pattern(self):
        d = feasible_direction((2, 2), 0, 1, 0, 1)
        assert np.array_equal(d, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ValueError):
            feasible_direction((3, 3), 1, 1, 0, 2)

    @pytest.mark.parametrize("a, a1, b, b1", [(2, -1, 0, 1), (0, 1, -3, 2), (0, 3, 0, 1), (0, 1, 1, 3)])
    def test_indices_outside_the_grid_rejected(self, a, a1, b, b1):
        # -1 would wrap to row 2 and stack both rows of the bump there
        with pytest.raises(ValueError, match="outside"):
            feasible_direction((3, 3), a, a1, b, b1)

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
        uniform = (np.full(5, 0.2), np.full(5, 0.2))
        nonuniform = (np.diff(np.sort(rng.uniform(0, 1, 6))), np.diff(np.sort(rng.uniform(0, 3, 6))))
        for wx, wy in (uniform, nonuniform):
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
        from planar_mk.measures import per_axis_w2_sum

        grid = Grid1D.uniform(0.0, 1.0, 8)
        u1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.4) ** 2) / 0.09))
        u2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.35) ** 2) / 0.08))
        v1 = density_1d_from_function(grid, lambda x: np.exp(-((x - 0.55) ** 2) / 0.07))
        v2 = density_1d_from_function(grid, lambda y: np.exp(-((y - 0.6) ** 2) / 0.1))
        f = product_density_2d(u1, u2)
        ft = product_density_2d(v1, v2)
        report = solve(f, ft, SolverConfig(max_iters=2000))
        assert report.L_final == pytest.approx(per_axis_w2_sum(f, ft), rel=0.02)

    def test_trace_monotone_and_iterates_feasible(self):
        g = Grid1D.uniform(0.0, 1.0, 6)
        f = smooth_random_density_2d(g, g, seed=61)
        ft = smooth_random_density_2d(g, g, seed=62)
        report = solve(f, ft, SolverConfig(max_iters=500))
        assert np.all(np.diff(report.L_trace) <= 0.0)
        assert report.max_marginal_error < 1e-9
        assert report.termination_reason in ("grad_tol", "max_iters", "stalled")

    def test_deterministic(self):
        # the instance's densities come from seeds; solve itself draws no random numbers
        g = Grid1D.uniform(0.0, 1.0, 5)
        f = smooth_random_density_2d(g, g, seed=71)
        ft = smooth_random_density_2d(g, g, seed=72)
        cfg = SolverConfig(max_iters=200)
        r1 = solve(f, ft, cfg)
        r2 = solve(f, ft, cfg)
        assert np.array_equal(r1.L_trace, r2.L_trace)
        assert np.array_equal(r1.grad_norm_trace, r2.grad_norm_trace)
        assert np.array_equal(r1.p_star.values, r2.p_star.values)

    def test_no_descent_when_line_search_cannot_probe(self, monkeypatch):
        from planar_mk import optimizer

        g = Grid1D.uniform(0.0, 1.0, 4)
        f = smooth_random_density_2d(g, g, seed=91)
        ft = smooth_random_density_2d(g, g, seed=92)
        # a minimum step above the opening step exhausts the search immediately
        monkeypatch.setattr(optimizer, "_MIN_STEP", 2.0 * optimizer._STEP_INIT)
        with pytest.raises(NoDescentError):
            solve(f, ft, SolverConfig(max_iters=10))

    @pytest.mark.parametrize("failing", ["first", "every"])
    def test_a_trial_ipfp_cannot_project_is_rejected(self, monkeypatch, failing):
        # an IPFP failure in a line-search trial halves the step; if no trial
        # of the first iteration projects, the refusal names the IPFP error
        # as its cause
        g = Grid1D.uniform(0.0, 1.0, 6)
        f, ft = smooth_random_density_2d(g, g, seed=1), smooth_random_density_2d(g, g, seed=2)
        calls = []
        original = optimizer._ipfp_core

        def spy(*args):
            calls.append(args)
            if failing == "every" or len(calls) == 1:
                raise IPFPConvergenceError("injected")
            return original(*args)

        monkeypatch.setattr(optimizer, "_ipfp_core", spy)
        if failing == "every":
            with pytest.raises(NoDescentError, match="no decrease at the first iteration") as info:
                solve(f, ft)
            assert isinstance(info.value.__cause__, IPFPConvergenceError)
            return
        report = solve(f, ft)
        assert report.termination_reason == "grad_tol" and report.iterations == 10
        assert report.max_marginal_error <= FEAS_TOL

    def test_a_start_that_takes_no_step_is_p_star(self):
        from planar_mk.variational import evaluate

        # compare8's shift3_11: after no step p* is the raw independent
        # coupling as it stands (feasible to roundoff, with cells below the
        # density floor), and both traces are read at p*
        f, f_tilde = shift_pair(3, 1, 1, 8)
        f1, f2 = f.marginals[0], f_tilde.marginals[1]
        independent = np.outer(f1.values, f2.values)
        assert independent.min() < floor_density(f.cell_areas)
        for config, reason in ((SolverConfig(max_iters=0), "max_iters"), (SolverConfig(grad_tol=1e9), "grad_tol")):
            report = solve(f, f_tilde, config)
            assert report.iterations == 0 and report.termination_reason == reason
            p, at = report.p_star, report.at_p_star
            assert np.array_equal(p.values, independent)
            assert at.L_value == evaluate(f, f_tilde, p).L_value
            assert report.L_trace.tolist() == [at.L_value]
            pg = project_zero_marginals(at.phi + at.psi, f1.grid.cell_widths, f2.grid.cell_widths)
            gnorm = float(np.sqrt((pg**2 * p.cell_areas).sum()))
            assert report.grad_norm_trace.tolist() == ([gnorm] if reason == "grad_tol" else [])

    def test_first_order_condition_and_alternating_sums_at_optimum(self, monkeypatch):
        # deep convergence: at the optimum the variation kernel pairs to ~0
        # with every feasible direction and is additively separable (row +
        # column), so all four-point alternating sums vanish
        from planar_mk.variational import evaluate

        g6 = Grid1D.uniform(0.0, 1.0, 6)
        f = gaussian_2d(g6, g6, rho=0.4)
        monkeypatch.setattr(optimizer, "_STALL_TOL", 1e-15)
        report = solve(f, f, SolverConfig(max_iters=1500, grad_tol=0.0))
        p = report.p_star
        out = evaluate(f, f, p)
        grad = out.phi + out.psi
        areas = p.cell_areas
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

    @pytest.mark.parametrize("n, seeds", [(4, (95, 96)), (5, (61, 62))])
    def test_no_four_cell_bump_lowers_L_at_optimum(self, monkeypatch, n, seeds):
        # derivative-free cross-check of the descent: an exact line search
        # along every four-cell bump, within the room the mass floor leaves,
        # finds no lower objective than p*. L is only piecewise smooth, with
        # concave kinks where a center level crosses a CDF breakpoint, so on
        # some instances a bump does reach a lower basin than the one the
        # descent settles in (5x5 seeds 71/72: 1.7e-7 lower); these two have
        # no such basin.
        from itertools import combinations

        from planar_mk.variational import evaluate

        g = Grid1D.uniform(0.0, 1.0, n)
        f = smooth_random_density_2d(g, g, seed=seeds[0])
        ft = smooth_random_density_2d(g, g, seed=seeds[1])
        monkeypatch.setattr(optimizer, "_STALL_TOL", 1e-15)
        p = solve(f, ft, SolverConfig(max_iters=2000, grad_tol=0.0)).p_star
        areas = p.cell_areas
        L_star = evaluate(f, ft, p).L_value

        def L_at(d, s):
            values = p.values + s * d
            return evaluate(f, ft, DiscreteDensity2D(g, g, values)).L_value

        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        pairs = list(combinations(range(n), 2))
        for a, a1 in pairs:
            for b, b1 in pairs:
                d = feasible_direction((n, n), a, a1, b, b1, cell_areas=areas)
                room = p.values - EPS_FLOOR
                lo, hi = -float(np.min(room[d > 0] / d[d > 0])), float(np.min(room[d < 0] / -d[d < 0]))
                c, e = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
                Lc, Le = L_at(d, c), L_at(d, e)
                for _ in range(60):
                    if Lc < Le:
                        hi, e, Le = e, c, Lc
                        c = hi - invphi * (hi - lo)
                        Lc = L_at(d, c)
                    else:
                        lo, c, Lc = c, e, Le
                        e = lo + invphi * (hi - lo)
                        Le = L_at(d, e)
                assert min(Lc, Le, L_at(d, lo), L_at(d, hi)) > L_star - 1e-12

    def test_direction_check_is_unit_free(self):
        # the direction's marginal sums carry the cell widths' unit: a bound
        # of 1e-10 * max(1, max|pg|) refused this pair on [0, 1e3]^2 and on
        # [0, 1e4]^2 ("descent direction has marginal sums up to ...")
        L = []
        for side in (1e3, 1e4):
            g = Grid1D.uniform(0.0, side, 4)
            f, f_tilde = smooth_random_density_2d(g, g, seed=0), smooth_random_density_2d(g, g, seed=1)
            report = solve(f, f_tilde, SolverConfig(max_iters=300))
            assert report.termination_reason in ("grad_tol", "stalled"), side
            L.append(report.L_final / side**2)
        assert L[1] == pytest.approx(L[0], rel=1e-6)

    def test_perturbed_pair_converges_within_budget(self):
        # criterion 5's 16x16 perturbed pair: floor clipping used to stall the
        # descent at the iteration cap; the multiplicative step keeps p off
        # the floor and stops on its own
        f_base, f_pert, _ = named_instance("perturbed16")
        report = solve(f_base, f_pert, SolverConfig(max_iters=200, grad_tol=1e-7))
        assert report.termination_reason in ("grad_tol", "stalled")
        assert np.min(report.p_star.values) >= EPS_FLOOR

    def test_each_descent_point_evaluated_once(self, monkeypatch):
        # the accepted line-search trial's pass carries the descent on, so no
        # masses array reaches the objective twice
        from planar_mk import optimizer

        seen = []
        original = optimizer.objective_pass

        def recording(field_f, field_ft, masses, grid_x, grid_y, caches=(None, None)):
            seen.append(masses.tobytes())
            return original(field_f, field_ft, masses, grid_x, grid_y, caches)

        monkeypatch.setattr(optimizer, "objective_pass", recording)
        g6 = Grid1D.uniform(0.0, 1.0, 6)
        f = gaussian_2d(g6, g6, rho=0.4)
        ft = smooth_random_density_2d(g6, g6, seed=93)
        monkeypatch.setattr(optimizer, "_STALL_TOL", 0.0)
        report = solve(f, ft, SolverConfig(max_iters=50, grad_tol=1e-12))
        assert report.iterations == 50
        assert len(seen) > report.iterations
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_the_last_pass_is_the_one_at_p_star(self, monkeypatch, max_iters):
        # the residual at p* reuses the descent's pass there: no pass runs
        # after the last accepted trial, and none outside the descent
        from planar_mk import variational

        passes = []
        original = optimizer.objective_pass

        def recording(*args):
            passes.append(original(*args))
            return passes[-1]

        def refused(*args):
            raise AssertionError("a pass outside the descent")

        monkeypatch.setattr(optimizer, "objective_pass", recording)
        monkeypatch.setattr(variational, "objective_pass", refused)
        f, f_tilde, _ = named_instance("pair12_8")
        report = solve(f, f_tilde, SolverConfig(max_iters=max_iters, grad_tol=0.0))
        assert report.iterations == max_iters and report.termination_reason == "max_iters"
        assert passes[-1] is report.at_p_star
        assert report.L_trace[-1] == report.at_p_star.L_value
        if max_iters == 0:
            assert len(passes) == 1

    @pytest.mark.parametrize("name", ["correlated", "two_bump", "perturbed", "shift6_22_side16"])
    def test_start_residual_is_the_independent_coupling_residual(self, name):
        # criterion 5's three pairs and a floor-tight shift pair: the residual
        # at the descent's start is the one at the IPFP-projected independent
        # coupling, bit for bit
        from planar_mk.variational import euler_lagrange_residual

        if name == "shift6_22_side16":
            f, f_tilde = shift_pair(6, 2, 2, 8, 16.0)
        else:
            f, f_tilde, _ = named_instance(f"{name}16")
        f1, f2 = f.marginals[0], f_tilde.marginals[1]
        independent = ipfp_project(np.outer(f1.values, f2.values), f1, f2)
        expected = euler_lagrange_residual(f, f_tilde, independent).interior_l2
        report = solve(f, f_tilde, SolverConfig(max_iters=5))
        assert report.iterations > 0
        assert report.el_residual_start == expected

    def test_unknown_scheme_rejected(self, tmp_path, capsys):
        # the scheme selector is gone; a config file naming it is an unknown key
        from planar_mk.cli import main
        from planar_mk.density_io import write_density_json

        with pytest.raises(TypeError):
            SolverConfig(scheme="newton")
        g = Grid1D.uniform(0.0, 1.0, 3)
        density = tmp_path / "f.json"
        write_density_json(density, smooth_random_density_2d(g, g, seed=97))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scheme": "projected_gradient"}))
        code = main(["solve", "--input-f", str(density), "--input-g", str(density),
                     "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: unknown config keys: ['scheme']")
        # a field error names the file too
        cfg.write_text(json.dumps({"max_iters": -1}))
        code = main(["solve", "--input-f", str(density), "--input-g", str(density),
                     "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: config max_iters must be an integer >= 0, got -1\n"


def named_instance(name):
    """(f, f~, config) of one instance on a uniform unit grid."""
    if name.endswith("16"):  # criterion 5's three pairs with solve16's benchmark config
        g = Grid1D.uniform(0.0, 1.0, 16)
        config = SolverConfig(grad_tol=1e-7, max_iters=4000)
        if name == "correlated16":
            f = gaussian_2d(g, g, rho=0.5)
            return f, f, config
        if name == "two_bump16":
            f = density_2d_from_function(g, g, lambda X, Y: (
                np.exp(-((X - 0.3) ** 2 + (Y - 0.35) ** 2) / 0.04)
                + 0.8 * np.exp(-((X - 0.65) ** 2 + (Y - 0.7) ** 2) / 0.05)
                + 0.5 * np.exp(-((X - 0.5) ** 2 - 0.8 * (X - 0.5) * (Y - 0.5) + (Y - 0.5) ** 2) / 0.08)
            ))
            return f, f, config
        f_base = gaussian_2d(g, g, rho=0.45, sigma=(0.24, 0.22))  # perturbed16
        bump = smooth_random_density_2d(g, g, seed=5, amplitude=0.15)
        f_pert = DiscreteDensity2D.from_values(g, g, f_base.values * bump.values)
        return f_base, f_pert, config
    if name == "pair12_8":
        g = Grid1D.uniform(0.0, 1.0, 8)
        return smooth_random_density_2d(g, g, seed=1), smooth_random_density_2d(g, g, seed=2), SolverConfig()
    return (*shift_pair(3, 1, 1, 8), SolverConfig())  # compare8's shift3_11


class TestReflection:
    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)], ids=["x", "y", "xy"])
    @pytest.mark.parametrize("name", ["perturbed16", "pair12_8", "shift3_11"])
    def test_mirrored_pair_gives_the_mirrored_answer(self, name, axes):
        # the quadratic cost is invariant under reflections of the plane, so
        # mirroring both densities mirrors p* and keeps L and the path.
        # Worst cases measured: |dL|/L 3.0e-14 (perturbed16, y) and
        # max|dp*|/max p* 4.8e-11 (shift3_11, xy)
        f, f_tilde, config = named_instance(name)

        def mirror(d):
            return DiscreteDensity2D(d.grid_x, d.grid_y, np.flip(d.values, axes))

        plain = solve(f, f_tilde, config)
        mirrored = solve(mirror(f), mirror(f_tilde), config)
        assert mirrored.iterations == plain.iterations
        assert mirrored.L_final == pytest.approx(plain.L_final, rel=1e-13)
        p_back = np.flip(mirrored.p_star.values, axes)
        assert np.max(np.abs(p_back - plain.p_star.values)) <= 2e-10 * np.max(plain.p_star.values)


class TestStackedPass:
    """The descent's one kernel call on both terms, against the two-call pass.

    With `optimizer._descent_field` patched to hand back f's field as it is,
    the descent runs the two-call pass that every other caller runs. Both
    passes sum contiguous slices, so they agree bit for bit, L included; on
    odd n that rests on a BLAS dot whose order does not depend on alignment
    (README), which n = 1 and 3 meet under every OpenBLAS kernel tried.
    """

    @staticmethod
    def two_calls(monkeypatch):
        monkeypatch.setattr(optimizer, "_descent_field", lambda field_f, *rest: field_f)

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_maps_and_kernels_are_the_two_call_bits(self, n, uniform):
        # a sequence of couplings through one pair of caches each, so the
        # cached lookup runs too
        rng = np.random.default_rng(n)
        grids = [
            Grid1D.uniform(0.0, 1.0, n) if uniform else Grid1D(np.cumsum(np.r_[-0.5, rng.uniform(0.2, 2.0, n)]))
            for _ in range(2)
        ]
        f = smooth_random_density_2d(*grids, seed=10 + n)
        f_tilde = smooth_random_density_2d(*grids, seed=20 + n)
        fields = conditional_quantile_field(f, "x"), conditional_quantile_field(f_tilde, "y")
        stacked = variational._descent_field(*fields, *grids)
        assert isinstance(stacked, variational._StackedField)
        assert stacked.probs.tobytes() == np.concatenate([t.probs for t in fields]).tobytes()
        assert stacked.values.tobytes() == np.concatenate([t.values for t in fields]).tobytes()
        assert stacked.centers.shape == (2 * n, n)
        assert (stacked.centers[:n] == grids[1].centers).all() and (stacked.centers[n:] == grids[0].centers).all()
        caches = [(RampCache(), RampCache()), (RampCache(), RampCache())]
        for seed in range(3):
            masses = make_smooth_feasible_coupling(f, f_tilde, seed).cell_masses
            one, two = (
                variational.objective_pass(field, fields[1], masses, *grids, c)
                for field, c in zip((stacked, fields[0]), caches)
            )
            for name in ("g", "h", "phi", "psi"):
                assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), (seed, name)
            assert one.L_value == two.L_value, seed

    @pytest.mark.parametrize("name", ["correlated16", "two_bump16", "perturbed16"])
    def test_criterion_5_pairs_keep_their_descent(self, monkeypatch, name):
        f, f_tilde, config = named_instance(name)
        stacked = solve(f, f_tilde, config)
        self.two_calls(monkeypatch)
        two_calls = solve(f, f_tilde, config)
        assert stacked.iterations == two_calls.iterations
        assert stacked.p_star.values.tobytes() == two_calls.p_star.values.tobytes()
        assert stacked.L_trace.tobytes() == two_calls.L_trace.tobytes()

    @pytest.mark.parametrize("shape", [(6, 5), (92, 92)], ids=["non_square", "square_92"])
    def test_solve_gives_the_two_call_bits(self, monkeypatch, shape):
        grids = [Grid1D.uniform(0.0, 1.0, k) for k in shape]
        f = smooth_random_density_2d(*grids, seed=4)
        f_tilde = smooth_random_density_2d(*grids, seed=5)
        fields = conditional_quantile_field(f, "x"), conditional_quantile_field(f_tilde, "y")
        stacked = variational._descent_field(*fields, *grids)
        assert isinstance(stacked, variational._StackedField) == (shape[0] == shape[1])
        config = SolverConfig(max_iters=3)
        reports = [solve(f, f_tilde, config)]
        self.two_calls(monkeypatch)
        reports.append(solve(f, f_tilde, config))
        assert reports[0].L_trace.tobytes() == reports[1].L_trace.tobytes()
        assert reports[0].p_star.values.tobytes() == reports[1].p_star.values.tobytes()
        for name in ("g", "h", "phi", "psi"):
            assert getattr(reports[0].at_p_star, name).tobytes() == getattr(reports[1].at_p_star, name).tobytes(), name


class TestSolverConfig:
    def test_round_trips_through_json(self, tmp_path):
        cfg = SolverConfig(grad_tol=1e-7, max_iters=300)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = SolverConfig.from_json(str(path))
        assert loaded == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        # names of removed fields are rejected like any other unknown key
        path = tmp_path / "config.json"
        for key, value in (
            ("momentum", 0.9), ("armijo", 1e-4), ("rectangle_passes", 50), ("scheme", "projected_gradient"),
            ("step_init", 1.0), ("min_step", 1e-14), ("stall_tol", -1.0), ("multistart", 0), ("seed", 1.5),
        ):
            path.write_text(json.dumps({"max_iters": 10, key: value}))
            with pytest.raises(ValueError, match="unknown config keys"):
                SolverConfig.from_json(str(path))

    def test_readme_lists_exactly_the_fields(self, tmp_path):
        # the README's "Solver config" table is the user-facing record of the settings
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Solver config\n", 1)[1].split("\n#", 1)[0]
        table = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                name, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
                table[name.strip("`")] = json.loads(default.split()[0].strip("`"))
        assert table == {f.name: f.default for f in dataclasses.fields(SolverConfig)}
        removed = re.findall(r"`(\w+)`", section.split("The removed keys", 1)[1].split("\n\n", 1)[0])
        assert removed
        path = tmp_path / "config.json"
        for key in removed:
            path.write_text(json.dumps({key: 0}))
            with pytest.raises(ValueError, match="unknown config keys"):
                SolverConfig.from_json(str(path))

    @pytest.mark.parametrize(
        "raw",
        [
            {"max_iters": "10"},
            {"max_iters": -1},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"grad_tol": "1e-7"},
            {"grad_tol": float("nan")},
            {"grad_tol": -1e-7},
            {"multistart": 0},
            {"seed": 1.5},
            {"stall_tol": -1.0},
            [],
            [["max_iters", 10]],
        ],
        ids=lambda raw: json.dumps(raw, separators=(",", ":")),
    )
    def test_invalid_config_rejected(self, tmp_path, capsys, raw):
        from planar_mk.cli import main
        from planar_mk.density_io import write_density_json

        if isinstance(raw, dict):
            # a removed field (stall_tol, multistart, seed) is no keyword at all
            fields = {f.name for f in dataclasses.fields(SolverConfig)}
            with pytest.raises(ValueError if set(raw) <= fields else TypeError):
                SolverConfig(**raw)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        g = Grid1D.uniform(0.0, 1.0, 3)
        density = tmp_path / "f.json"
        write_density_json(density, smooth_random_density_2d(g, g, seed=1))
        code = main(["solve", "--input-f", str(density), "--input-g", str(density),
                     "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
