"""Discrete probability densities on rectangular grids, and 1-D laws as quantile tables.

Densities are cell-centered and piecewise constant: a grid of strictly
increasing node coordinates (cell edges) and one nonnegative value per cell.
Every 1-D law is held as a `QuantileTable`, the left-continuous inverse of
its CDF sampled at the CDF's own levels. A density's CDF is piecewise linear
in the nodes, so `QuantileTable.from_density` inverts it exactly ramp by
ramp; `QuantileTable.from_atoms` gives each atom one flat ramp, so one
quantile routine serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Mass floor applied before renormalization so every conditional CDF is
# strictly increasing and invertible: a cell holds at least EPS_FLOOR times
# its share of the domain (`floor_density`).
EPS_FLOOR = 1e-10

# Total-mass validation tolerance.
MASS_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing cell edges; cells are the intervals between them.

    The grid keeps its own read-only copy of the nodes, so that changing the
    caller's array later leaves it alone, and computes its cell widths and
    centers once, read-only too: solver loops read them on every pass.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _read_only(np.array(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        # finite first, so that no inf - inf reaches the difference
        if not (np.isfinite(nodes).all() and (self.cell_widths > 0).all()):
            raise ValueError("grid nodes must be finite and strictly increasing")

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @cached_property
    def cell_widths(self) -> np.ndarray:
        return _read_only(np.diff(self.nodes))

    @cached_property
    def centers(self) -> np.ndarray:
        return _read_only(0.5 * (self.nodes[:-1] + self.nodes[1:]))

    @staticmethod
    def uniform(lo: float, hi: float, n_cells: int) -> "Grid1D":
        if n_cells < 1:
            raise ValueError("need at least one cell")
        return Grid1D(np.linspace(lo, hi, n_cells + 1))


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite")


def floor_density(weights: np.ndarray) -> float:
    """EPS_FLOOR over the cell weights' total: each cell's floor mass is EPS_FLOOR times its share of the domain."""
    return EPS_FLOOR / float(weights.sum())


def floor_and_normalize(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Values clamped to `floor_density` and rescaled to unit total mass under the cell weights.

    Raises ValueError for a weight that is not a normal float: an underflowed or overflowed cell area.
    """
    smallest = float(np.min(weights))
    if not smallest >= np.finfo(float).tiny:
        raise ValueError(f"grid cells are too small: a cell area of {smallest:.3g} is below the smallest normal float")
    if not np.isfinite(np.max(weights)):
        raise ValueError("grid cells are too large: a cell area overflows")
    v = np.asarray(values, dtype=float)
    _check_finite(v)
    if np.any(v < 0):
        raise ValueError("density values must be nonnegative")
    v = np.maximum(v, floor_density(weights))
    total = float(np.sum(v * weights))
    if total <= 0:
        raise ValueError("density has no mass")
    return v / total


@dataclass(frozen=True)
class DiscreteDensity1D:
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per cell")
        _check_finite(values)
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if not abs(self.total_mass() - 1.0) <= MASS_TOL:  # also rejects a NaN mass
            raise ValueError(f"density mass {self.total_mass()} not 1 within {MASS_TOL}")

    def total_mass(self) -> float:
        return float(np.sum(self.values * self.grid.cell_widths))

    @property
    def cell_masses(self) -> np.ndarray:
        return self.values * self.grid.cell_widths

    @staticmethod
    def from_values(grid: Grid1D, raw_values: np.ndarray) -> "DiscreteDensity1D":
        """Ingestion path: floor and renormalize."""
        return DiscreteDensity1D(grid, floor_and_normalize(raw_values, grid.cell_widths))


@dataclass(frozen=True)
class DiscreteDensity2D:
    grid_x: Grid1D
    grid_y: Grid1D
    values: np.ndarray  # (n_x, n_y), row = x cell

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid_x.n_cells, self.grid_y.n_cells):
            raise ValueError("values must be (n_x, n_y)")
        _check_finite(values)
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if not abs(self.total_mass() - 1.0) <= MASS_TOL:  # also rejects a NaN mass
            raise ValueError(f"density mass {self.total_mass()} not 1 within {MASS_TOL}")

    @property
    def cell_areas(self) -> np.ndarray:
        return np.outer(self.grid_x.cell_widths, self.grid_y.cell_widths)

    @property
    def cell_masses(self) -> np.ndarray:
        return self.values * self.cell_areas

    def total_mass(self) -> float:
        return float(np.sum(self.cell_masses))

    @cached_property
    def marginals(self) -> tuple["DiscreteDensity1D", "DiscreteDensity1D"]:
        """`marginals_2d` of this density, taken on first use and kept: its values do not change."""
        return marginals_2d(self)

    @staticmethod
    def from_values(grid_x: Grid1D, grid_y: Grid1D, raw_values: np.ndarray) -> "DiscreteDensity2D":
        with np.errstate(over="ignore"):  # floor_and_normalize refuses an overflowed area
            areas = np.outer(grid_x.cell_widths, grid_y.cell_widths)
        return DiscreteDensity2D(grid_x, grid_y, floor_and_normalize(raw_values, areas))


class RampCache:
    """The ramps a caller's last levels fell on in one table, for `value_and_slope` to reuse.

    Bound to one table and one level shape by the first call that gets it;
    a call on another table or with levels of another shape binds it anew.
    Per level it keeps the bracketing knots lo < t <= hi, the ramp's left
    value v0, rise dv, width hi - lo and slope dv / width, in the layout of
    the levels. A call recomputes them for the rows it searched again only.
    """

    def __init__(self):
        self.table: QuantileTable | None = None
        self.lo = self.hi = self.v0 = self.dv = self.width = self.slope = np.empty(0)


@dataclass(frozen=True)
class QuantileTable:
    """Left-continuous inverse CDFs as one stacked lookup table.

    Row s of probs runs 0 to 1 and row s of values holds the matching
    positions; 1-D probs and values make a one-row table. Evaluation inverts
    each row ramp by ramp, exactly for a CDF that is linear between the
    row's levels. Both arrays must be finite and nondecreasing along rows.
    """

    probs: np.ndarray   # (S, K)
    values: np.ndarray  # (S, K)

    def __post_init__(self):
        # C order once, so that evaluation gathers from the raveled tables
        probs = np.ascontiguousarray(np.atleast_2d(np.asarray(self.probs, dtype=float)))
        values = np.ascontiguousarray(np.atleast_2d(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "values", values)
        if probs.shape != values.shape or probs.ndim != 2 or probs.shape[1] < 2:
            raise ValueError("probs and values must be matching 1-D or 2-D arrays")
        # NaN compares false, so it would pass the order checks below
        if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(values))):
            raise ValueError("probs and values must be finite")
        if np.any(probs[:, 0] != 0.0) or np.any(probs[:, -1] != 1.0) or np.any(np.diff(probs, axis=1) < 0):
            raise ValueError("probs must be nondecreasing from 0 to 1")
        if np.any(np.diff(values, axis=1) < 0):
            raise ValueError("quantile values must be nondecreasing")

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        """Quantiles alone: the first output of `value_and_slope`."""
        return self.value_and_slope(t)[0]

    def value_and_slope(
        self, t: np.ndarray | float, cache: RampCache | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantiles and the exact slopes of the active ramps (dvalue/dprob).

        Row s of the levels t is evaluated in table row s; a one-row table
        takes levels of any shape. The slope is the inverse-function
        derivative 1/F' evaluated at the quantile point; at a level hit
        exactly it is the left ramp's slope, matching the left-continuous
        convention. Raises for levels outside (0, 1].

        A caller that evaluates nearby levels again and again on one table
        may pass the same `RampCache` each time. A row whose levels all keep
        their cached brackets lo < t <= hi then skips its search and its
        gathers: the probs are nondecreasing, so the knot at hi is still the
        first with probs >= t. Only the other rows are searched again.
        Values and slopes are the same bits with or without a cache; without
        one every row counts as moved. With one, the slopes returned are a
        read-only view of the cache's own, which the next call on that cache
        rewrites in its moved rows.
        """
        t_arr = np.asarray(t, dtype=float)
        # a NaN level fails both comparisons
        if t_arr.size and not (t_arr.min() > 0.0 and t_arr.max() <= 1.0):
            raise ValueError("quantile level must lie in (0, 1]")
        n_rows = self.probs.shape[0]
        if n_rows > 1 and (t_arr.ndim == 0 or t_arr.shape[0] != n_rows):
            raise ValueError("levels need one row per table row")
        levels = t_arr.reshape(n_rows, -1)
        bound = cache is not None and cache.table is self and cache.lo.shape == levels.shape
        if bound:
            kept = cache.lo < levels
            kept &= levels <= cache.hi
            moved = (~kept.all(axis=1)).nonzero()[0]
        else:
            moved = range(n_rows)
        if len(moved):
            # first index with probs >= t, so probs[idx-1] < t <= probs[idx]. The
            # method skips np.searchsorted's wrapper. Batched searches were exact
            # but no faster: a stable-argsort merge of levels and knots, and one
            # global searchsorted on row-offset keys. A per-row bucket index with
            # bisection was slower end to end (solve16 +12%, solve64 +9%),
            # because Gaussian tails put 6-21 knots in one bucket. An index kept
            # across calls without the cached gathers gave solve64 only 0.913x
            # and compare8 +2.5%; the cache below keeps the gathers too.
            idx = np.empty((len(moved), levels.shape[1]), dtype=np.intp)
            for k, s in enumerate(moved):
                idx[k] = self.probs[s].searchsorted(levels[s], side="left")
            # gathers from the raveled tables, where row s starts at s * K
            idx += np.multiply(moved, self.probs.shape[1])[:, None]
            probs, values = self.probs.ravel(), self.values.ravel()
            hi, v1 = probs.take(idx), values.take(idx)
            idx -= 1
            lo, v0 = probs.take(idx), values.take(idx)
            del idx
            dv = np.subtract(v1, v0, out=v1)
        if cache is None:
            # every array is this call's own: steps run in place, so few (S, M)
            # temporaries are alive at once on large grids
            width = np.subtract(hi, lo, out=hi)
            slope = dv / width
            frac = np.subtract(levels, lo, out=lo)
        else:
            if len(moved):
                width = hi - lo
                ramps = lo, hi, v0, dv, width, dv / width
                if bound:
                    (cache.lo[moved], cache.hi[moved], cache.v0[moved], cache.dv[moved],
                     cache.width[moved], cache.slope[moved]) = ramps
                else:
                    cache.table = self
                    cache.lo, cache.hi, cache.v0, cache.dv, cache.width, cache.slope = ramps
            v0, dv, width = cache.v0, cache.dv, cache.width
            slope = cache.slope.view()
            slope.flags.writeable = False  # the caller reads the cache's own slopes
            frac = levels - cache.lo
        frac /= width
        frac *= dv
        val = np.add(v0, frac, out=frac)
        return val.reshape(t_arr.shape), slope.reshape(t_arr.shape)

    @staticmethod
    def from_density(d: DiscreteDensity1D) -> "QuantileTable":
        """One-row table of the inverse of d's piecewise-linear CDF, exact at the nodes."""
        cum = np.concatenate([[0.0], np.cumsum(d.cell_masses)])
        cum /= cum[-1]  # kill roundoff: x / x == 1 exactly
        return QuantileTable(cum, d.grid.nodes)

    @staticmethod
    def from_atoms(positions: np.ndarray, masses: np.ndarray) -> "QuantileTable":
        """One-row table of an atomic law's inverse CDF: one flat ramp per atom.

        The k-th atom in position order spans the levels from the mass below
        it to the mass up to and including it, so a level hit exactly returns
        the lower atom (left continuity).
        """
        positions = np.asarray(positions, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if positions.ndim != 1 or masses.shape != positions.shape:
            raise ValueError("atom positions and masses must be 1-D arrays of one length")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(masses))):
            raise ValueError("atom positions and masses must be finite")
        order = np.argsort(positions, kind="stable")
        positions, masses = positions[order], masses[order]
        if np.any(masses < 0):
            raise ValueError("atom masses must be nonnegative")
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        if cum[-1] <= 0:
            raise ValueError("atoms carry no mass")
        cum /= cum[-1]  # by the cumsum's own total: no entry exceeds the last, which is 1
        if np.any(np.diff(positions) <= 0):
            raise ValueError("atom positions must be distinct")
        return QuantileTable(np.repeat(cum, 2)[1:-1], np.repeat(positions, 2))


def w2_squared_1d(qf: QuantileTable, qg: QuantileTable) -> float:
    """Exact squared quantile distance: the integral of (F^{-1} - G^{-1})^2 over (0, 1).

    Both inverses are linear between their table levels (flat for atoms), so
    on each piece of the merged levels, of width du, their difference is
    d + s*(u - m) with d and s the difference of values and of slopes at the
    piece midpoint m. The piece contributes du*(d^2 + s^2*du^2/12) exactly.
    The inverses are read at the piece's upper level, where each
    left-continuous lookup returns the ramp that covers the piece, and d is
    carried back to m along the slopes; so a quantile jump at a merged level
    costs nothing, and repeated levels make no piece. Both tables must have
    one row.
    """
    if qf.probs.shape[0] != 1 or qg.probs.shape[0] != 1:
        raise ValueError("w2_squared_1d needs one-row tables")
    # a sort, not np.unique: numpy 2.4 imports numpy.ma on its first use (about 1 MB RSS)
    knots = np.sort(np.concatenate([qf.probs[0], qg.probs[0]]))
    piece = np.diff(knots) > 0
    hi = knots[1:][piece]  # every hi > 0, while the midpoint of (0, 5e-324] rounds to level 0
    du = hi - knots[:-1][piece]
    fv, fs = qf.value_and_slope(hi)
    gv, gs = qg.value_and_slope(hi)
    s = fs - gs
    d = fv - gv - 0.5 * s * du
    return float(np.sum(du * (d * d + s * s * du * du / 12.0)))


def marginals_2d(d: DiscreteDensity2D) -> tuple[DiscreteDensity1D, DiscreteDensity1D]:
    """Axis marginals as valid 1-D densities (cell-weighted sums).

    Kept for perfbench/workloads.py, which reads it; elsewhere `DiscreteDensity2D.marginals` caches it.
    """
    wx = d.grid_x.cell_widths
    wy = d.grid_y.cell_widths
    fx = d.values @ wy            # density in x
    fy = wx @ d.values            # density in y
    # renormalize away accumulated roundoff (total is 1 within MASS_TOL)
    fx = fx / np.sum(fx * wx)
    fy = fy / np.sum(fy * wy)
    return DiscreteDensity1D(d.grid_x, fx), DiscreteDensity1D(d.grid_y, fy)


def per_axis_w2_sum(f: DiscreteDensity2D, f_tilde: DiscreteDensity2D) -> float:
    """Sum over both axes of the exact squared quantile distance between the marginals."""
    f1, f2 = f.marginals
    g1, g2 = f_tilde.marginals
    q = QuantileTable.from_density
    return w2_squared_1d(q(f1), q(g1)) + w2_squared_1d(q(f2), q(g2))
