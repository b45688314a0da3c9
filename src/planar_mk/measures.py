"""Discrete probability densities on rectangular grids.

Densities are cell-centered and piecewise constant: a grid of strictly
increasing node coordinates (cell edges) and one nonnegative value per cell.
CDFs built from them are piecewise linear in the nodes; their left-continuous
inverses (quantile functions) are evaluated exactly by inverting each linear
ramp. Atomic distributions are supported through step-interpolated CDFs so
the same quantile routine serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Mass floor applied before renormalization so every conditional CDF is
# strictly increasing and invertible.
EPS_FLOOR = 1e-10

# Total-mass validation tolerance.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing cell edges; cells are the intervals between them."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def cell_widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @staticmethod
    def uniform(lo: float, hi: float, n_cells: int) -> "Grid1D":
        if n_cells < 1:
            raise ValueError("need at least one cell")
        return Grid1D(np.linspace(lo, hi, n_cells + 1))


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite")


def floor_and_normalize(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Clamp values to EPS_FLOOR and rescale to unit total mass.

    Returns the corrected values and the absolute mass correction applied
    (|total before final rescale - 1|), recorded in ingestion diagnostics.
    """
    v = np.asarray(values, dtype=float)
    _check_finite(v)
    v = np.maximum(v, EPS_FLOOR)
    total = float(np.sum(v * weights))
    if total <= 0:
        raise ValueError("density has no mass")
    return v / total, abs(total - 1.0)


@dataclass(frozen=True)
class DiscreteDensity1D:
    grid: Grid1D
    values: np.ndarray
    renorm_correction: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per cell")
        _check_finite(values)
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if abs(self.total_mass() - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {self.total_mass()} not 1 within {MASS_TOL}")

    def total_mass(self) -> float:
        return float(np.sum(self.values * self.grid.cell_widths))

    @property
    def cell_masses(self) -> np.ndarray:
        return self.values * self.grid.cell_widths

    @staticmethod
    def from_values(grid: Grid1D, raw_values: np.ndarray) -> "DiscreteDensity1D":
        """Ingestion path: floor, renormalize, record the correction."""
        v, corr = floor_and_normalize(raw_values, grid.cell_widths)
        return DiscreteDensity1D(grid, v, renorm_correction=corr)


@dataclass(frozen=True)
class DiscreteDensity2D:
    grid_x: Grid1D
    grid_y: Grid1D
    values: np.ndarray  # (n_x, n_y), row = x cell
    renorm_correction: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid_x.n_cells, self.grid_y.n_cells):
            raise ValueError("values must be (n_x, n_y)")
        _check_finite(values)
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if abs(self.total_mass() - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {self.total_mass()} not 1 within {MASS_TOL}")

    @property
    def cell_areas(self) -> np.ndarray:
        return np.outer(self.grid_x.cell_widths, self.grid_y.cell_widths)

    @property
    def cell_masses(self) -> np.ndarray:
        return self.values * self.cell_areas

    def total_mass(self) -> float:
        return float(np.sum(self.cell_masses))

    @staticmethod
    def from_values(grid_x: Grid1D, grid_y: Grid1D, raw_values: np.ndarray) -> "DiscreteDensity2D":
        areas = np.outer(grid_x.cell_widths, grid_y.cell_widths)
        v, corr = floor_and_normalize(raw_values, areas)
        return DiscreteDensity2D(grid_x, grid_y, v, renorm_correction=corr)


@dataclass(frozen=True)
class CDF1D:
    """Cumulative distribution sampled at the grid nodes.

    kind='linear': piecewise-linear CDF of a cell-centered density.
    kind='step':   atomic distribution; the mass between node i-1 and node i
                   sits as an atom at node i, so the first node is a sentinel
                   below the support and cum[0] = 0 still holds.
    """

    grid: Grid1D
    cum: np.ndarray
    kind: str = "linear"

    def __post_init__(self):
        cum = np.asarray(self.cum, dtype=float)
        object.__setattr__(self, "cum", cum)
        if self.kind not in ("linear", "step"):
            raise ValueError(f"unknown CDF kind {self.kind!r}")
        if cum.shape != self.grid.nodes.shape:
            raise ValueError("cum must have one entry per node")
        if np.any(np.diff(cum) < 0):
            raise ValueError("cum must be nondecreasing")
        if cum[0] != 0.0 or cum[-1] != 1.0:
            raise ValueError("cum must run exactly from 0 to 1")

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        if self.kind == "step":
            idx = np.searchsorted(self.grid.nodes, x, side="right") - 1
            return self.cum[np.clip(idx, 0, self.cum.size - 1)]
        return np.interp(x, self.grid.nodes, self.cum)

    @staticmethod
    def from_atoms(positions: np.ndarray, masses: np.ndarray) -> "CDF1D":
        """Step CDF of an atomic distribution (sentinel node prepended)."""
        positions = np.asarray(positions, dtype=float)
        masses = np.asarray(masses, dtype=float)
        order = np.argsort(positions, kind="stable")
        positions, masses = positions[order], masses[order]
        if np.any(masses < 0):
            raise ValueError("atom masses must be nonnegative")
        total = masses.sum()
        if total <= 0:
            raise ValueError("atoms carry no mass")
        cum = np.concatenate([[0.0], np.cumsum(masses) / total])
        cum[-1] = 1.0
        span = positions[-1] - positions[0] if positions.size > 1 else 1.0
        sentinel = positions[0] - max(span, 1.0)
        nodes = np.concatenate([[sentinel], positions])
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("atom positions must be distinct")
        return CDF1D(Grid1D(nodes), cum, kind="step")


def build_cdf(d: DiscreteDensity1D) -> CDF1D:
    """Prefix-sum CDF of a cell-centered density, exact at the nodes."""
    cum = np.concatenate([[0.0], np.cumsum(d.cell_masses)])
    cum /= cum[-1]  # kill roundoff so cum[-1] == 1 exactly
    cum[-1] = 1.0
    return CDF1D(d.grid, cum, kind="linear")


def quantile(c: CDF1D, t: np.ndarray | float) -> np.ndarray | float:
    """Left-continuous inverse inf{x : F(x) >= t}, vectorized over t.

    Linear CDFs are inverted ramp by ramp through `QuantileTable` (exact for
    piecewise-linear F); step CDFs return the atom position, left-continuous
    at the jump levels. Raises for t outside (0, 1].
    """
    t_arr = np.asarray(t, dtype=float)
    if c.kind == "linear":
        out = QuantileTable.from_cdf(c)(t_arr)
    else:
        _check_levels(t_arr)
        # first index with cum >= t; in [1, n_nodes-1] because cum[0]=0 < t <= 1
        out = c.grid.nodes[np.searchsorted(c.cum, t_arr, side="left")]
    return float(out) if t_arr.ndim == 0 else out


def _check_levels(t: np.ndarray) -> None:
    if not np.all((t > 0.0) & (t <= 1.0)):  # also rejects NaN
        raise ValueError("quantile level must lie in (0, 1]")


@dataclass(frozen=True)
class QuantileTable:
    """Left-continuous inverse CDFs as one stacked lookup table.

    Row s of probs runs 0 to 1 and row s of values holds the matching
    positions; 1-D probs and values make a one-row table. Evaluation inverts
    each row ramp by ramp and therefore reproduces `quantile` exactly when a
    row is built from a CDF's own levels.
    """

    probs: np.ndarray   # (S, K)
    values: np.ndarray  # (S, K)

    def __post_init__(self):
        probs = np.atleast_2d(np.asarray(self.probs, dtype=float))
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "values", values)
        if probs.shape != values.shape or probs.ndim != 2 or probs.shape[1] < 2:
            raise ValueError("probs and values must be matching 1-D or 2-D arrays")
        if np.any(probs[:, 0] != 0.0) or np.any(probs[:, -1] != 1.0) or np.any(np.diff(probs, axis=1) < 0):
            raise ValueError("probs must be nondecreasing from 0 to 1")
        if np.any(np.diff(values, axis=1) < 0):
            raise ValueError("quantile values must be nondecreasing")

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        """Quantiles alone: the first output of `value_and_slope`."""
        return self.value_and_slope(t)[0]

    def value_and_slope(
        self, t: np.ndarray | float, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantiles and the exact slopes of the active ramps (dvalue/dprob).

        Row r of the levels t is evaluated in table row rows[r] (in row r when
        rows is None); a one-row table takes levels of any shape. The slope is
        the inverse-function derivative 1/F' evaluated at the quantile point;
        at a level hit exactly it is the left ramp's slope, matching the
        left-continuous convention. Raises for levels outside (0, 1].
        """
        t_arr = np.asarray(t, dtype=float)
        _check_levels(t_arr)
        rows = np.arange(self.probs.shape[0]) if rows is None else np.asarray(rows)
        if rows.size > 1 and (t_arr.ndim == 0 or t_arr.shape[0] != rows.size):
            raise ValueError("levels need one row per table row")
        levels = t_arr.reshape(rows.size, -1)
        # first index with probs >= t, so probs[idx-1] < t <= probs[idx]
        idx = np.empty(levels.shape, dtype=np.intp)
        for r, s in enumerate(rows):
            idx[r] = np.searchsorted(self.probs[s], levels[r], side="left")
        # in-place steps keep few (S, M) temporaries alive on large grids
        s = rows[:, None]
        hi, v1 = self.probs[s, idx], self.values[s, idx]
        idx -= 1
        lo, v0 = self.probs[s, idx], self.values[s, idx]
        del idx
        width = np.subtract(hi, lo, out=hi)
        dv = np.subtract(v1, v0, out=v1)
        slope = dv / width
        frac = np.subtract(levels, lo, out=lo)
        frac /= width
        val = np.add(v0, np.multiply(frac, dv, out=frac), out=v0)
        return val.reshape(t_arr.shape), slope.reshape(t_arr.shape)

    @staticmethod
    def from_cdf(c: CDF1D) -> "QuantileTable":
        if c.kind != "linear":
            raise ValueError("tables are built from density-based CDFs")
        return QuantileTable(c.cum, c.grid.nodes)


def w2_squared_1d(F: CDF1D, G: CDF1D, n_quad: int) -> float:
    """Midpoint-rule value of the squared quantile distance between F and G.

    Integrates (F^{-1}(t) - G^{-1}(t))^2 over t in (0,1) at n_quad midpoint
    levels. Exact (to roundoff) when both inverses are piecewise constant
    with breakpoints on the quadrature lattice.
    """
    if n_quad < 2:
        raise ValueError("n_quad must be at least 2")
    t = (np.arange(n_quad) + 0.5) / n_quad
    diff = np.asarray(quantile(F, t)) - np.asarray(quantile(G, t))
    return float(np.sum(diff * diff) / n_quad)


def marginals_2d(d: DiscreteDensity2D) -> tuple[DiscreteDensity1D, DiscreteDensity1D]:
    """Axis marginals as valid 1-D densities (cell-weighted sums)."""
    wx = d.grid_x.cell_widths
    wy = d.grid_y.cell_widths
    fx = d.values @ wy            # density in x
    fy = wx @ d.values            # density in y
    # renormalize away accumulated roundoff (total is 1 within MASS_TOL)
    fx = fx / np.sum(fx * wx)
    fy = fy / np.sum(fy * wy)
    return DiscreteDensity1D(d.grid_x, fx), DiscreteDensity1D(d.grid_y, fy)
