"""Conditional-quantile reduction of the planar coupling problem.

Given the source density f of (X1, X2), the target density f~ of (Y1, Y2)
and a coupling density p of (X1, Y2), the maps

    g(x, y) = G(x, F_{Y2|X1}(y|x)),   G(x,.)  = inverse of F_{X2|X1}(.|x)
    h(x, y) = G~(F_{X1|Y2}(x|y), y),  G~(.,y) = inverse of F_{Y1|Y2}(.|y)

reconstruct the full coupling: (X1, g(X1,Y2)) is distributed like (X1, X2)
and (h(X1,Y2), Y2) like (Y1, Y2). Everything here is evaluated at cell
centers with exact piecewise-linear CDF/quantile composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import check_coupling_side
from .measures import DiscreteDensity2D, QuantileTable, RampCache


class DegenerateSliceError(ValueError):
    pass


def conditional_quantile_field(d: DiscreteDensity2D, condition_axis: str) -> QuantileTable:
    """Every conditional quantile function of a density as one stacked table.

    Conditioned on x, table row i inverts the conditional CDF along y given
    x-cell i; conditioned on y, row j inverts the one along x given y-cell j.
    Each row is normalized by its own slice mass. The row masses are summed
    on a C-contiguous copy so that every row sums pairwise, exactly like a
    1-D slice sum.
    """
    if condition_axis == "x":
        grid, masses = d.grid_y, d.values * d.grid_y.cell_widths
    elif condition_axis == "y":
        grid, masses = d.grid_x, np.ascontiguousarray((d.values * d.grid_x.cell_widths[:, None]).T)
    else:
        raise ValueError("condition_axis must be 'x' or 'y'")
    totals = masses.sum(axis=1)
    empty = np.flatnonzero(~(totals > 0))
    if empty.size:
        raise DegenerateSliceError(f"slice {empty[0]} carries no mass")
    cums = np.zeros((masses.shape[0], masses.shape[1] + 1))
    np.cumsum(masses, axis=1, out=cums[:, 1:])
    cums[:, 1:] /= totals[:, None]
    cums[:, -1] = 1.0
    return QuantileTable(cums, np.broadcast_to(grid.nodes, cums.shape))


def _at_centers(
    table: QuantileTable, rows: np.ndarray, cache: RampCache | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantiles and ramp slopes at the cell-center levels of coupling masses.

    rows holds one row of coupling masses along the free axis per table row.
    A center's level counts half of its own cell; each row is normalized by
    its mass, summed as in `conditional_quantile_field`. Returns the
    quantiles, the slopes and the row masses. cache goes to the table's
    `value_and_slope`.
    """
    totals = np.ascontiguousarray(rows).sum(axis=1)
    levels = np.add.accumulate(rows, axis=1)
    levels -= 0.5 * rows
    levels /= totals[:, None]
    # the clip to [1e-15, 1] in two ufunc calls; NaN passes through to the level check
    np.maximum(levels, 1e-15, out=levels)
    val, slope = table.value_and_slope(np.minimum(levels, 1.0, out=levels), cache)
    return val, slope, totals


def _slice_costs(sq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-slice sum of mass x squared residual; every cost of L sums here.

    One batched matmul of (S, 1, K) by (S, K, 1): numpy runs each 1x1
    product as one BLAS dot on the caller's own strides, the dot `np.dot`
    makes on one slice. The squares sq must be C-ordered and the rows keep
    their strides, because BLAS sums a strided vector in an order that
    depends on the stride. `einsum` and a multiply-then-sum add in other
    orders, so they would move the last bits of L.
    """
    return np.matmul(sq[:, None, :], rows[:, :, None])[:, 0, 0]


def build_g_map(f: DiscreteDensity2D, p: DiscreteDensity2D) -> np.ndarray:
    """g(x, y) on the p-grid; g[i, j] lives on f's second axis.

    p must couple f's x-marginal (`check_coupling_side`, axis 0).
    """
    check_coupling_side(p, f.marginals[0], 0)
    return _at_centers(conditional_quantile_field(f, "x"), p.cell_masses)[0]


def build_h_map(f_tilde: DiscreteDensity2D, p: DiscreteDensity2D) -> np.ndarray:
    """h(x, y) on the p-grid; h[i, j] lives on f~'s first axis.

    p must couple f~'s y-marginal (`check_coupling_side`, axis 1).
    """
    check_coupling_side(p, f_tilde.marginals[1], 1)
    table = conditional_quantile_field(f_tilde, "y")
    # C order like g, so that sums over h run in the same order as over g
    return np.ascontiguousarray(_at_centers(table, p.cell_masses.T)[0].T)


@dataclass(frozen=True)
class PushforwardReport:
    l1_deviation: float
    max_deviation: float
    binned_masses: np.ndarray


def _binned_pushforward(
    table: QuantileTable, rows: np.ndarray, maps: np.ndarray, edges: np.ndarray, name: str
) -> np.ndarray:
    """Law of the free coordinate under p, slice by slice, binned onto edges.

    rows holds p's masses with one row per row of the conditional-quantile
    table, maps the map values on the same layout. Each cell's mass is spread
    uniformly over the image of the cell, whose edges are recomputed from the
    table and p. The deposited mass is then piecewise linear in position
    between the image edges, so a bin receives the difference of its values
    at the bin edges.
    """
    deposited = np.zeros((rows.shape[0], rows.shape[1] + 1))
    cum = np.cumsum(rows, axis=1, out=deposited[:, 1:])
    levels = np.clip(cum / np.ascontiguousarray(rows).sum(axis=1)[:, None], 1e-15, 1.0)
    image_edges = np.concatenate([table.values[:, :1], table(levels)], axis=1)
    if np.any(maps < image_edges[:, :-1] - 1e-9) or np.any(maps > image_edges[:, 1:] + 1e-9):
        raise ValueError(f"{name} is inconsistent with its density and p; rebuild it with build_{name}_map")
    binned = np.empty((rows.shape[0], edges.size - 1))
    for s in range(rows.shape[0]):
        binned[s] = np.diff(np.interp(edges, image_edges[s], deposited[s]))
    return binned


def _pushforward_report(binned: np.ndarray, ref: np.ndarray) -> PushforwardReport:
    return PushforwardReport(
        l1_deviation=float(np.sum(np.abs(binned - ref))),
        max_deviation=float(np.max(np.abs(binned - ref))),
        binned_masses=binned,
    )


def pushforward_check(
    f: DiscreteDensity2D,
    p: DiscreteDensity2D,
    g: np.ndarray,
) -> PushforwardReport:
    """Law of (X1, g(X1, Y2)) under p, binned onto f's grid, against f.

    Per x-slice, each p-cell's mass is spread uniformly over the image of its
    cell under the map (edge images recomputed from f and p, against which
    the passed g must be consistent). The deposition error vanishes under
    refinement; identically zero when p matches f's conditional structure.
    """
    masses = p.cell_masses
    table = conditional_quantile_field(f, "x")
    binned = _binned_pushforward(table, masses, g, f.grid_y.nodes, "g")
    return _pushforward_report(binned, f.cell_masses)


def pushforward_check_h(
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
    h: np.ndarray,
) -> PushforwardReport:
    """Law of (h(X1, Y2), Y2) under p against f~ (transpose of the g check)."""
    masses = p.cell_masses
    table = conditional_quantile_field(f_tilde, "y")
    binned = _binned_pushforward(table, masses.T, h.T, f_tilde.grid_x.nodes, "h")
    return _pushforward_report(binned.T, f_tilde.cell_masses)


@dataclass(frozen=True)
class CouplingCost:
    total: float


def coupling_cost(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
    g: np.ndarray,
    h: np.ndarray,
) -> CouplingCost:
    """Expected squared distance of the reconstructed coupling.

    The total integrates (y - g)^2 + (x - h)^2 against p; on p's own maps it
    equals `objective_pass(...).L_value` bit for bit.
    """
    masses = p.cell_masses
    if g.shape != masses.shape or h.shape != masses.shape:
        raise ValueError("maps must live on p's grid")
    term_y = float(_slice_costs(np.square(p.grid_y.centers - g, order="C"), masses).sum())
    term_x = float(_slice_costs(np.square(p.grid_x.centers - h.T, order="C"), masses.T).sum())
    return CouplingCost(total=term_x + term_y)
