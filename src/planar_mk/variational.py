"""Reduced objective, its first variation, and stationarity diagnostics.

The reduced objective over coupling densities p is

    L(p) = sum_ij mass_ij [ (y_j - g_ij)^2 + (x_i - h_ij)^2 ],

with g, h the conditional-quantile maps of `reduction`. The kernels phi and
psi returned by `first_variation` are the exact partial derivatives of this
discrete L with respect to the cell values (divided by cell area), so the
pairing sum((phi+psi) * eta * area) reproduces directional derivatives along
marginal-preserving eta to roundoff: the tail integral

    phi(x,y) = int_y^inf 2(t - G)(-G_y) p(x,t)/f1(x) dt + (y - G)^2

becomes a reverse cumulative sum in which the cell containing y counts half,
matching the center-level convention of the maps, and G_y is the exact slope
of the active quantile ramp (inverse-function rule on the piecewise-linear
conditional CDF).

The stationarity residual d/dx[G(x, H_x/f1)] + d/dy[G~(H_y/f2, y)], with H
the cumulative of p, needs no H. H is bilinear on each cell, so at a cell
center H_x is the mass of p's x-row below y, the center's own cell counting
half, per unit of x-width; f1 is the row's whole mass per unit of x-width,
because p couples f1. H_x/f1 is therefore exactly the center level
F_{Y2|X1}(y|x) that the map g evaluates, so G(x, H_x/f1) is g and, likewise,
G~(H_y/f2, y) is h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coupling import check_coupling_side
from .measures import DiscreteDensity2D, Grid1D, QuantileTable, RampCache
from .reduction import _at_centers, _slice_costs, conditional_quantile_field


def _term_pass(
    table: QuantileTable, rows: np.ndarray, centers: np.ndarray, cache: RampCache | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slice cost, map values and variation kernel for one L term.

    rows is (n_slices, n_along): row s holds the coupling masses along the
    integration axis for conditioning slice s; table row s inverts the
    matching conditional CDF of the fixed density. cache goes to
    `_at_centers`.
    """
    val, slope, totals = _at_centers(table, rows, cache)
    resid = np.subtract(centers, val, order="C")  # C order, so that its squares are too
    # tail integrand x cell mass: 2 (t - G)(-G_y) p w / f1, built in place
    # so that few (S, K) temporaries are alive at once on large grids
    b = -2.0 * resid
    b *= slope
    b *= rows
    b /= totals[:, None]
    tail = np.add.accumulate(b[:, ::-1], axis=1)[:, ::-1]
    b *= 0.5
    tail -= b
    sq = np.square(resid, out=resid)  # squared once, for the costs and the tail
    tail += sq
    return _slice_costs(sq, rows), val, tail


@dataclass(frozen=True)
class ObjectivePass:
    """One full evaluation: objective, maps and variation kernels."""

    L_value: float
    g: np.ndarray
    h: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


def objective_pass(
    field_f: QuantileTable,
    field_ft: QuantileTable,
    masses: np.ndarray,
    grid_x: Grid1D,
    grid_y: Grid1D,
    caches: tuple[RampCache | None, RampCache | None] = (None, None),
) -> ObjectivePass:
    """The one evaluation of L, at raw coupling masses on fixed quantile fields.

    caches holds one `RampCache` per field, in the fields' order, or None; a
    caller that evaluates a sequence of nearby couplings passes the same pair
    each time. L, the maps and the kernels are the same bits without.
    """
    costs_y, g, phi = _term_pass(field_f, masses, grid_y.centers, caches[0])
    costs_x, h_t, psi_t = _term_pass(field_ft, masses.T, grid_x.centers, caches[1])
    return ObjectivePass(
        L_value=float(costs_y.sum() + costs_x.sum()),
        g=g,
        h=h_t.T,
        phi=phi,
        psi=psi_t.T,
    )


# f's conditional-quantile field along y given x, and f~'s along x given y
QuantileFields = tuple[QuantileTable, QuantileTable]


def _checked_pass(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
    fields: QuantileFields | None = None,
) -> ObjectivePass:
    """The coupling check, then one pass on fields, built from f and f~ if not given."""
    check_coupling_side(p, f.marginals[0], 0)
    check_coupling_side(p, f_tilde.marginals[1], 1)
    if fields is None:
        fields = conditional_quantile_field(f, "x"), conditional_quantile_field(f_tilde, "y")
    field_f, field_ft = fields
    return objective_pass(field_f, field_ft, p.cell_masses, p.grid_x, p.grid_y)


def evaluate_L(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
) -> float:
    """Reduced objective at p; identical to `coupling_cost` on its own maps."""
    return _checked_pass(f, f_tilde, p).L_value


def first_variation(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
) -> tuple[np.ndarray, np.ndarray]:
    """Variation kernels (phi, psi) of L at p.

    sum((phi + psi) * eta * area) is the exact directional derivative of the
    discrete L along any perturbation eta with zero row and column mass sums.
    """
    out = _checked_pass(f, f_tilde, p)
    return out.phi, out.psi


def simplified_cross_derivatives(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms phi_y = 2(y - g) and psi_x = 2(x - h) on the grid."""
    out = _checked_pass(f, f_tilde, p)
    return 2.0 * (f_tilde.grid_y.centers - out.g), 2.0 * (f.grid_x.centers[:, None] - out.h)


def cumulative_h(p: DiscreteDensity2D) -> np.ndarray:
    """H(x, y) = cumulative coupling mass up to (x, y), on the grid nodes: (n_x + 1, n_y + 1)."""
    masses = p.cell_masses
    H = np.zeros((masses.shape[0] + 1, masses.shape[1] + 1))
    H[1:, 1:] = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    return H


@dataclass(frozen=True)
class ELResidualReport:
    residual: np.ndarray      # divergence field g_x + h_y at cell centers
    interior_l2: float        # L2 norm over the interior cells
    at_p: ObjectivePass       # the one evaluation at p; its g and h are the brackets


def _axis_derivative(values: np.ndarray, centers: np.ndarray, axis: int) -> np.ndarray:
    """Central differences inside, one-sided on the boundary ring.

    Along an axis with one cell the map cannot vary, so the derivative is 0.
    """
    if centers.size < 2:
        return np.zeros(values.shape)
    return np.gradient(values, centers, axis=axis)


def euler_lagrange_residual(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: DiscreteDensity2D,
    fields: QuantileFields | None = None,
) -> ELResidualReport:
    """Stationarity residual d/dx[G(x, H_x/f1)] + d/dy[G~(H_y/f2, y)].

    At a cell center H_x/f1 equals the center level F_{Y2|X1}(y|x) and H_y/f2
    the level F_{X1|Y2}(x|y) (see the module docstring), so the brackets are
    the maps g and h of the objective pass at p, which is checked against f
    and f~ first; the residual differences them. The reported norm covers
    the interior only; the boundary content of the stationarity condition is
    exactly the marginal constraints, which H carries on its last row and
    column (`cumulative_h`).
    fields, if given, must be f's "x" and f~'s "y" conditional-quantile
    fields, built once by a caller that evaluates several couplings of the
    same pair.
    """
    at_p = _checked_pass(f, f_tilde, p, fields)
    residual = _axis_derivative(at_p.g, p.grid_x.centers, 0) + _axis_derivative(at_p.h, p.grid_y.centers, 1)

    areas = p.cell_areas
    inner = (slice(1, -1), slice(1, -1))
    if residual[inner].size > 0:
        l2 = float(np.sqrt(np.sum(residual[inner] ** 2 * areas[inner])))
    else:
        l2 = float(np.sqrt(np.sum(residual**2 * areas)))
    return ELResidualReport(residual, l2, at_p)


# ---------------------------------------------------------------------------
# Numerical checkers for the two averaging lemmas behind the stationarity
# argument: shrinking-square means recover the integrand, and the four-corner
# rectangle quotient recovers the mixed derivative.
# ---------------------------------------------------------------------------

Scalar2D = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Gauss-Legendre nodes per axis of each square mean
_SQUARE_NODES = 12
# half-step of lemma 2's central cross difference
_FD_DELTA = 1e-4
# lemma 1's decreasing square sides eps; lemma 2's nested-limit scales d, with
# eps = theta^2 d, a1 - a = theta d and b1 - b = d. Read-only: reports share them.
_LEMMA1_EPS = np.geomspace(1e-2, 1e-4, 7)
_LEMMA2_DS = 0.05 * 0.5 ** np.arange(7)
_LEMMA2_THETA = 0.1
_LEMMA1_EPS.flags.writeable = _LEMMA2_DS.flags.writeable = False


@lru_cache(maxsize=None)
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_SQUARE_NODES)


def _mean_over_square(beta: Scalar2D, x0: float, y0: float, eps: float) -> float:
    """(1/eps^2) * integral of beta over [x0, x0+eps] x [y0, y0+eps]."""
    t, w = _leggauss()
    xs = x0 + 0.5 * eps * (t + 1.0)
    ys = y0 + 0.5 * eps * (t + 1.0)
    B = np.asarray(beta(xs[:, None], ys[None, :]), dtype=float)
    B = np.broadcast_to(B, (_SQUARE_NODES, _SQUARE_NODES))
    return float(0.25 * (w @ B @ w))


def _extrapolate_to_zero(xs: np.ndarray, ys: np.ndarray) -> float:
    """Polynomial (Richardson) extrapolation of y(x) to x = 0, Neville style."""
    xs = np.asarray(xs, dtype=float)
    t = np.asarray(ys, dtype=float).copy()
    n = t.size
    for m in range(1, n):
        t = (xs[m:] * t[:-1] - xs[:-m] * t[1:]) / (xs[m:] - xs[:-m])
    return float(t[0])


def _observed_order(eps: np.ndarray, values: np.ndarray, limit: float) -> float:
    errs = np.abs(np.asarray(values) - limit)
    scale = max(1.0, abs(limit))
    keep = errs > 1e-12 * scale
    if np.count_nonzero(keep) < 2:
        return float("nan")
    slope = np.polyfit(np.log(np.asarray(eps)[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class LimitReport:
    scales: np.ndarray
    values: np.ndarray
    limit: float
    observed_order: float
    reference: float | None = None


def lemma1_checker(beta: Scalar2D, a: float, b: float) -> LimitReport:
    """Shrinking-square means of beta about (a, b); the limit is beta(a, b)."""
    eps = _LEMMA1_EPS
    values = np.array([_mean_over_square(beta, a, b, e) for e in eps])
    limit = _extrapolate_to_zero(eps, values)
    return LimitReport(eps, values, limit, _observed_order(eps, values, limit))


def lemma2_checker(beta: Scalar2D, a: float, b: float) -> LimitReport:
    """Four-corner rectangle quotient converging to the mixed derivative.

    For each scale d the quotient averages beta over the four squares of the
    bump perturbation and divides by the rectangle area (a1-a)(b1-b); the
    extrapolated limit is compared against a central cross difference.
    """
    ds = _LEMMA2_DS
    values = []
    for d in ds:
        a1 = a + _LEMMA2_THETA * d
        b1 = b + d
        eps = _LEMMA2_THETA**2 * d
        alt = (
            _mean_over_square(beta, a, b, eps)
            + _mean_over_square(beta, a1, b1, eps)
            - _mean_over_square(beta, a1, b, eps)
            - _mean_over_square(beta, a, b1, eps)
        )
        values.append(alt / ((a1 - a) * (b1 - b)))
    values = np.asarray(values)
    limit = _extrapolate_to_zero(ds, values)
    d = _FD_DELTA
    fd = (
        float(beta(np.array(a + d), np.array(b + d)))
        - float(beta(np.array(a + d), np.array(b - d)))
        - float(beta(np.array(a - d), np.array(b + d)))
        + float(beta(np.array(a - d), np.array(b - d)))
    ) / (4.0 * d * d)
    return LimitReport(ds, values, limit, _observed_order(ds, values, limit), reference=fd)
