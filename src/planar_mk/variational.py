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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .coupling import (
    FEAS_TOL,
    CouplingDensity,
    FeasibilityError,
    as_density,
    marginal_l1_errors,
)
from .measures import DiscreteDensity2D, Grid1D, marginals_2d
from .reduction import (
    ConditionalQuantileField,
    build_g_map,
    build_h_map,
    conditional_quantile_field,
    coupling_cost,
)


def _check_feasible(f: DiscreteDensity2D, f_tilde: DiscreteDensity2D, pd: DiscreteDensity2D) -> None:
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    row_err, col_err = marginal_l1_errors(pd, f1, f2)
    if max(row_err, col_err) > FEAS_TOL:
        raise FeasibilityError(
            f"p is not feasible: marginal L1 errors ({row_err:.3e}, {col_err:.3e})"
        )


def _term_pass(
    field: ConditionalQuantileField, rows: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slice cost, map values and variation kernel for one L term.

    rows is (n_slices, n_along): row s holds the coupling masses along the
    integration axis for conditioning slice s; table row s of the field
    inverts the matching conditional CDF of the fixed density.
    """
    val, slope, totals = field.at_centers(rows)
    resid = centers - val
    # tail integrand x cell mass: 2 (t - G)(-G_y) p w / f1, built in place
    # so that few (S, K) temporaries are alive at once on large grids
    b = -2.0 * resid
    b *= slope
    b *= rows
    b /= totals[:, None]
    tail = np.cumsum(b[:, ::-1], axis=1)[:, ::-1]
    b *= 0.5
    tail -= b
    r2 = resid * resid
    # BLAS sums a strided slice in an order that depends on the stride, so
    # the dots run on the caller's own rows, one per slice
    costs = np.array([np.dot(r2[s], rows[s]) for s in range(rows.shape[0])])
    tail += r2
    return costs, val, tail


@dataclass(frozen=True)
class ObjectivePass:
    """One full evaluation: objective, maps and variation kernels."""

    L_value: float
    g: np.ndarray
    h: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


def objective_pass(
    field_f: ConditionalQuantileField,
    field_ft: ConditionalQuantileField,
    masses: np.ndarray,
    grid_x: Grid1D,
    grid_y: Grid1D,
) -> ObjectivePass:
    """Fast path used by the optimizer: fixed quantile fields, raw masses."""
    costs_y, g, phi = _term_pass(field_f, masses, grid_y.centers)
    costs_x, h_t, psi_t = _term_pass(field_ft, masses.T, grid_x.centers)
    return ObjectivePass(
        L_value=float(costs_y.sum() + costs_x.sum()),
        g=g,
        h=h_t.T,
        phi=phi,
        psi=psi_t.T,
    )


def evaluate_L(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: CouplingDensity | DiscreteDensity2D,
) -> float:
    """Reduced objective at p; identical to `coupling_cost` on its own maps."""
    pd = as_density(p)
    _check_feasible(f, f_tilde, pd)
    g = build_g_map(f, pd)
    h = build_h_map(f_tilde, pd)
    return coupling_cost(f, f_tilde, pd, g, h).total


def first_variation(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: CouplingDensity | DiscreteDensity2D,
) -> tuple[np.ndarray, np.ndarray]:
    """Variation kernels (phi, psi) of L at p.

    sum((phi + psi) * eta * area) is the exact directional derivative of the
    discrete L along any perturbation eta with zero row and column mass sums.
    """
    pd = as_density(p)
    _check_feasible(f, f_tilde, pd)
    out = objective_pass(
        conditional_quantile_field(f, "x"),
        conditional_quantile_field(f_tilde, "y"),
        pd.cell_masses,
        pd.grid_x,
        pd.grid_y,
    )
    return out.phi, out.psi


def simplified_cross_derivatives(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: CouplingDensity | DiscreteDensity2D,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms phi_y = 2(y - g) and psi_x = 2(x - h) on the grid."""
    pd = as_density(p)
    g = build_g_map(f, pd)
    h = build_h_map(f_tilde, pd)
    phi_y = 2.0 * (pd.grid_y.centers[None, :] - g)
    psi_x = 2.0 * (pd.grid_x.centers[:, None] - h)
    return phi_y, psi_x


@dataclass(frozen=True)
class CumulativeH:
    """H(x, y) = cumulative coupling mass up to (x, y), on the grid nodes."""

    grid_x: Grid1D
    grid_y: Grid1D
    values: np.ndarray  # (n_x + 1, n_y + 1)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid_x.nodes.size, self.grid_y.nodes.size):
            raise ValueError("H must be sampled on the grid nodes")


def cumulative_h(p: CouplingDensity | DiscreteDensity2D) -> CumulativeH:
    pd = as_density(p)
    masses = pd.cell_masses
    H = np.zeros((masses.shape[0] + 1, masses.shape[1] + 1))
    H[1:, 1:] = np.cumsum(np.cumsum(masses, axis=0), axis=1)
    return CumulativeH(pd.grid_x, pd.grid_y, H)


@dataclass(frozen=True)
class ELResidualReport:
    residual: np.ndarray      # divergence field g_x + h_y at cell centers
    interior_l2: float        # L2 norm over the interior cells
    bracket_g: np.ndarray     # G(x, H_x / f1) at cell centers
    bracket_h: np.ndarray     # G~(H_y / f2, y) at cell centers
    H: CumulativeH


def euler_lagrange_residual(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: CouplingDensity | DiscreteDensity2D,
) -> ELResidualReport:
    """Stationarity residual d/dx[G(x, H_x/f1)] + d/dy[G~(H_y/f2, y)].

    H is differenced across each cell at the mid-level of the other axis
    (exact central differences for the piecewise-bilinear H), the bracket
    fields are evaluated through the stacked conditional quantile tables, and the
    divergence uses central differences in the interior with one-sided
    differences on the boundary ring. The reported norm covers the interior
    only; the boundary content of the stationarity condition is exactly the
    marginal constraints, tested through `cumulative_h`.
    """
    pd = as_density(p)
    _check_feasible(f, f_tilde, pd)
    H = cumulative_h(pd)
    hv = H.values
    wx = pd.grid_x.cell_widths
    wy = pd.grid_y.cell_widths

    # H at (node, y-center) / (x-center, node): exact since H is bilinear per cell
    h_mid_y = 0.5 * (hv[:, :-1] + hv[:, 1:])
    h_mid_x = 0.5 * (hv[:-1, :] + hv[1:, :])
    Hx = np.diff(h_mid_y, axis=0) / wx[:, None]   # dH/dx at centers
    Hy = np.diff(h_mid_x, axis=1) / wy[None, :]   # dH/dy at centers

    row_mass = pd.cell_masses.sum(axis=1)
    col_mass = pd.cell_masses.sum(axis=0)
    f1_density = row_mass / wx
    f2_density = col_mass / wy
    v_levels = np.clip(Hx / f1_density[:, None], 1e-15, 1.0)
    u_levels = np.clip(Hy / f2_density[None, :], 1e-15, 1.0)

    bracket_g = conditional_quantile_field(f, "x").table(v_levels)
    bracket_h = conditional_quantile_field(f_tilde, "y").table(u_levels.T).T

    xc = pd.grid_x.centers
    yc = pd.grid_y.centers
    g_x = np.gradient(bracket_g, xc, axis=0)
    h_y = np.gradient(bracket_h, yc, axis=1)
    residual = g_x + h_y

    areas = pd.cell_areas
    inner = (slice(1, -1), slice(1, -1))
    if residual[inner].size > 0:
        l2 = float(np.sqrt(np.sum(residual[inner] ** 2 * areas[inner])))
    else:
        l2 = float(np.sqrt(np.sum(residual**2 * areas)))
    return ELResidualReport(residual, l2, bracket_g, bracket_h, H)


@dataclass(frozen=True)
class VariationalState:
    L_value: float
    phi: np.ndarray
    psi: np.ndarray
    grad: np.ndarray
    el_residual: np.ndarray
    el_interior_l2: float


def variational_state(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    p: CouplingDensity | DiscreteDensity2D,
) -> VariationalState:
    phi, psi = first_variation(f, f_tilde, p)
    el = euler_lagrange_residual(f, f_tilde, p)
    return VariationalState(
        L_value=evaluate_L(f, f_tilde, p),
        phi=phi,
        psi=psi,
        grad=phi + psi,
        el_residual=el.residual,
        el_interior_l2=el.interior_l2,
    )


# ---------------------------------------------------------------------------
# Numerical checkers for the two averaging lemmas behind the stationarity
# argument: shrinking-square means recover the integrand, and the four-corner
# rectangle quotient recovers the mixed derivative.
# ---------------------------------------------------------------------------

Scalar2D = Callable[[np.ndarray, np.ndarray], np.ndarray]


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _mean_over_square(beta: Scalar2D, x0: float, y0: float, eps: float, n_nodes: int) -> float:
    """(1/eps^2) * integral of beta over [x0, x0+eps] x [y0, y0+eps]."""
    t, w = _leggauss(n_nodes)
    xs = x0 + 0.5 * eps * (t + 1.0)
    ys = y0 + 0.5 * eps * (t + 1.0)
    B = np.asarray(beta(xs[:, None], ys[None, :]), dtype=float)
    B = np.broadcast_to(B, (n_nodes, n_nodes))
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


def lemma1_checker(
    beta: Scalar2D,
    a: float,
    b: float,
    eps_sequence: Sequence[float] | None = None,
    n_nodes: int = 12,
) -> LimitReport:
    """Shrinking-square means of beta about (a, b); the limit is beta(a, b)."""
    if eps_sequence is None:
        eps_sequence = np.geomspace(1e-2, 1e-4, 7)
    eps = np.asarray(list(eps_sequence), dtype=float)
    if eps.size < 2 or np.any(np.diff(eps) >= 0):
        raise ValueError("eps_sequence must be decreasing with at least two entries")
    values = np.array([_mean_over_square(beta, a, b, e, n_nodes) for e in eps])
    limit = _extrapolate_to_zero(eps, values)
    return LimitReport(eps, values, limit, _observed_order(eps, values, limit))


@dataclass(frozen=True)
class Lemma2Schedule:
    """Nested-limit schedule: eps = theta^2 d, a1 - a = theta d, b1 - b = d."""

    d0: float = 0.05
    ratio: float = 0.5
    count: int = 7
    theta: float = 0.1


def lemma2_checker(
    beta: Scalar2D,
    a: float,
    b: float,
    schedule: Lemma2Schedule | None = None,
    n_nodes: int = 12,
    fd_delta: float = 1e-4,
) -> LimitReport:
    """Four-corner rectangle quotient converging to the mixed derivative.

    For each scale d the quotient averages beta over the four squares of the
    bump perturbation and divides by the rectangle area (a1-a)(b1-b); the
    extrapolated limit is compared against a central cross difference.
    """
    sched = schedule or Lemma2Schedule()
    ds = sched.d0 * sched.ratio ** np.arange(sched.count)
    values = []
    for d in ds:
        a1 = a + sched.theta * d
        b1 = b + d
        eps = sched.theta**2 * d
        alt = (
            _mean_over_square(beta, a, b, eps, n_nodes)
            + _mean_over_square(beta, a1, b1, eps, n_nodes)
            - _mean_over_square(beta, a1, b, eps, n_nodes)
            - _mean_over_square(beta, a, b1, eps, n_nodes)
        )
        values.append(alt / ((a1 - a) * (b1 - b)))
    values = np.asarray(values)
    limit = _extrapolate_to_zero(ds, values)
    d = fd_delta
    fd = (
        float(beta(np.array(a + d), np.array(b + d)))
        - float(beta(np.array(a + d), np.array(b - d)))
        - float(beta(np.array(a - d), np.array(b + d)))
        + float(beta(np.array(a - d), np.array(b - d)))
    ) / (4.0 * d * d)
    return LimitReport(ds, values, limit, _observed_order(ds, values, limit), reference=fd)
