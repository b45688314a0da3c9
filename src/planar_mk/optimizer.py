"""Descent over the transportation polytope for the reduced objective.

Feasibility is an affine constraint (both marginals fixed), so descent steps
move along zero-marginal directions only: the variation kernel phi + psi is
double-centered into the constraint tangent space, positivity is kept by
clipping the step at the mass floor, and iterative proportional fitting
(IPFP) both projects arbitrary positive starts into the polytope and repairs
roundoff drift. A cyclic rectangle coordinate-descent scheme over four-cell
bump directions is available as a cross-check on small grids.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .coupling import CouplingDensity
from .measures import (
    EPS_FLOOR,
    DiscreteDensity1D,
    DiscreteDensity2D,
    marginals_2d,
)
from .reduction import conditional_quantile_field
from .rng import Xoshiro256StarStar
from .variational import euler_lagrange_residual, objective_pass


class NoDescentError(RuntimeError):
    """Line search failed on the very first iteration."""


class IPFPConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    init: str = "independent"
    scheme: str = "projected_gradient"  # or "rectangle_cd"
    grad_tol: float | None = None       # default: 1e-6 * number of cells
    max_iters: int = 10_000
    multistart: int = 1
    seed: int = 0
    step_init: float = 1.0
    armijo: float = 1e-4
    backtrack: float = 0.5
    min_step: float = 1e-14
    noise_scale: float = 0.5            # multistart log-perturbation amplitude
    stall_tol: float = 1e-12            # stop when the L decrease falls below
    ipfp_tol: float = 1e-13
    ipfp_max_iters: int = 10_000
    rectangle_passes: int = 50

    @staticmethod
    def from_json(path: str) -> "SolverConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name for f in SolverConfig.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return SolverConfig(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveReport:
    p_star: CouplingDensity
    L_trace: np.ndarray
    grad_norm_trace: np.ndarray
    el_residual_final: float
    iterations: int
    termination_reason: str
    max_marginal_error: float
    start_finals: list[float] = field(default_factory=list)
    best_start: int = 0
    multistart_within_tol: float = 1.0
    nonconvexity_flag: bool = False

    @property
    def L_final(self) -> float:
        return float(self.L_trace[-1])


def _ipfp_values(
    raw: np.ndarray,
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    max_iters: int,
    tol: float,
) -> np.ndarray:
    """IPFP on plain value arrays; raises after max_iters with the residual."""
    wx = f1.grid.cell_widths
    wy = f2.grid.cell_widths
    areas = np.outer(wx, wy)
    values = np.maximum(np.asarray(raw, dtype=float), EPS_FLOOR)
    row_target = f1.cell_masses
    col_target = f2.cell_masses

    def errors(v: np.ndarray) -> tuple[float, float]:
        masses = v * areas
        r = float(np.sum(np.abs(masses.sum(axis=1) - row_target)))
        c = float(np.sum(np.abs(masses.sum(axis=0) - col_target)))
        return r, c

    def alternate(v: np.ndarray) -> np.ndarray:
        r_err, c_err = errors(v)
        if max(r_err, c_err) < tol:
            return v
        for _ in range(max_iters):
            row_mass = (v * areas).sum(axis=1)
            v = v * (row_target / row_mass)[:, None]
            col_mass = (v * areas).sum(axis=0)
            v = v * (col_target / col_mass)[None, :]
            r_err, c_err = errors(v)
            if max(r_err, c_err) < tol:
                return v
        raise IPFPConvergenceError(
            f"IPFP residual {max(r_err, c_err):.3e} after {max_iters} iterations"
        )

    values = alternate(values)
    # Scaling can shave floored cells; re-floor and re-converge. A final bump
    # plus unit-mass rescale, if still needed, perturbs the marginals by at
    # most the bumped mass (~ n^2 * EPS_FLOOR * cell area), far inside the
    # 1e-9 polytope tolerance.
    for _ in range(3):
        if np.min(values) >= EPS_FLOOR:
            break
        values = alternate(np.maximum(values, EPS_FLOOR))
    if np.min(values) < EPS_FLOOR:
        values = np.maximum(values, EPS_FLOOR)
        values = values / float(np.sum(values * areas))
    return values


def ipfp_project(
    raw: np.ndarray,
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    max_iters: int = 10_000,
    tol: float = 1e-13,
) -> CouplingDensity:
    """Alternating row/column rescaling onto the marginal targets.

    raw holds density values on (f1.grid, f2.grid); values are floored before
    scaling so every slice keeps positive mass. Already-feasible input is
    returned unchanged. Raises after max_iters with the residual.
    """
    values = _ipfp_values(raw, f1, f2, max_iters, tol)
    return CouplingDensity(DiscreteDensity2D(f1.grid, f2.grid, values), f1, f2)


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
    nonuniform grids as well (identical on unit-cell grids).
    """
    if a == a1 or b == b1:
        raise ValueError("degenerate rectangle: need a != a1 and b != b1")
    d = np.zeros(shape)
    d[a, b] = 1.0
    d[a1, b1] = 1.0
    d[a1, b] = -1.0
    d[a, b1] = -1.0
    if cell_areas is not None:
        d = d / cell_areas
    return d


def project_zero_marginals(
    fld: np.ndarray, wx: np.ndarray, wy: np.ndarray, tol: float = 1e-15, max_sweeps: int = 200
) -> np.ndarray:
    """Orthogonal projection (area inner product) onto zero-marginal fields.

    Alternating weighted row/column centering; converges geometrically and is
    exact after one sweep on uniform grids up to the grand-mean recursion.
    """
    g = np.array(fld, dtype=float)
    Wx, Wy = wx.sum(), wy.sum()
    scale = max(1.0, float(np.max(np.abs(g))))
    for _ in range(max_sweeps):
        g -= ((g @ wy) / Wy)[:, None]
        g -= ((wx @ g) / Wx)[None, :]
        row_res = float(np.max(np.abs(g @ wy)))
        col_res = float(np.max(np.abs(wx @ g)))
        if max(row_res, col_res) < tol * scale:
            break
    return g


def _independent_values(f1: DiscreteDensity1D, f2: DiscreteDensity1D) -> np.ndarray:
    return np.outer(f1.values, f2.values)


def _start_values(
    k: int,
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    config: SolverConfig,
    rng: Xoshiro256StarStar,
) -> np.ndarray:
    base = _independent_values(f1, f2)
    if k == 0:
        return base
    shape = base.shape
    noise = rng.spawn(k).uniform(-1.0, 1.0, size=shape)
    raw = base * np.exp(config.noise_scale * noise)
    return ipfp_project(raw, f1, f2, config.ipfp_max_iters, config.ipfp_tol).values


@dataclass
class _StartResult:
    values: np.ndarray
    L_trace: list[float]
    grad_trace: list[float]
    iterations: int
    termination: str
    max_marginal_error: float


def _run_projected_gradient(
    values0: np.ndarray,
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    field_f,
    field_ft,
    grid_x,
    grid_y,
    config: SolverConfig,
) -> _StartResult:
    wx, wy = grid_x.cell_widths, grid_y.cell_widths
    areas = np.outer(wx, wy)
    row_target = f1.cell_masses
    col_target = f2.cell_masses
    n_cells = values0.size
    grad_tol = config.grad_tol if config.grad_tol is not None else 1e-6 * n_cells

    def L_of(values: np.ndarray) -> float:
        return objective_pass(field_f, field_ft, values * areas, grid_x, grid_y).L_value

    def marg_err(values: np.ndarray) -> float:
        masses = values * areas
        return max(
            float(np.sum(np.abs(masses.sum(axis=1) - row_target))),
            float(np.sum(np.abs(masses.sum(axis=0) - col_target))),
        )

    values = values0.copy()
    out = objective_pass(field_f, field_ft, values * areas, grid_x, grid_y)
    L_cur = out.L_value
    traces = _StartResult(values, [L_cur], [], 0, "max_iters", marg_err(values))
    step = config.step_init

    for it in range(config.max_iters):
        grad = out.phi + out.psi
        direction = -project_zero_marginals(grad, wx, wy)
        # row/col sums of the direction must vanish (descent stays in the polytope)
        marg = max(np.max(np.abs(direction @ wy)), np.max(np.abs(wx @ direction)))
        if not marg < 1e-10 * max(1.0, float(np.max(np.abs(direction)))):
            raise RuntimeError(f"descent direction has marginal sums up to {marg:.3e}")
        gnorm2 = float(np.sum(direction**2 * areas))
        gnorm = float(np.sqrt(gnorm2))
        traces.grad_trace.append(gnorm)
        if gnorm <= grad_tol:
            traces.termination = "grad_tol"
            break

        # trial step: clip at the mass floor, repair marginals by IPFP, accept
        # on a generalized Armijo decrease against the realized displacement
        s = 2.0 * step
        accepted = False
        while s > config.min_step:
            cand = np.maximum(values + s * direction, EPS_FLOOR)
            if marg_err(cand) > 1e-13:
                cand = _ipfp_values(cand, f1, f2, config.ipfp_max_iters, config.ipfp_tol)
            predicted = float(np.sum(grad * (cand - values) * areas))
            if predicted < 0.0:
                L_new = L_of(cand)
                if L_new <= L_cur + config.armijo * predicted:
                    accepted = True
                    break
            s *= config.backtrack
        if not accepted:
            if it == 0:
                raise NoDescentError(
                    "line search found no decrease at the first iteration"
                )
            traces.termination = "stalled"  # no achievable decrease
            break

        values = cand
        out = objective_pass(field_f, field_ft, values * areas, grid_x, grid_y)
        L_new = out.L_value
        decrease = L_cur - L_new
        L_cur = L_new
        step = s
        traces.L_trace.append(L_cur)
        traces.max_marginal_error = max(traces.max_marginal_error, marg_err(values))
        traces.iterations = it + 1
        if decrease < config.stall_tol * max(1.0, abs(L_cur)):
            traces.termination = "stalled"
            break

    traces.values = values
    return traces


def _golden_section(fun, lo: float, hi: float, tol: float, max_iters: int = 60) -> tuple[float, float]:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iters):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    s = c if fc < fd else d
    return s, min(fc, fd)


def _run_rectangle_cd(
    values0: np.ndarray,
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    field_f,
    field_ft,
    grid_x,
    grid_y,
    config: SolverConfig,
) -> _StartResult:
    """Cyclic exact line searches along four-cell bump directions.

    Each move only touches two rows and two columns of the per-slice costs,
    so the objective update is O(n) per trial point.
    """
    wx, wy = grid_x.cell_widths, grid_y.cell_widths
    areas = np.outer(wx, wy)
    xc, yc = grid_x.centers, grid_y.centers
    row_target = f1.cell_masses
    col_target = f2.cell_masses
    n_x, n_y = values0.shape

    # the dots run on views of m: BLAS sums a strided slice in an order that
    # depends on the stride
    def row_costs(m: np.ndarray, which) -> list[float]:
        val, _, _ = field_f.at_centers(m[which], which)
        return [float(np.dot((yc - val[k]) ** 2, m[i])) for k, i in enumerate(which)]

    def col_costs(m: np.ndarray, which) -> list[float]:
        val, _, _ = field_ft.at_centers(m[:, which].T, which)
        return [float(np.dot((xc - val[k]) ** 2, m[:, j])) for k, j in enumerate(which)]

    values = values0.copy()
    masses = values * areas
    cost_rows = np.array(row_costs(masses, np.arange(n_x)))
    cost_cols = np.array(col_costs(masses, np.arange(n_y)))
    L_cur = float(cost_rows.sum() + cost_cols.sum())
    traces = _StartResult(values, [L_cur], [], 0, "max_iters", 0.0)

    rectangles = [
        (a, a1, b, b1)
        for a in range(n_x)
        for a1 in range(a + 1, n_x)
        for b in range(n_y)
        for b1 in range(b + 1, n_y)
    ]

    for sweep in range(config.rectangle_passes):
        improved = 0.0
        for (a, a1, b, b1) in rectangles:
            # mass-space direction: +delta at (a,b),(a1,b1), -delta at the others
            cells = [(a, b), (a1, b1), (a1, b), (a, b1)]
            signs = np.array([1.0, 1.0, -1.0, -1.0])
            floor_mass = EPS_FLOOR * np.array([areas[c] for c in cells])
            cur = np.array([masses[c] for c in cells])
            room = cur - floor_mass
            s_hi = float(min(room[2], room[3]))   # negative cells shrink as s grows
            s_lo = -float(min(room[0], room[1]))
            if s_hi - s_lo <= 0:
                continue

            base = L_cur - cost_rows[a] - cost_rows[a1] - cost_cols[b] - cost_cols[b1]

            def L_at(s: float) -> float:
                m = masses.copy()
                for (c, sg) in zip(cells, signs):
                    m[c] += sg * s
                ca, ca1 = row_costs(m, [a, a1])
                cb, cb1 = col_costs(m, [b, b1])
                return base + ca + ca1 + cb + cb1

            tol = 1e-10 * max(1.0, s_hi - s_lo)
            s_best, L_best = _golden_section(L_at, s_lo, s_hi, tol)
            if L_best < L_cur - 1e-15:
                for (c, sg) in zip(cells, signs):
                    masses[c] += sg * s_best
                cost_rows[[a, a1]] = row_costs(masses, [a, a1])
                cost_cols[[b, b1]] = col_costs(masses, [b, b1])
                improved += L_cur - L_best
                L_cur = L_best
        traces.L_trace.append(L_cur)
        traces.iterations = sweep + 1
        err = max(
            float(np.sum(np.abs(masses.sum(axis=1) - row_target))),
            float(np.sum(np.abs(masses.sum(axis=0) - col_target))),
        )
        traces.max_marginal_error = max(traces.max_marginal_error, err)
        if improved < config.stall_tol * max(1.0, abs(L_cur)):
            traces.termination = "stalled"
            break

    traces.values = masses / areas
    return traces  # no gradient trace for the derivative-free scheme


def solve(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    config: SolverConfig | None = None,
    initial_values: np.ndarray | None = None,
) -> SolveReport:
    """Minimize the reduced objective over couplings of (f1, f2).

    Multistart: start 0 is the independent coupling f1 (x) f2 (or
    initial_values when given, projected to feasibility: warm starts let the
    rectangle scheme polish a projected-gradient solution); further starts
    are IPFP-projected log-uniform perturbations of the independent coupling,
    each driven by a child stream of the seed so results are independent of
    scheduling. Starts run one after another.
    """
    config = config or SolverConfig()
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    field_f = conditional_quantile_field(f, "x")
    field_ft = conditional_quantile_field(f_tilde, "y")
    rng = Xoshiro256StarStar(config.seed)

    runner = {
        "projected_gradient": _run_projected_gradient,
        "rectangle_cd": _run_rectangle_cd,
    }.get(config.scheme)
    if runner is None:
        raise ValueError(f"unknown scheme {config.scheme!r}")

    def run_start(k: int) -> _StartResult:
        if k == 0 and initial_values is not None:
            v0 = _ipfp_values(initial_values, f1, f2, config.ipfp_max_iters, config.ipfp_tol)
        else:
            v0 = _start_values(k, f1, f2, config, rng)
        return runner(v0, f1, f2, field_f, field_ft, f.grid_x, f_tilde.grid_y, config)

    results = [run_start(k) for k in range(max(1, config.multistart))]

    finals = [r.L_trace[-1] for r in results]
    best = int(np.argmin(finals))
    best_result = results[best]
    within = float(np.mean([Lk <= finals[best] + 1e-3 for Lk in finals]))

    p_star = ipfp_project(best_result.values, f1, f2, config.ipfp_max_iters, config.ipfp_tol)
    el = euler_lagrange_residual(f, f_tilde, p_star)
    L_trace = np.asarray(best_result.L_trace)
    if not np.all(np.diff(L_trace) <= 0.0):
        raise RuntimeError("descent trace must be nonincreasing")
    return SolveReport(
        p_star=p_star,
        L_trace=L_trace,
        grad_norm_trace=np.asarray(best_result.grad_trace),
        el_residual_final=el.interior_l2,
        iterations=best_result.iterations,
        termination_reason=best_result.termination,
        max_marginal_error=best_result.max_marginal_error,
        start_finals=[float(x) for x in finals],
        best_start=best,
        multistart_within_tol=within,
        nonconvexity_flag=bool(within < 0.8),
    )
