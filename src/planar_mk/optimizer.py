"""Descent over the transportation polytope for the reduced objective.

Feasibility is an affine constraint (both marginals fixed). The descent is
entropic mirror descent (Beck & Teboulle 2003): the variation kernel
phi + psi is double-centered into the constraint tangent space, the coupling
takes the multiplicative step p * exp(-s * kernel), and iterative
proportional fitting (IPFP), which is the KL projection onto the polytope,
brings it back to both marginals. Each iteration opens its backtracking line
search at a Barzilai-Borwein step (Barzilai & Borwein 1988) in the
mass-weighted log metric. `solve` runs one descent, from the independent
coupling f1 (x) f2, and draws no random numbers. IPFP also projects arbitrary
nonnegative arrays into the polytope.

IPFP runs in Sinkhorn's scaling form (Peyre & Cuturi 2019, sec. 4.2): the
masses stay fixed while a row and a column scaling vector alternate, two
matrix-vector products per sweep, and the coupling is built once per
alternation. It is accepted when the built array's own marginal residual,
both sides, is below the tolerance. Scaling needs every row and column to
hold mass (sec. 4.2), so IPFP floors its input at a mass of 1e-20 in all;
what it returns carries no floor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .coupling import CouplingDensity, _sums_l1_error
from .density_io import read_json
from .measures import EPS_FLOOR, DiscreteDensity1D, DiscreteDensity2D, RampCache, floor_density
from .reduction import conditional_quantile_field
from .variational import ObjectivePass, QuantileFields, euler_lagrange_residual, objective_pass


class NoDescentError(RuntimeError):
    """Line search failed on the very first iteration."""


class IPFPConvergenceError(RuntimeError):
    pass


_STEP_INIT = 1.0     # the first iteration's opening step
_MIN_STEP = 1e-14    # the line search gives up below this step
_ARMIJO = 1e-4       # sufficient-decrease fraction of the line search
_BACKTRACK = 0.5     # step shrink factor per rejected trial
_IPFP_SWEEPS = 10_000  # IPFP raises after this many sweeps of one alternation
_IPFP_TOL = 1e-13    # IPFP stops when the L1 marginal error falls below
_STALL_TOL = 1e-12   # the descent stops when L falls by less than this times max(1, |L|)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < math.inf


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float | None = None       # default: 1e-6 * number of cells
    max_iters: int = 10_000

    def __post_init__(self):
        rules = {  # each rule starts with the field it checks
            "grad_tol must be null or a finite number >= 0":
                self.grad_tol is None or _is_finite(self.grad_tol) and self.grad_tol >= 0,
            "max_iters must be an integer >= 0": _is_int(self.max_iters) and self.max_iters >= 0,
        }
        for rule, ok in rules.items():
            if not ok:
                raise ValueError(f"config {rule}, got {getattr(self, rule.split()[0])!r}")

    @staticmethod
    def from_json(path: str) -> "SolverConfig":
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a solver config must be a JSON object")
        known = {f.name for f in SolverConfig.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        try:
            return SolverConfig(**raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveReport:
    p_star: CouplingDensity
    L_trace: np.ndarray
    grad_norm_trace: np.ndarray
    el_residual_final: float
    at_p_star: ObjectivePass  # L, g, h, phi and psi at p_star, from its residual
    fields: QuantileFields    # the descent's conditional-quantile fields of f and f~
    iterations: int
    termination_reason: str
    max_marginal_error: float

    @property
    def L_final(self) -> float:
        return float(self.L_trace[-1])


def _marginal_residual(masses: np.ndarray, row_target: np.ndarray, col_target: np.ndarray) -> float:
    """The larger of the two L1 marginal errors of cell masses."""
    rows = _sums_l1_error(np.add.reduce(masses, axis=1), row_target)
    return max(rows, _sums_l1_error(np.add.reduce(masses, axis=0), col_target))


def _ipfp_core(
    raw: np.ndarray, areas: np.ndarray, row_target: np.ndarray, col_target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """IPFP on plain value arrays; raises after _IPFP_SWEEPS sweeps with the residual.

    The input is floored first, at EPS_FLOOR times `floor_density(areas)`: a
    mass of 1e-20 in all on any domain, whose only job is to give every row
    and column mass to scale. Below _IPFP_TOL the floored input is returned
    as it stands. Each alternation holds the masses v * areas fixed and
    iterates the Sinkhorn scaling vectors u (rows) and w (columns), two
    matrix-vector products per sweep, until their row error falls below
    _IPFP_TOL. Then it builds v * u * w once and keeps it if that array's own
    residual, both sides, is below _IPFP_TOL too; else the vectors start over
    from the built array, and the sweep count runs on. The gate reads the
    column error only once the row error passes.

    Returns the values, their masses values * areas and their marginal
    residual (`_marginal_residual`), the same bits a caller would compute
    from the values. Every returned array passes the _IPFP_TOL gate; scaling
    may take its cells below the input floor.
    """

    def crawl(err: float) -> IPFPConvergenceError:
        return IPFPConvergenceError(f"IPFP residual {err:.3e} after {_IPFP_SWEEPS} iterations")

    def gate(masses: np.ndarray) -> tuple[float, np.ndarray]:
        # the row sums are masses @ w while w is 1, so the first sweep reads them
        row_sums = np.add.reduce(masses, axis=1)
        err = _sums_l1_error(row_sums, row_target)
        if err < _IPFP_TOL:  # a NaN row error fails here and enters the sweeps
            err = max(err, _sums_l1_error(np.add.reduce(masses, axis=0), col_target))
        return err, row_sums

    v = np.maximum(np.asarray(raw, dtype=float), EPS_FLOOR * floor_density(areas))
    masses = v * areas
    err, kw = gate(masses)
    sweeps = 0
    while not err < _IPFP_TOL:
        if sweeps == _IPFP_SWEEPS:  # name the residual of both sides
            raise crawl(_marginal_residual(masses, row_target, col_target))
        while True:
            u = row_target / kw
            w = col_target / (u @ masses)
            kw = masses @ w
            err = _sums_l1_error(u * kw, row_target)
            sweeps += 1
            if err < _IPFP_TOL:
                break
            if sweeps == _IPFP_SWEEPS:
                raise crawl(err)
        v = v * u[:, None] * w
        masses = v * areas
        err, kw = gate(masses)
    return v, masses, err


def _ipfp_values(raw: np.ndarray, f1: DiscreteDensity1D, f2: DiscreteDensity1D) -> np.ndarray:
    """`_ipfp_core`'s values on the cell areas and cell masses of the marginals f1 and f2.

    A nonnegative raw that already passes the _IPFP_TOL gate is returned as
    it stands, so a projection's output projects to itself bit for bit.
    """
    areas = np.outer(f1.grid.cell_widths, f2.grid.cell_widths)
    row_target, col_target = f1.cell_masses, f2.cell_masses
    raw = np.asarray(raw, dtype=float)
    if raw.min() >= 0.0 and _marginal_residual(raw * areas, row_target, col_target) < _IPFP_TOL:
        return raw
    return _ipfp_core(raw, areas, row_target, col_target)[0]


def ipfp_project(raw: np.ndarray, f1: DiscreteDensity1D, f2: DiscreteDensity1D) -> CouplingDensity:
    """Alternating row/column rescaling onto the marginal targets (`_ipfp_values`).

    raw holds nonnegative density values on (f1.grid, f2.grid). Input that
    already passes the _IPFP_TOL gate is returned unchanged; other input is
    floored at a mass of 1e-20 in all before scaling, so that every row and
    column has mass, and the result's L1 marginal residual is below
    _IPFP_TOL. Raises after _IPFP_SWEEPS sweeps with the residual.
    """
    return CouplingDensity(f1.grid, f2.grid, _ipfp_values(raw, f1, f2), f1, f2)


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


def project_zero_marginals(fld: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Orthogonal projection (area inner product) onto zero-marginal fields.

    One weighted row centering, then one weighted column centering. The
    sweep is exact on any grid, uniform or not: the column step shifts each
    weighted row sum by the weighted grand sum, which the row step has
    already made 0.
    """
    g = np.array(fld, dtype=float)
    g -= ((g @ wy) / wy.sum())[:, None]
    g -= ((wx @ g) / wx.sum())[None, :]
    return g


@dataclass
class _Descent:
    values: np.ndarray
    L_trace: list[float]
    grad_trace: list[float]
    iterations: int
    termination: str
    max_marginal_error: float


def _run_mirror_descent(
    values0: np.ndarray,
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    field_f,
    field_ft,
    config: SolverConfig,
) -> _Descent:
    grid_x, grid_y = f1.grid, f2.grid
    wx, wy = grid_x.cell_widths, grid_y.cell_widths
    areas = np.outer(wx, wy)
    row_target = f1.cell_masses
    col_target = f2.cell_masses
    span = max(float(wx.sum()), float(wy.sum()))
    grad_tol = config.grad_tol if config.grad_tol is not None else 1e-6 * values0.size

    values = values0.copy()
    masses = values * areas
    # successive passes move few center levels to another ramp
    caches = RampCache(), RampCache()
    out = objective_pass(field_f, field_ft, masses, grid_x, grid_y, caches)
    L_cur, grad = out.L_value, out.phi + out.psi
    pg = project_zero_marginals(grad, wx, wy)
    marg_err = _marginal_residual(masses, row_target, col_target)
    traces = _Descent(values, [L_cur], [], 0, "max_iters", marg_err)
    log_values = np.log(values)
    step = _STEP_INIT

    for it in range(config.max_iters):
        # row/col sums of the direction must vanish (descent stays in the
        # polytope), to roundoff on the gradient's scale in its own units
        marg = max(np.abs(pg @ wy).max(), np.abs(wx @ pg).max())
        if not marg <= 1e-10 * float(np.abs(grad).max()) * span:
            raise RuntimeError(f"descent direction has marginal sums up to {marg:.3e}")
        gnorm = float(np.sqrt((pg**2 * areas).sum()))
        traces.grad_trace.append(gnorm)
        if gnorm <= grad_tol:
            traces.termination = "grad_tol"
            break

        # trial step: multiplicative (entropic mirror) update, then the KL
        # projection back onto the polytope, which is IPFP; the exponent is
        # shifted by its max so it cannot overflow, and IPFP cancels the
        # constant factor. Accept on a generalized Armijo decrease against
        # the realized displacement; the accepted trial's pass carries on,
        # as do the masses and the marginal residual IPFP returns with it.
        s = step
        accepted = ipfp_error = None
        while s > _MIN_STEP:
            z = -s * pg
            try:
                cand, m, cand_err = _ipfp_core(values * np.exp(z - z.max()), areas, row_target, col_target)
            except IPFPConvergenceError as exc:  # rejected, like a trial that does not decrease L
                ipfp_error = exc
            else:
                predicted = float((grad * (cand - values) * areas).sum())
                if predicted < 0.0:
                    trial = objective_pass(field_f, field_ft, m, grid_x, grid_y, caches)
                    if trial.L_value <= L_cur + _ARMIJO * predicted:
                        accepted = trial
                        break
            s *= _BACKTRACK
        if accepted is None:
            if it == 0:
                raise NoDescentError("line search found no decrease at the first iteration") from ipfp_error
            traces.termination = "stalled"  # no achievable decrease
            break

        # Barzilai-Borwein opening step for the next iteration, in the log
        # metric weighted by the accepted masses; the accepted step when the
        # curvature estimate is not positive
        grad = accepted.phi + accepted.psi
        pg_new = project_zero_marginals(grad, wx, wy)
        log_cand = np.log(cand)
        dlog = log_cand - log_values
        m_dlog = m * dlog
        curv = float((m_dlog * (pg_new - pg)).sum())
        step = float((m_dlog * dlog).sum()) / curv if curv > 0.0 else s

        values, log_values, pg = cand, log_cand, pg_new
        decrease = L_cur - accepted.L_value
        L_cur = accepted.L_value
        traces.L_trace.append(L_cur)
        traces.max_marginal_error = max(traces.max_marginal_error, cand_err)
        traces.iterations = it + 1
        if decrease < _STALL_TOL * max(1.0, abs(L_cur)):
            traces.termination = "stalled"
            break

    traces.values = values
    return traces


def solve(
    f: DiscreteDensity2D,
    f_tilde: DiscreteDensity2D,
    config: SolverConfig | None = None,
) -> SolveReport:
    """Minimize the reduced objective over couplings of (f1, f2).

    One entropic mirror descent (see the module docstring) runs from the
    independent coupling f1 (x) f2 until the projected gradient norm reaches
    grad_tol, the decrease falls below _STALL_TOL * max(1, |L|), or
    max_iters. It draws no random numbers. p* is the last iterate as it
    stands: an IPFP output, or after no step the raw independent coupling,
    whose marginals are f1's and f2's to roundoff.
    """
    config = config or SolverConfig()
    f1, f2 = f.marginals[0], f_tilde.marginals[1]
    field_f = conditional_quantile_field(f, "x")
    field_ft = conditional_quantile_field(f_tilde, "y")
    run = _run_mirror_descent(np.outer(f1.values, f2.values), f1, f2, field_f, field_ft, config)
    p_star = CouplingDensity(f1.grid, f2.grid, run.values, f1, f2)
    el = euler_lagrange_residual(f, f_tilde, p_star, (field_f, field_ft))
    L_trace = np.asarray(run.L_trace)
    if not np.all(np.diff(L_trace) <= 0.0):
        raise RuntimeError("descent trace must be nonincreasing")
    return SolveReport(
        p_star=p_star,
        L_trace=L_trace,
        grad_norm_trace=np.asarray(run.grad_trace),
        el_residual_final=el.interior_l2,
        at_p_star=el.at_p,
        fields=(field_f, field_ft),
        iterations=run.iterations,
        termination_reason=run.termination,
        max_marginal_error=run.max_marginal_error,
    )
