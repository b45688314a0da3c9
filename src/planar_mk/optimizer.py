"""Descent over the transportation polytope for the reduced objective.

Feasibility is an affine constraint (both marginals fixed). The descent is
entropic mirror descent (Beck & Teboulle 2003): the variation kernel
phi + psi is double-centered into the constraint tangent space, the coupling
takes the multiplicative step p * exp(-s * kernel), and iterative
proportional fitting (IPFP), which is the KL projection onto the polytope,
brings it back to both marginals. Positivity therefore holds by construction
rather than by clipping. Each iteration opens its backtracking line search
at a Barzilai-Borwein step (Barzilai & Borwein 1988) in the mass-weighted
log metric. IPFP also projects arbitrary positive starts into the polytope.

IPFP runs in Sinkhorn's scaling form (Peyre & Cuturi 2019, sec. 4.2): the
masses stay fixed while a row and a column scaling vector alternate, two
matrix-vector products per sweep, and the coupling is built once per
alternation. It is accepted when the built array's own marginal residual,
both sides, is below the tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .coupling import FEAS_TOL, CouplingDensity, _sums_l1_error
from .density_io import read_json
from .measures import DiscreteDensity1D, DiscreteDensity2D, RampCache, floor_band, floor_density
from .reduction import conditional_quantile_field
from .rng import Xoshiro256StarStar
from .variational import ObjectivePass, QuantileFields, euler_lagrange_residual, objective_pass


class NoDescentError(RuntimeError):
    """Line search failed on the very first iteration."""


class IPFPConvergenceError(RuntimeError):
    pass


_STEP_INIT = 1.0     # the first iteration's opening step
_MIN_STEP = 1e-14    # the line search gives up below this step
_ARMIJO = 1e-4       # sufficient-decrease fraction of the line search
_BACKTRACK = 0.5     # step shrink factor per rejected trial
_NOISE_SCALE = 0.5   # multistart log-perturbation amplitude
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
    multistart: int = 1
    seed: int = 0

    def __post_init__(self):
        rules = {  # each rule starts with the field it checks
            "grad_tol must be null or a finite number >= 0":
                self.grad_tol is None or _is_finite(self.grad_tol) and self.grad_tol >= 0,
            "max_iters must be an integer >= 0": _is_int(self.max_iters) and self.max_iters >= 0,
            "multistart must be an integer >= 1": _is_int(self.multistart) and self.multistart >= 1,
            "seed must be an integer": _is_int(self.seed),
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
    start_finals: list[float] = field(default_factory=list)
    best_start: int = 0

    @property
    def L_final(self) -> float:
        return float(self.L_trace[-1])


def _marginal_residual(
    masses: np.ndarray, row_target: np.ndarray, col_target: np.ndarray
) -> tuple[float, np.ndarray]:
    """The larger of the two L1 marginal errors of cell masses, and the row sums it read."""
    row_sums = np.add.reduce(masses, axis=1)
    err = max(_sums_l1_error(row_sums, row_target), _sums_l1_error(np.add.reduce(masses, axis=0), col_target))
    return err, row_sums


def _floor_tight(areas: np.ndarray, row_target: np.ndarray, col_target: np.ndarray) -> bool:
    """Whether `_ipfp_core` may skip its re-floor passes: a row or column target at its floor mass (`floor_band`)."""
    floor = floor_band(areas)[1]
    return bool((row_target <= floor * areas.sum(axis=1)).any() or (col_target <= floor * areas.sum(axis=0)).any())


def _ipfp_core(
    raw: np.ndarray, areas: np.ndarray, row_target: np.ndarray, col_target: np.ndarray, floor_tight: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """IPFP on plain value arrays; raises after _IPFP_SWEEPS sweeps with the residual.

    The input is floored first; below _IPFP_TOL it is returned as floored.
    Each alternation holds the masses v * areas fixed and iterates the
    Sinkhorn scaling vectors u (rows) and w (columns), two matrix-vector
    products per sweep, until their row error falls below _IPFP_TOL. Then it
    builds v * u * w once and keeps it if that array's own residual, both
    sides, is below _IPFP_TOL too; else the vectors start over from the built
    array, and the sweep count runs on. The gate reads the column error only
    once the row error passes.

    The floor is `floor_density(areas)`, a mass of 1e-10 in all on any
    domain. Scaling can shave floored cells below it; up to three re-floor
    passes then floor and re-converge. A cell still below the floor gets a
    final bump: floored and rescaled to unit mass, which leaves the _IPFP_TOL
    gate and moves the residual by at most twice the lifted mass, 2e-10.
    When floor_tight (`_floor_tight` of the areas and targets) holds, a line
    sits at its floor mass, which scaling cannot keep, so a shaved output
    skips the re-floors for the bump.

    Returns the values, their masses values * areas and their marginal
    residual (`_marginal_residual`), the same bits a caller would compute
    from the values. What every returned array keeps: an L1 marginal
    residual, both sides, of at most FEAS_TOL, and a minimum of at least the
    low end of `floor_band(areas)`; the _IPFP_TOL gate as well off the bump.
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

    def alternate(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        masses = v * areas
        err, kw = gate(masses)
        sweeps = 0
        while not err < _IPFP_TOL:
            if sweeps == _IPFP_SWEEPS:  # name the residual of both sides
                raise crawl(_marginal_residual(masses, row_target, col_target)[0])
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

    floor = floor_density(areas)
    values, masses, err = alternate(np.maximum(np.asarray(raw, dtype=float), floor))
    shaved = values.min() < floor
    for _ in range(0 if floor_tight else 3):
        if not shaved:
            break
        values, masses, err = alternate(np.maximum(values, floor))
        shaved = values.min() < floor
    if shaved:
        values = np.maximum(values, floor)
        values = values / float((values * areas).sum())
        masses = values * areas
        err = _marginal_residual(masses, row_target, col_target)[0]
        # unreachable: the bump moves a residual below _IPFP_TOL by at most 2e-10
        if not err <= FEAS_TOL:
            raise IPFPConvergenceError(f"IPFP cannot keep the mass floor: its final bump leaves a residual {err:.3e}")
    return values, masses, err


def _ipfp_values(raw: np.ndarray, f1: DiscreteDensity1D, f2: DiscreteDensity1D) -> np.ndarray:
    """The values `_ipfp_core` returns on the cell areas and cell masses of the marginals f1 and f2."""
    areas = np.outer(f1.grid.cell_widths, f2.grid.cell_widths)
    row_target, col_target = f1.cell_masses, f2.cell_masses
    return _ipfp_core(raw, areas, row_target, col_target, _floor_tight(areas, row_target, col_target))[0]


def ipfp_project(raw: np.ndarray, f1: DiscreteDensity1D, f2: DiscreteDensity1D) -> CouplingDensity:
    """Alternating row/column rescaling onto the marginal targets.

    raw holds density values on (f1.grid, f2.grid); values are floored at
    `floor_density` of the cell areas before scaling, so every slice keeps
    positive mass. Already-feasible input is returned unchanged. The
    result's L1 marginal residual is at most FEAS_TOL and its minimum at
    least the low end of `floor_band`; it is below _IPFP_TOL unless the
    final bump ran (see `_ipfp_core`). Raises after _IPFP_SWEEPS sweeps with
    the residual.
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
class _StartResult:
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
) -> _StartResult:
    grid_x, grid_y = f1.grid, f2.grid
    wx, wy = grid_x.cell_widths, grid_y.cell_widths
    areas = np.outer(wx, wy)
    row_target = f1.cell_masses
    col_target = f2.cell_masses
    floor_tight = _floor_tight(areas, row_target, col_target)
    span = max(float(wx.sum()), float(wy.sum()))
    grad_tol = config.grad_tol if config.grad_tol is not None else 1e-6 * values0.size

    values = values0.copy()
    masses = values * areas
    # successive passes move few center levels to another ramp
    caches = RampCache(), RampCache()
    out = objective_pass(field_f, field_ft, masses, grid_x, grid_y, caches)
    L_cur, grad = out.L_value, out.phi + out.psi
    pg = project_zero_marginals(grad, wx, wy)
    marg_err = _marginal_residual(masses, row_target, col_target)[0]
    traces = _StartResult(values, [L_cur], [], 0, "max_iters", marg_err)
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
                cand, m, cand_err = _ipfp_core(values * np.exp(z - z.max()), areas, row_target, col_target, floor_tight)
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

    Each start runs entropic mirror descent (see the module docstring) until
    the projected gradient norm reaches grad_tol, the decrease falls below
    _STALL_TOL * max(1, |L|), or max_iters. Multistart: start 0 is the
    independent coupling f1 (x) f2; further starts are IPFP-projected
    log-uniform perturbations of it, each driven by a child stream of the
    seed so results are independent of scheduling. Starts run one after
    another. p* is the best start's last iterate, an IPFP output; a start
    that took no step is projected, since start 0 is the raw independent
    coupling, which can sit below the coupling floor.
    """
    config = config or SolverConfig()
    f1, f2 = f.marginals[0], f_tilde.marginals[1]
    field_f = conditional_quantile_field(f, "x")
    field_ft = conditional_quantile_field(f_tilde, "y")
    rng = Xoshiro256StarStar(config.seed)

    independent = np.outer(f1.values, f2.values)

    def run_start(k: int) -> _StartResult:
        v0 = independent
        if k > 0:  # log-uniform perturbation of the independent coupling
            noise = rng.spawn(k).uniform(-1.0, 1.0, size=independent.shape)
            v0 = _ipfp_values(independent * np.exp(_NOISE_SCALE * noise), f1, f2)
        return _run_mirror_descent(v0, f1, f2, field_f, field_ft, config)

    results = [run_start(k) for k in range(config.multistart)]

    finals = [r.L_trace[-1] for r in results]
    best = int(np.argmin(finals))
    best_result = results[best]
    if best_result.iterations:
        p_star = CouplingDensity(f1.grid, f2.grid, best_result.values, f1, f2)
    else:
        p_star = ipfp_project(best_result.values, f1, f2)
    el = euler_lagrange_residual(f, f_tilde, p_star, (field_f, field_ft))
    L_trace = np.asarray(best_result.L_trace)
    if not np.all(np.diff(L_trace) <= 0.0):
        raise RuntimeError("descent trace must be nonincreasing")
    return SolveReport(
        p_star=p_star,
        L_trace=L_trace,
        grad_norm_trace=np.asarray(best_result.grad_trace),
        el_residual_final=el.interior_l2,
        at_p_star=el.at_p,
        fields=(field_f, field_ft),
        iterations=best_result.iterations,
        termination_reason=best_result.termination,
        max_marginal_error=best_result.max_marginal_error,
        start_finals=[float(x) for x in finals],
        best_start=best,
    )
