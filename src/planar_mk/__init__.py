"""Optimal quadratic-cost couplings of planar densities.

The coupling problem between two planar densities is reduced to an
optimization over joint densities of one coordinate from each side; the full
coupling is rebuilt through conditional-quantile maps, and every stage is
cross-checked against an exact discrete LP and a stationarity residual.
"""

__version__ = "0.1.0"

from .coupling import CouplingDensity, FeasibilityError
from .measures import (
    EPS_FLOOR,
    DiscreteDensity1D,
    DiscreteDensity2D,
    Grid1D,
    QuantileTable,
    marginals_2d,
    per_axis_w2_sum,
    w2_squared_1d,
)
from .optimizer import SolveReport, SolverConfig, feasible_direction, ipfp_project, solve
from .oracle import (
    TransportInstance,
    TransportPlan,
    comonotone_plan_1d,
    solve_full_2d,
    solve_lp,
)
from .reduction import (
    build_g_map,
    build_h_map,
    coupling_cost,
    pushforward_check,
    pushforward_check_h,
)
from .variational import (
    evaluate_L,
    euler_lagrange_residual,
    first_variation,
    lemma1_checker,
    lemma2_checker,
    simplified_cross_derivatives,
)

__all__ = [
    "CouplingDensity",
    "DiscreteDensity1D",
    "DiscreteDensity2D",
    "EPS_FLOOR",
    "FeasibilityError",
    "Grid1D",
    "QuantileTable",
    "SolveReport",
    "SolverConfig",
    "TransportInstance",
    "TransportPlan",
    "build_g_map",
    "build_h_map",
    "comonotone_plan_1d",
    "coupling_cost",
    "evaluate_L",
    "euler_lagrange_residual",
    "feasible_direction",
    "first_variation",
    "ipfp_project",
    "lemma1_checker",
    "lemma2_checker",
    "marginals_2d",
    "per_axis_w2_sum",
    "pushforward_check",
    "pushforward_check_h",
    "simplified_cross_derivatives",
    "solve",
    "solve_full_2d",
    "solve_lp",
    "w2_squared_1d",
]
