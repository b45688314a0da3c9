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
    per_axis_w2_sum,
    w2_squared_1d,
)
from .optimizer import SolveReport, SolverConfig, ipfp_project, solve
from .oracle import TransportInstance, TransportPlan, solve_full_2d, solve_lp
from .reduction import coupling_cost, pushforward_check, pushforward_check_h
from .variational import (
    evaluate,
    euler_lagrange_residual,
    lemma1_checker,
    lemma2_checker,
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
    "coupling_cost",
    "evaluate",
    "euler_lagrange_residual",
    "ipfp_project",
    "lemma1_checker",
    "lemma2_checker",
    "per_axis_w2_sum",
    "pushforward_check",
    "pushforward_check_h",
    "solve",
    "solve_full_2d",
    "solve_lp",
    "w2_squared_1d",
]
