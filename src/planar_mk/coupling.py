"""Couplings: 2-D densities constrained to the transportation polytope.

A coupling density fixes its first marginal to the source's x-marginal and
its second marginal to the target's y-marginal. Membership is validated in
L1 of the cell masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import EPS_FLOOR, DiscreteDensity1D, DiscreteDensity2D

# L1 tolerance for membership in the constraint polytope.
FEAS_TOL = 1e-9


class MarginalMismatchError(ValueError):
    pass


class FeasibilityError(ValueError):
    pass


def marginal_l1_errors(
    masses: np.ndarray, row_target: np.ndarray, col_target: np.ndarray
) -> tuple[float, float]:
    """L1 distances of the row and column sums of cell masses from their targets."""
    row_err = float(np.sum(np.abs(masses.sum(axis=1) - row_target)))
    col_err = float(np.sum(np.abs(masses.sum(axis=0) - col_target)))
    return row_err, col_err


@dataclass(frozen=True)
class CouplingDensity:
    density: DiscreteDensity2D
    target_row_marginal: DiscreteDensity1D  # x-marginal of the source density
    target_col_marginal: DiscreteDensity1D  # y-marginal of the target density

    def __post_init__(self):
        if not np.array_equal(self.density.grid_x.nodes, self.target_row_marginal.grid.nodes):
            raise ValueError("coupling x-grid must match the row-marginal grid")
        if not np.array_equal(self.density.grid_y.nodes, self.target_col_marginal.grid.nodes):
            raise ValueError("coupling y-grid must match the col-marginal grid")
        row_err, col_err = marginal_l1_errors(
            self.density.cell_masses,
            self.target_row_marginal.cell_masses,
            self.target_col_marginal.cell_masses,
        )
        if max(row_err, col_err) > FEAS_TOL:
            raise FeasibilityError(
                f"marginal L1 errors ({row_err:.3e}, {col_err:.3e}) exceed {FEAS_TOL}"
            )
        # unit-mass rescaling after the floor bump can shave a relative sliver
        if np.min(self.density.values) < EPS_FLOOR * (1.0 - 1e-9):
            raise ValueError("coupling density dips below the positivity floor")

    @property
    def values(self) -> np.ndarray:
        return self.density.values

    @property
    def cell_masses(self) -> np.ndarray:
        return self.density.cell_masses


def as_density(p: "CouplingDensity | DiscreteDensity2D") -> DiscreteDensity2D:
    return p.density if isinstance(p, CouplingDensity) else p
