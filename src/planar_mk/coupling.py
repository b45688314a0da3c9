"""Couplings: 2-D densities constrained to the transportation polytope.

A coupling density is a 2-D density whose first marginal is the source's
x-marginal and whose second is the target's y-marginal. This module owns
the rule for "p is a coupling of f and f~", checked one side at a time:
along each axis p lies on the target marginal's grid, node for node, and
its marginal matches the target's cell masses within FEAS_TOL in L1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D

# L1 tolerance for membership in the constraint polytope.
FEAS_TOL = 1e-9

# (density, axis) named in error texts: axis 0 is f's x-marginal, axis 1 f~'s y-marginal
_SIDES = (("f", "x"), ("f~", "y"))


class FeasibilityError(ValueError):
    pass


def _sums_l1_error(sums: np.ndarray, target: np.ndarray) -> float:
    """L1 distance of precomputed marginal sums of cell masses from their target."""
    return float(np.add.reduce(np.abs(sums - target)))


def marginal_l1_error(masses: np.ndarray, target: np.ndarray, axis: int) -> float:
    """L1 distance of a marginal of cell masses from its target.

    axis 0 is the x-marginal (row sums), axis 1 the y-marginal (column sums).
    """
    return _sums_l1_error(masses.sum(axis=1 - axis), target)


def check_coupling_grid(grid: Grid1D, target: DiscreteDensity1D, axis: int) -> None:
    """The grid rule: p's grid along axis is the target marginal's, node for node."""
    if not np.array_equal(grid.nodes, target.grid.nodes):
        name, label = _SIDES[axis]
        raise ValueError(f"p and {name} must share the {label}-grid")


def check_coupling_side(p: DiscreteDensity2D, target: DiscreteDensity1D, axis: int) -> None:
    """The coupling check on one side: axis 0 against f's x-marginal, 1 against f~'s y-marginal.

    The grid rule first, then the L1 marginal error must be at most FEAS_TOL.
    """
    check_coupling_grid((p.grid_x, p.grid_y)[axis], target, axis)
    err = marginal_l1_error(p.cell_masses, target.cell_masses, axis)
    if not err <= FEAS_TOL:
        raise FeasibilityError(
            f"p is not feasible: {_SIDES[axis][1]}-marginal L1 error {err:.3e} exceeds {FEAS_TOL}"
        )


@dataclass(frozen=True)
class CouplingDensity(DiscreteDensity2D):
    """A 2-D density that passes the coupling check on both sides; its cells may be zero."""

    target_row_marginal: DiscreteDensity1D  # x-marginal of the source density
    target_col_marginal: DiscreteDensity1D  # y-marginal of the target density

    def __post_init__(self):
        super().__post_init__()
        check_coupling_side(self, self.target_row_marginal, 0)
        check_coupling_side(self, self.target_col_marginal, 1)

    @property
    def density(self) -> "CouplingDensity":
        """The coupling itself, kept for perfbench/workloads.py, which reads `p.density`."""
        return self
