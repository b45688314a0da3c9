import numpy as np
import pytest

from planar_mk.instances import gaussian_2d, shifted_density_2d, smooth_random_density_2d
from planar_mk.measures import DiscreteDensity2D, Grid1D, QuantileTable, marginals_2d
from planar_mk.optimizer import ipfp_project


def density_cdf(d, x):
    """Forward piecewise-linear CDF of a 1-D density at x, read off its quantile table."""
    table = QuantileTable.from_density(d)
    return np.interp(x, table.values[0], table.probs[0])


@pytest.fixture
def unit_grid_8():
    return Grid1D.uniform(0.0, 1.0, 8)


@pytest.fixture
def correlated_pair_8(unit_grid_8):
    f = gaussian_2d(unit_grid_8, unit_grid_8, rho=0.4, sigma=(0.25, 0.22))
    f_tilde = gaussian_2d(
        unit_grid_8, unit_grid_8, rho=-0.3, sigma=(0.24, 0.28), mean=(0.45, 0.55)
    )
    return f, f_tilde


@pytest.fixture
def independent_coupling_8(correlated_pair_8):
    f, f_tilde = correlated_pair_8
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    return ipfp_project(np.outer(f1.values, f2.values), f1, f2)


def make_smooth_feasible_coupling(f, f_tilde, seed, amplitude=0.6):
    """Feasible coupling from a fixed-frequency log-perturbation of the
    independent one; resolution-consistent, so refinement studies make sense."""
    f1, _ = marginals_2d(f)
    _, f2 = marginals_2d(f_tilde)
    bump = smooth_random_density_2d(f.grid_x, f_tilde.grid_y, seed=seed, amplitude=amplitude)
    return ipfp_project(np.outer(f1.values, f2.values) * bump.values, f1, f2)


def shift_pair(seed, sx, sy, n, side=1.0):
    """Criterion 4's construction on an n x n grid over [0, side]^2: a smooth
    density with a vacated margin, paired with its whole-cell shift."""
    g = Grid1D.uniform(0.0, side, n)
    vals = smooth_random_density_2d(g, g, seed=seed).values.copy()
    if sx:
        vals[-sx:, :] = 0
    if sy:
        vals[:, -sy:] = 0
    f = DiscreteDensity2D.from_values(g, g, vals)
    return f, shifted_density_2d(f, sx, sy)


def narrow_gaussian_pair(n):
    """Two narrow correlated Gaussians on an n x n unit grid; at 16x16 their
    corner cells hold floor-level masses, down to 6.6e-12."""
    g = Grid1D.uniform(0.0, 1.0, n)
    f = gaussian_2d(g, g, mean=(0.5, 0.5), sigma=(0.10, 0.08), rho=0.4)
    f_tilde = gaussian_2d(g, g, mean=(0.47, 0.53), sigma=(0.09, 0.11), rho=-0.3)
    return f, f_tilde
