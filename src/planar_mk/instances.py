"""Planar density builders for the scripts, the benchmark and the tests.

Each returns a floored, renormalized `DiscreteDensity2D`: a function sampled
at cell centers, a truncated correlated Gaussian, a seeded smooth random
density, or a density shifted by whole cells.
"""

from __future__ import annotations

import numpy as np

from .measures import DiscreteDensity2D, Grid1D
from .rng import Xoshiro256StarStar

# cosine modes per axis of `smooth_random_density_2d`
_N_MODES = 3


def density_2d_from_function(grid_x: Grid1D, grid_y: Grid1D, fn) -> DiscreteDensity2D:
    X, Y = np.meshgrid(grid_x.centers, grid_y.centers, indexing="ij")
    return DiscreteDensity2D.from_values(grid_x, grid_y, np.asarray(fn(X, Y), dtype=float))


def gaussian_2d(
    grid_x: Grid1D,
    grid_y: Grid1D,
    mean: tuple[float, float] = (0.5, 0.5),
    sigma: tuple[float, float] = (0.2, 0.2),
    rho: float = 0.0,
) -> DiscreteDensity2D:
    """Correlated Gaussian bump truncated to the box and renormalized."""
    if not -1.0 < rho < 1.0:
        raise ValueError("correlation must lie in (-1, 1)")
    mx, my = mean
    sx, sy = sigma

    def fn(X, Y):
        zx = (X - mx) / sx
        zy = (Y - my) / sy
        return np.exp(-(zx**2 - 2 * rho * zx * zy + zy**2) / (2 * (1 - rho**2)))

    return density_2d_from_function(grid_x, grid_y, fn)


def smooth_random_density_2d(
    grid_x: Grid1D,
    grid_y: Grid1D,
    seed: int,
    amplitude: float = 0.8,
) -> DiscreteDensity2D:
    """Random low-frequency positive density: exp of a small cosine series."""
    rng = Xoshiro256StarStar(seed)
    x0, y0 = grid_x.nodes[0], grid_y.nodes[0]
    lx, ly = grid_x.nodes[-1] - x0, grid_y.nodes[-1] - y0
    bump = np.zeros((grid_x.n_cells, grid_y.n_cells))
    for kx in range(_N_MODES):
        for ky in range(_N_MODES):
            amp = amplitude * rng.uniform(-1.0, 1.0) / (1.0 + kx + ky)
            phase_x = rng.uniform(0.0, 2 * np.pi)
            phase_y = rng.uniform(0.0, 2 * np.pi)
            # each mode is the outer product of its 1-D cosines, (amp * cos a_i) * cos b_j
            cx = amp * np.cos(np.pi * kx * (grid_x.centers - x0) / lx + phase_x)
            bump += np.outer(cx, np.cos(np.pi * ky * (grid_y.centers - y0) / ly + phase_y))
    return DiscreteDensity2D.from_values(grid_x, grid_y, np.exp(bump))


def shifted_density_2d(d: DiscreteDensity2D, shift_x: int = 0, shift_y: int = 0) -> DiscreteDensity2D:
    """Shift the mass by whole cells inside the box (vacated cells go to the floor).

    Masses pushed past the boundary would be lost, so the caller should leave
    a margin; the result is refloored and renormalized.
    """
    values = np.full_like(d.values, 0.0)
    n_x, n_y = d.values.shape
    src_x = slice(max(0, -shift_x), min(n_x, n_x - shift_x))
    src_y = slice(max(0, -shift_y), min(n_y, n_y - shift_y))
    dst_x = slice(max(0, shift_x), min(n_x, n_x + shift_x))
    dst_y = slice(max(0, shift_y), min(n_y, n_y + shift_y))
    values[dst_x, dst_y] = d.values[src_x, src_y]
    return DiscreteDensity2D.from_values(d.grid_x, d.grid_y, values)
