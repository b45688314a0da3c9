"""Reusable density builders for tests, experiments and demos."""

from __future__ import annotations

import numpy as np

from .measures import DiscreteDensity1D, DiscreteDensity2D, Grid1D
from .rng import Xoshiro256StarStar


def density_1d_from_function(grid: Grid1D, fn) -> DiscreteDensity1D:
    """Midpoint-sampled 1-D density, floored and renormalized."""
    return DiscreteDensity1D.from_values(grid, np.asarray(fn(grid.centers), dtype=float))


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


def product_density_2d(u: DiscreteDensity1D, v: DiscreteDensity1D) -> DiscreteDensity2D:
    return DiscreteDensity2D(u.grid, v.grid, np.outer(u.values, v.values))


def smooth_random_density_2d(
    grid_x: Grid1D,
    grid_y: Grid1D,
    seed: int,
    n_modes: int = 3,
    amplitude: float = 0.8,
) -> DiscreteDensity2D:
    """Random low-frequency positive density: exp of a small cosine series."""
    rng = Xoshiro256StarStar(seed)
    lx = grid_x.nodes[-1] - grid_x.nodes[0]
    ly = grid_y.nodes[-1] - grid_y.nodes[0]
    X, Y = np.meshgrid(grid_x.centers, grid_y.centers, indexing="ij")
    bump = np.zeros_like(X)
    for kx in range(n_modes):
        for ky in range(n_modes):
            amp = amplitude * rng.uniform(-1.0, 1.0) / (1.0 + kx + ky)
            phase_x = rng.uniform(0.0, 2 * np.pi)
            phase_y = rng.uniform(0.0, 2 * np.pi)
            bump += amp * np.cos(np.pi * kx * (X - grid_x.nodes[0]) / lx + phase_x) * np.cos(
                np.pi * ky * (Y - grid_y.nodes[0]) / ly + phase_y
            )
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


def random_feasible_coupling_values(
    f1: DiscreteDensity1D,
    f2: DiscreteDensity1D,
    seed: int,
    roughness: float = 0.5,
) -> np.ndarray:
    """Random positive values for IPFP projection into the coupling polytope."""
    rng = Xoshiro256StarStar(seed)
    base = np.outer(f1.values, f2.values)
    noise = rng.uniform(-1.0, 1.0, size=base.shape)
    return base * np.exp(roughness * noise)


def aligned_atomic_instance(
    seed: int,
    n_atoms: int,
    resolution: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random 1-D atoms whose masses are exact multiples of 1/resolution.

    Every quantile breakpoint lies on the lattice k/resolution. Exactness of
    `w2_squared_1d` does not depend on it: its merged-level integral is exact
    for any masses.
    """
    rng = Xoshiro256StarStar(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, size=n_atoms))
    y = np.sort(rng.uniform(-2.0, 2.0, size=n_atoms))
    x += 1e-6 * np.arange(n_atoms)  # break exact duplicates
    y += 1e-6 * np.arange(n_atoms)

    def masses() -> np.ndarray:
        cuts = np.sort([rng.integers(resolution - 1) + 1 for _ in range(n_atoms - 1)])
        counts = np.diff(np.concatenate([[0], cuts, [resolution]]))
        counts = np.maximum(counts, 1)
        counts[-1] = resolution - counts[:-1].sum()
        if counts[-1] < 1:  # rebalance pathological draws
            counts = np.full(n_atoms, resolution // n_atoms)
            counts[-1] = resolution - counts[:-1].sum()
        return counts / resolution

    return x, masses(), y, masses()
