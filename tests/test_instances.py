import numpy as np
import pytest

from planar_mk.instances import _N_MODES, smooth_random_density_2d
from planar_mk.measures import DiscreteDensity2D, Grid1D
from planar_mk.rng import Xoshiro256StarStar


def _full_grid_smooth_density(grid_x, grid_y, seed, amplitude=0.8):
    """`smooth_random_density_2d` as a full-grid formula: two cosines on the whole meshgrid per mode."""
    rng = Xoshiro256StarStar(seed)
    lx = grid_x.nodes[-1] - grid_x.nodes[0]
    ly = grid_y.nodes[-1] - grid_y.nodes[0]
    X, Y = np.meshgrid(grid_x.centers, grid_y.centers, indexing="ij")
    bump = np.zeros_like(X)
    for kx in range(_N_MODES):
        for ky in range(_N_MODES):
            amp = amplitude * rng.uniform(-1.0, 1.0) / (1.0 + kx + ky)
            phase_x = rng.uniform(0.0, 2 * np.pi)
            phase_y = rng.uniform(0.0, 2 * np.pi)
            bump += amp * np.cos(np.pi * kx * (X - grid_x.nodes[0]) / lx + phase_x) * np.cos(
                np.pi * ky * (Y - grid_y.nodes[0]) / ly + phase_y
            )
    return DiscreteDensity2D.from_values(grid_x, grid_y, np.exp(bump))


def _nonuniform(lo, n, seed):
    return Grid1D(lo + np.cumsum(np.r_[0.0, np.random.default_rng(seed).uniform(0.1, 3.0, n)]))


_U = Grid1D.uniform
# (grid_x, grid_y, seeds, amplitudes)
_GRIDS = {
    **{f"square{n}": (_U(0.0, 1.0, n), _U(0.0, 1.0, n), (0, 1, 2), (0.8,)) for n in (1, 2, 7, 8, 9, 16, 17, 64)},
    "refine256_bump": (_U(0.0, 1.0, 256), _U(0.0, 1.0, 256), (3,), (0.6,)),
    "criterion5_bump": (_U(0.0, 1.0, 16), _U(0.0, 1.0, 16), (5,), (0.15,)),
    "square256_offset": (_U(-3.0, 4.0, 256), _U(1e3, 1e3 + 50.0, 256), (11,), (0.8, 2.5)),
    "non_square_1x5": (_U(0.0, 1.0, 1), _U(0.0, 1.0, 5), (4, 21), (0.8, 0.5)),
    "non_square_17x64": (_U(0.0, 2.0, 17), _U(-1.0, 1.0, 64), (8, 22), (0.8, 0.6)),
    "non_square_256x9": (_U(0.0, 1.0, 256), _U(0.0, 7.0, 9), (100,), (0.8,)),
    "nonuniform_9x16": (_nonuniform(0.0, 9, 1), _nonuniform(-2.0, 16, 2), (7, 200), (0.8, 1.5)),
    "nonuniform_64x33": (_nonuniform(5.0, 64, 3), _nonuniform(0.0, 33, 4), (61,), (0.8,)),
}


@pytest.mark.parametrize("case", list(_GRIDS))
def test_smooth_density_is_the_full_grid_formula_bit_for_bit(case):
    grid_x, grid_y, seeds, amplitudes = _GRIDS[case]
    for seed in seeds:
        for amplitude in amplitudes:
            got = smooth_random_density_2d(grid_x, grid_y, seed=seed, amplitude=amplitude).values
            want = _full_grid_smooth_density(grid_x, grid_y, seed, amplitude).values
            assert np.array_equal(got, want), (seed, amplitude)
