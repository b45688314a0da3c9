"""Deterministic pseudo-random numbers for reproducible reports.

All randomness in the solver and CLI flows through xoshiro256** (Blackman &
Vigna), seeded via splitmix64. Both algorithms are fixed by their published
constants, so a report produced from a given seed is reproducible bit-for-bit
by any conforming implementation, independent of the host platform's default
RNG.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# splitmix64 constants
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + _SM_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
    z ^= z >> 31
    return z, state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** generator; 64-bit output, 256-bit state.

    State is initialized from `seed` by four splitmix64 draws, per the
    authors' recommendation. `spawn(k)` derives an independent child stream
    (the k-th splitmix64 output of the parent seed reseeds a fresh
    generator), used for multistart workers so results do not depend on
    scheduling order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        s = []
        state = self.seed
        for _ in range(4):
            z, state = _splitmix64_next(state)
            s.append(z)
        self._s = s

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        # 53-bit mantissa convention: uniform on [0, 1)
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size: int | tuple[int, ...] | None = None) -> np.ndarray | float:
        if size is None:
            return lo + (hi - lo) * self.random()
        n = int(np.prod(size))
        out = np.array([self.random() for _ in range(n)])
        return lo + (hi - lo) * out.reshape(size)

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection-free modulo of 53-bit draws."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.random() * n) % n

    def spawn(self, k: int) -> "Xoshiro256StarStar":
        state = self.seed
        z = self.seed
        for _ in range(int(k) + 1):
            z, state = _splitmix64_next(state)
        return Xoshiro256StarStar(z)
