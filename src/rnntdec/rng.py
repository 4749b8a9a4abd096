"""Deterministic random number generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014) run in counter mode:
draw ``i`` of a stream seeded with ``s`` is ``mix64(s + (i+1)*GOLDEN)`` where
``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the standard SplitMix64
finalizer.  Because each draw is a pure function of (seed, index),
generation vectorizes over numpy uint64 arrays; ``_mix64_array`` computes
exactly what the scalar ``_mix64`` does, element by element.

The uint64 and uniform streams are bit-reproducible on any platform (integer
arithmetic plus exact power-of-two scaling).  Normal deviates use Box-Muller
on consecutive uniform pairs; their reproducibility is subject to the
platform libm's rounding of log/cos/sin, which matches across common targets
in practice.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    return z ^ (z >> 31)


class SeededRng:
    """SplitMix64 stream; identical seeds give identical streams."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def derive(self, salt: int) -> "SeededRng":
        """Independent child stream; a pure function of (seed, salt)."""
        return SeededRng(_mix64(self._seed ^ _mix64(salt & _MASK)))

    def uint64(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64_array(np.uint64(self._seed) + idx * np.uint64(_GOLDEN))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, shape, std: float = 1.0, dtype=np.float64) -> np.ndarray:
        """Gaussian(0, std) via Box-Muller; consumes 2*ceil(size/2) draws."""
        size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        pairs = (size + 1) // 2
        u = self.uint64(2 * pairs)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
        u1 = ((u[:pairs] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (u[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        out = (out[:size] * std).reshape(shape).astype(dtype, copy=False)
        return out if out.base is None else out.copy()

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n ints uniform on [low, high); scaled 53-bit uniforms."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        return (self.uniform(n) * (high - low)).astype(np.int64) + low

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        if n > 1:
            u = self.uniform(n - 1)
            for k, i in enumerate(range(n - 1, 0, -1)):
                j = int(u[k] * (i + 1))
                perm[i], perm[j] = perm[j], perm[i]
        return perm
