"""Deterministic random numbers for synthetic data and k-means seeding.

The generator is SplitMix64 (Steele, Lea & Flood 2014; the mixer behind
``java.util.SplittableRandom``): a 64-bit counter advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, scrambled by a two-multiply xor-shift finalizer.
It is pinned here, rather than delegating to ``numpy.random``, so that every
fixture is reproducible by any implementation of the same mixer.

Derived quantities are defined on top of the raw 64-bit stream:

* unit doubles take the top 53 bits of one output word: ``(w >> 11) * 2**-53``,
  giving values in ``[0, 1)``;
* Gaussians use the Box-Muller transform on consecutive unit doubles
  (``u1`` redrawn while zero); each transform yields the pair
  ``(sqrt(-2 ln u1) cos(2 pi u2), sqrt(-2 ln u1) sin(2 pi u2))`` and the two
  values are consumed in that order;
* matrices are filled row-major;
* substream ``k`` of seed ``s`` starts from ``mix64(s + (k + 1) * GOLDEN)``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U64 = np.uint64


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanching bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable SplitMix64 stream with unit-double and Gaussian draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_gaussian: float | None = None

    @classmethod
    def substream(cls, seed: int, index: int) -> "SplitMix64":
        """Independent child stream; documented derivation, see module docstring."""
        return cls(mix64((seed + (index + 1) * _GOLDEN) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def unit(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of one word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; pairs are cached in draw order."""
        if self._spare_gaussian is not None:
            g = self._spare_gaussian
            self._spare_gaussian = None
            return g
        u1 = self.unit()
        while u1 == 0.0:
            u1 = self.unit()
        u2 = self.unit()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_gaussian = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard-normal matrix, filled row-major."""
        out = np.empty((rows, cols))
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self.gaussian()
        return out


def substream_states(seed: int, count: int) -> np.ndarray:
    """The uint64 states of ``SplitMix64.substream(seed, r)`` for r < count, for ``units``."""
    return np.array([SplitMix64.substream(seed, r)._state for r in range(count)], dtype=_U64)


def units(states: np.ndarray) -> np.ndarray:
    """Advance each stream state of ``states`` in place by one word; each stream's ``unit()``.

    numpy's uint64 array arithmetic wraps modulo 2**64, as the stream's
    definition does, so every value is bit-identical to ``SplitMix64.unit``.
    """
    states += _U64(_GOLDEN)
    z = states ^ (states >> _U64(30))
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53
