"""Seedable, platform-independent PRNG (splitmix64).

All randomized code in this package draws from this generator so that a
recorded 64-bit seed replays bit-identically on any platform. Sub-streams
for independent trials are derived with :func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1 << 20


def _mix(z):
    """The splitmix64 output function, on one int or on a ``uint64`` array
    (whose arithmetic wraps modulo 2^64 by itself)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit splitmix generator; state advances by the golden-ratio constant."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def next_bit(self) -> int:
        return self.next_u64() >> 63

    def bits(self, count: int) -> np.ndarray:
        """The next ``count`` :meth:`next_bit` draws as one ``uint8`` array;
        the state advances exactly as ``count`` calls would. The ``uint64``
        states are mixed in blocks of 2^20, so a large draw needs about one
        byte per bit."""
        out = np.empty(count, dtype=np.uint8)
        for lo in range(0, count, _BLOCK):
            steps = np.arange(lo + 1, min(count, lo + _BLOCK) + 1, dtype=np.uint64)
            out[lo : lo + _BLOCK] = _mix(np.uint64(self._state) + steps * np.uint64(_GOLDEN)) >> 63
        self._state = (self._state + count * _GOLDEN) & _MASK
        return out

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list):
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-seed for trial ``index`` of a campaign seeded by ``seed``."""
    return _mix((seed & _MASK) ^ _mix((index + 1) & _MASK))
