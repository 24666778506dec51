"""Counter-based deterministic pseudorandom stream.

The generator is splitmix64 used in counter mode: the value at position p is
``mix64(seed + (p + 1) * GAMMA)`` where mix64 is the splitmix64 finalizer.
Every draw is a pure function of (seed, position), so streams can be
reproduced, forked, and fast-forwarded on any platform. All state fits in two
integers.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """Random stream addressed by (seed, position).

    ``position`` counts raw 64-bit words consumed; equal (seed, position)
    always produces the same next value.
    """

    def __init__(self, seed: int, position: int = 0):
        if position < 0:
            raise ValueError("position must be non-negative")
        self.seed = seed & _MASK64
        self.position = position

    def child(self, tag: str) -> "RngStream":
        """Independent stream derived from a label; stable across runs."""
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        sub = int.from_bytes(digest, "little")
        return RngStream(_mix64(self.seed ^ sub))

    def next_uint64(self) -> int:
        self.position += 1
        return _mix64(self.seed + self.position * _GAMMA)

    def uint64_block(self, n: int) -> np.ndarray:
        """n raw words as uint64, vectorized."""
        base = np.uint64(self.seed)
        idx = np.arange(self.position + 1, self.position + n + 1, dtype=np.uint64)
        self.position += n
        with np.errstate(over="ignore"):
            return _mix64_block(base + idx * np.uint64(_GAMMA))

    def uniform(self) -> float:
        # top 53 bits -> [0, 1)
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def uniform_block(self, n: int) -> np.ndarray:
        return (self.uint64_block(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def coin(self, p: float = 0.5) -> bool:
        return self.uniform() < p

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is < n / 2**64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_uint64() % n

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), uniform, in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
