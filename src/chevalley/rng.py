"""Deterministic random sequences.

Every randomized routine in the package draws from a :class:`SplitMix64`
seeded explicitly, so experiments replay bit-exactly from a 64-bit seed.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 sequence; deterministic for a fixed seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
