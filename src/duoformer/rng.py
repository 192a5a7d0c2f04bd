"""Deterministic, splittable random streams for initialization and shuffling.

A stream is identified by a 64-bit state. Children are derived by hashing a
tag (string or int) into the parent state with SplitMix64 mixing, so any
subtree of streams is reproducible from the root seed alone, independent of
the order in which siblings are created.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _hash_tag(tag) -> int:
    if isinstance(tag, int):
        return _mix(tag ^ 0xA5A5A5A5A5A5A5A5)
    # FNV-1a over UTF-8 bytes, then mixed.
    h = 0xCBF29CE484222325
    for b in str(tag).encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return _mix(h)


class SeedStream:
    """A node in a tree of deterministic random streams."""

    def __init__(self, seed: int):
        self.state = _mix(int(seed) & _MASK64)

    def child(self, tag) -> "SeedStream":
        s = SeedStream.__new__(SeedStream)
        s.state = _mix(self.state + _GOLDEN + _hash_tag(tag))
        return s

    def generator(self) -> np.random.Generator:
        """A numpy Generator seeded by this stream's state."""
        return np.random.default_rng(self.state)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int):
    """He-style uniform init in f64, bound sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02):
    """Normal(0, std) in f64, resampled until within 2 std of the mean."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out
