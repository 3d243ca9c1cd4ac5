"""Deterministic random streams for reproducible, parallel simulation.

Every trial gets its own counter-based generator (NumPy Philox4x64) whose
128-bit key is derived from ``(master_seed, trial_index)`` with the SplitMix64
finalizer.  The derivation is pure arithmetic on 64-bit words, so a run is
reproducible across processes, thread counts and machines, and trials can be
executed in any order or in parallel without sharing generator state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import checked_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the SplitMix64 increment


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit avalanche mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_master(master_seed: int, stream_id: int) -> int:
    """Derive an independent 64-bit master seed for substream ``stream_id``.

    Used by the experiment harness to give each sweep row its own seed space
    while trial indices stay local to the row.
    """
    return mix64((master_seed ^ ((stream_id + 1) * _GOLDEN)) & _MASK64)


def philox_key(master_seed: int, trial_index: int) -> np.ndarray:
    """128-bit Philox key for one trial: two chained SplitMix64 outputs."""
    w0 = mix64((master_seed + (trial_index + 1) * _GOLDEN) & _MASK64)
    w1 = mix64((w0 + _GOLDEN) & _MASK64)
    return np.array([w0, w1], dtype=np.uint64)


@dataclass(frozen=True)
class SeedSpec:
    """Identity of one random trial: (master seed, trial index), both
    non-negative integers and the seed below 2^64."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        master_seed = checked_int(self.master_seed, "master_seed", 0)
        if master_seed > _MASK64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "trial_index",
                           checked_int(self.trial_index, "trial_index", 0))

    def stream(self) -> np.random.Generator:
        """Fresh generator for this trial; identical calls yield identical streams."""
        bitgen = np.random.Philox(key=philox_key(self.master_seed, self.trial_index))
        return np.random.Generator(bitgen)
