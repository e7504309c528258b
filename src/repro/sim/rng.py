"""Deterministic randomness for simulations.

Every stochastic choice in an experiment (workload jitter, hash seeds,
failure injection points) draws from a :class:`DeterministicRNG` derived
from the experiment's master seed, so a run is reproducible bit-for-bit.

Sub-streams are derived by name (``rng.stream("client-3")``) rather than by
call order, so adding a new consumer does not perturb existing ones — the
standard trick for reproducible parallel simulations.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["DeterministicRNG"]


class DeterministicRNG:
    """A named-substream wrapper over :class:`numpy.random.Generator`."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._gen = np.random.default_rng(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> "DeterministicRNG":
        """Create an independent, reproducible sub-stream."""
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # -- draws -------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> list:
        """Return a new shuffled list (input untouched)."""
        out = list(seq)
        self._gen.shuffle(out)
        return out

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)
