"""Seeded randomness with one fixed generator algorithm, PCG64.

Every stochastic operation in the package draws from a PCG64 stream built
here, so a given (seed, call sequence) pair produces the same values on any
platform numpy supports. Sub-streams are derived from string/int tags via
SHA-256, which keeps them independent of call order and of each other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit child seed for (seed, tags); tags may be str or int."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("utf-8"))
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class SeededRng:
    """A reproducible random source: identical seed, identical draw sequence."""

    seed: int

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this seed's stream."""
        return np.random.Generator(np.random.PCG64(self.seed))
