"""Deterministic 64-bit numerics: autodiff and seeded randomness.

Matrices and vectors are plain float64 numpy arrays (row-major); gradients
come from the tape in :mod:`layermoe.numerics.autodiff` and are bound by the
finite-difference contract, not by the tape internals.
"""

from __future__ import annotations

from .autodiff import (
    Tensor,
    as_tensor,
    attention,
    embedding,
    expert_mix,
    log_softmax,
    rms_norm,
    route,
    silu,
    take_pairs,
    zero_grads,
)
from .rng import SeededRng, derive_seed

__all__ = [
    "SeededRng",
    "Tensor",
    "as_tensor",
    "attention",
    "derive_seed",
    "embedding",
    "expert_mix",
    "log_softmax",
    "rms_norm",
    "route",
    "silu",
    "take_pairs",
    "zero_grads",
]
