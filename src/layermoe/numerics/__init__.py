"""Deterministic 64-bit numerics: array helpers, autodiff, seeded randomness.

Matrices and vectors are plain float64 numpy arrays (row-major); gradients
come from the tape in :mod:`layermoe.numerics.autodiff` and are bound by the
finite-difference contract, not by the tape internals.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateVectorError, InvalidInputError
from .autodiff import (
    Tensor,
    as_tensor,
    attention,
    central_difference,
    embedding,
    expert_mix,
    log_softmax,
    rms_norm,
    silu,
    stack_columns,
    take_along,
    take_pairs,
    value_and_grad,
    zero_grads,
)
from .autodiff import softmax as softmax_t
from .rng import SeededRng, derive_seed

__all__ = [
    "SeededRng",
    "Tensor",
    "as_tensor",
    "attention",
    "central_difference",
    "cosine",
    "derive_seed",
    "embedding",
    "expert_mix",
    "log_softmax",
    "rms_norm",
    "silu",
    "softmax_t",
    "stack_columns",
    "take_along",
    "take_pairs",
    "value_and_grad",
    "zero_grads",
]


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise InvalidInputError(f"cosine needs equal-length vectors, got {u.shape} and {v.shape}")
    su = np.abs(u).max(initial=0.0)
    sv = np.abs(v).max(initial=0.0)
    if su == 0.0 or sv == 0.0:
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    # Scaled to a largest entry of 1, a squared norm can neither underflow
    # nor overflow: on [2.2e-159, 0] the unscaled norm kept 7 digits.
    u, v = u / su, v / sv
    return float(np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))
