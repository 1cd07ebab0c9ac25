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
    central_difference,
    embedding,
    expert_mix,
    log_softmax,
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
    "central_difference",
    "cosine",
    "derive_seed",
    "embedding",
    "expert_mix",
    "log_softmax",
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
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))
