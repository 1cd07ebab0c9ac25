"""Reference implementations the tests compare the package against: tape
gradients against central finite differences, the fast elementwise kernels
against their plain numpy forms, the fused tape nodes against compositions
of small tape ops, the profiler's centroid fast path against the
quadratic pair loop over exact cosines, the prefix-forwarding candidate
collector against one that forwards every sampled sequence whole, and the
batched corpus sampler against a walk that draws one token at a time."""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from layermoe.corpus import BOS_ID, LanguageSampler, SyntheticLanguageSpec, TaggedCorpus
from layermoe.errors import DegenerateVectorError, InvalidInputError, NumericalFailureError
from layermoe.model import Model, forward
from layermoe.numerics import SeededRng, Tensor, as_tensor, derive_seed
from layermoe.numerics.autodiff import _node, _softmax, _softmax_grad, _unbroadcast


def value_and_grad(
    loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor]
) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate a scalar loss and return its gradient for every named parameter.

    Parameters not touched by the loss get zero gradients. Raises
    NumericalFailureError if the loss is non-finite.
    """
    previous = {name: p.requires_grad for name, p in params.items()}
    try:
        for p in params.values():
            p.requires_grad = True
            p.grad = None
        loss = loss_fn()
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalFailureError(f"loss is not finite: {value}")
        loss.backward()
        grads = {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
        return value, grads
    finally:
        for name, p in params.items():
            p.requires_grad = previous[name]
            p.grad = None


def central_difference(
    loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor], eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Finite-difference gradients, (f(p+eps) - f(p-eps)) / (2 eps) per entry.

    Only evaluates the forward pass, so it is independent of the tape and
    serves as the oracle for ``value_and_grad``.
    """
    grads: dict[str, np.ndarray] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = loss_fn().item()
            flat[i] = original - eps
            minus = loss_fn().item()
            flat[i] = original
            grad[i] = (plus - minus) / (2.0 * eps)
        grads[name] = grad.reshape(p.data.shape)
    return grads


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Reference for ``autodiff._sigmoid``: split the array by sign and
    evaluate each branch on its own part."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def plain_softmax(a: np.ndarray) -> np.ndarray:
    """Reference for ``autodiff._softmax``: the plain max-subtracted softmax
    over the last axis, leaving ``a`` as it was."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# Tape ops that only the composed references need: ``attention`` (softmax,
# transpose), ``rms_norm`` (row sum, power) and ``route`` (softmax, column
# stack, division, row sum). Each records a node the way the package's own
# ops do, so a composition of them has the bits the fused node promises.


def softmax(t: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis."""
    y = _softmax(t.data.copy())
    out = _node(y, (t,))
    if out._parents:
        out._backward = lambda g: (_softmax_grad(g, y),)
    return out


def transpose(t: Tensor, axes) -> Tensor:
    out = _node(np.transpose(t.data, axes), (t,))
    if out._parents:
        inverse = tuple(np.argsort(axes))
        out._backward = lambda g: (np.transpose(g, inverse),)
    return out


def row_sum(t: Tensor) -> Tensor:
    """Sum over the last axis, keeping it as a size-1 axis."""
    out = _node(t.data.sum(axis=-1, keepdims=True), (t,))
    if out._parents:
        out._backward = lambda g: (np.broadcast_to(g, t.data.shape).copy(),)
    return out


def power(t: Tensor, exponent: float) -> Tensor:
    out = _node(t.data**exponent, (t,))
    if out._parents:
        out._backward = lambda g: (g * exponent * t.data ** (exponent - 1),)
    return out


def div(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    out = _node(a.data / b.data, (a, b))
    if out._parents:
        out._backward = lambda g: (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            (
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad
                else None
            ),
        )
    return out


def stack_columns(columns) -> Tensor:
    """Stack 1-d tensors of length h into an (h, n) matrix."""
    out = _node(np.stack([c.data for c in columns], axis=1), tuple(columns))
    if out._parents:
        out._backward = lambda g: tuple(g[:, i] for i in range(len(columns)))
    return out


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


def pair_similarity_exhaustive(a: np.ndarray, b: np.ndarray) -> float:
    """Quadratic reference: average cosine over every pair of rows of two
    ``(q, hidden)`` arrays, one pair at a time."""
    total = 0.0
    for u in np.asarray(a, dtype=np.float64):
        for v in np.asarray(b, dtype=np.float64):
            total += cosine(u, v)
    return total / (len(a) * len(b))


def collect_candidates_full(
    model: Model, corpus: TaggedCorpus, language: str, q: int, seed: int
) -> np.ndarray:
    """Reference for ``profiler.collect_candidates``: the same draw of ``q``
    positions, with every sampled sequence forwarded whole, through the
    head, in corpus order and chunks of 32."""
    part = corpus.subset_language(language)
    valid = part.token_mask()
    valid[:, 0] = False
    positions = np.argwhere(valid)
    gen = SeededRng(derive_seed(seed, "candidates", language)).generator()
    chosen = positions[gen.choice(len(positions), size=q, replace=False)]
    needed = np.unique(chosen[:, 0])
    taps = np.concatenate(
        [forward(model, part.sequences[needed[s : s + 32]]).taps for s in range(0, len(needed), 32)],
        axis=1,
    )
    return taps[:, np.searchsorted(needed, chosen[:, 0]), chosen[:, 1]].astype(np.float32)


def sample_sequence(sampler: LanguageSampler, length: int) -> np.ndarray:
    """One sequence from ``sampler``'s stream, one token at a time: a scalar
    ``random()`` and a scalar ``searchsorted`` per token after BOS."""
    cum_rows = np.cumsum(sampler.transitions, axis=1)
    cum_init = np.cumsum(sampler.initial)
    top = len(sampler.support) - 1
    out = np.empty(length, dtype=np.int64)
    out[0] = BOS_ID
    u = sampler._gen.random()
    state = min(int(np.searchsorted(cum_init, u, side="right")), top)
    out[1] = sampler.support[state]
    for pos in range(2, length):
        u = sampler._gen.random()
        state = min(int(np.searchsorted(cum_rows[state], u, side="right")), top)
        out[pos] = sampler.support[state]
    return out


def generate_reference(
    specs: Sequence[SyntheticLanguageSpec],
    tokens_per_language: int,
    sequence_length: int,
    seed: int,
) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """``corpus.generate``'s sequences, language tags and group tags, drawn
    one sequence at a time with :func:`sample_sequence`."""
    per_language = math.ceil(tokens_per_language / sequence_length)
    sequences, languages, groups = [], [], []
    for spec in specs:
        sampler = LanguageSampler(spec, derive_seed(seed, "language", spec.language))
        for _ in range(per_language):
            sequences.append(sample_sequence(sampler, sequence_length))
            languages.append(spec.language)
            groups.append(spec.group)
    return np.stack(sequences), tuple(languages), tuple(groups)
