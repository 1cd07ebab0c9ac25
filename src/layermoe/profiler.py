"""Hidden-state similarity profiling across layers.

The router of every layer sees the normalised post-attention state; this
module samples those states per language (its candidates: one
``(layers, q, hidden)`` float32 array of ``q`` sampled positions), measures
mean pairwise cosine similarity between languages per layer, folds the pair
matrix into one indicated-similarity value per layer, and picks the layers
that get a routing classifier. Profile values are defined on the
float32-rounded taps, upcast to float64 for the arithmetic: keeping more
precision would change the bytes of every saved profile.

Attention is causal, so the tap at column ``c`` of a sequence reads only
its columns ``0..c``. The collector therefore forwards each sampled
sequence only up to its last sampled column, and stops at the last layer's
tap (``forward(..., logits=False)``): the last expert stage, ``out_norm``
and the head feed no tap. Sequences go shortest prefix first, in chunks of
32, so a chunk is as long as its longest prefix; each vector is put back at
its sampled index, and the sampling itself is the full-length collector's.
Which columns are drawn must not decide whether a language fails, so the
language's whole corpus is checked against the model first.

A prefix gives the full-length taps' values but not always their float64
bits: numpy sums each attention row pairwise in blocks of 8, and a shorter
row regroups the same nonzero terms. Candidates are the float32-rounded
taps, and that rounding hid every such difference measured (no candidate
element and no pipeline output file changed), but a tap that lands within
its last-bit difference of a float32 rounding boundary can still round the
other way. The tests hold the collector to the full-length oracle bitwise
on fixed seeds and to one float32 ulp on any tiny model.

Mean pairwise cosine over two sets factorises: it equals the dot product of
the two sets' mean unit-normalised vectors. That algebraic fast path is the
production implementation; the quadratic double loop is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import TaggedCorpus
from .errors import (
    DegenerateVectorError,
    FormatError,
    InvalidInputError,
    SampleSizeError,
)
from .model import Model, forward
from .numerics import SeededRng, derive_seed
from .schema import OBJECT, List, Map, by_index, check, load_json, problems, save_json

# Token positions sampled per language unless the caller sets q.
PROFILE_Q = 512


def collect_candidates(
    model: Model, corpus: TaggedCorpus, language: str, q: int, seed: int
) -> np.ndarray:
    """Uniformly sample ``q`` token positions of one language (BOS and padding
    excluded) and return their router inputs at every layer, a
    ``(layers, q, hidden)`` float32 array of finite, nonzero rows."""
    if q < 2:
        raise InvalidInputError("q must be >= 2")
    part = corpus.subset_language(language)
    if len(part) == 0:
        raise SampleSizeError(f"corpus has no sequences for language {language!r}")
    model.config.check_tokens(part.sequences, part.sequences.shape[1])
    valid = part.token_mask()
    valid[:, 0] = False  # BOS position carries no language token
    positions = np.argwhere(valid)
    if len(positions) < q:
        raise SampleSizeError(
            f"language {language!r} has {len(positions)} usable tokens, need {q}"
        )
    gen = SeededRng(derive_seed(seed, "candidates", language)).generator()
    chosen = positions[gen.choice(len(positions), size=q, replace=False)]

    needed, rows = np.unique(chosen[:, 0], return_inverse=True)
    cols = chosen[:, 1]
    last = np.zeros(len(needed), dtype=np.int64)  # prefix length each sequence needs
    np.maximum.at(last, rows, cols + 1)
    order = np.argsort(last, kind="stable")
    rank = np.empty_like(order)  # each needed sequence's place in forwarding order
    rank[order] = np.arange(len(order))
    slot = rank[rows]  # the place of each sample's sequence
    config = model.config
    vectors = np.empty((config.layers, q, config.hidden), dtype=np.float32)
    chunk = 32
    for start in range(0, len(order), chunk):
        ids = order[start : start + chunk]
        batch = part.sequences[needed[ids], : last[ids].max()]
        taps = forward(model, batch, logits=False).taps
        mine = np.flatnonzero((slot >= start) & (slot < start + chunk))
        vectors[:, mine] = taps[:, slot[mine] - start, cols[mine]]
    if not np.isfinite(vectors).all():
        raise InvalidInputError("candidate vectors must be finite")
    if (np.linalg.norm(vectors.astype(np.float64), axis=-1) == 0.0).any():
        raise DegenerateVectorError("candidate set contains a zero-norm vector")
    return vectors


def pair_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine over all ordered row pairs of two ``(q, hidden)``
    candidate arrays of one layer, via the centroid identity."""

    def centroid(vectors: np.ndarray) -> np.ndarray:
        rows = vectors.astype(np.float64)
        return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).mean(axis=0)

    return float(np.clip(np.dot(centroid(a), centroid(b)), -1.0, 1.0))


@dataclass(frozen=True)
class SimilarityProfile:
    """Per-layer similarity components and the indicated similarity vector."""

    new_old: np.ndarray  # (layers,)
    new_new: np.ndarray | None  # (layers,) or None when only one new language
    indicated: np.ndarray  # (layers,)
    pair_sims: dict[tuple[str, str], np.ndarray]
    old_languages: tuple[str, ...]
    new_languages: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    @property
    def layer_count(self) -> int:
        return len(self.indicated)


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def indicated_similarity(
    pair_sims: Mapping[tuple[str, str], np.ndarray],
    old_languages: Sequence[str],
    new_languages: Sequence[str],
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Fold a language-pair similarity matrix into per-layer values.

    new_old averages over all (new, old) pairs; new_new averages over the
    ordered pairs of distinct new languages, dividing by their count. The
    published denominator, twice that count, halves new_new's scale against
    new_old. With a single new language the new_new term is undefined and
    the indicated similarity is new_old alone.
    """
    if not new_languages:
        raise InvalidInputError("no new languages to profile")
    if not old_languages:
        raise InvalidInputError("no old languages to profile")

    def lookup(a: str, b: str) -> np.ndarray:
        try:
            return np.asarray(pair_sims[_pair_key(a, b)], dtype=np.float64)
        except KeyError:
            raise InvalidInputError(f"pair matrix is missing ({a}, {b})") from None

    new_old = np.mean(
        [lookup(n, o) for n in new_languages for o in old_languages], axis=0
    )
    if len(new_languages) < 2:
        return new_old, None, new_old.copy()
    pairs = [lookup(a, b) for a, b in permutations(new_languages, 2)]
    new_new = sum(pairs[1:], pairs[0]) / len(pairs)
    return new_old, new_new, (new_old + new_new) / 2.0


def profile_similarity(
    model: Model,
    corpus: TaggedCorpus,
    old_languages: Sequence[str],
    new_languages: Sequence[str],
    *,
    q: int = PROFILE_Q,
    seed: int = 0,
) -> SimilarityProfile:
    """Collect candidates on ``model`` and compute the per-layer profile."""
    old_languages = tuple(old_languages)
    new_languages = tuple(new_languages)
    if set(old_languages) & set(new_languages):
        raise InvalidInputError("a language cannot be both old and new")
    languages = old_languages + new_languages
    candidates = {
        lang: collect_candidates(model, corpus, lang, q, seed) for lang in dict.fromkeys(languages)
    }
    wanted = {_pair_key(n, b) for n in new_languages for b in languages if b != n}
    pair_sims = {
        (a, b): np.array([pair_similarity(x, y) for x, y in zip(candidates[a], candidates[b])])
        for a, b in sorted(wanted)
    }
    new_old, new_new, indicated = indicated_similarity(pair_sims, old_languages, new_languages)
    meta = {"model": model.fingerprint(), "q": q, "seed": seed}
    return SimilarityProfile(
        new_old, new_new, indicated, pair_sims, old_languages, new_languages, meta
    )


def select_classifier_layers(new_old: Sequence[float], count: int) -> tuple[int, ...]:
    """Indices of the ``count`` layers with the highest new-vs-old similarity,
    ties broken toward the lower layer index."""
    values = np.asarray(new_old, dtype=np.float64)
    if not 1 <= count <= len(values):
        raise InvalidInputError(f"count {count} outside 1..{len(values)}")
    order = np.argsort(-values, kind="stable")[:count]
    return tuple(sorted(int(i) for i in order))


# ---------------------------------------------------------------------------
# profile files


def save_profile(profile: SimilarityProfile, path: str | Path) -> None:
    """The profile as one JSON file, which :func:`load_profile` reads back."""
    record = {
        "layers": [
            {
                "index": i,
                "s_new_old": float(profile.new_old[i]),
                "s_new_new": (None if profile.new_new is None else float(profile.new_new[i])),
                "s": float(profile.indicated[i]),
            }
            for i in range(profile.layer_count)
        ],
        "pairs": {
            f"{a}|{b}": [float(v) for v in values]
            for (a, b), values in sorted(profile.pair_sims.items())
        },
        "old_languages": list(profile.old_languages),
        "new_languages": list(profile.new_languages),
        "meta": profile.meta,
    }
    save_json(path, record)


_LAYER = {"index": int, "s_new_old": float, "s": float,
          "s_new_new": lambda v: v is None or not problems(v, float)}
_PROFILE = {"layers": List(_LAYER, lo=1), "pairs?": Map([float]), "old_languages?": [str],
            "new_languages?": [str], "meta?": OBJECT}
_FIELDS = ("s_new_old", "s_new_new", "s")


def load_profile(path: str | Path) -> SimilarityProfile:
    """A profile file, checked against what it was derived from: every value
    a mean of cosines can take, and, when the file has its ``pairs``, the
    bits ``indicated_similarity`` gives from them."""
    record = check(load_json(path), _PROFILE, f"{path}: profile")
    layers = by_index(record["layers"], f"{path}: profile")
    new_new = [row["s_new_new"] for row in layers]
    if len({v is None for v in new_new}) > 1:
        raise FormatError(f"{path}: profile s_new_new is null on some layers only")
    for row in layers:
        for name in _FIELDS:
            if row[name] is not None and not -1.0 <= row[name] <= 1.0:
                raise FormatError(
                    f"{path}: profile {name} at layer {row['index']} is {row[name]!r},"
                    " outside [-1, 1]"
                )
    old, new = tuple(record.get("old_languages", ())), tuple(record.get("new_languages", ()))
    both = sorted(set(old) & set(new))
    if both:
        raise FormatError(
            f"{path}: profile old_languages and new_languages both list {both[0]}:"
            " a language cannot be both old and new"
        )
    pairs = {}
    for key, values in record.get("pairs", {}).items():
        names = tuple(key.split("|"))
        if len(names) != 2 or not all(names):
            raise FormatError(f"{path}: profile pairs key {key!r} is not two names joined by '|'")
        pairs[names] = np.asarray(values, dtype=np.float64)
    profile = SimilarityProfile(
        np.array([row["s_new_old"] for row in layers], dtype=np.float64),
        None if new_new[0] is None else np.array(new_new, dtype=np.float64),
        np.array([row["s"] for row in layers], dtype=np.float64),
        pairs,
        old,
        new,
        record.get("meta", {}),
    )
    if "pairs" in record:
        _check_derivation(profile, path)
    return profile


def _check_derivation(profile: SimilarityProfile, path) -> None:
    """FormatError unless each per-layer value has the bits that
    ``indicated_similarity`` gives from the profile's pairs and languages."""
    for key, values in profile.pair_sims.items():
        if len(values) != profile.layer_count:
            raise FormatError(
                f"{path}: profile pairs {'|'.join(key)} has {len(values)} values"
                f" for {profile.layer_count} layers"
            )
    try:
        derived = indicated_similarity(
            profile.pair_sims, profile.old_languages, profile.new_languages
        )
    except InvalidInputError as exc:
        raise FormatError(f"{path}: profile pairs do not give its layers: {exc}") from None
    stored = (profile.new_old, profile.new_new, profile.indicated)
    for name, have, want in zip(_FIELDS, stored, derived):
        if (have is None) != (want is None):
            raise FormatError(
                f"{path}: profile s_new_new is {'null' if have is None else 'set'},"
                f" but its pairs give {'none' if want is None else 'one'}"
            )
        for i in range(0 if have is None else len(have)):
            if have[i].tobytes() != want[i].tobytes():
                raise FormatError(
                    f"{path}: profile {name} at layer {i} is {float(have[i])!r},"
                    f" its pairs give {float(want[i])!r}"
                )
