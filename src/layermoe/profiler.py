"""Hidden-state similarity profiling across layers.

The router of every layer sees the normalised post-attention state; this
module samples those states per language (a candidate set), measures mean
pairwise cosine similarity between languages per layer, folds the pair
matrix into one indicated-similarity value per layer, and picks the layers
that get a routing classifier.

Mean pairwise cosine over two sets factorises: it equals the dot product of
the two sets' mean unit-normalised vectors. That algebraic fast path is the
production implementation; the quadratic double loop is the tests' oracle.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
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
from .schema import List, Map, by_index, check, load_json, problems


@dataclass(frozen=True)
class CandidateSet:
    """Sampled router-input vectors for one language at one layer.

    Vectors are rounded to float32 and similarity arithmetic upcasts them
    to float64. Profile values are defined on these float32-rounded taps:
    keeping more precision would change the bytes of every saved profile.
    """

    language: str
    layer: int
    vectors: np.ndarray  # (Q, hidden) float32

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise InvalidInputError("candidate set needs a (Q, hidden) array with Q >= 1")
        if not np.isfinite(vectors).all():
            raise InvalidInputError("candidate vectors must be finite")
        norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
        if (norms == 0.0).any():
            raise DegenerateVectorError("candidate set contains a zero-norm vector")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def width(self) -> int:
        return self.vectors.shape[1]


def collect_candidates(
    model: Model, corpus: TaggedCorpus, language: str, q: int, seed: int
) -> list[CandidateSet]:
    """Uniformly sample ``q`` token positions of one language (BOS and padding
    excluded) and return their router inputs at every layer."""
    if q < 2:
        raise InvalidInputError("q must be >= 2")
    part = corpus.subset_language(language)
    if len(part) == 0:
        raise SampleSizeError(f"corpus has no sequences for language {language!r}")
    valid = part.token_mask()
    valid[:, 0] = False  # BOS position carries no language token
    positions = np.argwhere(valid)
    if len(positions) < q:
        raise SampleSizeError(
            f"language {language!r} has {len(positions)} usable tokens, need {q}"
        )
    gen = SeededRng(derive_seed(seed, "candidates", language)).generator()
    chosen = positions[gen.choice(len(positions), size=q, replace=False)]

    needed = np.unique(chosen[:, 0])
    chunk = 32
    taps_rows = []
    for start in range(0, len(needed), chunk):
        batch = part.sequences[needed[start : start + chunk]]
        taps_rows.append(forward(model, batch).taps)
    taps = np.concatenate(taps_rows, axis=1)  # (layers, seqs, length, hidden)

    rows, cols = np.searchsorted(needed, chosen[:, 0]), chosen[:, 1]
    return [
        CandidateSet(language, layer, tap[rows, cols].astype(np.float32))
        for layer, tap in enumerate(taps)
    ]


def _check_comparable(a: CandidateSet, b: CandidateSet) -> None:
    if a.layer != b.layer:
        raise InvalidInputError(f"layer mismatch: {a.layer} vs {b.layer}")
    if a.width != b.width:
        raise InvalidInputError(f"width mismatch: {a.width} vs {b.width}")


def pair_similarity(a: CandidateSet, b: CandidateSet) -> float:
    """Mean cosine over all ordered vector pairs, via the centroid identity."""
    _check_comparable(a, b)

    def centroid(s: CandidateSet) -> np.ndarray:
        rows = s.vectors.astype(np.float64)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        if (norms == 0.0).any():
            raise DegenerateVectorError("zero-norm vector in candidate set")
        return (rows / norms).mean(axis=0)

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
    *,
    literal_new_new: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Fold a language-pair similarity matrix into per-layer values.

    new_old averages over all (new, old) pairs; new_new averages over
    distinct new-language pairs. The published formula divides the new_new
    sum by twice the ordered-pair count, which halves its scale relative to
    new_old; the default here divides by the ordered-pair count so both
    components live on the same scale. ``literal_new_new`` restores the
    published denominator. With a single new language the new_new term is
    undefined and the indicated similarity is new_old alone.
    """
    old_languages = tuple(old_languages)
    new_languages = tuple(new_languages)
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
    total = None
    for j, a in enumerate(new_languages):
        for k, b in enumerate(new_languages):
            if j == k:
                continue
            term = lookup(a, b)
            total = term if total is None else total + term
    ordered_pairs = len(new_languages) * (len(new_languages) - 1)
    denominator = 2 * ordered_pairs if literal_new_new else ordered_pairs
    new_new = total / denominator
    return new_old, new_new, (new_old + new_new) / 2.0


def profile_similarity(
    model: Model,
    corpus: TaggedCorpus,
    old_languages: Sequence[str],
    new_languages: Sequence[str],
    *,
    q: int = 512,
    seed: int = 0,
    literal_new_new: bool = False,
) -> SimilarityProfile:
    """Collect candidate sets on ``model`` and compute the per-layer profile."""
    old_languages = tuple(old_languages)
    new_languages = tuple(new_languages)
    if set(old_languages) & set(new_languages):
        raise InvalidInputError("a language cannot be both old and new")
    candidates = {
        lang: collect_candidates(model, corpus, lang, q, seed)
        for lang in dict.fromkeys(old_languages + new_languages)
    }
    layers = len(next(iter(candidates.values())))

    wanted: set[tuple[str, str]] = set()
    for n in new_languages:
        for o in old_languages:
            wanted.add(_pair_key(n, o))
        for n2 in new_languages:
            if n2 != n:
                wanted.add(_pair_key(n, n2))
    pair_sims = {
        key: np.array(
            [pair_similarity(candidates[key[0]][i], candidates[key[1]][i]) for i in range(layers)]
        )
        for key in sorted(wanted)
    }
    new_old, new_new, indicated = indicated_similarity(
        pair_sims, old_languages, new_languages, literal_new_new=literal_new_new
    )
    meta = {
        "model": model.fingerprint(),
        "q": q,
        "seed": seed,
        "literal_new_new": literal_new_new,
    }
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
    """JSON profile plus a CSV mirror (``path`` with suffix ``.csv``) shaped
    for per-layer similarity plots."""
    path = Path(path)
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
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with open(path.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "s_new_old", "s_new_new", "s"])
        for i in range(profile.layer_count):
            writer.writerow(
                [
                    i,
                    repr(float(profile.new_old[i])),
                    "" if profile.new_new is None else repr(float(profile.new_new[i])),
                    repr(float(profile.indicated[i])),
                ]
            )


_LAYER = {"index": int, "s_new_old": float, "s": float,
          "s_new_new": lambda v: v is None or not problems(v, float)}
_PROFILE = {"layers": List(_LAYER, lo=1), "pairs?": Map([float]), "old_languages?": [str],
            "new_languages?": [str], "meta?": {}}


def load_profile(path: str | Path) -> SimilarityProfile:
    record = check(load_json(path), _PROFILE, f"{path}: profile")
    layers = by_index(record["layers"], f"{path}: profile")
    new_new = [row["s_new_new"] for row in layers]
    if len({v is None for v in new_new}) > 1:
        raise FormatError(f"{path}: profile s_new_new is null on some layers only")
    return SimilarityProfile(
        np.array([row["s_new_old"] for row in layers], dtype=np.float64),
        None if new_new[0] is None else np.array(new_new, dtype=np.float64),
        np.array([row["s"] for row in layers], dtype=np.float64),
        {
            tuple(key.split("|")): np.asarray(values, dtype=np.float64)
            for key, values in record.get("pairs", {}).items()
        },
        tuple(record.get("old_languages", ())),
        tuple(record.get("new_languages", ())),
        record.get("meta", {}),
    )
