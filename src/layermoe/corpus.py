"""Synthetic languages with controllable overlap, plus review-data mixing.

Each language is a seeded first-order Markov chain over its own token
support. A language's support is drawn partly from a shared vocabulary block
and partly from a private block; the ``overlap`` fraction is calibrated so
that two languages built with the same overlap have a token-set Jaccard
index of roughly ``overlap`` (the shared prefix length k solves
k / (2B - k) = overlap for support size B).

Token ids 0 and 1 are reserved (BOS and padding). Sequences are fixed
length, start with BOS, and never cross language boundaries, so the
old-language indicator of a token is exactly its sequence's group tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, InvalidInputError
from .numerics import SeededRng, derive_seed

BOS_ID = 0
PAD_ID = 1
NUM_SPECIALS = 2

# Dirichlet concentration for transition rows; small values give peaked,
# learnable chains.
TRANSITION_CONCENTRATION = 0.15


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    """One language: private vocabulary block, shared block, and overlap."""

    language: str
    group: str
    block: tuple[int, int]  # [start, end) private token ids
    shared_block: tuple[int, int]  # [start, end) shared token ids
    overlap: float
    transition_seed: int

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise InvalidInputError(f"overlap {self.overlap} outside [0, 1]")
        if self.block[1] <= self.block[0]:
            raise InvalidInputError(f"empty vocabulary block for {self.language!r}")
        if self.block[0] < NUM_SPECIALS or self.shared_block[0] < NUM_SPECIALS:
            raise InvalidInputError("vocabulary blocks overlap the reserved special ids")

    @property
    def size(self) -> int:
        return self.block[1] - self.block[0]

    def support(self) -> np.ndarray:
        """Token ids this language emits: a shared prefix plus private ids."""
        size = self.size
        shared = int(round(2.0 * size * self.overlap / (1.0 + self.overlap)))
        shared = min(shared, size)
        if shared > self.shared_block[1] - self.shared_block[0]:
            raise InvalidInputError(
                f"{self.language!r} needs {shared} shared tokens, block has "
                f"{self.shared_block[1] - self.shared_block[0]}"
            )
        shared_ids = np.arange(self.shared_block[0], self.shared_block[0] + shared)
        private_ids = np.arange(self.block[0], self.block[0] + (size - shared))
        return np.concatenate([shared_ids, private_ids])


def language_specs(
    groups: Mapping[str, Sequence[str]],
    *,
    block_size: int = 48,
    shared_size: int | None = None,
    overlap: float = 0.0,
    seed: int = 0,
) -> list[SyntheticLanguageSpec]:
    """Lay out non-overlapping private blocks for every language in ``groups``
    after one shared block, and derive per-language transition seeds."""
    if block_size < 1:
        raise InvalidInputError("block_size must be >= 1")
    shared_size = block_size if shared_size is None else shared_size
    shared = (NUM_SPECIALS, NUM_SPECIALS + shared_size)
    specs = []
    cursor = shared[1]
    for group, languages in groups.items():
        for language in languages:
            specs.append(
                SyntheticLanguageSpec(
                    language=language,
                    group=group,
                    block=(cursor, cursor + block_size),
                    shared_block=shared,
                    overlap=overlap,
                    transition_seed=derive_seed(seed, "transition", language),
                )
            )
            cursor += block_size
    return specs


def required_vocab(specs: Iterable[SyntheticLanguageSpec]) -> int:
    return max(s.block[1] for s in specs)


class LanguageSampler:
    """Seeded Markov sampler over one language's support."""

    def __init__(self, spec: SyntheticLanguageSpec, seed: int):
        self.spec = spec
        self.support = spec.support()
        size = len(self.support)
        rng = SeededRng(spec.transition_seed).generator()
        alpha = np.full(size, TRANSITION_CONCENTRATION)
        self.transitions = rng.dirichlet(alpha, size=size)
        self.initial = rng.dirichlet(alpha)
        self._cum_rows = np.cumsum(self.transitions, axis=1)
        self._cum_init = np.cumsum(self.initial)
        self._gen = SeededRng(derive_seed(seed, "sample", spec.language)).generator()

    def sequence(self, length: int) -> np.ndarray:
        """One sequence of ``length`` tokens: BOS followed by a chain."""
        if length < 2:
            raise InvalidInputError("sequence length must be >= 2")
        out = np.empty(length, dtype=np.int64)
        out[0] = BOS_ID
        top = len(self.support) - 1
        u = self._gen.random()
        state = min(int(np.searchsorted(self._cum_init, u, side="right")), top)
        out[1] = self.support[state]
        for pos in range(2, length):
            u = self._gen.random()
            state = min(int(np.searchsorted(self._cum_rows[state], u, side="right")), top)
            out[pos] = self.support[state]
        return out


def _is_token_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**63


@dataclass(frozen=True)
class TaggedCorpus:
    """Fixed-length sequences with a language and group tag per sequence."""

    sequences: np.ndarray  # (n, length) int64
    languages: tuple[str, ...]
    groups: tuple[str, ...]

    def __post_init__(self):
        seq = np.asarray(self.sequences, dtype=np.int64)
        if seq.ndim != 2:
            raise InvalidInputError("sequences must be a (n, length) array")
        if len(self.languages) != len(seq) or len(self.groups) != len(seq):
            raise InvalidInputError("every sequence needs a language and group tag")
        if seq.size and seq.min() < 0:
            raise InvalidInputError("negative token id")
        seq.setflags(write=False)
        object.__setattr__(self, "sequences", seq)

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def length(self) -> int:
        return self.sequences.shape[1]

    def language_set(self) -> tuple[str, ...]:
        seen = dict.fromkeys(self.languages)
        return tuple(seen)

    def group_of(self) -> dict[str, str]:
        return {lang: grp for lang, grp in zip(self.languages, self.groups)}

    def subset_groups(self, groups: Iterable[str]) -> "TaggedCorpus":
        keep = set(groups)
        idx = [i for i, g in enumerate(self.groups) if g in keep]
        return self.take(idx)

    def subset_language(self, language: str) -> "TaggedCorpus":
        idx = [i for i, l in enumerate(self.languages) if l == language]
        return self.take(idx)

    def take(self, indices: Sequence[int]) -> "TaggedCorpus":
        idx = list(indices)
        return TaggedCorpus(
            self.sequences[idx].copy(),
            tuple(self.languages[i] for i in idx),
            tuple(self.groups[i] for i in idx),
        )

    def token_mask(self) -> np.ndarray:
        """True at real language tokens (specials excluded)."""
        return self.sequences >= NUM_SPECIALS

    def old_token_mask(self, old_groups: Iterable[str]) -> np.ndarray:
        """Indicator of old-language membership per token; special positions
        are always False because they belong to no language."""
        old = set(old_groups)
        rows = np.fromiter((g in old for g in self.groups), dtype=bool, count=len(self.groups))
        return rows[:, None] & self.token_mask()

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row, lang, group in zip(self.sequences, self.languages, self.groups):
                fh.write(
                    json.dumps(
                        {"lang": lang, "group": group, "tokens": row.tolist()},
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "TaggedCorpus":
        sequences, languages, groups = [], [], []
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    tokens, lang, group = record["tokens"], record["lang"], record["group"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise FormatError(f"{path}:{number}: not a corpus record: {exc!r}") from None
                if not (
                    isinstance(tokens, list)
                    and all(_is_token_id(t) for t in tokens)
                    and isinstance(lang, str)
                    and isinstance(group, str)
                ):
                    raise FormatError(
                        f"{path}:{number}: a corpus record needs 'tokens' as a list of "
                        "non-negative 64-bit ints and 'lang' and 'group' as strings"
                    )
                sequences.append(tokens)
                languages.append(lang)
                groups.append(group)
        if not sequences:
            raise InvalidInputError(f"{path}: empty corpus")
        lengths = {len(s) for s in sequences}
        if len(lengths) != 1:
            raise InvalidInputError(f"{path}: sequences have mixed lengths {sorted(lengths)}")
        return cls(np.asarray(sequences, dtype=np.int64), tuple(languages), tuple(groups))


def generate(
    specs: Sequence[SyntheticLanguageSpec],
    tokens_per_language: int,
    sequence_length: int,
    seed: int,
) -> TaggedCorpus:
    """Equal token budget per language; deterministic given the seed."""
    if tokens_per_language < sequence_length:
        raise InvalidInputError("tokens_per_language must be >= sequence_length")
    per_language = math.ceil(tokens_per_language / sequence_length)
    sequences, languages, groups = [], [], []
    for spec in specs:
        sampler = LanguageSampler(spec, derive_seed(seed, "language", spec.language))
        for _ in range(per_language):
            sequences.append(sampler.sequence(sequence_length))
            languages.append(spec.language)
            groups.append(spec.group)
    return TaggedCorpus(np.stack(sequences), tuple(languages), tuple(groups))


def review_mixture(
    old: TaggedCorpus,
    new: TaggedCorpus,
    ratio_old: int,
    ratio_new: int,
    seed: int,
) -> TaggedCorpus:
    """Mix old- and new-language data with per-language sequence counts in
    ratio_old : ratio_new, sampled without replacement and shuffled
    deterministically. One ratio may be zero to drop that side entirely."""
    if ratio_old < 0 or ratio_new < 0 or (ratio_old == 0 and ratio_new == 0):
        raise InvalidInputError("ratios must be non-negative and not both zero")
    if (ratio_old > 0 and len(old) == 0) or (ratio_new > 0 and len(new) == 0):
        raise InvalidInputError("empty source corpus")
    if set(old.language_set()) & set(new.language_set()):
        raise InvalidInputError("old and new corpora share a language")

    def per_language_counts(corpus: TaggedCorpus) -> dict[str, int]:
        counts: dict[str, int] = {}
        for lang in corpus.languages:
            counts[lang] = counts.get(lang, 0) + 1
        return counts

    unit = math.inf
    if ratio_old > 0:
        unit = min(unit, min(per_language_counts(old).values()) // ratio_old)
    if ratio_new > 0:
        unit = min(unit, min(per_language_counts(new).values()) // ratio_new)
    if unit < 1:
        raise InvalidInputError("not enough sequences to honour the requested ratio")
    unit = int(unit)

    picked: list[tuple[TaggedCorpus, int]] = []
    for corpus, take in ((old, ratio_old * unit), (new, ratio_new * unit)):
        if take == 0:
            continue
        for lang in corpus.language_set():
            pool = [i for i, l in enumerate(corpus.languages) if l == lang]
            gen = SeededRng(derive_seed(seed, "review-pick", lang)).generator()
            chosen = gen.choice(len(pool), size=take, replace=False)
            picked.extend((corpus, pool[int(i)]) for i in chosen)

    gen = SeededRng(derive_seed(seed, "review-shuffle")).generator()
    order = gen.permutation(len(picked))
    sequences = np.stack([picked[i][0].sequences[picked[i][1]] for i in order])
    languages = tuple(picked[i][0].languages[picked[i][1]] for i in order)
    groups = tuple(picked[i][0].groups[picked[i][1]] for i in order)
    return TaggedCorpus(sequences, languages, groups)
