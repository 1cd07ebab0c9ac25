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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, InvalidInputError
from .numerics import SeededRng, derive_seed
from .schema import Int, check

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
    specs: dict[str, SyntheticLanguageSpec] = {}
    cursor = shared[1]
    for group, languages in groups.items():
        for language in languages:
            if language in specs:
                raise InvalidInputError(f"language {language!r} is listed twice")
            specs[language] = SyntheticLanguageSpec(
                language=language,
                group=group,
                block=(cursor, cursor + block_size),
                shared_block=shared,
                overlap=overlap,
                transition_seed=derive_seed(seed, "transition", language),
            )
            cursor += block_size
    if not specs:
        raise InvalidInputError("the language groups name no language")
    return list(specs.values())


def required_vocab(specs: Iterable[SyntheticLanguageSpec]) -> int:
    return max(s.block[1] for s in specs)


class LanguageSampler:
    """Seeded Markov sampler over one language's support.

    Draw-order contract: one uniform per token after BOS, sequence-major. A
    token is the first support index whose cumulative probability exceeds
    its draw: ``searchsorted(row, u, side="right")``, the count of entries
    ``<= u``. A ``(count, length - 1)`` block of ``random`` fills in C order
    from the same stream as that many scalar draws, so by this contract the
    batched walk over a language's sequences equals the token-by-token one.
    """

    def __init__(self, spec: SyntheticLanguageSpec, seed: int):
        self.spec = spec
        self.support = spec.support()
        size = len(self.support)
        rng = SeededRng(spec.transition_seed).generator()
        alpha = np.full(size, TRANSITION_CONCENTRATION)
        self.transitions = rng.dirichlet(alpha, size=size)
        self.initial = rng.dirichlet(alpha)
        # Cumulative transition rows, then the initial distribution as row -1.
        self._cum = np.cumsum(np.vstack([self.transitions, self.initial]), axis=1)
        self._gen = SeededRng(derive_seed(seed, "sample", spec.language)).generator()

    def sequences(self, count: int, length: int) -> np.ndarray:
        """``count`` sequences of ``length >= 2`` tokens, BOS then a chain."""
        u = self._gen.random((count, length - 1))
        top = len(self.support) - 1
        out = np.empty((count, length), dtype=np.int64)
        out[:, 0] = BOS_ID
        state = np.full(count, -1)
        for pos in range(1, length):
            state = np.minimum((self._cum[state] <= u[:, pos - 1 : pos]).sum(axis=1), top)
            out[:, pos] = self.support[state]
        return out


_RECORD = {"lang": str, "group": str, "tokens": [Int(0, 2**63 - 1)]}


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
        if seq.shape[1] < 2:
            raise InvalidInputError("sequences need at least two tokens: an input and a target")
        if len(self.languages) != len(seq) or len(self.groups) != len(seq):
            raise InvalidInputError("every sequence needs a language and group tag")
        if seq.size and seq.min() < 0:
            raise InvalidInputError("negative token id")
        tags = sorted(set(zip(self.languages, self.groups)))
        for (lang, group), (other, second) in zip(tags, tags[1:] + [(None, None)]):
            # A profile names a language pair by the two names joined by "|".
            if not lang or "|" in lang:
                raise InvalidInputError(f"language name {lang!r} is empty or holds '|'")
            if lang == other:
                raise InvalidInputError(f"language {lang!r} is tagged {group!r} and {second!r}")
        seq.setflags(write=False)
        object.__setattr__(self, "sequences", seq)

    def __len__(self) -> int:
        return len(self.sequences)

    def language_set(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.languages))

    def group_of(self) -> dict[str, str]:
        return {lang: grp for lang, grp in zip(self.languages, self.groups)}

    def languages_in(self, groups: Iterable[str]) -> tuple[str, ...]:
        """The languages of ``groups``, in order of first appearance."""
        keep, group_of = set(groups), self.group_of()
        found = tuple(lang for lang in self.language_set() if group_of[lang] in keep)
        if not found:
            raise InvalidInputError(f"corpus has no languages in groups {sorted(keep)}")
        return found

    def subset_groups(self, groups: Iterable[str]) -> "TaggedCorpus":
        keep = set(groups)
        return self.take([i for i, g in enumerate(self.groups) if g in keep])

    def subset_language(self, language: str) -> "TaggedCorpus":
        return self.take([i for i, l in enumerate(self.languages) if l == language])

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
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise FormatError(f"{path}:{number}: not a corpus record: {exc!r}") from None
                check(record, _RECORD, f"{path}:{number}: corpus record")
                sequences.append(record["tokens"])
                languages.append(record["lang"])
                groups.append(record["group"])
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
    """Equal token budget per language; deterministic given the seed. At most
    2**27 token positions (1 GiB as int64), checked before any sampling."""
    if sequence_length < 2:
        raise InvalidInputError("sequence length must be >= 2")
    if tokens_per_language < sequence_length:
        raise InvalidInputError("tokens_per_language must be >= sequence_length")
    n = -(-tokens_per_language // sequence_length)  # ceil, exact at any size
    if (size := len(specs) * n * sequence_length) > 2**27:
        raise InvalidInputError(f"a corpus of {size} token positions is over the bound of 2**27")
    samplers = [LanguageSampler(s, derive_seed(seed, "language", s.language)) for s in specs]
    return TaggedCorpus(
        np.concatenate([sampler.sequences(n, sequence_length) for sampler in samplers]),
        tuple(s.language for s in specs for _ in range(n)),
        tuple(s.group for s in specs for _ in range(n)),
    )


# Review-mix ratio of old to new sequences per language (shape of the
# 50K/100K review sampling, scaled to desk size).
REVIEW_RATIO = (1, 2)


def review_mixture(old: TaggedCorpus, new: TaggedCorpus, seed: int) -> TaggedCorpus:
    """Mix old- and new-language data with per-language sequence counts in
    the :data:`REVIEW_RATIO` of old to new, sampled without replacement and
    shuffled deterministically."""
    if len(old) == 0 or len(new) == 0:
        raise InvalidInputError("empty source corpus")
    if set(old.language_set()) & set(new.language_set()):
        raise InvalidInputError("old and new corpora share a language")

    unit = min(
        min(Counter(corpus.languages).values()) // ratio
        for corpus, ratio in zip((old, new), REVIEW_RATIO)
    )
    if unit < 1:
        raise InvalidInputError("not enough sequences to honour the review ratio")

    picked: list[tuple[TaggedCorpus, int]] = []
    for corpus, ratio in zip((old, new), REVIEW_RATIO):
        for lang in corpus.language_set():
            pool = [i for i, l in enumerate(corpus.languages) if l == lang]
            gen = SeededRng(derive_seed(seed, "review-pick", lang)).generator()
            chosen = gen.choice(len(pool), size=ratio * unit, replace=False)
            picked.extend((corpus, pool[int(i)]) for i in chosen)

    gen = SeededRng(derive_seed(seed, "review-shuffle")).generator()
    order = gen.permutation(len(picked))
    sequences = np.stack([picked[i][0].sequences[picked[i][1]] for i in order])
    languages = tuple(picked[i][0].languages[picked[i][1]] for i in order)
    groups = tuple(picked[i][0].groups[picked[i][1]] for i in order)
    return TaggedCorpus(sequences, languages, groups)
