"""Synthetic language construction, corpus generation, and review mixing."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermoe.corpus import (
    BOS_ID,
    NUM_SPECIALS,
    LanguageSampler,
    SyntheticLanguageSpec,
    TaggedCorpus,
    generate,
    language_specs,
    required_vocab,
    review_mixture,
)
from layermoe.errors import FormatError, InvalidInputError
from oracles import generate_reference, sample_sequence


def two_specs(overlap, block_size=40):
    return language_specs(
        {"g0": ["alpha"], "g1": ["beta"]}, block_size=block_size, overlap=overlap, seed=3
    )


def sampled_token_set(spec, n_tokens, seed=0):
    sampler = LanguageSampler(spec, seed)
    seq = sampler.sequences(1, n_tokens)[0]
    return set(int(t) for t in seq if t >= NUM_SPECIALS)


class TestMakeLanguage:
    def test_zero_overlap_disjoint(self):
        a, b = two_specs(0.0)
        tokens_a = sampled_token_set(a, 5000)
        tokens_b = sampled_token_set(b, 5000)
        assert tokens_a and tokens_b
        assert not tokens_a & tokens_b

    def test_full_overlap_identical_support(self):
        a, b = two_specs(1.0)
        np.testing.assert_array_equal(a.support(), b.support())

    def test_half_overlap_jaccard(self):
        a, b = two_specs(0.5)
        tokens_a = sampled_token_set(a, 10_000)
        tokens_b = sampled_token_set(b, 10_000)
        jaccard = len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        assert abs(jaccard - 0.5) < 0.1

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticLanguageSpec("x", "g", (10, 10), (2, 10), 0.0, 1)

    def test_transition_rows_are_distributions(self):
        spec = two_specs(0.3)[0]
        sampler = LanguageSampler(spec, 0)
        np.testing.assert_allclose(sampler.transitions.sum(axis=1), 1.0, atol=1e-12)
        assert (sampler.transitions >= 0).all()

    def test_sampler_deterministic(self):
        spec = two_specs(0.0)[0]
        s1 = LanguageSampler(spec, 9).sequences(1, 64)[0]
        s2 = LanguageSampler(spec, 9).sequences(1, 64)[0]
        np.testing.assert_array_equal(s1, s2)
        assert s1[0] == BOS_ID


class TestGenerate:
    def test_budget_and_tags(self):
        specs = language_specs({"g0": ["a", "b"], "g1": ["c"]}, block_size=20, seed=1)
        corpus = generate(specs, tokens_per_language=10_000, sequence_length=50, seed=4)
        counts = {}
        for lang in corpus.languages:
            counts[lang] = counts.get(lang, 0) + 1
        assert len(set(counts.values())) == 1
        assert corpus.sequences.size >= 3 * 10_000
        assert set(corpus.groups) == {"g0", "g1"}

    def test_deterministic(self):
        specs = language_specs({"g0": ["a"], "g1": ["b"]}, block_size=16, seed=2)
        c1 = generate(specs, 2000, 40, seed=7)
        c2 = generate(specs, 2000, 40, seed=7)
        np.testing.assert_array_equal(c1.sequences, c2.sequences)
        assert c1.languages == c2.languages

    def test_budget_below_sequence_rejected(self):
        specs = language_specs({"g0": ["a"]}, block_size=16)
        with pytest.raises(InvalidInputError):
            generate(specs, 10, 40, seed=0)

    def test_required_vocab(self):
        specs = language_specs({"g0": ["a", "b"]}, block_size=10, shared_size=6, seed=0)
        assert required_vocab(specs) == NUM_SPECIALS + 6 + 2 * 10

    @pytest.mark.parametrize("groups", [{"g0": ["a", "a"], "g1": ["b"]}, {"g0": ["a"], "g1": ["b", "a"]}])
    def test_language_listed_twice_is_rejected(self, groups):
        with pytest.raises(InvalidInputError, match=r"^language 'a' is listed twice$"):
            language_specs(groups, block_size=8)


LAYOUTS = {
    "three-languages": ({"g0": ["a", "b"], "g1": ["c"]}, 12),
    "one-language": ({"g0": ["solo"]}, 48),
    "one-token-supports": ({"g0": ["x"], "g1": ["y"]}, 1),
}


class TestSamplerMatchesPerTokenReference:
    """The batched sampler against the one-token-at-a-time walk it replaced:
    the same draws in the same order give the same bytes."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("overlap", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("length", [2, 3, 16, 50])
    @pytest.mark.parametrize("seed", [0, 13, 2024])
    def test_generate_equals_the_reference(self, layout, overlap, length, seed):
        groups, block_size = LAYOUTS[layout]
        specs = language_specs(groups, block_size=block_size, overlap=overlap, seed=seed)
        corpus = generate(specs, 300, length, seed)
        sequences, languages, tags = generate_reference(specs, 300, length, seed)
        assert corpus.sequences.dtype == sequences.dtype
        assert corpus.sequences.shape == sequences.shape
        assert corpus.sequences.tobytes() == sequences.tobytes()
        assert corpus.languages == languages
        assert corpus.groups == tags

    @pytest.mark.parametrize("length", [2, 3, 64])
    def test_one_sequence_equals_the_reference(self, length):
        spec = two_specs(0.3)[1]
        batched = LanguageSampler(spec, 9).sequences(1, length)[0]
        reference = sample_sequence(LanguageSampler(spec, 9), length)
        assert batched.tobytes() == reference.tobytes()

    def test_successive_calls_continue_the_stream(self):
        spec = two_specs(0.0)[0]
        sampler, reference = LanguageSampler(spec, 4), LanguageSampler(spec, 4)
        batched = np.concatenate([sampler.sequences(2, 7), sampler.sequences(3, 7)])
        expected = np.stack([sample_sequence(reference, 7) for _ in range(5)])
        assert batched.tobytes() == expected.tobytes()


    def test_draws_on_a_cumulative_entry_pick_as_the_reference(self):
        """Draws equal to a cumulative entry (``<`` instead of ``<=``) or to
        the last one (the clamp to the top index) never come from the real
        stream, so both samplers replay the same hand-picked draws."""
        spec = two_specs(0.3, block_size=6)[0]
        rows = np.cumsum(LanguageSampler(spec, 0).transitions, axis=1)
        first = np.cumsum(LanguageSampler(spec, 0).initial)
        picks = np.random.default_rng(5).integers(0, 6, size=(3, 9))
        draws = []
        for seq in picks:
            row = first
            for j in seq:
                draws.append(row[j])
                state = min(int(np.searchsorted(row, row[j], side="right")), 5)
                row = rows[state]
        batched, reference = LanguageSampler(spec, 0), LanguageSampler(spec, 0)
        batched._gen, reference._gen = ReplayedDraws(draws), ReplayedDraws(draws)
        expected = np.stack([sample_sequence(reference, 10) for _ in range(3)])
        assert batched.sequences(3, 10).tobytes() == expected.tobytes()


class ReplayedDraws:
    """Stands in for a sampler's generator and hands out fixed uniforms."""

    def __init__(self, draws):
        self.draws, self.used = np.asarray(draws, dtype=np.float64), 0

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out, self.used = self.draws[self.used : self.used + n], self.used + n
        return out[0] if size is None else out.reshape(size)


@pytest.fixture()
def old_new_corpora():
    specs = language_specs({"g0": ["a1", "a2"], "g1": ["b1", "b2"]}, block_size=16, seed=5)
    corpus = generate(specs, 3000, 30, seed=6)
    return corpus.subset_groups(["g0"]), corpus.subset_groups(["g1"])


class TestReviewMixture:
    def test_ratio_counts(self, old_new_corpora):
        old, new = old_new_corpora
        mix = review_mixture(old, new, seed=1)
        counts = {}
        for lang in mix.languages:
            counts[lang] = counts.get(lang, 0) + 1
        assert counts["b1"] == counts["b2"] == 2 * counts["a1"] == 2 * counts["a2"]

    def test_mask_matches_tags_exhaustively(self, old_new_corpora):
        old, new = old_new_corpora
        mix = review_mixture(old, new, seed=3)
        mask = mix.old_token_mask(["g0"])
        for row in range(len(mix)):
            for col in range(mix.sequences.shape[1]):
                expected = mix.groups[row] == "g0" and mix.sequences[row, col] >= NUM_SPECIALS
                assert mask[row, col] == expected

    def test_deterministic_shuffle(self, old_new_corpora):
        old, new = old_new_corpora
        m1 = review_mixture(old, new, seed=9)
        m2 = review_mixture(old, new, seed=9)
        np.testing.assert_array_equal(m1.sequences, m2.sequences)
        assert m1.languages == m2.languages

    def test_bad_inputs(self, old_new_corpora):
        old, new = old_new_corpora
        with pytest.raises(InvalidInputError):
            review_mixture(old.take([]), new, seed=0)
        with pytest.raises(InvalidInputError):
            review_mixture(old, old, seed=0)


class TestTaggedCorpus:
    def test_jsonl_roundtrip(self, tmp_path, old_new_corpora):
        old, _ = old_new_corpora
        path = tmp_path / "corpus.jsonl"
        old.save_jsonl(path)
        loaded = TaggedCorpus.load_jsonl(path)
        np.testing.assert_array_equal(loaded.sequences, old.sequences)
        assert loaded.languages == old.languages
        assert loaded.groups == old.groups

    def test_sequences_immutable(self, old_new_corpora):
        old, _ = old_new_corpora
        with pytest.raises(ValueError):
            old.sequences[0, 0] = 3

    def test_language_group_is_unique(self, old_new_corpora):
        old, new = old_new_corpora
        corpus = review_mixture(old, new, seed=0)
        group_of = corpus.group_of()
        for lang, group in zip(corpus.languages, corpus.groups):
            assert group_of[lang] == group

    def test_language_tagged_with_two_groups_is_rejected(self):
        tags = ("a", "b", "a"), ("g0", "g1", "g2")
        with pytest.raises(InvalidInputError, match=r"language 'a' is tagged 'g0' and 'g2'"):
            TaggedCorpus(np.zeros((3, 3), dtype=np.int64), *tags)

    def test_a_corpus_file_with_a_name_a_profile_cannot_hold_fails_to_load(self, tmp_path):
        """A profile names a language pair by two names joined by "|"."""
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"lang":"a|1","group":"g0","tokens":[0,2,3]}\n'
                        '{"lang":"b0","group":"g1","tokens":[0,4,5]}\n')
        message = rf"^{re.escape(str(path))}: language name 'a\|1' is empty or holds"
        with pytest.raises(FormatError, match=message):
            TaggedCorpus.load_jsonl(path)

    @pytest.mark.parametrize(
        "sequences, languages, groups, message",
        [
            ([[0, 2, 3]], (7,), ("g0",), "language and group names must be strings"),
            ([[0, 2, 3]], ("a",), (None,), "language and group names must be strings"),
            ([[0, 2.5, 3]], ("a",), ("g0",),
             "sequences must be a (n, length) integer array, not 2-d float64"),
        ],
        ids=["int-language", "null-group", "fractional-token"],
    )
    def test_a_corpus_is_refused_what_no_file_can_hold(self, sequences, languages, groups, message):
        """The first two raised TypeError, and token 2.5 silently became 2."""
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            TaggedCorpus(np.array(sequences), languages, groups)

    def test_an_empty_corpus_is_not_saved(self, tmp_path, old_new_corpora):
        """``load_jsonl`` refuses a file with no record, so no such file is written."""
        path = tmp_path / "corpus.jsonl"
        with pytest.raises(InvalidInputError, match="^an empty corpus cannot be saved$"):
            old_new_corpora[0].take([]).save_jsonl(path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("\n", "empty corpus"),
         ('{"lang":"a","group":"g0","tokens":[0,2]}\n{"lang":"a","group":"g0","tokens":[0]}\n',
          "sequences have mixed lengths [1, 2]")],
        ids=["empty", "mixed-lengths"],
    )
    def test_a_corpus_file_that_holds_no_corpus_fails_as_a_file(self, tmp_path, text, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            TaggedCorpus.load_jsonl(path)

    def test_languages_in_keeps_first_appearance_order(self):
        tags = ("c", "a", "c", "b", "d"), ("g1", "g0", "g1", "g0", "g2")
        corpus = TaggedCorpus(np.zeros((5, 3), dtype=np.int64), *tags)
        assert corpus.languages_in(["g0", "g1"]) == ("c", "a", "b")
        assert corpus.languages_in(("g2",)) == ("d",)
        with pytest.raises(InvalidInputError, match=r"no languages in groups \['g3', 'g4'\]"):
            corpus.languages_in(["g4", "g3"])


# A structural fault of a corpus, as an edit of its records.
CORPUS_FAULTS = {
    "empty-language": lambda r: [{**r[0], "lang": ""}] + r[1:],
    "language-with-a-bar": lambda r: [{**r[0], "lang": "a|b"}] + r[1:],
    "language-in-two-groups": lambda r: r + [{**r[0], "group": r[0]["group"] + "x"}],
    "one-token-sequences": lambda r: [{**row, "tokens": row["tokens"][:1]} for row in r],
    "negative-token": lambda r: [{**r[0], "tokens": [-1] + r[0]["tokens"][1:]}] + r[1:],
}


@st.composite
def corpus_records(draw):
    """1-6 records of one length in 2-5, over languages a-c with one group each."""
    length, group_of = draw(st.integers(2, 5)), {"a": "g0", "b": "g1", "c": "g0"}
    tokens = st.lists(st.integers(0, 2**63 - 1), min_size=length, max_size=length)
    return [{"lang": lang, "group": group_of[lang], "tokens": draw(tokens)}
            for lang in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))]


def corpus_of(records):
    return TaggedCorpus(np.array([r["tokens"] for r in records], dtype=np.int64),
                        tuple(r["lang"] for r in records), tuple(r["group"] for r in records))


@given(corpus_records(), st.sampled_from(sorted(CORPUS_FAULTS)))
@settings(max_examples=40, deadline=None)
def test_a_corpus_saves_what_it_loads_and_builds_nothing_its_loader_refuses(records, fault):
    """A corpus the constructor accepts saves, loads back and saves the same
    bytes; a record fault that ``load_jsonl`` refuses, the constructor refuses."""
    broken = CORPUS_FAULTS[fault](records)
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "a.jsonl"), Path(scratch, "b.jsonl")
        corpus_of(records).save_jsonl(first)
        TaggedCorpus.load_jsonl(first).save_jsonl(second)
        assert first.read_bytes() == second.read_bytes()
        first.write_text("".join(json.dumps(r) + "\n" for r in broken))
        with pytest.raises(FormatError, match=f"^{re.escape(str(first))}:"):
            TaggedCorpus.load_jsonl(first)
    with pytest.raises(InvalidInputError):
        corpus_of(broken)
