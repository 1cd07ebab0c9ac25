"""Candidate arrays, pairwise similarity (fast path vs brute force), indicated
similarity, classifier-layer selection, and profile files."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermoe import profiler
from layermoe.corpus import PAD_ID, TaggedCorpus, generate, language_specs, required_vocab
from layermoe.errors import (
    DegenerateVectorError,
    FormatError,
    InvalidInputError,
    SampleSizeError,
    SequenceLengthError,
)
from layermoe.model import DenseModel, ModelConfig, forward, upcycle
from layermoe.numerics import SeededRng
from layermoe.profiler import (
    SimilarityProfile,
    collect_candidates,
    draw_sequences,
    indicated_similarity,
    load_profile,
    pair_similarity,
    profile_similarity,
    save_profile,
    select_classifier_layers,
)
from oracles import collect_candidates_whole, jackknife_se_loop, pair_similarity_exhaustive
from util import gradcheck_setup


def candidate(vectors):
    return np.asarray(vectors, dtype=np.float32)


class TestPairSimilarity:
    def test_singleton_self_similarity(self):
        a = candidate([[1.0, 2.0, 3.0]])
        assert pair_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_singletons(self):
        a = candidate([[1.0, 0.0]])
        b = candidate([[0.0, 1.0]])
        assert pair_similarity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_enumeration(self):
        a = candidate([[1.0, 0.0], [0.0, 1.0]])
        # pairs: (1,0)x(1,0)=1, (1,0)x(0,1)=0, (0,1)x(1,0)=0, (0,1)x(0,1)=1
        assert pair_similarity(a, a) == pytest.approx(0.5, abs=1e-12)
        assert pair_similarity_exhaustive(a, a) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_brute_force(self, seed, q, width):
        gen = SeededRng(seed).generator()
        a = candidate(gen.normal(size=(q, width)) + 0.1)
        b = candidate(gen.normal(size=(q // 2 + 1, width)))
        fast = pair_similarity(a, b)
        brute = pair_similarity_exhaustive(a, b)
        assert fast == pytest.approx(brute, abs=1e-10)
        assert pair_similarity(b, a) == pytest.approx(fast, abs=1e-12)
        assert -1.0 <= fast <= 1.0

    def test_scale_invariance(self):
        gen = SeededRng(3).generator()
        rows = gen.normal(size=(8, 6))
        scales = gen.uniform(0.5, 10.0, size=(8, 1))
        a = candidate(rows)
        b = candidate(rows * scales)
        other = candidate(gen.normal(size=(5, 6)))
        assert pair_similarity(a, other) == pytest.approx(
            pair_similarity(b, other), abs=1e-6
        )


class TestIndicatedSimilarity:
    def test_average_of_components(self):
        pair_sims = {
            ("new1", "old1"): np.array([0.6]),
            ("new1", "new2"): np.array([0.8]),
            ("new2", "old1"): np.array([0.6]),
        }
        new_old, new_new, indicated = indicated_similarity(
            pair_sims, ["old1"], ["new1", "new2"]
        )
        assert new_old[0] == pytest.approx(0.6)
        assert new_new[0] == pytest.approx(0.8)
        assert indicated[0] == pytest.approx(0.7)

    def test_single_new_language(self):
        pair_sims = {("new1", "old1"): np.array([0.4, 0.9])}
        new_old, new_new, indicated = indicated_similarity(pair_sims, ["old1"], ["new1"])
        assert new_new is None
        np.testing.assert_allclose(indicated, new_old)

    def test_constant_matrix(self):
        langs_new = ["n1", "n2"]
        langs_old = ["o1", "o2"]
        c = 0.35
        pair_sims = {}
        for a in langs_new:
            for b in langs_old + langs_new:
                if a != b:
                    pair_sims[tuple(sorted((a, b)))] = np.array([c, c, c])
        new_old, new_new, indicated = indicated_similarity(pair_sims, langs_old, langs_new)
        np.testing.assert_allclose(new_old, c, atol=1e-12)
        np.testing.assert_allclose(new_new, c, atol=1e-12)
        np.testing.assert_allclose(indicated, c, atol=1e-12)

    def test_new_new_adds_ordered_pairs_in_row_major_order(self):
        new = ["n1", "n2", "n3"]
        values = {("n1", "n2"): 0.1, ("n1", "n3"): 1e16, ("n2", "n3"): -1e16}
        pair_sims = {key: np.array([v]) for key, v in values.items()}
        pair_sims.update({(n, "o"): np.array([0.5]) for n in new})
        _, new_new, _ = indicated_similarity(pair_sims, ["o"], new)
        total = 0.0
        for a, b in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]:
            total += values[tuple(sorted((new[a], new[b])))]
        assert new_new[0] == total / 6  # the sum depends on its order

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            indicated_similarity({}, ["old1"], [])
        with pytest.raises(InvalidInputError):
            indicated_similarity({}, [], ["new1"])
        with pytest.raises(InvalidInputError):
            indicated_similarity({}, ["old1"], ["new1"])


class TestSelectClassifierLayers:
    def test_top_two(self):
        assert select_classifier_layers([0.9, 0.2, 0.8, 0.5], 2) == (0, 2)

    def test_all_layers(self):
        assert select_classifier_layers([0.1, 0.3, 0.2], 3) == (0, 1, 2)

    def test_ties_prefer_lower_index(self):
        assert select_classifier_layers([0.5, 0.5, 0.5, 0.5], 2) == (0, 1)
        assert select_classifier_layers([0.1, 0.5, 0.5], 1) == (1,)

    def test_range_checks(self):
        with pytest.raises(InvalidInputError):
            select_classifier_layers([0.5, 0.4], 0)
        with pytest.raises(InvalidInputError):
            select_classifier_layers([0.5, 0.4], 3)


@pytest.fixture(scope="module")
def profiled_setup():
    config = ModelConfig(layers=2, hidden=16, heads=2, vocab=128, ffn=12, context=24, seed=13)
    model = DenseModel.create(config, groups=("g0",))
    specs = language_specs({"g0": ["a1", "a2"], "g1": ["b1"]}, block_size=20, seed=5)
    corpus = generate(specs, 6000, config.context, seed=8)
    return model, corpus


class TestCollectCandidates:
    def test_shapes_and_layers(self, profiled_setup):
        model, corpus = profiled_setup
        vectors = collect_candidates(model, corpus, "a1", q=2, seed=1)
        layers, rows, hidden = vectors.shape
        assert (layers, hidden) == (model.config.layers, model.config.hidden) and rows >= 2
        assert vectors.dtype == np.float32

    def test_deterministic(self, profiled_setup):
        model, corpus = profiled_setup
        s1 = collect_candidates(model, corpus, "a1", q=16, seed=3)
        s2 = collect_candidates(model, corpus, "a1", q=16, seed=3)
        np.testing.assert_array_equal(s1, s2)

    def test_zero_norm_row_rejected(self, profiled_setup):
        model, corpus = profiled_setup
        model = DenseModel.create(model.config, groups=("g0",))
        model.params["blocks.0.ffn_norm"].data[:] = 0.0
        with pytest.raises(DegenerateVectorError, match="candidate set contains a zero-norm vector"):
            collect_candidates(model, corpus, "a1", q=4, seed=0)

    def test_non_finite_row_rejected(self, profiled_setup):
        model, corpus = profiled_setup
        model = DenseModel.create(model.config, groups=("g0",))
        model.params["blocks.1.ffn_norm"].data[0] = np.nan
        with pytest.raises(InvalidInputError, match="candidate vectors must be finite"):
            collect_candidates(model, corpus, "a1", q=4, seed=0)

    def test_pair_matrix_matches_the_exhaustive_oracle(self, profiled_setup):
        model, corpus = profiled_setup
        profile = profile_similarity(model, corpus, ["a1"], ["a2", "b1"], q=16, seed=4)
        taps = {lang: collect_candidates(model, corpus, lang, 16, 4) for lang in ("a1", "a2", "b1")}
        assert sorted(profile.pair_sims) == [("a1", "a2"), ("a1", "b1"), ("a2", "b1")]
        for (a, b), values in profile.pair_sims.items():
            expected = [pair_similarity_exhaustive(x, y) for x, y in zip(taps[a], taps[b])]
            np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_insufficient_tokens(self, profiled_setup):
        model, corpus = profiled_setup
        with pytest.raises(SampleSizeError):
            collect_candidates(model, corpus, "a1", q=10**6, seed=0)
        with pytest.raises(SampleSizeError):
            collect_candidates(model, corpus, "missing", q=2, seed=0)

    def test_q_lower_bound(self, profiled_setup):
        model, corpus = profiled_setup
        with pytest.raises(InvalidInputError):
            collect_candidates(model, corpus, "a1", q=1, seed=0)

    def test_the_sample_size_and_seed_have_no_default(self, profiled_setup):
        """A caller that forgets the seed fails instead of sampling with 0."""
        model, corpus = profiled_setup
        with pytest.raises(TypeError, match="seed"):
            profile_similarity(model, corpus, ["a1"], ["b1"], q=16)
        with pytest.raises(TypeError, match="'q'"):
            profile_similarity(model, corpus, ["a1"], ["b1"], seed=0)

    def test_sampling_stability_across_seeds(self, profiled_setup):
        model, corpus = profiled_setup
        p1 = profile_similarity(model, corpus, ["a1", "a2"], ["b1"], q=512, seed=1)
        p2 = profile_similarity(model, corpus, ["a1", "a2"], ["b1"], q=512, seed=2)
        assert np.max(np.abs(p1.indicated - p2.indicated)) < 0.05


class TestStandardError:
    """``meta["se"]``: each layer's stratified delete-one-sequence jackknife
    standard error of ``indicated``."""

    @pytest.mark.parametrize("old, new", [(["a1", "a2"], ["b1"]), (["a1"], ["a2", "b1"])],
                             ids=["one-new", "two-new"])
    @pytest.mark.parametrize("q", [2, 64, 300])
    def test_equals_the_replicate_loop(self, profiled_setup, old, new, q):
        model, corpus = profiled_setup
        profile = profile_similarity(model, corpus, old, new, q=q, seed=6)
        candidates = {lang: collect_candidates(model, corpus, lang, q, 6) for lang in old + new}
        sizes = {lang: draw_sequences(corpus, lang, q, 6)[1].sum(axis=1) for lang in candidates}
        want = jackknife_se_loop(candidates, sizes, old, new)
        assert len(profile.meta["se"]) == model.config.layers
        np.testing.assert_allclose(profile.meta["se"], want, rtol=1e-5)

    @pytest.mark.parametrize(
        "old, new, measured",
        [(["a1", "a2"], ["b1"], 0.68), (["a1"], ["a2", "b1"], 0.79)],
        ids=["one-new", "two-new"],
    )
    def test_the_spread_over_profile_seeds_is_near_the_reported_error(
        self, profiled_setup, old, new, measured
    ):
        """Over 8 profile seeds at q 64 (3 sequences a language), the
        standard deviation of ``indicated`` is ``measured`` times the mean
        reported error at both layers. Over 36 blocks of 8 seeds on four tiny
        models and q 16-200 that ratio read 0.40-1.48, so it must stay within
        a factor of 2.5 of 1 each way."""
        model, corpus = profiled_setup
        profiles = [profile_similarity(model, corpus, old, new, q=64, seed=s) for s in range(8)]
        spread = np.std([p.indicated for p in profiles], axis=0, ddof=1)
        reported = np.mean([p.meta["se"] for p in profiles], axis=0)
        np.testing.assert_allclose(spread / reported, measured, atol=0.01)
        assert ((spread > reported / 2.5) & (spread < 2.5 * reported)).all()


def upcycled(dense, plan, seed):
    """``dense`` upcycled by ``plan``, with seeded random router columns so
    that routing is not a tie."""
    model = upcycle(dense, plan, "g1")
    gen = SeededRng(seed).generator()
    for name, param in model.params.items():
        if ".router." in name:
            param.data[:] = gen.normal(0.0, 0.3, size=param.data.shape)
    return model


@pytest.fixture(scope="module")
def oracle_models():
    """The dense and MoE ``gradcheck_setup`` models, one with 7 and 10
    experts per layer, and a context-24 MoE with a corpus of its own."""
    dense, moe, corpus = gradcheck_setup()
    wide = gradcheck_setup(plan=(6, 9))[1]
    config = ModelConfig(layers=2, hidden=16, heads=2, vocab=128, ffn=12, context=24, seed=13)
    long_context = upcycled(DenseModel.create(config, groups=("g0",)), (3, 2), 17)
    specs = language_specs({"g0": ["a"], "g1": ["b"]}, block_size=20, seed=5)
    long_corpus = generate(specs, 3000, config.context, seed=8)
    return {
        "dense": (dense, corpus),
        "moe": (moe, corpus),
        "wide": (wide, corpus),
        "long": (long_context, long_corpus),
    }


def tiny_world(draw_seed, layers, heads, head_width, context, plan, top_k):
    specs = language_specs({"g0": ["a"], "g1": ["b"]}, block_size=8, seed=draw_seed)
    config = ModelConfig(
        layers=layers, hidden=heads * head_width, heads=heads, vocab=required_vocab(specs),
        ffn=8, context=context, top_k=top_k, seed=draw_seed,
    )
    model = DenseModel.create(config, groups=("g0",))
    if plan is not None:
        model = upcycled(model, plan[:layers], draw_seed)
    return model, generate(specs, 40 * context, context, seed=draw_seed + 1)


def padded(corpus, seed):
    """``corpus`` with about half its sequences cut short by padding, some
    down to BOS alone, at seeded lengths."""
    sequences = corpus.sequences.copy()
    width = sequences.shape[1]
    for row, end in enumerate(SeededRng(seed).generator().integers(1, 2 * width, len(sequences))):
        sequences[row, end:] = PAD_ID
    return TaggedCorpus(sequences, corpus.languages, corpus.groups)


class TestWholeSequenceCollector:
    """``collect_candidates`` reads every usable position of the whole
    sequences :func:`draw_sequences` draws, forwarded in one batch that stops
    at the last tap; the oracle forwards them through the head and reads one
    position at a time."""

    @pytest.mark.parametrize("name", ["dense", "moe", "wide", "long"])
    @pytest.mark.parametrize("q", [2, 16, 64, 300])
    def test_equals_the_whole_sequence_oracle_bitwise(self, oracle_models, name, q):
        model, corpus = oracle_models[name]
        for seed in range(3):
            for language in ("a", "b"):
                got = collect_candidates(model, corpus, language, q, seed)
                want = collect_candidates_whole(model, corpus, language, q, seed)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.sampled_from(["dense", "moe", "wide", "long"]), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_every_usable_position_is_the_same_sample_for_every_seed(
        self, oracle_models, name, first, second
    ):
        model, corpus = oracle_models[name]
        for language in ("a", "b"):
            usable = int(corpus.subset_language(language).token_mask()[:, 1:].sum())
            one = collect_candidates(model, corpus, language, usable, first)
            other = collect_candidates(model, corpus, language, usable, second)
            assert one.shape[1] == usable and one.tobytes() == other.tobytes()

    @given(
        st.integers(0, 2**16),
        st.integers(1, 3),
        st.integers(1, 2),
        st.sampled_from([2, 4, 8]),
        st.integers(2, 20),
        st.none() | st.lists(st.integers(0, 4), min_size=3, max_size=3),
        st.integers(1, 3),
        st.integers(2, 64),
        st.none() | st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_reads_every_usable_position_of_at_least_two_whole_sequences(
        self, seed, layers, heads, head_width, context, plan, top_k, q, pad_seed
    ):
        """The one forward batch holds 2 or more of the language's sequences,
        whole, each with a usable position, and no more of them than ``q``
        needs; the candidates are the taps at their usable positions, at
        least ``q``, and at no BOS or padding position. They equal the
        oracle's bitwise on any tiny model, padded or not."""
        model, corpus = tiny_world(seed, layers, heads, head_width, context, plan, top_k)
        corpus = corpus if pad_seed is None else padded(corpus, pad_seed)
        for language in ("a", "b"):
            part = corpus.subset_language(language).sequences
            need = min(q, int((part[:, 1:] != PAD_ID).sum()))
            if need < 2 or ((part[:, 1:] != PAD_ID).any(axis=1)).sum() < 2:
                with pytest.raises(InvalidInputError):  # SampleSizeError is one
                    collect_candidates(model, corpus, language, need, seed)
                continue
            batches = []

            def spy(model, tokens, **options):
                result = forward(model, tokens, **options)
                batches.append((tokens, result.taps))
                return result

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(profiler, "forward", spy)
                got = collect_candidates(model, corpus, language, need, seed)
            [(tokens, taps)] = batches
            usable = tokens != PAD_ID
            usable[:, 0] = False
            held = usable.sum(axis=1)
            assert tokens.shape[1] == part.shape[1] and len(tokens) >= 2 and (held > 0).all()
            assert all((part == row).all(axis=1).any() for row in tokens)
            assert held.sum() >= need and (len(held) == 2 or held.sum() - held.max() < need)
            want = [taps[:, r, c] for r, c in zip(*np.nonzero(usable))]
            assert got.tobytes() == np.stack(want, axis=1).astype(np.float32).tobytes()
            oracle = collect_candidates_whole(model, corpus, language, need, seed)
            assert got.shape == oracle.shape and got.tobytes() == oracle.tobytes()

    @given(st.integers(2, 10**6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_part_the_model_cannot_read_fails_for_every_draw(self, oracle_models, q, seed):
        """Whether the bad sequence is sampled, or how much of it, does not
        decide the outcome: the language's whole corpus is checked first."""
        model, corpus = oracle_models["dense"]
        sequences = corpus.sequences.copy()
        sequences[corpus.languages.index("b"), -1] = model.config.vocab
        bad = TaggedCorpus(sequences, corpus.languages, corpus.groups)
        with pytest.raises(InvalidInputError, match="token id outside the vocabulary"):
            collect_candidates(model, bad, "b", q, seed)
        specs = language_specs({"g0": ["a"], "g1": ["b"]}, block_size=10, seed=3)
        too_long = generate(specs, 400, model.config.context + 1, seed=4)
        with pytest.raises(SequenceLengthError):
            collect_candidates(model, too_long, "a", q, seed)


class TestProfileIO:
    def test_json_roundtrip(self, profiled_setup, tmp_path):
        """A profile is one JSON file: no CSV mirror is written beside it."""
        model, corpus = profiled_setup
        profile = profile_similarity(model, corpus, ["a1", "a2"], ["b1"], q=32, seed=4)
        path = tmp_path / "profile.json"
        assert save_profile(profile, path) is None
        loaded = load_profile(path)
        np.testing.assert_allclose(loaded.indicated, profile.indicated, atol=1e-15)
        np.testing.assert_allclose(loaded.new_old, profile.new_old, atol=1e-15)
        assert loaded.new_new is None and profile.new_new is None
        assert loaded.new_languages == ("b1",)
        assert list(tmp_path.iterdir()) == [path]

    def test_two_new_languages_load_against_their_pairs(self, profiled_setup, tmp_path):
        """``load_profile`` recomputes the layers from the pairs. A profile in
        the published form, whose ``s_new_new`` divides by twice the pair
        count, is rejected at layer 0 whatever its ``meta`` says."""
        model, corpus = profiled_setup
        profile = profile_similarity(model, corpus, ["a1"], ["a2", "b1"], q=32, seed=4)
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        for got, want in [
            (loaded.new_old, profile.new_old),
            (loaded.new_new, profile.new_new),
            (loaded.indicated, profile.indicated),
        ]:
            assert got.tobytes() == want.tobytes()
        record = json.loads(path.read_text())
        record["meta"]["literal_new_new"] = True
        for row in record["layers"]:
            row["s_new_new"] /= 2
            row["s"] = (row["s_new_old"] + row["s_new_new"]) / 2
        path.write_text(json.dumps(record))
        message = r"profile s_new_new at layer 0 is .*, its pairs give"
        with pytest.raises(FormatError, match=message):
            load_profile(path)

    def test_a_pair_outside_minus_1_to_1_is_rejected_when_its_mean_is_inside(self, tmp_path):
        """The mean of the two old pairs is 0.5 and 0.3, and the layers hold
        exactly that, but no mean of cosines is 1.5."""
        pairs = {("a1", "b"): [1.5, 0.2], ("a2", "b"): [-0.5, 0.4]}
        s = indicated_similarity(pairs, ["a1", "a2"], ["b"])[2].tolist()
        layers = [{"index": i, "s_new_old": v, "s_new_new": None, "s": v} for i, v in enumerate(s)]
        record = {"layers": layers, "pairs": {"|".join(k): v for k, v in pairs.items()},
                  "old_languages": ["a1", "a2"], "new_languages": ["b"]}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(record))
        with pytest.raises(FormatError, match=r"pairs a1\|b at layer 0 is 1\.5, outside \[-1, 1\]$"):
            load_profile(path)


@st.composite
def measured_pairs(draw):
    """Pair values in [-1, 1] for 1-3 old and 1-3 new languages over 1-4
    layers: every pair of a new language with any other, as profiled."""
    old = [f"o{i}" for i in range(draw(st.integers(1, 3)))]
    new = [f"n{i}" for i in range(draw(st.integers(1, 3)))]
    layers = draw(st.integers(1, 4))
    keys = sorted({tuple(sorted((n, b))) for n in new for b in old + new if b != n})
    values = st.lists(st.floats(-1.0, 1.0), min_size=layers, max_size=layers)
    return {key: np.array(draw(values)) for key in keys}, tuple(old), tuple(new)


OUTSIDE = [float(np.nextafter(1.0, 2.0)), float(np.nextafter(-1.0, -2.0))]


@given(measured_pairs(), st.integers(0, 2**16), st.sampled_from(OUTSIDE))
@settings(max_examples=60, deadline=None)
def test_a_profile_file_is_its_pairs(measured, pick, outside):
    """Saving, loading and saving again keeps every byte; the loaded layers
    have the bits ``indicated_similarity`` gives; and one pair value just
    outside [-1, 1] is rejected by name."""
    pairs, old, new = measured
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "a.json"), Path(scratch, "b.json")
        save_profile(SimilarityProfile(pairs, old, new, {"q": 2, "seed": 0}), first)
        loaded = load_profile(first)
        save_profile(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        derived = indicated_similarity(pairs, old, new)
        for have, want in zip((loaded.new_old, loaded.new_new, loaded.indicated), derived):
            assert (have is None and want is None) or have.tobytes() == want.tobytes()

        record = json.loads(first.read_text())
        key = sorted(record["pairs"])[pick % len(record["pairs"])]
        layer = pick % len(record["layers"])
        record["pairs"][key][layer] = outside
        first.write_text(json.dumps(record))
        with pytest.raises(FormatError, match=rf"pairs {re.escape(key)} at layer {layer} is "):
            load_profile(first)


def first(pairs):
    return next(iter(pairs.values()))


# A structural fault of a profile, as an edit of its pairs and languages.
PROFILE_FAULTS = {
    "language-old-and-new": lambda p, old, new: (p, old + new[:1], new),
    "one-name-key": lambda p, old, new: ({**p, ("zz",): first(p)}, old, new),
    "three-name-key": lambda p, old, new: ({**p, ("q", "r", "s"): first(p)}, old, new),
    "empty-name-key": lambda p, old, new: ({**p, ("", "b"): first(p)}, old, new),
    "ragged-pairs": lambda p, old, new: ({**p, ("y", "z"): [0.0, *first(p)]}, old, new),
    "no-layer": lambda p, old, new: ({key: [] for key in p}, old, new),
    "nan-value": lambda p, old, new: ({**p, min(p): [math.nan, *p[min(p)][1:]]}, old, new),
    "missing-pair": lambda p, old, new: ({key: p[key] for key in sorted(p)[1:]}, old, new),
    "no-new-language": lambda p, old, new: (p, old, ()),
}


@given(measured_pairs(), st.sampled_from(sorted(PROFILE_FAULTS)))
@settings(max_examples=40, deadline=None)
def test_a_profile_builds_nothing_its_loader_refuses(measured, fault):
    """A profile file with a fault in its pairs or languages fails to load,
    and the same pairs and languages fail to build a profile."""
    pairs, old, new = PROFILE_FAULTS[fault](*measured)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "profile.json")
        save_profile(SimilarityProfile(*measured), path)
        record = json.loads(path.read_text())
        record.update(pairs={"|".join(key): list(values) for key, values in pairs.items()},
                      old_languages=list(old), new_languages=list(new))
        path.write_text(json.dumps(record))
        with pytest.raises(FormatError):
            load_profile(path)
    with pytest.raises(InvalidInputError):
        SimilarityProfile(pairs, old, new)
