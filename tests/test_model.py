"""Upcycling, routing, gated forward, partitions, and checkpoints."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layermoe.errors import (
    ConfigurationError,
    FormatError,
    InvalidInputError,
    SequenceLengthError,
)
from layermoe.model import (
    DenseModel,
    Expansion,
    Expert,
    Model,
    ModelConfig,
    MoELayer,
    MoEModel,
    add_classifiers,
    extend_expansion,
    forward,
    forward_graph,
    hash_params,
    load_model,
    partition_params,
    save_model,
    upcycle,
)
from layermoe.model.network import (
    INIT_STD,
    NEW_EXPERT_NOISE_STD,
    _check_size,
    _dense_param_specs,
    _moe_mix,
)
from layermoe.numerics import SeededRng, Tensor, derive_seed
from util import clone_model, read_header, write_checkpoint


def tiny_config(**overrides):
    base = dict(layers=2, hidden=16, heads=2, vocab=32, ffn=12, context=12, top_k=2, seed=5)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def dense():
    return DenseModel.create(tiny_config(), groups=("g0",))


def sample_tokens(config, batch=2, length=None, seed=11):
    gen = SeededRng(seed).generator()
    length = length or config.context
    tokens = gen.integers(2, config.vocab, size=(batch, length))
    tokens[:, 0] = 0
    return tokens


class TestModel:
    """A dense model is a model with no expansion."""

    def test_a_dense_model_answers_as_an_moe_with_no_expansion_would(self, dense):
        bare = MoEModel(dense.config, dense.params, dense.base_groups, ())
        assert isinstance(dense, Model) and isinstance(bare, Model)
        for name in ("base_groups", "proficient_groups", "old_groups", "expansion_history",
                     "classifier_layers"):
            assert getattr(dense, name) == getattr(bare, name), name
        assert dense.fingerprint() == bare.fingerprint()
        assert dense.base_groups == dense.proficient_groups == dense.old_groups == ("g0",)
        assert dense.expansion_history == dense.classifier_layers == ()
        assert dense.expert_counts() == bare.expert_counts() == (1, 1)

    def test_a_checkpoint_reads_its_kind_from_the_history(self, dense, tmp_path):
        """A plain model with no expansion saves the bytes of a dense one,
        and loads as one; with an expansion it loads as an MoE model."""
        models = {"dense": dense, "plain": Model(dense.config, dense.params, dense.base_groups),
                  "moe": upcycle(dense, [1, 1], "g1")}
        for name, model in models.items():
            save_model(model, tmp_path / name)
        assert (tmp_path / "plain").read_bytes() == (tmp_path / "dense").read_bytes()
        assert type(load_model(tmp_path / "plain")) is DenseModel
        assert type(load_model(tmp_path / "moe")) is MoEModel


def without(params, name):
    return {n: p for n, p in params.items() if n != name}


class TestConstructor:
    """The constructor checks every model's structure, with the messages a
    checkpoint that holds the same fault is refused with. Before, only
    ``load_model`` checked these, and a model built directly took each."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: {**a, "params": without(a["params"], "head")},
             "parameters do not fit the model (found != expected): head None != (16, 32)"),
            (lambda a: {**a, "params": {**a["params"], "blocks.0.router.9": Tensor(np.zeros(16))}},
             "parameters do not fit the model (found != expected): blocks.0.router.9 (16,) != None"),
            (lambda a: {**a, "params": {**a["params"], "head": Tensor(np.zeros((16, 31)))}},
             "parameters do not fit the model (found != expected): head (16, 31) != (16, 32)"),
            (lambda a: {**a, "base_groups": ()}, "a model needs at least one group"),
            (lambda a: {**a, "base_groups": ("g0", "g1")}, "group listed more than once: g1"),
            (lambda a: {**a, "classifier_layers": (1, 0, 1)},
             "classifier layer listed more than once: 1"),
            (lambda a: {**a, "expansion_history": (Expansion("g1", (10**6, 1)),)},
             "expansion history has more experts than parameters"),
            (lambda a: {**a, "classifier_layers": (0, 1, 5)},
             "classifier layers [5] are not among the model's 2 MoE layers"),
            (lambda a: {**a, "classifier_layers": (-1, 0, 1)},
             "classifier layers [-1] are not among the model's 2 MoE layers"),
            (lambda a: {**a, "classifier_layers": (0, 1.7)},
             "classifier layers [1.7] are not among the model's 2 MoE layers"),
            (lambda a: {**a, "expansion_history": (Expansion("g1", (1,)),)},
             "expansion 'g1' gives [1], not one count >= 0 for each of 2 layers"),
            (lambda a: {**a, "expansion_history": (Expansion("g1", (4, -1)),)},
             "expansion 'g1' gives [4, -1], not one count >= 0 for each of 2 layers"),
        ],
        ids=["missing-param", "extra-param", "wrong-shape", "no-group", "group-base-and-history",
             "repeated-classifier-layer", "experts-beyond-params", "classifier-beyond-layers",
             "negative-classifier-layer", "fractional-classifier-layer", "short-expansion",
             "negative-expert-count"],
    )
    def test_a_structure_a_checkpoint_cannot_hold_is_rejected(self, dense, edit, message):
        model = add_classifiers(upcycle(dense, [1, 2], "g1"), [0, 1])
        parts = {"config": model.config, "params": model.params, "base_groups": ("g0",),
                 "expansion_history": model.expansion_history, "classifier_layers": (0, 1)}
        MoEModel(**parts)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            MoEModel(**edit(parts))

    def test_a_model_with_no_expansion_takes_no_classifier(self, dense):
        """``add_classifiers`` gave a dense model ``blocks.1.classifier``, and
        ``save_model`` wrote a checkpoint that ``load_model`` refused."""
        model = Model(dense.config, dict(dense.params), dense.base_groups)
        message = r"^classifier layers \[1\] are not among the model's 0 MoE layers$"
        with pytest.raises(InvalidInputError, match=message):
            add_classifiers(model, [1])
        with pytest.raises(InvalidInputError, match=message):
            Model(dense.config, dense.params, dense.base_groups, (), (1,))
        assert model.params.keys() == dense.params.keys() and model.classifier_layers == ()

    def test_a_dense_model_with_expert_names_is_rejected(self, dense):
        """What ``upcycle`` used to build before it extended it: router
        columns beside expert 0 on a model with no expansion."""
        params = dict(dense.params)
        params.update({f"blocks.{i}.router.0": Tensor(np.zeros(16)) for i in range(2)})
        with pytest.raises(InvalidInputError, match="^parameters do not fit the model"):
            Model(dense.config, params, ("g0",))


class TestUpcycle:
    def test_structure(self, dense):
        model = upcycle(dense, [2, 3], "g1")
        assert model.expert_counts() == (3, 4)
        assert len(model.layer(0).router_columns) == 3
        assert len(model.layer(1).router_columns) == 4
        for col in model.layer(1).router_columns:
            np.testing.assert_array_equal(col.data, 0.0)
        assert model.expansion_history[0].group == "g1"
        assert model.proficient_groups == ("g0", "g1")

    def test_uniform_plan_reproduces_grid_shape(self):
        config = tiny_config(layers=24, hidden=8, heads=2, ffn=4, vocab=16, context=8)
        dense24 = DenseModel.create(config, groups=("g0",))
        model = upcycle(dense24, [2] * 24, "g1")
        # 1 original + 2 added = the 3-experts-on-24-layers baseline grid
        assert model.expert_counts() == (3,) * 24

    def test_zero_expert_layer_is_identity_mixture(self, dense):
        model = upcycle(dense, [0, 1], "g1")
        assert model.expert_counts() == (1, 2)
        tokens = sample_tokens(dense.config)
        moe_out = forward(model, tokens)
        dense_out = forward(dense, tokens)
        trace = moe_out.trace[0]
        assert trace.indices.shape[-1] == 1
        np.testing.assert_array_equal(trace.weights.data, 1.0)
        # layer 0 mixes only the original FFN, so the whole dense layer-0
        # computation is preserved; taps of layer 1 must agree exactly
        np.testing.assert_array_equal(moe_out.taps[1], dense_out.taps[1])

    def test_new_experts_start_near_original(self, dense):
        model = upcycle(dense, [1, 1], "g1")
        base = dense.params["blocks.0.experts.0.gate"].data
        added = model.params["blocks.0.experts.1.gate"].data
        delta = added - base
        assert 0 < np.abs(delta).max() < 0.1
        again = upcycle(dense, [1, 1], "g1")
        np.testing.assert_array_equal(added, again.params["blocks.0.experts.1.gate"].data)

    def test_plan_mismatch(self, dense):
        with pytest.raises(InvalidInputError):
            upcycle(dense, [1, 1, 1], "g1")
        with pytest.raises(InvalidInputError):
            upcycle(dense, [-1, 2], "g1")

    @pytest.mark.parametrize("counts", [[1.5, 1], [1, 2.0], [np.float64(1.0), 1], ["1", 1]],
                             ids=["fractional", "whole-float", "numpy-float", "string"])
    def test_counts_that_are_not_ints_are_rejected(self, dense, counts):
        """``extend_expansion(model, [1.5], "g1")`` made an expansion of 1
        expert: each count was truncated with ``int()``. It is checked with
        the constructor's rule, before any expert is made."""
        message = rf"^expansion 'g1' gives \[.*\], not one count >= 0 for each of 2 layers$"
        with pytest.raises(InvalidInputError, match=message):
            extend_expansion(dense, counts, "g1")

    def test_numpy_int_counts_are_stored_as_ints(self, dense, tmp_path):
        model = extend_expansion(dense, np.array([1, 2]), "g1")
        assert model.expansion_history == (Expansion("g1", (1, 2)),)
        assert all(type(c) is int for c in model.expansion_history[0].new_experts)
        assert clone_model(model, tmp_path).fingerprint() == model.fingerprint()

    def test_frozen_dense_untouched(self, dense):
        before = hash_params(dense, sorted(dense.params))
        upcycle(dense, [2, 2], "g1")
        assert hash_params(dense, sorted(dense.params)) == before

    def test_a_first_expansion_is_an_expansion(self, dense):
        """``extend_expansion`` of a model with no expansion keeps each dense
        FFN as expert 0 and gives it a zero router column; before, it raised
        ``KeyError: 'blocks.0.experts.0.gate'`` and only ``upcycle`` could."""
        fresh = Model.create(dense.config, ("g0",))
        model = extend_expansion(fresh, [2, 1], "g1")
        assert type(model) is MoEModel and model.expert_counts() == (3, 2)
        assert fresh.fingerprint() == dense.fingerprint() and not fresh.expansion_history
        assert model.fingerprint() == upcycle(dense, [2, 1], "g1").fingerprint()
        for name, param in dense.params.items():
            assert model.params[name].data.tobytes() == param.data.tobytes()
        for i in range(dense.config.layers):
            assert model.params[f"blocks.{i}.router.0"].data.tobytes() == bytes(8 * 16)
        assert not [n for n in model.params if ".ffn." in n]

    def test_expert_0_is_drawn_from_the_init_stream_of_the_dense_ffn(self, dense):
        """Expert 0 was ``blocks.i.ffn.*`` before checkpoint version 2, and
        is still drawn from that name's stream: renaming the stream would
        move every trained bit."""
        for i in range(dense.config.layers):
            for part in ("gate", "up", "down"):
                param = dense.params[f"blocks.{i}.experts.0.{part}"].data
                stream = derive_seed(dense.config.seed, "init", f"blocks.{i}.ffn.{part}")
                want = SeededRng(stream).generator().normal(0.0, INIT_STD, size=param.shape)
                assert param.tobytes() == want.tobytes()
        assert not [n for n in dense.params if "ffn." in n or "attn_norm" in n]
        assert not [n for n in dense.params if ".router." in n]

    def test_added_experts_follow_the_seed_scheme(self, dense):
        """Upcycling and extending add experts the same way: expert 0 plus
        noise seeded by expansion, layer, expert number and part."""
        first = upcycle(dense, [1, 2], "g1")
        model = extend_expansion(first, [2, 1], "g2")
        assert model.expert_counts() == (4, 4)
        for i, first_count in enumerate((1, 2)):
            for e in range(1, 4):
                expansion = 0 if e <= first_count else 1
                for part in ("gate", "up", "down"):
                    base = dense.params[f"blocks.{i}.experts.0.{part}"].data
                    tag = ("expansion", expansion, "layer", i, "expert", e, part)
                    gen = SeededRng(derive_seed(dense.config.seed, *tag)).generator()
                    want = (base + gen.normal(0.0, NEW_EXPERT_NOISE_STD, size=base.shape)).tobytes()
                    name = f"blocks.{i}.experts.{e}.{part}"
                    assert model.params[name].data.tobytes() == want
                    if expansion == 0:
                        assert first.params[name].data.tobytes() == want


def route(x, router, top_k):
    """Routing of one hidden vector through _moe_mix: (indices, weights)."""
    zeros = [Tensor(np.zeros(shape)) for shape in ((len(x), 1), (len(x), 1), (1, len(x)))]
    columns = [Tensor(column) for column in np.asarray(router, dtype=np.float64).T]
    layer = MoELayer([Expert(*zeros)] * len(columns), columns, top_k)
    _, trace = _moe_mix(Tensor(np.asarray(x, dtype=np.float64)[None, :]), layer, False)
    return trace.indices[0], trace.weights.data[0]


def layer_mix(x, layer, gated=False):
    """_moe_mix on a row batch: the output array and the layer's trace."""
    out, trace = _moe_mix(Tensor(x), layer, gated)
    return out.data, trace


class TestRoute:
    def test_hand_example(self):
        h = 4
        router = np.zeros((h, 3))
        router[0] = [2.0, 0.0, 1.0]
        x = np.zeros(h)
        x[0] = 1.0
        indices, weights = route(x, router, 2)
        np.testing.assert_array_equal(indices, [0, 2])
        np.testing.assert_allclose(weights, [0.73106, 0.26894], atol=1e-5)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tie_break_low_index(self):
        indices, weights = route(np.ones(4), np.zeros((4, 3)), 2)
        np.testing.assert_array_equal(indices, [0, 1])
        np.testing.assert_array_equal(weights, [0.5, 0.5])

    def test_k_equals_n_is_full_softmax(self):
        gen = SeededRng(3).generator()
        x = gen.normal(size=4)
        router = gen.normal(size=(4, 2))
        indices, weights = route(x, router, 2)
        full = np.exp(x @ router - (x @ router).max())
        full /= full.sum()
        np.testing.assert_allclose(np.sort(weights), np.sort(full), atol=1e-12)
        assert set(indices.tolist()) == {0, 1}

    def test_k_clipped_to_n(self):
        indices, _ = route(np.ones(4), np.zeros((4, 2)), 5)
        assert len(indices) == 2

    def test_scale_invariant_selection(self):
        gen = SeededRng(4).generator()
        x = gen.normal(size=6)
        router = gen.normal(size=(6, 5))
        base, _ = route(x, router, 2)
        scaled, _ = route(3.0 * x, router, 2)
        np.testing.assert_array_equal(base, scaled)


class TestMoELayerForward:
    @staticmethod
    def experts(count=2, seed=12):
        gen = SeededRng(seed).generator()
        shapes = ((2, 3), (2, 3), (3, 2))
        return [
            Expert(*(Tensor(gen.normal(0.0, 0.5, size=shape)) for shape in shapes))
            for _ in range(count)
        ]

    @classmethod
    def stub_layer(cls, classifier=None):
        # two real experts E0, E1; router puts logits (2, 1) on x = (1, 0),
        # so the renormalised weights are (0.73106, 0.26894)
        col0 = Tensor(np.array([2.0, 0.0]))
        col1 = Tensor(np.array([1.0, 0.0]))
        return MoELayer(
            experts=cls.experts(),
            router_columns=[col0, col1],
            top_k=2,
            classifier=classifier,
        )

    def test_weighted_mix_hand_example(self):
        layer = self.stub_layer()
        x = np.array([[1.0, 0.0]])
        e0, e1 = (expert(Tensor(x)).data for expert in layer.experts)
        y, graph = layer_mix(x, layer)
        np.testing.assert_allclose(y, 0.73106 * e0 + 0.26894 * e1 + x, atol=1e-4)
        np.testing.assert_array_equal(graph.indices, [[0, 1]])
        np.testing.assert_allclose(graph.weights.data, [[0.73106, 0.26894]], atol=1e-5)

    def test_gate_bypasses_router_exactly(self):
        # zero classifier logits tie everywhere and argmax resolves to class 0
        # ("old"), so every row takes the bypass
        layer = self.stub_layer(Tensor(np.zeros((2, 2))))
        x = SeededRng(9).generator().normal(size=(7, 2))
        gated, graph = layer_mix(x, layer, gated=True)
        expected = (layer.experts[0](Tensor(x)) + Tensor(x)).data  # E0(x) + x
        np.testing.assert_array_equal(gated, expected)
        assert graph.gate_old.all()
        # routing is still recorded for the losses; the gate only masks it
        order = np.argsort(-graph.scores.data, axis=1, kind="stable")
        np.testing.assert_array_equal(graph.indices, order)

    def test_gate_new_tokens_route_normally(self):
        classifier = Tensor(np.array([[-5.0, 5.0], [0.0, 0.0]]))  # always "new"
        layer = self.stub_layer(classifier)
        x = np.array([[1.0, 0.0]])
        gated, gated_graph = layer_mix(x, layer, gated=True)
        plain, plain_graph = layer_mix(x, layer)
        np.testing.assert_array_equal(gated, plain)
        assert not gated_graph.gate_old.any()
        np.testing.assert_array_equal(gated_graph.indices, plain_graph.indices)
        np.testing.assert_array_equal(gated_graph.weights.data, plain_graph.weights.data)

    def test_single_expert_layer(self):
        (expert,) = self.experts(count=1)
        layer = MoELayer([expert], [Tensor(np.zeros(2))], top_k=2)
        x = np.array([[0.5, -1.0]])
        expected = (expert(Tensor(x)) + Tensor(x)).data
        y, graph = layer_mix(x, layer)
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(graph.indices, [[0]])
        np.testing.assert_array_equal(graph.weights.data, [[1.0]])


class TestForward:
    @pytest.mark.parametrize("shape", [(12,), (1, 2, 12)], ids=["1-d", "3-d"])
    def test_tokens_are_a_batch_of_sequences(self, dense, shape):
        with pytest.raises(InvalidInputError, match=r"^tokens must be two dimensional"):
            forward(dense, np.zeros(shape, dtype=np.int64))

    def test_tap_shapes(self, dense):
        model = upcycle(dense, [2, 2], "g1")
        tokens = sample_tokens(dense.config, batch=3, length=7)
        result = forward(model, tokens)
        config = dense.config
        assert result.taps.shape == (config.layers, 3, 7, config.hidden)
        assert result.logits.shape == (3, 7, config.vocab)

    def test_zero_router_tie_break_everywhere(self, dense):
        model = upcycle(dense, [2, 2], "g1")  # 3 experts, top-2, zero routers
        result = forward(model, sample_tokens(dense.config))
        for trace in result.trace:
            assert set(map(tuple, trace.indices)) == {(0, 1)}
            np.testing.assert_array_equal(trace.weights.data, 0.5)

    def test_routing_weight_invariants(self, dense):
        gen = SeededRng(21).generator()
        model = upcycle(dense, [3, 1], "g1")
        for i in range(dense.config.layers):
            for col in model.layer(i).router_columns:
                col.data[:] = gen.normal(size=col.data.shape)
        result = forward(model, sample_tokens(dense.config))
        for i, trace in enumerate(result.trace):
            n = model.expert_counts()[i]
            k = min(dense.config.top_k, n)
            assert trace.indices.shape[-1] == k
            assert all(len(set(row.tolist())) == k for row in trace.indices)
            assert (trace.weights.data > 0).all()
            np.testing.assert_allclose(trace.weights.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_bitwise_deterministic(self, dense):
        model = upcycle(dense, [2, 2], "g1")
        tokens = sample_tokens(dense.config)
        first = forward(model, tokens)
        second = forward(model, tokens)
        np.testing.assert_array_equal(first.logits, second.logits)
        rebuilt = upcycle(DenseModel.create(tiny_config(), groups=("g0",)), [2, 2], "g1")
        third = forward(rebuilt, tokens)
        np.testing.assert_array_equal(first.logits, third.logits)

    def test_input_validation(self, dense):
        config = dense.config
        with pytest.raises(SequenceLengthError):
            forward(dense, np.zeros((1, config.context + 1), dtype=int))
        with pytest.raises(InvalidInputError):
            forward(dense, np.array([[0, config.vocab]]))

    @pytest.mark.parametrize("moe", [False, True])
    def test_unknown_mode_rejected(self, dense, moe):
        model = upcycle(dense, [1, 1], "g1") if moe else dense
        with pytest.raises(InvalidInputError):
            forward(model, sample_tokens(dense.config), mode="bogus")

    @pytest.mark.parametrize("mode", ["plain", "gated"])
    def test_trace_is_the_graph_record_over_flat_rows(self, dense, mode):
        model = upcycle(dense, [2, 1], "g1")
        add_classifiers(model, [0, 1])
        model.params["blocks.1.classifier"].data[:] = SeededRng(23).generator().normal(
            size=(dense.config.hidden, 2)
        )
        tokens = sample_tokens(dense.config, batch=3, length=7)
        trace = forward(model, tokens, mode=mode).trace
        graph = forward_graph(model, tokens, mode=mode).layers
        assert len(trace) == len(graph) == dense.config.layers
        for i, (record, expected) in enumerate(zip(trace, graph)):
            n_experts = model.expert_counts()[i]
            assert record.indices.shape == (21, min(dense.config.top_k, n_experts))
            assert record.scores.shape == (21, n_experts)
            assert record.classifier_logits.shape == (21, 2)
            if mode == "gated":
                assert record.gate_old.shape == (21,)
                assert expected.gate_old.tobytes() == record.gate_old.tobytes()
            else:
                assert record.gate_old is None and expected.gate_old is None
            assert expected.indices.tobytes() == record.indices.tobytes()
            for name in ("scores", "weights", "classifier_logits"):
                got, want = getattr(record, name).data, getattr(expected, name).data
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gated_needs_classifiers(self, dense):
        model = upcycle(dense, [1, 1], "g1")
        with pytest.raises(ConfigurationError):
            forward(model, sample_tokens(dense.config), mode="gated")

    def test_gated_layers_report_gate_decisions(self, dense):
        model = upcycle(dense, [1, 1], "g1")
        add_classifiers(model, [1])
        result = forward(model, sample_tokens(dense.config), mode="gated")
        assert result.trace[0].gate_old is None
        # zero classifier logits tie, argmax picks class 0 = old everywhere
        np.testing.assert_array_equal(result.trace[1].gate_old, True)

    def test_gated_mode_gates_exactly_the_classifier_layers(self):
        config = tiny_config(layers=3)
        dense3 = DenseModel.create(config, groups=("g0",))
        model = upcycle(dense3, [2, 3, 1], "g1")
        gen = SeededRng(22).generator()
        for name, param in model.params.items():
            if ".router." in name:
                param.data[:] = gen.normal(size=param.data.shape)
        add_classifiers(model, [0, 2])  # zero logits: the gate fires on every row
        tokens = sample_tokens(config)
        gated = forward(model, tokens, mode="gated")
        assert [t.gate_old is not None for t in gated.trace] == [True, False, True]
        np.testing.assert_array_equal(gated.trace[0].gate_old, True)
        np.testing.assert_array_equal(gated.trace[2].gate_old, True)
        # gated layer 0 runs expert 0 (the dense FFN) alone, bit for bit
        reference = forward(dense3, tokens)
        np.testing.assert_array_equal(gated.taps[1], reference.taps[1])
        # layer 1 has no classifier, so it still mixes its routed experts
        assert np.abs(gated.taps[2] - reference.taps[2]).max() > 1e-6

    @pytest.mark.parametrize("kind", ["dense", "plain", "gated"])
    def test_stopping_at_the_last_tap_keeps_every_tap(self, kind):
        """``logits=False`` skips the last layer's expert stage and the head
        but gives the taps of the full forward, bit for bit."""
        config = tiny_config(layers=3)
        model = DenseModel.create(config, groups=("g0",))
        mode = "gated" if kind == "gated" else "plain"
        if kind != "dense":
            model = upcycle(model, [2, 3, 1], "g1")
            gen = SeededRng(24).generator()
            for name, param in model.params.items():
                if ".router." in name:
                    param.data[:] = gen.normal(size=param.data.shape)
            add_classifiers(model, [0, 2])
            for i in (0, 2):
                model.params[f"blocks.{i}.classifier"].data[:] = gen.normal(size=(16, 2))
        tokens = sample_tokens(config, batch=3, length=9)
        full = forward(model, tokens, mode=mode)
        taps_only = forward(model, tokens, mode=mode, logits=False)
        assert taps_only.logits is None
        assert taps_only.taps.shape == full.taps.shape
        assert taps_only.taps.tobytes() == full.taps.tobytes()
        if kind == "dense":
            assert taps_only.trace is None
        else:
            assert len(taps_only.trace) == config.layers - 1
            for short, long in zip(taps_only.trace, full.trace):
                assert short.indices.tobytes() == long.indices.tobytes()
                assert short.weights.data.tobytes() == long.weights.data.tobytes()


class TestPartition:
    def test_stage1_counts_on_uniform_grid(self):
        config = tiny_config(layers=24, hidden=8, heads=2, ffn=4, vocab=16, context=8)
        dense24 = DenseModel.create(config, groups=("g0",))
        model = upcycle(dense24, [2] * 24, "g1")
        trainable, frozen = partition_params(model, "stage1")
        experts = [n for n in trainable if ".experts." in n]
        routers = [n for n in trainable if ".router." in n]
        assert len(experts) == 24 * 2 * 3  # 48 new experts, 3 matrices each
        assert len(routers) == 24 * 2  # their router columns only
        assert set(trainable) | set(frozen) == set(model.params)
        assert not set(trainable) & set(frozen)
        assert all(".experts.0." not in n for n in trainable)
        assert all(not n.endswith(".router.0") for n in trainable)

    def test_stage2_routers_and_classifiers(self, dense):
        model = upcycle(dense, [2, 2], "g1")
        add_classifiers(model, [1])
        trainable, frozen = partition_params(model, "stage2")
        assert set(trainable) == {
            "blocks.0.router.0",
            "blocks.0.router.1",
            "blocks.0.router.2",
            "blocks.1.router.0",
            "blocks.1.router.1",
            "blocks.1.router.2",
            "blocks.1.classifier",
        }
        assert set(trainable) | set(frozen) == set(model.params)

    def test_degenerate_cases(self, dense):
        with pytest.raises(ConfigurationError):
            partition_params(dense, "stage1")
        model = upcycle(dense, [0, 0], "g1")
        with pytest.raises(ConfigurationError):
            partition_params(model, "stage1")

    def test_second_expansion_trains_only_its_experts(self, dense):
        model = upcycle(dense, [1, 1], "g1")
        model = extend_expansion(model, [2, 1], "g2")
        trainable, _ = partition_params(model, "stage1")
        assert "blocks.0.experts.1.gate" not in trainable
        assert "blocks.0.experts.2.gate" in trainable
        assert "blocks.0.experts.3.gate" in trainable
        assert "blocks.1.experts.2.gate" in trainable
        assert "blocks.0.router.2" in trainable and "blocks.0.router.1" not in trainable


class TestExtendAndClassifiers:
    def test_extension_grows_counts_and_freezes_earlier(self, dense):
        model = upcycle(dense, [1, 2], "g1")
        first_hash = hash_params(model, [n for n in model.params if ".experts.1." in n])
        extended = extend_expansion(model, [2, 1], "g2")
        assert extended.expert_counts() == (4, 4)
        assert extended.proficient_groups == ("g0", "g1", "g2")
        assert extended.old_groups == ("g0", "g1")
        assert hash_params(extended, [n for n in extended.params if ".experts.1." in n]) == first_hash

    def test_extension_drops_classifiers(self, dense):
        model = upcycle(dense, [1, 1], "g1")
        add_classifiers(model, [0])
        extended = extend_expansion(model, [1, 1], "g2")
        assert extended.classifier_layers == ()
        assert not any(n.endswith(".classifier") for n in extended.params)

    def test_add_classifiers_replaces(self, dense):
        model = upcycle(dense, [1, 1], "g1")
        add_classifiers(model, [0])
        add_classifiers(model, [1])
        assert model.classifier_layers == (1,)
        assert "blocks.0.classifier" not in model.params
        np.testing.assert_array_equal(model.params["blocks.1.classifier"].data, 0.0)

    def test_out_of_range_rejected(self, dense):
        model = add_classifiers(upcycle(dense, [1, 1], "g1"), [0])
        with pytest.raises(InvalidInputError):
            add_classifiers(model, [1, 5])
        assert model.classifier_layers == (0,)
        assert [n for n in model.params if n.endswith(".classifier")] == ["blocks.0.classifier"]


class TestGroups:
    """A model's groups are what its checkpoint records. Each model below
    was built, and ``save_model`` wrote a checkpoint of it that
    ``load_model`` refused."""

    @pytest.mark.parametrize(
        "groups, message",
        [((), "a model needs at least one group"),
         (("g0", "g0"), "group listed more than once: g0"),
         (("g1", "g0", "g1", "g0"), "group listed more than once: g0, g1")],
        ids=["none", "repeated", "two-repeated"],
    )
    def test_create_rejects_groups_a_checkpoint_cannot_hold(self, groups, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            DenseModel.create(tiny_config(), groups)

    def test_create_needs_groups(self):
        with pytest.raises(TypeError):
            DenseModel.create(tiny_config())

    @pytest.mark.parametrize("group", ["g0", "g1"])
    def test_an_expansion_of_a_known_group_is_rejected(self, dense, group):
        model = upcycle(dense, [1, 1], "g1")
        message = f"^group {group!r} is already proficient$"
        with pytest.raises(InvalidInputError, match=message):
            extend_expansion(model, [1, 1], group)
        if group == "g0":
            with pytest.raises(InvalidInputError, match=message):
                upcycle(dense, [1, 1], group)


class TestSize:
    """A model holds at most 2**27 parameters, checked before any is made."""

    def test_the_bound_is_2_to_the_27(self):
        _check_size(2**27)
        with pytest.raises(InvalidInputError, match=r"^a model of 134217729 parameters"):
            _check_size(2**27 + 1)

    def test_create_counts_every_parameter_of_the_layout(self):
        # numpy cannot allocate these dimensions, so a create that skipped
        # the check would fail at once with another error.
        config = tiny_config(layers=3, hidden=10**20, heads=1)
        count = sum(math.prod(shape) for _, shape, _ in _dense_param_specs(config))
        message = rf"^a model of {count} parameters is over the bound of 2\*\*27$"
        with pytest.raises(InvalidInputError, match=message):
            DenseModel.create(config, ("g0",))


class TestCheckpoint:
    def test_dense_roundtrip_bitwise(self, dense, tmp_path):
        path = tmp_path / "dense.lmoe"
        save_model(dense, path)
        first = path.read_bytes()
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == first
        assert isinstance(loaded, DenseModel)
        assert loaded.base_groups == ("g0",)
        for name in dense.params:
            np.testing.assert_array_equal(loaded.params[name].data, dense.params[name].data)

    def test_moe_roundtrip_preserves_structure(self, dense, tmp_path):
        model = upcycle(dense, [2, 1], "g1")
        model = extend_expansion(model, [1, 1], "g2")
        add_classifiers(model, [0, 1])
        path = tmp_path / "model.lmoe"
        save_model(model, path)
        loaded = load_model(path)
        save_model(loaded, tmp_path / "again.lmoe")
        assert (tmp_path / "again.lmoe").read_bytes() == path.read_bytes()
        assert loaded.expansion_history == model.expansion_history
        assert loaded.classifier_layers == (0, 1)
        assert loaded.base_groups == ("g0",)
        tokens = sample_tokens(dense.config)
        np.testing.assert_array_equal(
            forward(loaded, tokens).logits, forward(model, tokens).logits
        )

    def test_bad_magic(self, dense, tmp_path):
        path = tmp_path / "x.lmoe"
        save_model(dense, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_payload(self, dense, tmp_path):
        path = tmp_path / "x.lmoe"
        save_model(dense, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError):
            load_model(path)

    def test_bad_version(self, dense, tmp_path):
        path = tmp_path / "x.lmoe"
        save_model(dense, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_structure_mismatch_rejected(self, dense, tmp_path):
        def broken(edit):
            model = upcycle(dense, [1, 2], "g1")
            add_classifiers(model, [1])
            edit(model)
            path = tmp_path / "broken.lmoe"
            save_model(model, path)
            with pytest.raises(FormatError) as info:
                load_model(path)
            return str(info.value)

        assert "blocks.1.experts.1.up" in broken(lambda m: m.params.pop("blocks.1.experts.1.up"))
        assert "blocks.0.router.9" in broken(
            lambda m: m.params.update({"blocks.0.router.9": Tensor(np.zeros(16))})
        )
        assert "blocks.0.experts.0.down" in broken(
            lambda m: m.params.update({"blocks.0.experts.0.down": Tensor(np.zeros((16, 12)))})
        )
        assert "blocks.0.classifier" in broken(lambda m: setattr(m, "classifier_layers", (0, 1)))
        assert "experts.3" in broken(
            lambda m: setattr(m, "expansion_history", (Expansion("g1", (1, 3)),))
        )
        message = "expansion 'g1' gives [1, 2, 0], not one count >= 0 for each of 2 layers"
        assert message in broken(
            lambda m: setattr(m, "expansion_history", (Expansion("g1", (1, 2, 0)),))
        )
        dense_copy = DenseModel(dense.config, dict(dense.params), dense.base_groups)
        del dense_copy.params["head"]
        save_model(dense_copy, tmp_path / "dense.lmoe")
        with pytest.raises(FormatError):
            load_model(tmp_path / "dense.lmoe")


# A structural fault of a saved MoE header, as an edit of its expansion
# history ([[group, counts], ...]) and classifier layers, given the layer count.
HEADER_FAULTS = {
    "classifier-beyond-layers": lambda h, c, n: (h, c + [n + 3]),
    "negative-classifier-layer": lambda h, c, n: (h, c + [-1]),
    "fractional-classifier-layer": lambda h, c, n: (h, c + [n - 0.3]),
    "repeated-classifier-layer": lambda h, c, n: (h, c + c[:1] if c else [0, 0]),
    "short-counts": lambda h, c, n: ([[h[0][0], h[0][1][:-1]]] + h[1:], c),
    "long-counts": lambda h, c, n: ([[h[0][0], h[0][1] + [0]]] + h[1:], c),
    "negative-count": lambda h, c, n: ([[h[0][0], [-1] + h[0][1][1:]]] + h[1:], c),
    "group-of-the-base": lambda h, c, n: ([["g0", h[0][1]]] + h[1:], c),
}
# A header that lists its first parameter twice, with that parameter's
# payload block twice. A model's parameters are a dict, which cannot hold
# the fault, so it is the loader's alone to refuse.
REPEATED_PARAMETER = "repeated-parameter"


def repeat_first_parameter(header, payload):
    first = header["params"][0]
    size = 8 * math.prod(first["shape"])
    return {**header, "params": [first] + header["params"]}, payload[:size] + payload


@st.composite
def model_recipes(draw):
    """(layers, seed, new experts per expansion, classifier layers) of a tiny
    model with 0-2 expansions, and classifiers only on a model with one."""
    layers = draw(st.integers(1, 3))
    counts = st.tuples(*[st.integers(0, 2)] * layers)
    expansions = draw(st.lists(counts, max_size=2).map(tuple))
    classifiers = draw(st.sets(st.integers(0, layers - 1))) if expansions else set()
    return layers, draw(st.integers(0, 2**16)), expansions, tuple(sorted(classifiers))


@given(model_recipes(), st.sampled_from(sorted(HEADER_FAULTS) + [REPEATED_PARAMETER]))
@example((2, 0, ((1, 1),), ()), "classifier-beyond-layers")
@example((2, 0, ((1, 1),), (0,)), "short-counts")
@example((2, 0, ((1, 1),), ()), "fractional-classifier-layer")
@example((1, 0, (), ()), REPEATED_PARAMETER)
@settings(max_examples=40, deadline=None)
def test_a_model_saves_what_it_loads_and_builds_nothing_a_checkpoint_refuses(recipe, fault):
    """A model the constructor accepts saves, loads back and saves the same
    bytes. A header fault that ``load_model`` refuses is one the constructor
    refuses too; the first three examples are models that used to build and
    save, and whose checkpoints then failed to load. A repeated parameter
    loaded, and the loaded model saved one parameter fewer than it read."""
    layers, seed, expansions, classifiers = recipe
    config = ModelConfig(layers=layers, hidden=4, heads=1, vocab=8, ffn=4, context=4, top_k=1,
                         seed=seed)
    model = Model.create(config, ("g0",))
    for e, counts in enumerate(expansions):
        model = extend_expansion(model, counts, f"g{e + 1}")
    if expansions:
        add_classifiers(model, classifiers)
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "a.lmoe"), Path(scratch, "b.lmoe")
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()
        header, payload = read_header(first)
        if fault == REPEATED_PARAMETER:
            write_checkpoint(first, *repeat_first_parameter(header, payload))
            message = f"^{re.escape(str(first))}: parameter listed more than once: "
            with pytest.raises(FormatError, match=message + header["params"][0]["name"] + "$"):
                load_model(first)
            return
        if not expansions:  # the history faults edit an expansion
            return
        history, cls = HEADER_FAULTS[fault](
            header["expansion_history"], header["classifier_layers"], layers)
        write_checkpoint(first, {**header, "expansion_history": history,
                                 "classifier_layers": cls}, payload)
        with pytest.raises(FormatError):
            load_model(first)
    # Each classifier layer gets its parameter, so that only the layer list is at fault.
    params = {n: p for n, p in model.params.items() if not n.endswith(".classifier")}
    params |= {f"blocks.{int(i)}.classifier": Tensor(np.zeros((4, 2))) for i in cls}
    with pytest.raises(InvalidInputError):
        Model(config, params, model.base_groups, [Expansion(g, tuple(c)) for g, c in history], cls)
