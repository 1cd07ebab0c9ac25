"""Loss anchors, gradient contracts, freeze discipline, and evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from layermoe.corpus import generate, language_specs
from layermoe.errors import ConfigurationError, InvalidInputError
from layermoe.model import (
    DenseModel,
    ModelConfig,
    add_classifiers,
    forward,
    forward_graph,
    hash_params,
    partition_params,
    upcycle,
)
from layermoe.numerics import SeededRng, Tensor, autodiff
from layermoe import trainer
from layermoe.trainer import (
    LIFELONG_CLASSIFIER_LAYERS,
    SGD,
    SINGLE_EXPANSION_CLASSIFIER_LAYERS,
    TrainingRecipe,
    balance_loss,
    balance_loss_layer,
    batch_loss,
    cls_loss,
    default_classifier_count,
    evaluate,
    expand,
    lifelong_expand,
    lpr_loss,
    ntp_loss,
    profile_before,
    review,
    stage1_train,
    stage2_train,
    train_dense,
)
from oracles import central_difference, masked_sigmoid, plain_softmax, value_and_grad
from util import clone_model, gradcheck_setup, rel_err


# The pipeline seed of the tests that train; each stage derives its own.
SEED = 5


def recipe1(**overrides):
    base = dict(stage="stage1", steps=3, batch_size=4, learning_rate=0.1)
    base.update(overrides)
    return TrainingRecipe(**base)


def recipe2(**overrides):
    base = dict(stage="stage2", steps=3, batch_size=4, learning_rate=0.1)
    base.update(overrides)
    return TrainingRecipe(**base)


@pytest.mark.parametrize("setting", ["learning_rate", "momentum"])
def test_a_recipe_refuses_a_negative_rate_and_keeps_zero(setting):
    """A negative learning rate ran gradient ascent; a negative momentum
    flipped the sign of each step's velocity."""
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        TrainingRecipe("dense", 1, 1, **{setting: -0.05})
    assert getattr(TrainingRecipe("dense", 1, 1, **{setting: 0.0}), setting) == 0.0


class TestNtpLoss:
    def test_uniform_predictor(self):
        assert ntp_loss(np.zeros((3, 4)), [0, 1, 2]).item() == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_confident_correct_prediction(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        assert ntp_loss(logits, [2]).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        assert ntp_loss(np.array([[2.0, 0.0, 1.0]]), [0]).item() == pytest.approx(
            0.40761, abs=1e-4
        )

    def test_three_dimensional_input(self):
        logits = np.zeros((2, 3, 4))
        assert ntp_loss(logits, np.zeros((2, 3), dtype=int)).item() == pytest.approx(
            math.log(4), abs=1e-12
        )


class TestBalanceLoss:
    def test_uniform_routing_is_one(self):
        scores = np.full((4, 2), 0.5)
        indices = np.array([[0], [1], [0], [1]])
        assert balance_loss_layer(scores, indices).item() == pytest.approx(1.0, abs=1e-12)
        scores4 = np.full((2, 4), 0.25)
        indices4 = np.array([[0, 1], [2, 3]])
        assert balance_loss_layer(scores4, indices4).item() == pytest.approx(1.0, abs=1e-12)

    def test_hand_example(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        indices = np.array([[0], [0]])
        assert balance_loss_layer(scores, indices).item() == pytest.approx(1.7, abs=1e-12)

    def test_expert_permutation_invariance(self):
        gen = SeededRng(4).generator()
        raw = gen.uniform(0.1, 1.0, size=(6, 4))
        scores = raw / raw.sum(axis=1, keepdims=True)
        indices = np.argsort(-scores, axis=1)[:, :2]
        perm = np.array([2, 0, 3, 1])
        inverse = np.argsort(perm)
        value = balance_loss_layer(scores, indices).item()
        permuted = balance_loss_layer(scores[:, perm], inverse[indices]).item()
        assert permuted == pytest.approx(value, abs=1e-12)

    def test_mean_over_layers_and_empty_batch(self):
        scores = np.full((4, 2), 0.5)
        indices = np.array([[0], [1], [0], [1]])
        value = balance_loss([(scores, indices), (scores, indices)]).item()
        assert value == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InvalidInputError):
            balance_loss_layer(np.zeros((0, 2)), np.zeros((0, 1), dtype=int))
        with pytest.raises(InvalidInputError):
            balance_loss([])


class TestLprLoss:
    def test_perfect_prior_routing(self):
        scores = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert lpr_loss([scores], [True, True]).item() == 0.0

    def test_half_score_single_token(self):
        scores = np.array([[0.5, 0.5]])
        assert lpr_loss([scores], [True]).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_no_old_tokens(self):
        scores = np.array([[0.5, 0.5]])
        assert lpr_loss([scores], [False]).item() == 0.0

    def test_normalised_per_token_per_layer(self):
        scores = np.array([[0.5, 0.5], [0.25, 0.75]])
        one_layer = lpr_loss([scores], [True, True]).item()
        two_layers = lpr_loss([scores, scores], [True, True]).item()
        assert two_layers == pytest.approx(one_layer, abs=1e-12)
        assert one_layer == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)


class TestClsLoss:
    def test_uniform_logits_old_token(self):
        logits = np.zeros((1, 2))
        assert cls_loss([logits], [True], [True]).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct(self):
        logits = np.array([[40.0, -40.0], [-40.0, 40.0]])
        value = cls_loss([logits], [True, False], [True, True]).item()
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_specials_excluded(self):
        logits = np.zeros((2, 2))
        value = cls_loss([logits], [True, True], [True, False]).item()
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_no_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            cls_loss([], [True], [True])


class TestGradientContracts:
    """Analytic gradients match central finite differences (eps=1e-5) for
    every trainable parameter of the active stage on a 2-layer toy model."""

    def check(self, loss_fn, params):
        _, analytic = value_and_grad(loss_fn, params)
        numeric = central_difference(loss_fn, params, eps=1e-5)
        worst = max(rel_err(analytic[n], numeric[n]) for n in params)
        assert worst <= 1e-5

    def test_stage1_composite(self):
        _, model, corpus = gradcheck_setup(plan=(1, 1))
        tokens = corpus.subset_groups(["g1"]).sequences[:2]
        recipe = recipe1()
        trainable, _ = partition_params(model, "stage1")
        params = {n: model.params[n] for n in trainable}
        self.check(lambda: batch_loss(model, tokens, recipe)[0], params)

    def test_stage2_composite_and_components(self):
        _, model, corpus = gradcheck_setup(plan=(1, 1), classifier_layers=(1,))
        first_b = corpus.languages.index("b")
        mixed = corpus.take([0, first_b, 1])
        tokens = mixed.sequences[:3]
        old = mixed.old_token_mask(["g0"])[:3, :-1].reshape(-1)
        valid = mixed.token_mask()[:3, :-1].reshape(-1)
        assert old.any() and (~old & valid).any()
        recipe = recipe2()
        trainable, _ = partition_params(model, "stage2")
        params = {n: model.params[n] for n in trainable}
        self.check(lambda: batch_loss(model, tokens, recipe, old, valid)[0], params)

    def test_individual_losses_against_stage_sets(self):
        from layermoe.model import forward_graph

        _, model, corpus = gradcheck_setup(plan=(1, 1), classifier_layers=(0,))
        first_b = corpus.languages.index("b")
        mixed = corpus.take([0, first_b])
        tokens = mixed.sequences[:2]
        old = mixed.old_token_mask(["g0"])[:2, :-1].reshape(-1)
        valid = mixed.token_mask()[:2, :-1].reshape(-1)

        def graph():
            return forward_graph(model, tokens[:, :-1])

        losses = {
            "ntp": lambda: ntp_loss(graph().logits, tokens[:, 1:]),
            "balance": lambda: balance_loss(
                [(g.scores, g.indices) for g in graph().layers]
            ),
            "lpr": lambda: lpr_loss([g.scores for g in graph().layers], old),
            "cls": lambda: cls_loss([graph().layers[0].classifier_logits], old, valid),
        }
        stage_sets = {
            "ntp": "stage1",
            "balance": "stage1",
            "lpr": "stage2",
            "cls": "stage2",
        }
        for name, loss_fn in losses.items():
            trainable, _ = partition_params(model, stage_sets[name])
            params = {n: model.params[n] for n in trainable}
            self.check(loss_fn, params)


class TestFastKernelsKeepBits:
    """The whole model gives the same bits with the plain reference sigmoid
    and softmax patched into ``autodiff``: a gated forward at batch 64 and
    the loss and gradients of one stage-1 step."""

    def outputs(self, model, tokens, params):
        gated = forward(model, tokens[:, :-1], mode="gated").logits
        loss = value_and_grad(lambda: batch_loss(model, tokens, recipe1())[0], params)
        return gated, loss

    def test_forward_and_stage1_step(self, monkeypatch):
        _, model, corpus = gradcheck_setup(plan=(2, 3), classifier_layers=(0, 1))
        tokens = corpus.sequences[:64]
        assert tokens.shape[0] == 64
        trace = forward(model, tokens[:, :-1], mode="gated").trace
        assert all(0 < layer.gate_old.mean() < 1 for layer in trace)
        trainable, _ = partition_params(model, "stage1")
        params = {n: model.params[n] for n in trainable}
        fast_logits, (fast_loss, fast_grads) = self.outputs(model, tokens, params)
        monkeypatch.setattr(autodiff, "_sigmoid", masked_sigmoid)
        monkeypatch.setattr(autodiff, "_softmax", plain_softmax)
        logits, (loss, grads) = self.outputs(model, tokens, params)
        assert fast_logits.tobytes() == logits.tobytes()
        assert fast_loss == loss
        for name in params:
            assert fast_grads[name].tobytes() == grads[name].tobytes(), name

    def test_untaped_forward_matches_taped_forward(self):
        """Without a tape the expert mix works in place; with one it keeps
        every intermediate. Both give the same logits."""
        _, model, corpus = gradcheck_setup(plan=(2, 3), classifier_layers=(0, 1))
        tokens = corpus.sequences[:64, :-1]
        untaped = forward(model, tokens, mode="gated").logits
        try:
            for p in model.params.values():
                p.requires_grad = True
            taped = forward_graph(model, tokens, mode="gated").logits
        finally:
            for p in model.params.values():
                p.requires_grad = False
        assert taped._parents
        assert untaped.tobytes() == taped.data.tobytes()


class TestStage1Train:
    def test_zero_steps_is_identity(self):
        _, model, corpus = gradcheck_setup()
        before = hash_params(model, sorted(model.params))
        stage1_train(model, corpus.subset_groups(["g1"]), recipe1(steps=0), SEED)
        assert hash_params(model, sorted(model.params)) == before

    def test_freeze_discipline(self):
        _, model, corpus = gradcheck_setup()
        trainable, frozen = partition_params(model, "stage1")
        frozen_before = hash_params(model, frozen)
        trainable_before = hash_params(model, trainable)
        _, reports = stage1_train(model, corpus.subset_groups(["g1"]), recipe1(steps=5), SEED)
        assert hash_params(model, frozen) == frozen_before
        assert hash_params(model, trainable) != trainable_before
        assert len(reports) == 5

    def test_composition_identity(self):
        _, model, corpus = gradcheck_setup()
        recipe = recipe1(steps=4, balance_weight=0.01)
        _, reports = stage1_train(model, corpus.subset_groups(["g1"]), recipe, SEED)
        for r in reports:
            assert r.total == pytest.approx(r.ntp + 0.01 * r.balance, abs=1e-12)

    def test_rejects_old_language_data(self):
        _, model, corpus = gradcheck_setup()
        with pytest.raises(InvalidInputError):
            stage1_train(model, corpus, recipe1(), SEED)

    def test_rejects_wrong_stage(self):
        _, model, corpus = gradcheck_setup()
        with pytest.raises(ConfigurationError):
            stage1_train(model, corpus.subset_groups(["g1"]), recipe2(), SEED)

    def test_deterministic(self, tmp_path):
        _, model, corpus = gradcheck_setup()
        twin = clone_model(model, tmp_path)
        new_corpus = corpus.subset_groups(["g1"])
        stage1_train(model, new_corpus, recipe1(steps=5), SEED)
        stage1_train(twin, new_corpus, recipe1(steps=5), SEED)
        assert hash_params(model, sorted(model.params)) == hash_params(
            twin, sorted(twin.params)
        )


class TestStepMemory:
    """A training step holds one graph and one set of gradients."""

    def test_four_steps_peak_no_higher_than_one(self):
        def peak(steps):
            _, model, corpus = gradcheck_setup(plan=(2, 2))
            new_corpus = corpus.subset_groups(["g1"])
            tracemalloc.start()
            try:
                stage1_train(model, new_corpus, recipe1(steps=steps), SEED)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) <= 1.1 * peak(1)

    def test_batch_loss_starts_with_no_gradients(self, monkeypatch):
        _, model, corpus = gradcheck_setup()
        params = [model.params[n] for n in partition_params(model, "stage1")[0]]
        entered = []

        def watched(*args):
            entered.append([p.grad is None for p in params])
            return batch_loss(*args)

        monkeypatch.setattr(trainer, "batch_loss", watched)
        stage1_train(model, corpus.subset_groups(["g1"]), recipe1(steps=3), SEED)
        assert entered == [[True] * len(params)] * 3

    def test_momentum_buffers_only_with_momentum(self):
        p = Tensor(np.array([1.0, 2.0]))
        assert SGD({"p": p}, 0.5).velocity == {}
        sgd = SGD({"p": p}, 0.5, momentum=0.5)
        for grad in ([2.0, 0.0], [0.0, 4.0]):
            p.grad = np.array(grad)
            sgd.step()
        np.testing.assert_array_equal(sgd.velocity["p"], [1.0, 4.0])
        np.testing.assert_array_equal(p.data, [-0.5, 0.0])


class TestStage2Train:
    def make_review(self, corpus):
        return corpus.take(range(0, len(corpus), 3))

    def test_freeze_discipline(self):
        _, model, corpus = gradcheck_setup(classifier_layers=(1,))
        review = self.make_review(corpus)
        _, frozen = partition_params(model, "stage2")
        frozen_before = hash_params(model, frozen)
        expert_names = [n for n in model.params if ".experts." in n]
        experts_before = hash_params(model, expert_names)
        stage2_train(model, review, recipe2(steps=5), SEED)
        assert hash_params(model, frozen) == frozen_before
        assert hash_params(model, expert_names) == experts_before

    def test_composition_identity(self):
        _, model, corpus = gradcheck_setup(classifier_layers=(0, 1))
        review = self.make_review(corpus)
        recipe = recipe2(steps=4, lpr_weight=0.1, cls_weight=0.1)
        _, reports = stage2_train(model, review, recipe, SEED)
        for r in reports:
            assert r.total == pytest.approx(r.ntp + 0.1 * r.lpr + 0.1 * r.cls, abs=1e-12)

    def test_zero_weights_reduce_to_plain_ntp(self):
        _, model, corpus = gradcheck_setup()
        review = self.make_review(corpus)
        recipe = recipe2(steps=3, lpr_weight=0.0, cls_weight=0.0)
        _, reports = stage2_train(model, review, recipe, SEED)
        for r in reports:
            assert r.total == r.ntp

    def test_rejects_review_without_old_tokens(self):
        _, model, corpus = gradcheck_setup()
        with pytest.raises(InvalidInputError):
            stage2_train(model, corpus.subset_groups(["g1"]), recipe2(cls_weight=0.0), SEED)

    def test_rejects_cls_weight_without_classifiers(self):
        _, model, corpus = gradcheck_setup()
        with pytest.raises(ConfigurationError):
            stage2_train(model, self.make_review(corpus), recipe2(cls_weight=0.1), SEED)

    @pytest.mark.parametrize("train, recipe", [(stage1_train, recipe1()),
                                               (stage2_train, recipe2()),
                                               (stage2_train, recipe2(cls_weight=0.0))])
    def test_rejects_a_model_with_no_expansion(self, train, recipe):
        """Both stages derive their batches' seed from the newest expansion.
        On a dense model both used to end in an AttributeError."""
        dense, _, corpus = gradcheck_setup()
        with pytest.raises(ConfigurationError, match="model has no expansion to train"):
            train(dense, self.make_review(corpus), recipe, SEED)


class TestEvaluate:
    def test_untrained_perplexity_near_vocab(self):
        config = ModelConfig(
            layers=1, hidden=16, heads=2, vocab=256, ffn=8, context=16, seed=1
        )
        dense = DenseModel.create(config, groups=("g0",))
        specs = language_specs({"g0": ["a"]}, block_size=40, seed=2)
        corpus = generate(specs, 800, config.context, seed=3)
        metrics = evaluate(dense, corpus)
        assert metrics.perplexity["a"] == pytest.approx(256, rel=0.2)

    def test_perplexity_matches_recount_oracle(self):
        _, model, corpus = gradcheck_setup()
        part = corpus.subset_language("b").take(range(6))
        metrics = evaluate(model, corpus.subset_language("b"), max_sequences_per_language=6)
        logits = forward(model, part.sequences[:, :-1]).logits
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        nll = -np.take_along_axis(log_probs, part.sequences[:, 1:, None], axis=-1)
        assert metrics.perplexity["b"] == pytest.approx(
            math.exp(float(nll.mean())), abs=1e-9
        )

    def test_gate_forces_expert_zero(self):
        _, model, corpus = gradcheck_setup(classifier_layers=(1,), router_noise=0.5)
        # zero the classifier: ties classify everything as old, the gate fires
        model.params["blocks.1.classifier"].data[:] = 0.0
        metrics = evaluate(model, corpus, mode="gated")
        assert metrics.routing_old_fraction[1] == 1.0
        assert 0.0 <= metrics.routing_old_fraction[0] <= 1.0

    def test_utilization_counts_selections(self):
        _, model, corpus = gradcheck_setup()
        part = corpus.take(range(4))
        metrics = evaluate(model, part)
        fed = 4 * (part.sequences.shape[1] - 1)
        for layer, counts in metrics.expert_utilization.items():
            assert sum(counts) == fed * min(2, len(counts))

    def test_dense_model_has_no_routing_statistics(self):
        dense, _, corpus = gradcheck_setup()
        metrics = evaluate(dense, corpus, max_sequences_per_language=4)
        assert set(metrics.perplexity) == {"a", "b"}
        assert metrics.routing_old_fraction is None
        assert metrics.classifier_accuracy is None
        assert metrics.expert_utilization is None

    def test_moe_without_classifiers(self):
        _, model, corpus = gradcheck_setup(plan=(1, 2))
        metrics = evaluate(model, corpus, max_sequences_per_language=4)
        assert metrics.classifier_accuracy is None
        assert sorted(metrics.routing_old_fraction) == [0, 1]
        utilization = metrics.expert_utilization
        assert [len(utilization[i]) for i in sorted(utilization)] == list(model.expert_counts())

    @pytest.mark.parametrize("mode", ["plain", "gated"])
    def test_accuracy_covers_the_classifier_layers(self, mode):
        _, model, corpus = gradcheck_setup(classifier_layers=(1,))
        metrics = evaluate(model, corpus, mode=mode, max_sequences_per_language=4)
        assert list(metrics.classifier_accuracy) == [1]
        assert 0.0 <= metrics.classifier_accuracy[1] <= 1.0

    def test_counts_span_every_chunk_of_a_language(self):
        """50 sequences per language take two forward chunks each; the
        statistics match one forward over each whole language."""
        _, model, corpus = gradcheck_setup(plan=(1, 2), classifier_layers=(0,))
        metrics = evaluate(model, corpus, mode="gated")
        fed = {}
        old_e0, fired = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
        hits = old_total = valid_total = 0
        for language in ("a", "b"):
            part = corpus.subset_language(language)
            assert len(part) > 32
            fed[language] = part.sequences[:, 1:].size
            trace = forward(model, part.sequences[:, :-1], mode="gated").trace
            old = part.old_token_mask(("g0",))[:, :-1].reshape(-1)
            valid = part.token_mask()[:, :-1].reshape(-1)
            for i, layer in enumerate(trace):
                top1 = layer.indices[:, 0]
                if layer.gate_old is not None:
                    top1 = np.where(layer.gate_old, 0, top1)
                    fired[i] += layer.gate_old.sum()
                old_e0[i] += (top1[old] == 0).sum()
            pred = trace[0].classifier_logits.data.argmax(axis=1)
            hits += (pred[valid] == np.where(old, 0, 1)[valid]).sum()
            old_total += old.sum()
            valid_total += valid.sum()
        assert metrics.token_counts == fed
        assert fired[0] > 0 and fired[1] == 0
        for i, counts in metrics.expert_utilization.items():
            assert sum(counts) == sum(fed.values()) * 2 - fired[i]
        assert metrics.routing_old_fraction == {i: old_e0[i] / old_total for i in (0, 1)}
        assert metrics.classifier_accuracy == {0: hits / valid_total}

    def test_gated_utilization_counts_the_pairs_the_experts_ran(self):
        """A row whose gate fired ran on expert 0 alone, so it counts expert 0
        once and none of its other slots: a gated layer's counts sum to
        rows·k − fired·(k−1). They used to count every slot of every row."""
        _, model, corpus = gradcheck_setup(plan=(1, 2), classifier_layers=(0, 1))
        metrics = evaluate(model, corpus, mode="gated", max_sequences_per_language=8)
        k, rows = model.config.top_k, 0
        fired = np.zeros(2, dtype=np.int64)
        ran = [np.zeros(n, dtype=np.int64) for n in model.expert_counts()]
        for language in ("a", "b"):
            part = corpus.subset_language(language).take(range(8))
            trace = forward(model, part.sequences[:, :-1], mode="gated").trace
            rows += len(trace[0].indices)
            for i, layer in enumerate(trace):
                fired[i] += layer.gate_old.sum()
                for chosen, gate in zip(layer.indices.tolist(), layer.gate_old.tolist()):
                    for expert in [0] if gate else chosen:
                        ran[i][expert] += 1
        for i in (0, 1):
            assert 0 < fired[i] < rows
            assert sum(metrics.expert_utilization[i]) == rows * k - fired[i] * (k - 1)
            assert metrics.expert_utilization[i] == ran[i].tolist()


class TestDenseTraining:
    def test_loss_decreases(self):
        config = ModelConfig(
            layers=1, hidden=16, heads=2, vocab=32, ffn=12, context=8, seed=9
        )
        dense = DenseModel.create(config, groups=("g0",))
        specs = language_specs({"g0": ["a"]}, block_size=10, shared_size=10, seed=1)
        corpus = generate(specs, 400, config.context, seed=2)
        recipe = TrainingRecipe(stage="dense", steps=60, batch_size=8, learning_rate=0.5)
        reports = train_dense(dense, corpus, recipe, 3)
        assert reports[-1].ntp < reports[0].ntp
        with pytest.raises(ConfigurationError):
            train_dense(dense, corpus, recipe1(), 3)


class TestLifelongExpand:
    @staticmethod
    def tiny_world():
        config = ModelConfig(
            layers=2, hidden=16, heads=2, vocab=48, ffn=12, context=8, top_k=2, seed=11
        )
        specs = language_specs(
            {"g0": ["a"], "g1": ["b"], "g2": ["c"]}, block_size=10, shared_size=10, overlap=0.3, seed=4
        )
        corpus = generate(specs, 500, config.context, seed=6)
        dense = DenseModel.create(config, groups=("g0",))
        recipe = TrainingRecipe(stage="dense", steps=30, batch_size=4, learning_rate=0.5)
        train_dense(dense, corpus.subset_groups(["g0"]), recipe, 1)
        return dense, corpus

    @staticmethod
    def recipes(**stage2):
        return (
            recipe1(steps=20, batch_size=4, learning_rate=0.5),
            recipe2(steps=20, batch_size=4, learning_rate=0.5, **stage2),
        )

    def expand(self, model, corpus, group, seed, budget=3, classifier_count=1, **stage2):
        return lifelong_expand(
            model,
            corpus,
            group,
            budget,
            *self.recipes(**stage2),
            seed,
            q=32,
            classifier_count=classifier_count,
        )

    def test_expand_then_review_reproduce_lifelong_expand(self):
        dense, corpus = self.tiny_world()
        model = dense  # upcycled by the first expansion, extended by the second
        for group in ("g1", "g2"):
            expanded, result = self.expand(model, corpus, group, 21)
            before = profile_before(model, corpus, group, 21, q=32)
            np.testing.assert_array_equal(before.new_old, result.profile_before.new_old)
            stage1, stage2 = self.recipes()
            stepped, _ = expand(model, result.plan, corpus, group, stage1, 21)
            stepped, profile, _ = review(stepped, corpus, stage2, 21, classifier_count=1, q=32)
            assert stepped.fingerprint() == expanded.fingerprint()
            assert stepped.classifier_layers == expanded.classifier_layers
            np.testing.assert_array_equal(profile.new_old, result.profile_stage1.new_old)
            model = expanded

    def test_no_classifiers_drop_the_classifier_term(self):
        dense, corpus = self.tiny_world()
        default, result = self.expand(dense, corpus, "g1", seed=21, classifier_count=0)
        zero, _ = self.expand(dense, corpus, "g1", seed=21, classifier_count=0, cls_weight=0.0)
        assert self.recipes()[1].cls_weight > 0
        assert default.classifier_layers == () and result.profile_stage1 is None
        assert default.fingerprint() == zero.fingerprint()

    def test_two_expansions_structure_and_freeze(self):
        dense, corpus = self.tiny_world()
        model, first = self.expand(dense, corpus, "g1", seed=21)
        assert sum(first.plan.new_experts) == 3
        # The first expansion created experts 1..new_experts[layer] of each layer.
        first_expert_names = [
            n
            for n in model.params
            if ".experts." in n
            and 1 <= int(n.split(".")[3]) <= first.plan.new_experts[int(n.split(".")[1])]
        ]
        first_hash = hash_params(model, first_expert_names)
        model2, second = self.expand(model, corpus, "g2", seed=22)
        assert sum(second.plan.new_experts) == 3
        counts = model2.expert_counts()
        assert all(
            c == 1 + a + b
            for c, a, b in zip(counts, first.plan.new_experts, second.plan.new_experts)
        )
        assert model2.proficient_groups == ("g0", "g1", "g2")
        # experts created by the first expansion survive the second bitwise
        assert hash_params(model2, first_expert_names) == first_hash

    def test_order_sensitivity_recorded(self):
        dense, corpus = self.tiny_world()
        # At pipeline seed 33, the seed this test used as each expansion's own
        # seed, g1's profile has a negative similarity at layer 0, which
        # allocation rejects; 21 and 22 are the seeds of the tests above.
        path_ab_model, _ = self.expand(dense, corpus, "g1", seed=21)
        path_ab_model, _ = self.expand(path_ab_model, corpus, "g2", seed=22)
        path_ba_model, _ = self.expand(dense, corpus, "g2", seed=21)
        path_ba_model, _ = self.expand(path_ba_model, corpus, "g1", seed=22)
        ppl_ab = evaluate(path_ab_model, corpus, max_sequences_per_language=8).perplexity
        ppl_ba = evaluate(path_ba_model, corpus, max_sequences_per_language=8).perplexity
        # the learning order influences the outcome; record both vectors
        assert ppl_ab != ppl_ba
        print(f"order g1->g2: {ppl_ab}")
        print(f"order g2->g1: {ppl_ba}")

    def test_group_already_known_rejected(self):
        dense, corpus = self.tiny_world()
        with pytest.raises(InvalidInputError):
            self.expand(dense, corpus, "g0", seed=5)

    def test_classifier_count_defaults(self):
        assert SINGLE_EXPANSION_CLASSIFIER_LAYERS == 7
        assert LIFELONG_CLASSIFIER_LAYERS == 5
        assert default_classifier_count(lifelong=False, layer_count=24) == 7
        assert default_classifier_count(lifelong=True, layer_count=24) == 5
        assert default_classifier_count(lifelong=False, layer_count=4) == 4

    def test_a_default_review_places_the_pipeline_count(self):
        """Without a count, ``review`` places as many classifiers as a
        pipeline expansion does: 7 on a first expansion and 5 on a later
        one, clipped to the layer count. The ``review`` command used to
        place none."""
        config = ModelConfig(layers=6, hidden=8, heads=2, vocab=48, ffn=8, context=8, seed=2)
        specs = language_specs(
            {"g0": ["a"], "g1": ["b"], "g2": ["c"]}, block_size=10, shared_size=10, overlap=0.8, seed=4
        )
        corpus = generate(specs, 200, config.context, seed=6)
        model, placed = DenseModel.create(config, groups=("g0",)), []
        for group in ("g1", "g2"):
            model, _ = expand(model, (1,) * 6, corpus, group, recipe1(steps=1), SEED)
            model, _, _ = review(model, corpus, recipe2(steps=1), SEED, q=16)
            placed.append(len(model.classifier_layers))
        assert placed == [6, 5]

    def test_review_rejects_a_model_with_no_expansion(self):
        """The check sat in the ``review`` command, so a library caller got
        an AttributeError."""
        dense, _, corpus = gradcheck_setup()
        with pytest.raises(ConfigurationError, match="review needs an expanded model"):
            review(dense, corpus, recipe2(), SEED, classifier_count=0, q=8)


@pytest.fixture(scope="module", params=[0, 1])
def stage1_world(request):
    """A dense model trained on g0, and its upcycle to g1 (one new expert
    per layer) after 40 stage-1 steps at learning rate 2.0 and at 0."""
    seed = request.param
    config = ModelConfig(
        layers=2, hidden=16, heads=2, vocab=48, ffn=12, context=8, top_k=2, seed=seed
    )
    specs = language_specs(
        {"g0": ["a"], "g1": ["b"]}, block_size=10, shared_size=10, overlap=0.3, seed=seed + 1
    )
    corpus = generate(specs, 500, config.context, seed=seed + 2)
    dense = DenseModel.create(config, groups=("g0",))
    recipe = TrainingRecipe(stage="dense", steps=30, batch_size=4, learning_rate=0.5)
    train_dense(dense, corpus.subset_groups(["g0"]), recipe, seed)
    trained = {}
    for lr in (0.0, 2.0):
        stage1 = recipe1(steps=40, learning_rate=lr)
        trained[lr], _ = expand(dense, (1, 1), corpus, "g1", stage1, seed)
    return seed, corpus, trained


class TestMethodQuality:
    """The method's effects on a tiny world, whose world seed is also the
    pipeline seed that every stage derives its own from. Margins come from
    world seeds 0-11. Stage 1 cut the new language's NLL by 1.21-2.38 nats
    against learning rate 0. With ``lpr_weight`` 1, stage 2 raised the mean
    old-to-expert-0 fraction by 0.44-0.96 over its value after stage 1, and
    ended 0.12-0.71 above the same review without the prior-routing term."""

    @staticmethod
    def metrics(model, corpus):
        return evaluate(model, corpus, max_sequences_per_language=16)

    def test_stage1_learns_the_new_language(self, stage1_world):
        _, corpus, trained = stage1_world
        nll = {lr: math.log(self.metrics(m, corpus).perplexity["b"]) for lr, m in trained.items()}
        assert nll[2.0] < nll[0.0] - 0.5

    def test_stage2_routes_old_tokens_back_to_expert_zero(self, stage1_world, tmp_path):
        seed, corpus, trained = stage1_world

        def old_to_expert0(model):
            return np.mean(list(self.metrics(model, corpus).routing_old_fraction.values()))

        after = {}
        for lpr_weight in (0.0, 1.0):
            model, _, _ = review(
                clone_model(trained[2.0], tmp_path),
                corpus,
                recipe2(steps=40, learning_rate=0.5, lpr_weight=lpr_weight),
                seed,
                classifier_count=0,
                q=16,
            )
            after[lpr_weight] = old_to_expert0(model)
        assert after[1.0] > old_to_expert0(trained[2.0]) + 0.1
        assert after[1.0] > after[0.0] + 0.1
