"""Losses, two-stage training with frozen-parameter discipline, lifelong
expansion, and evaluation.

A recipe's stage picks the loss terms and the trainable set; every stage
runs the same loss (:func:`batch_loss`) and the same loop. Dense training
moves every parameter on the next-token loss. Stage 1 trains the newly added
experts and their router columns on new-language data (next-token loss plus
a load-balance term). Stage 2 trains all routers and the classifiers on a
mixed review corpus (next-token loss plus a prior-routing term that pulls
old-language tokens to expert 0, plus a classifier term on the layers that
carry one). Everything else stays bitwise frozen; the partition comes from
:func:`layermoe.model.partition_params`.

Cross-layer reduction uses the mean over MoE layers for the balance, prior-
routing and classifier losses so their weights keep meaning as the model
deepens; the prior-routing loss is additionally normalised per old token.
Special positions (BOS, padding) belong to no language and are excluded
from the prior-routing and classifier losses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import schema
from .allocator import AllocationPlan, allocate
from .corpus import TaggedCorpus, review_mixture
from .errors import ConfigurationError, InvalidInputError, NumericalFailureError
from .model import (
    DenseModel,
    Model,
    MoEModel,
    add_classifiers,
    extend_expansion,
    forward,
    forward_graph,
    partition_params,
    upcycle,
)
from .numerics import SeededRng, Tensor, as_tensor, derive_seed, log_softmax, take_pairs, zero_grads
from .profiler import SimilarityProfile, profile_similarity, select_classifier_layers

# Classifier-layer count defaults: 7 for a single expansion, 5 per step of a
# lifelong sequence (clipped to the model depth at use).
SINGLE_EXPANSION_CLASSIFIER_LAYERS = 7
LIFELONG_CLASSIFIER_LAYERS = 5

# Review-mix ratio of old to new sequences per language (shape of the
# 50K/100K review sampling, scaled to desk size).
REVIEW_RATIO = (1, 2)


@dataclass(frozen=True)
class TrainingRecipe:
    """Hyperparameters of one training stage: "dense" (pre-training the
    backbone), "stage1" or "stage2". The stage picks the loss terms and the
    trainable set; a weight the stage does not use is ignored.

    ``balance_weight``, ``lpr_weight`` and ``cls_weight`` are the composite
    loss weights (defaults 0.01, 0.1, 0.1). ``cls_mode`` selects between a
    standard two-class cross-entropy over all tokens ("standard_ce") and the
    published form that supervises only old tokens ("literal_paper").
    """

    stage: str
    steps: int
    batch_size: int
    seed: int
    learning_rate: float = 5e-5
    momentum: float = 0.0
    balance_weight: float = 0.01
    lpr_weight: float = 0.1
    cls_weight: float = 0.1
    cls_mode: str = "standard_ce"

    def __post_init__(self):
        if self.stage not in ("dense", "stage1", "stage2"):
            raise ConfigurationError(f"unknown stage {self.stage!r}")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigurationError("steps must be >= 0 and batch_size >= 1")
        weights = (self.balance_weight, self.lpr_weight, self.cls_weight)
        if not all(map(math.isfinite, (self.learning_rate, self.momentum, *weights))):
            raise ConfigurationError("learning rate, momentum and loss weights must be finite")
        if min(weights) < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.cls_mode not in ("standard_ce", "literal_paper"):
            raise ConfigurationError(f"unknown cls_mode {self.cls_mode!r}")


@dataclass(frozen=True)
class LossReport:
    """Per-step loss components, with ``total`` composed by :func:`batch_loss`;
    a term the stage does not use reads 0."""

    step: int
    total: float
    ntp: float
    balance: float
    lpr: float
    cls: float


# ---------------------------------------------------------------------------
# losses


def ntp_loss(logits, targets) -> Tensor:
    """Mean next-token negative log-likelihood (natural log)."""
    logits = as_tensor(logits)
    if logits.ndim == 3:
        logits = logits.reshape((-1, logits.shape[-1]))
    targets = np.asarray(targets).reshape(-1)
    if logits.shape[0] != targets.shape[0]:
        raise InvalidInputError("logits and targets disagree on position count")
    picked = take_pairs(log_softmax(logits), np.arange(len(targets)), targets)
    return -(picked.mean())


def balance_loss_layer(scores, indices: np.ndarray) -> Tensor:
    """Load-balance value of one layer: sum_i f_i * P_i, where f_i is the
    (N / K|T|)-scaled selection count and P_i the mean router score."""
    scores = as_tensor(scores)
    tokens, n_experts = scores.shape
    if tokens == 0:
        raise InvalidInputError("empty batch")
    indices = np.asarray(indices)
    counts = np.bincount(indices.reshape(-1), minlength=n_experts).astype(np.float64)
    frequency = counts * (n_experts / (indices.shape[1] * tokens))
    return (scores.mean(axis=0) * frequency).sum()


def balance_loss(layers: Sequence[tuple]) -> Tensor:
    """Mean of the per-layer balance values over all MoE layers."""
    if not layers:
        raise InvalidInputError("no layers to balance")
    total = None
    for scores, indices in layers:
        term = balance_loss_layer(scores, indices)
        total = term if total is None else total + term
    return total * (1.0 / len(layers))


def lpr_loss(layer_scores: Sequence, old_mask: np.ndarray) -> Tensor:
    """Prior-routing loss: -log of expert 0's full softmax score, averaged
    over old tokens and layers. Zero when the batch has no old tokens."""
    old_mask = np.asarray(old_mask, dtype=bool).reshape(-1)
    rows = np.nonzero(old_mask)[0]
    if len(layer_scores) == 0:
        raise InvalidInputError("no layers")
    if rows.size == 0:
        return Tensor(0.0)
    zeros = np.zeros(rows.size, dtype=np.int64)
    total = None
    for scores in layer_scores:
        g0 = take_pairs(as_tensor(scores), rows, zeros)
        term = -(g0.log().sum())
        total = term if total is None else total + term
    return total * (1.0 / (rows.size * len(layer_scores)))


def cls_loss(
    layer_logits: Sequence,
    old_mask: np.ndarray,
    valid_mask: np.ndarray,
    mode: str = "standard_ce",
) -> Tensor:
    """Classifier loss over the layers that carry a classifier.

    standard_ce: two-class cross-entropy over every language token, target 0
    for old and 1 for new. literal_paper: only old tokens contribute (the
    published indicator form). Both average per token per layer.
    """
    if len(layer_logits) == 0:
        raise ConfigurationError("no classifier layers configured")
    if mode not in ("standard_ce", "literal_paper"):
        raise InvalidInputError(f"unknown cls mode {mode!r}")
    old_mask = np.asarray(old_mask, dtype=bool).reshape(-1)
    valid_mask = np.asarray(valid_mask, dtype=bool).reshape(-1)
    if mode == "standard_ce":
        rows = np.nonzero(valid_mask)[0]
        targets = np.where(old_mask[rows], 0, 1)
    else:
        rows = np.nonzero(old_mask & valid_mask)[0]
        targets = np.zeros(rows.size, dtype=np.int64)
    if rows.size == 0:
        return Tensor(0.0)
    total = None
    for logits in layer_logits:
        picked = take_pairs(log_softmax(as_tensor(logits)), rows, targets)
        term = -(picked.sum())
        total = term if total is None else total + term
    return total * (1.0 / (rows.size * len(layer_logits)))


# ---------------------------------------------------------------------------
# optimisation


class SGD:
    """Plain gradient descent with optional momentum, updating parameters in
    sorted-name order so runs are reproducible."""

    def __init__(self, params: Mapping[str, Tensor], learning_rate: float, momentum: float = 0.0):
        self.params = dict(params)
        self.names = sorted(self.params)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = {n: np.zeros_like(self.params[n].data) for n in self.names}

    def step(self) -> None:
        for name in self.names:
            p = self.params[name]
            if p.grad is None:
                continue
            if self.momentum:
                v = self.velocity[name]
                v *= self.momentum
                v += p.grad
                p.data -= self.learning_rate * v
            else:
                p.data -= self.learning_rate * p.grad


def batch_loss(
    model: Model,
    tokens: np.ndarray,
    recipe: TrainingRecipe,
    old_mask: np.ndarray | None = None,
    valid_mask: np.ndarray | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """The recipe's stage loss on one batch, and its parts. Dense: ntp.
    Stage 1: ntp + balance_weight * balance. Stage 2: ntp + lpr_weight * lpr,
    plus cls_weight * cls when a layer carries a classifier. Stage 2's masks
    cover the fed positions, i.e. tokens[:, :-1] flattened."""
    graph = forward_graph(model, tokens[:, :-1])
    ntp = ntp_loss(graph.logits, tokens[:, 1:])
    total = ntp
    parts = {"ntp": ntp.item(), "balance": 0.0, "lpr": 0.0, "cls": 0.0}
    if recipe.stage == "stage1":
        balance = balance_loss([(g.scores, g.indices) for g in graph.layers])
        total = ntp + recipe.balance_weight * balance
        parts["balance"] = balance.item()
    elif recipe.stage == "stage2":
        lpr = lpr_loss([g.scores for g in graph.layers], old_mask)
        total = ntp + recipe.lpr_weight * lpr
        parts["lpr"] = lpr.item()
        logits = [g.classifier_logits for g in graph.layers if g.classifier_logits is not None]
        if logits:
            cls = cls_loss(logits, old_mask, valid_mask, recipe.cls_mode)
            total = total + recipe.cls_weight * cls
            parts["cls"] = cls.item()
    return total, parts


def _train(
    model: Model, corpus: TaggedCorpus, recipe: TrainingRecipe, stage: str
) -> list[LossReport]:
    """SGD on :func:`batch_loss` for a ``stage`` recipe, over batches drawn
    from the stage's own stream. Dense training moves every parameter;
    stages 1 and 2 move the set :func:`partition_params` gives them."""
    if recipe.stage != stage:
        raise ConfigurationError(f"recipe is not a {stage} recipe")
    if len(corpus) == 0:
        raise InvalidInputError(f"empty {stage} corpus")
    model.config.check_tokens(corpus.sequences, corpus.sequences.shape[1] - 1)
    trainable = sorted(model.params) if stage == "dense" else partition_params(model, stage)[0]
    params = {name: model.params[name] for name in trainable}
    gen = SeededRng(derive_seed(recipe.seed, stage)).generator()
    masks = ()  # stage 2's old and valid masks over the fed positions
    if stage == "stage2":
        masks = (corpus.old_token_mask(model.old_groups)[:, :-1], corpus.token_mask()[:, :-1])
    optimizer = SGD(params, recipe.learning_rate, recipe.momentum)
    reports: list[LossReport] = []
    try:
        for p in params.values():
            p.requires_grad = True
        for step in range(recipe.steps):
            idx = gen.integers(0, len(corpus), size=recipe.batch_size)
            batch_masks = (m[idx].reshape(-1) for m in masks)
            total, parts = batch_loss(model, corpus.sequences[idx], recipe, *batch_masks)
            value = total.item()
            if not math.isfinite(value):
                raise NumericalFailureError(f"{stage} loss became non-finite at step {step}")
            zero_grads(params.values())
            total.backward()
            optimizer.step()
            reports.append(LossReport(step=step, total=value, **parts))
    finally:
        for p in params.values():
            p.requires_grad = False
            p.grad = None
    return reports


def train_dense(
    model: DenseModel, corpus: TaggedCorpus, recipe: TrainingRecipe
) -> list[LossReport]:
    """Next-token pre-training of the dense backbone; updates every parameter."""
    return _train(model, corpus, recipe, "dense")


def stage1_train(
    model: MoEModel, corpus_new: TaggedCorpus, recipe: TrainingRecipe
) -> tuple[MoEModel, list[LossReport]]:
    """New-expert pretraining: only the current expansion's experts and their
    router columns move; the dense backbone and earlier expansions stay
    bitwise unchanged."""
    if not model.expansion_history:
        raise ConfigurationError("model has no expansion to train")
    current_group = model.expansion_history[-1].group
    stray = set(corpus_new.groups) - {current_group}
    if stray:
        raise InvalidInputError(
            f"stage-1 corpus must contain only group {current_group!r}, found {sorted(stray)}"
        )
    return model, _train(model, corpus_new, recipe, "stage1")


def stage2_train(
    model: MoEModel, review_corpus: TaggedCorpus, recipe: TrainingRecipe
) -> tuple[MoEModel, list[LossReport]]:
    """Router review on mixed data: all router columns plus the model's
    classifiers train; experts and backbone stay bitwise unchanged. With
    cls_weight 0 and no classifiers this is exactly prior-routing review (the
    baseline form). Training always routes plainly; the classifier gate is
    inference-only.
    """
    if recipe.cls_weight > 0 and not model.classifier_layers:
        raise ConfigurationError("cls_weight > 0 but no classifier layers configured")
    if not review_corpus.old_token_mask(model.old_groups).any():
        raise InvalidInputError("review corpus has no old-language tokens")
    return model, _train(model, review_corpus, recipe, "stage2")


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalMetrics:
    mode: str
    perplexity: dict[str, float]
    token_counts: dict[str, int]
    routing_old_fraction: dict[int, float] | None
    classifier_accuracy: dict[int, float] | None
    expert_utilization: dict[int, list[int]] | None

    def to_dict(self) -> dict:
        return asdict(self)

    def save_json(self, path: str | Path) -> None:
        schema.save_json(path, self.to_dict())

    def save_csv(self, path: str | Path) -> None:
        rows = [["perplexity", lang, repr(self.perplexity[lang])] for lang in sorted(self.perplexity)]
        for name in ("routing_old_fraction", "classifier_accuracy"):
            values = getattr(self, name) or {}
            rows += [[name, layer, repr(values[layer])] for layer in sorted(values)]
        for layer, counts in sorted((self.expert_utilization or {}).items()):
            rows.append(["expert_utilization", layer, " ".join(map(str, counts))])
        schema.save_csv(path, ["metric", "key", "value"], rows)


def evaluate(
    model: Model,
    corpus: TaggedCorpus,
    mode: str = "plain",
    *,
    old_groups: Sequence[str] | None = None,
    max_sequences_per_language: int | None = None,
) -> EvalMetrics:
    """Per-language perplexity plus routing and classifier statistics.

    Perplexity is exp of the mean next-token negative log-likelihood. The
    old-to-expert-0 fraction counts old-language tokens whose top-1 routed
    expert is 0; on gated layers a fired gate counts as expert 0. Dense
    models have no routing, classifier or utilization statistics.
    """
    if max_sequences_per_language is not None and max_sequences_per_language < 1:
        raise InvalidInputError("max_sequences_per_language must be >= 1")
    model.config.check_tokens(corpus.sequences, corpus.sequences.shape[1] - 1)
    batch_size = 32  # sequences per forward pass
    is_moe = isinstance(model, MoEModel)
    if old_groups is None:
        old_groups = model.old_groups if is_moe else ()
    counts = model.expert_counts() if is_moe else ()
    classifier_layers = model.classifier_layers if is_moe else ()

    nll_sum: dict[str, float] = {}
    nll_count: dict[str, int] = {}
    old_top1_e0 = np.zeros(len(counts), dtype=np.int64)
    utilization = [np.zeros(n, dtype=np.int64) for n in counts]
    cls_hits = dict.fromkeys(classifier_layers, 0)
    old_total = valid_total = 0

    for language in corpus.language_set():
        part = corpus.subset_language(language)
        if max_sequences_per_language is not None:
            part = part.take(range(min(len(part), max_sequences_per_language)))
        # The trace is over flat rows; flatten the fed positions' masks to match.
        fed = part.sequences.shape[1] - 1
        old_all = part.old_token_mask(old_groups)[:, :-1].reshape(-1)
        valid_all = part.token_mask()[:, :-1].reshape(-1)
        nll_sum[language], nll_count[language] = 0.0, 0
        for start in range(0, len(part), batch_size):
            seqs = part.sequences[start : start + batch_size]
            inputs, targets = seqs[:, :-1], seqs[:, 1:]
            result = forward(model, inputs, mode=mode)
            log_probs = log_softmax(Tensor(result.logits)).data
            nll = -np.take_along_axis(log_probs, targets[..., None], axis=-1)
            nll_sum[language] += float(nll.sum())
            nll_count[language] += int(targets.size)
            rows = slice(start * fed, (start + len(seqs)) * fed)
            old_mask, valid = old_all[rows], valid_all[rows]
            old_total += int(old_mask.sum())
            valid_total += int(valid.sum())
            for i, trace in enumerate(result.trace or ()):
                top1 = trace.indices[:, 0]
                if trace.gate_old is not None:
                    top1 = np.where(trace.gate_old, 0, top1)
                old_top1_e0[i] += int((top1[old_mask] == 0).sum())
                utilization[i] += np.bincount(trace.indices.reshape(-1), minlength=counts[i])
                if trace.classifier_logits is not None:
                    pred = trace.classifier_logits.data.argmax(axis=1)
                    want = np.where(old_mask, 0, 1)
                    cls_hits[i] += int((pred[valid] == want[valid]).sum())

    perplexity = {lang: math.exp(nll_sum[lang] / nll_count[lang]) for lang in nll_sum}
    routing = accuracy = util_out = None
    if is_moe and nll_count:
        if old_total:
            routing = {i: float(old_top1_e0[i]) / old_total for i in range(len(counts))}
        if cls_hits and valid_total:
            accuracy = {i: hits / valid_total for i, hits in cls_hits.items()}
        util_out = {i: u.tolist() for i, u in enumerate(utilization)}
    return EvalMetrics(mode, perplexity, dict(nll_count), routing, accuracy, util_out)


# ---------------------------------------------------------------------------
# lifelong expansion


@dataclass(frozen=True)
class ExpansionResult:
    plan: AllocationPlan
    profile_before: SimilarityProfile
    profile_stage1: SimilarityProfile | None
    stage1_reports: list[LossReport] = field(repr=False, default_factory=list)
    stage2_reports: list[LossReport] = field(repr=False, default_factory=list)


def default_classifier_count(lifelong: bool, layer_count: int) -> int:
    base = LIFELONG_CLASSIFIER_LAYERS if lifelong else SINGLE_EXPANSION_CLASSIFIER_LAYERS
    return min(base, layer_count)


def _proficient(model: Model, new_group: str) -> tuple[str, ...]:
    """The groups ``model`` knows, which must not include ``new_group``."""
    proficient = model.proficient_groups if isinstance(model, MoEModel) else model.groups
    if new_group in proficient:
        raise InvalidInputError(f"group {new_group!r} is already proficient")
    return proficient


def expand(
    model: Model,
    plan,
    corpus: TaggedCorpus,
    group: str,
    recipe: TrainingRecipe,
    *,
    init: str,
) -> tuple[MoEModel, list[LossReport]]:
    """Stage 1 of an expansion: give ``group`` the experts of ``plan`` by
    upcycling a dense model (``init`` as in :func:`upcycle`) or extending an
    MoE one (new experts always copy expert 0), then train them on the
    group's sequences in ``corpus``."""
    _proficient(model, group)
    if isinstance(model, MoEModel):
        expanded = extend_expansion(model, plan, group)
    else:
        expanded = upcycle(model, plan, group, init=init)
    return stage1_train(expanded, corpus.subset_groups([group]), recipe)


def review(
    model: MoEModel,
    corpus: TaggedCorpus,
    recipe: TrainingRecipe,
    *,
    classifier_count: int,
    q: int,
    profile_seed: int,
    mix_seed: int,
    review_ratio: tuple[int, int],
) -> tuple[MoEModel, SimilarityProfile | None, list[LossReport]]:
    """Stage 2 of the newest expansion. With ``classifier_count`` > 0, profile
    the model and place that many classifiers on the layers where the new
    group's languages are most like the old ones; with none, the recipe's
    classifier term is dropped. Then review the routers on ``review_ratio``
    (old, new) sequences per language of old and new groups. Returns the
    model, the profile (None without classifiers) and the losses."""
    if not 0 <= classifier_count <= model.config.layers:
        raise ConfigurationError(
            f"classifier_count {classifier_count} outside 0..{model.config.layers}"
        )
    # Stage 2 trains on a sample of the corpus; check all of it, so that a
    # bad sequence fails the same way whether or not the sample draws it.
    model.config.check_tokens(corpus.sequences, corpus.sequences.shape[1] - 1)
    new_group = model.expansion_history[-1].group
    profile = None
    layers: tuple[int, ...] = ()
    if classifier_count > 0:
        old, new = corpus.languages_in(model.old_groups), corpus.languages_in([new_group])
        profile = profile_similarity(model, corpus, old, new, q=q, seed=profile_seed)
        layers = select_classifier_layers(profile.new_old, classifier_count)
        add_classifiers(model, layers)
    else:
        recipe = replace(recipe, cls_weight=0.0)
    old_part, new_part = corpus.subset_groups(model.old_groups), corpus.subset_groups([new_group])
    mixture = review_mixture(old_part, new_part, *review_ratio, mix_seed)
    model, reports = stage2_train(model, mixture, recipe)
    return model, profile, reports


def lifelong_expand(
    model: Model,
    corpus: TaggedCorpus,
    new_group: str,
    budget: int,
    recipe1: TrainingRecipe,
    recipe2: TrainingRecipe,
    *,
    q: int = 512,
    seed: int = 0,
    classifier_count: int | None = None,
    review_ratio: tuple[int, int] = REVIEW_RATIO,
) -> tuple[MoEModel, ExpansionResult]:
    """One full expansion: profile on the current model, allocate the budget,
    :func:`expand` (freezing everything pre-existing) and :func:`review`,
    with "old" covering every previously known group.

    ``classifier_count`` defaults to 7 when expanding a dense model (single
    expansion) and 5 when extending an already expanded one (lifelong),
    clipped to the layer count; 0 disables classifiers and the classifier
    term of stage 2.
    """
    lifelong = isinstance(model, MoEModel)
    proficient = _proficient(model, new_group)
    profile_before = profile_similarity(
        model,
        corpus,
        corpus.languages_in(proficient),
        corpus.languages_in([new_group]),
        q=q,
        seed=derive_seed(seed, "profile-before"),
    )
    plan = allocate(profile_before.indicated, budget)
    expanded, reports1 = expand(model, plan, corpus, new_group, recipe1, init="inherit")
    if classifier_count is None:
        classifier_count = default_classifier_count(lifelong, model.config.layers)
    expanded, profile_stage1, reports2 = review(
        expanded,
        corpus,
        recipe2,
        classifier_count=classifier_count,
        q=q,
        profile_seed=derive_seed(seed, "profile-stage1"),
        mix_seed=derive_seed(seed, "review"),
        review_ratio=review_ratio,
    )
    return expanded, ExpansionResult(plan, profile_before, profile_stage1, reports1, reports2)


def save_reports_csv(reports: Sequence[LossReport], path: str | Path) -> None:
    header = ["step", "total", "ntp", "balance", "lpr", "cls"]
    rows = ([r.step, *(repr(getattr(r, name)) for name in header[1:])] for r in reports)
    schema.save_csv(path, header, rows)
