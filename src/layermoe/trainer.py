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
    Model,
    add_classifiers,
    extend_expansion,
    forward,
    forward_graph,
    partition_params,
    upcycle,
)
from .numerics import SeededRng, Tensor, as_tensor, derive_seed, log_softmax, take_pairs, zero_grads
from .profiler import PROFILE_Q, SimilarityProfile, profile_similarity, select_classifier_layers

# Classifier-layer count defaults: 7 for a single expansion, 5 per step of a
# lifelong sequence (clipped to the model depth at use).
SINGLE_EXPANSION_CLASSIFIER_LAYERS = 7
LIFELONG_CLASSIFIER_LAYERS = 5

# The settings each stage reads besides steps, batch size, learning rate and
# momentum; a pipeline stage and a command accept exactly these.
STAGE_SETTINGS = {"dense": (), "stage1": ("balance_weight",),
                  "stage2": ("lpr_weight", "cls_weight")}


@dataclass(frozen=True)
class TrainingRecipe:
    """Hyperparameters of one training stage: "dense" (pre-training the
    backbone), "stage1" or "stage2". The stage picks the loss terms and the
    trainable set, and reads only its own :data:`STAGE_SETTINGS`: stage 1
    the balance weight, stage 2 the prior-routing and classifier weights,
    dense training none of them. Every setting is a float.
    A recipe holds no seed: each stage derives its own from the pipeline
    seed that its training function takes (see :func:`expansion_seed`).
    ``batch_size`` is at most 2**16 sequences: at context 16 and vocab 128,
    the logits of such a batch already fill 1 GiB.
    """

    stage: str
    steps: int
    batch_size: int
    learning_rate: float = 5e-5
    momentum: float = 0.0
    balance_weight: float = 0.01
    lpr_weight: float = 0.1
    cls_weight: float = 0.1

    def __post_init__(self):
        if self.stage not in STAGE_SETTINGS:
            raise ConfigurationError(f"unknown stage {self.stage!r}")
        if self.steps < 0 or not 1 <= self.batch_size <= 2**16:
            raise ConfigurationError("steps must be >= 0 and batch_size in 1..2**16")
        weights = (self.balance_weight, self.lpr_weight, self.cls_weight)
        if not all(map(math.isfinite, (self.learning_rate, self.momentum, *weights))):
            raise ConfigurationError("learning rate, momentum and loss weights must be finite")
        if min(self.learning_rate, self.momentum, *weights) < 0:
            raise ConfigurationError("learning rate, momentum and loss weights must be >= 0")


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


def _layer_mean(terms: Sequence[Tensor], per_layer: int = 1) -> Tensor:
    """The cross-layer mean: the layers' terms summed in order, each layer's
    term a sum over ``per_layer`` items."""
    return sum(terms[1:], terms[0]) * (1.0 / (per_layer * len(terms)))


def balance_loss(layers: Sequence[tuple]) -> Tensor:
    """Mean of the per-layer balance values over all MoE layers."""
    if not layers:
        raise InvalidInputError("no layers to balance")
    return _layer_mean([balance_loss_layer(scores, indices) for scores, indices in layers])


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
    terms = [-(take_pairs(as_tensor(scores), rows, zeros).log().sum()) for scores in layer_scores]
    return _layer_mean(terms, rows.size)


def cls_loss(layer_logits: Sequence, old_mask: np.ndarray, valid_mask: np.ndarray) -> Tensor:
    """Classifier loss over the layers that carry a classifier: a two-class
    cross-entropy over every language token, target 0 for old and 1 for new,
    averaged per token per layer. The published indicator form supervises
    old tokens only, so a classifier that always answers "old" minimises it.
    """
    if len(layer_logits) == 0:
        raise ConfigurationError("no classifier layers configured")
    old_mask = np.asarray(old_mask, dtype=bool).reshape(-1)
    rows = np.nonzero(np.asarray(valid_mask, dtype=bool).reshape(-1))[0]
    targets = np.where(old_mask[rows], 0, 1)
    if rows.size == 0:
        return Tensor(0.0)
    terms = [-(take_pairs(log_softmax(as_tensor(logits)), rows, targets).sum())
             for logits in layer_logits]
    return _layer_mean(terms, rows.size)


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
        self.velocity = {n: np.zeros_like(self.params[n].data) for n in self.names} if self.momentum else {}

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
            cls = cls_loss(logits, old_mask, valid_mask)
            total = total + recipe.cls_weight * cls
            parts["cls"] = cls.item()
    return total, parts


def _train(
    model: Model, corpus: TaggedCorpus, recipe: TrainingRecipe, stage: str, seed: int
) -> list[LossReport]:
    """SGD on :func:`batch_loss` for a ``stage`` recipe, over batches drawn
    from the stage's own stream, derived from the pipeline ``seed`` as
    :func:`expansion_seed` lists. Dense training moves every parameter;
    stages 1 and 2 move the set :func:`partition_params` gives them. Only
    one step's graph and gradients are alive at a time."""
    if recipe.stage != stage:
        raise ConfigurationError(f"recipe is not a {stage} recipe")
    if len(corpus) == 0:
        raise InvalidInputError(f"empty {stage} corpus")
    model.config.check_tokens(corpus.sequences, corpus.sequences.shape[1] - 1)
    if stage == "dense":
        trainable, seed = sorted(model.params), derive_seed(seed, "base")
    else:
        trainable = partition_params(model, stage)[0]
        seed = expansion_seed(seed, model, _newest_group(model), stage)
    params = {name: model.params[name] for name in trainable}
    gen = SeededRng(derive_seed(seed, stage)).generator()
    masks = ()  # stage 2's old and valid masks over the fed positions
    if stage == "stage2":
        masks = (corpus.old_token_mask(model.old_groups)[:, :-1], corpus.token_mask()[:, :-1])
    optimizer = SGD(params, recipe.learning_rate, recipe.momentum)
    reports: list[LossReport] = []
    try:
        for p in params.values():
            p.requires_grad, p.grad = True, None
        for step in range(recipe.steps):
            idx = gen.integers(0, len(corpus), size=recipe.batch_size)
            batch_masks = (m[idx].reshape(-1) for m in masks)
            total, parts = batch_loss(model, corpus.sequences[idx], recipe, *batch_masks)
            value = total.item()
            if not math.isfinite(value):
                raise NumericalFailureError(f"{stage} loss became non-finite at step {step}")
            total.backward()
            del total
            optimizer.step()
            zero_grads(params.values())
            reports.append(LossReport(step=step, total=value, **parts))
    finally:
        for p in params.values():
            p.requires_grad = False
            p.grad = None
    return reports


def _newest_group(model: Model) -> str:
    """The group of ``model``'s newest expansion, the one stages 1 and 2 train."""
    if not model.expansion_history:
        raise ConfigurationError("model has no expansion to train")
    return model.expansion_history[-1].group


def train_dense(
    model: Model, corpus: TaggedCorpus, recipe: TrainingRecipe, seed: int
) -> list[LossReport]:
    """Next-token pre-training of the dense backbone; updates every parameter."""
    return _train(model, corpus, recipe, "dense", seed)


def stage1_train(
    model: Model, corpus_new: TaggedCorpus, recipe: TrainingRecipe, seed: int
) -> tuple[Model, list[LossReport]]:
    """New-expert pretraining: only the current expansion's experts and their
    router columns move; the dense backbone and earlier expansions stay
    bitwise unchanged."""
    current_group = _newest_group(model)
    stray = set(corpus_new.groups) - {current_group}
    if stray:
        raise InvalidInputError(
            f"stage-1 corpus must contain only group {current_group!r}, found {sorted(stray)}"
        )
    return model, _train(model, corpus_new, recipe, "stage1", seed)


def stage2_train(
    model: Model, review_corpus: TaggedCorpus, recipe: TrainingRecipe, seed: int
) -> tuple[Model, list[LossReport]]:
    """Router review on mixed data: all router columns plus the model's
    classifiers train; experts and backbone stay bitwise unchanged. With
    cls_weight 0 and no classifiers this is exactly prior-routing review (the
    baseline form). Training always routes plainly; the classifier gate is
    inference-only.
    """
    _newest_group(model)  # raises on a model with no expansion
    if recipe.cls_weight > 0 and not model.classifier_layers:
        raise ConfigurationError("cls_weight > 0 but no classifier layers configured")
    if not review_corpus.old_token_mask(model.old_groups).any():
        raise InvalidInputError("review corpus has no old-language tokens")
    return model, _train(model, review_corpus, recipe, "stage2", seed)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalMetrics:
    """``expert_utilization`` counts, per layer, the (row, slot) pairs its
    experts ran: a row whose gate fired counts expert 0 once, no other slot."""

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

    def save_csv(self, path: str | Path) -> Path:
        rows = [["perplexity", lang, repr(self.perplexity[lang])] for lang in sorted(self.perplexity)]
        for name in ("routing_old_fraction", "classifier_accuracy"):
            values = getattr(self, name) or {}
            rows += [[name, layer, repr(values[layer])] for layer in sorted(values)]
        for layer, counts in sorted((self.expert_utilization or {}).items()):
            rows.append(["expert_utilization", layer, " ".join(map(str, counts))])
        return schema.save_csv(path, ["metric", "key", "value"], rows)


def evaluate(
    model: Model,
    corpus: TaggedCorpus,
    mode: str | None = None,
    *,
    max_sequences_per_language: int | None = None,
) -> EvalMetrics:
    """Per-language perplexity plus routing and classifier statistics.

    ``mode`` None evaluates gated when the model has classifiers and plain
    otherwise. Old languages are those of the model's old groups, the ones
    it knew before its newest expansion. Perplexity is exp of the mean
    next-token negative log-likelihood. The old-to-expert-0 fraction counts
    old-language tokens whose top-1 routed expert is 0; on gated layers a
    fired gate counts as expert 0. A model with no expansion (a dense one)
    has no routing, classifier or utilization statistics.
    """
    if max_sequences_per_language is not None and max_sequences_per_language < 1:
        raise InvalidInputError("max_sequences_per_language must be >= 1")
    model.config.check_tokens(corpus.sequences, corpus.sequences.shape[1] - 1)
    batch_size = 32  # sequences per forward pass
    counts = model.expert_counts()
    if mode is None:
        mode = "gated" if model.classifier_layers else "plain"

    nll_sum: dict[str, float] = {}
    nll_count: dict[str, int] = {}
    old_top1_e0 = np.zeros(len(counts), dtype=np.int64)
    utilization = [np.zeros(n, dtype=np.int64) for n in counts]
    cls_hits = dict.fromkeys(model.classifier_layers, 0)
    old_total = valid_total = 0

    for language in corpus.language_set():
        part = corpus.subset_language(language)
        if max_sequences_per_language is not None:
            part = part.take(range(min(len(part), max_sequences_per_language)))
        # The trace is over flat rows; flatten the fed positions' masks to match.
        fed = part.sequences.shape[1] - 1
        old_all = part.old_token_mask(model.old_groups)[:, :-1].reshape(-1)
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
                top1, rest = trace.indices[:, 0], trace.indices[:, 1:]
                if trace.gate_old is not None:  # a fired row ran on expert 0 alone
                    top1, rest = np.where(trace.gate_old, 0, top1), rest[~trace.gate_old]
                old_top1_e0[i] += int((top1[old_mask] == 0).sum())
                utilization[i] += np.bincount(np.append(top1, rest), minlength=counts[i])
                if trace.classifier_logits is not None:
                    pred = trace.classifier_logits.data.argmax(axis=1)
                    want = np.where(old_mask, 0, 1)
                    cls_hits[i] += int((pred[valid] == want[valid]).sum())

    perplexity = {lang: math.exp(nll_sum[lang] / nll_count[lang]) for lang in nll_sum}
    routing = accuracy = util_out = None
    if model.expansion_history and nll_count:
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
    stage1_reports: list[LossReport] = field(repr=False, default_factory=list)
    stage2_reports: list[LossReport] = field(repr=False, default_factory=list)


def default_classifier_count(lifelong: bool, layer_count: int) -> int:
    base = LIFELONG_CLASSIFIER_LAYERS if lifelong else SINGLE_EXPANSION_CLASSIFIER_LAYERS
    return min(base, layer_count)


def expansion_seed(seed: int, model: Model, group: str, step: str) -> int:
    """The seed of one ``step`` of ``group``'s expansion of ``model``, derived
    from the pipeline ``seed`` and the number of expansions before
    ``group``'s in the model's history. The steps, in the order an expansion
    runs them: "profile-before" (:func:`profile_before`, whose profile
    also places :func:`review`'s classifiers), "stage1" (stage 1's
    batches), "review" (the review mixture) and "stage2" (stage 2's
    batches). The dense base's batches derive from "base"."""
    history = [e.group for e in model.expansion_history]
    index = history.index(group) if group in history else len(history)
    return derive_seed(derive_seed(seed, "expansion", index, group), step)


def profile_before(
    model: Model, corpus: TaggedCorpus, group: str, seed: int, *, q: int
) -> SimilarityProfile:
    """The profile that allocates ``group``'s experts and places its
    classifiers: the languages of every group ``model`` knows, as old,
    against ``group``'s, on the model as it is before the expansion."""
    if group in model.proficient_groups:
        raise InvalidInputError(f"group {group!r} is already proficient")
    old, new = corpus.languages_in(model.proficient_groups), corpus.languages_in([group])
    return profile_similarity(model, corpus, old, new, q=q,
                              seed=expansion_seed(seed, model, group, "profile-before"))


def expand(
    model: Model,
    plan,
    corpus: TaggedCorpus,
    group: str,
    recipe: TrainingRecipe,
    seed: int,
) -> tuple[Model, list[LossReport]]:
    """Stage 1 of an expansion: give ``group`` the experts of ``plan`` with
    :func:`extend_expansion` (a first expansion calls it as ``upcycle``, the
    name the benchmark times), then train them on the group's sequences."""
    expanded = (extend_expansion if model.expansion_history else upcycle)(model, plan, group)
    return stage1_train(expanded, corpus.subset_groups([group]), recipe, seed)


def review(
    model: Model,
    corpus: TaggedCorpus,
    recipe: TrainingRecipe,
    seed: int,
    profile: SimilarityProfile,
    *,
    classifier_count: int | None = None,
) -> tuple[Model, list[LossReport]]:
    """Stage 2 of the newest expansion. With ``classifier_count`` > 0, place
    that many classifiers on the layers where ``profile``, the expansion's
    allocation profile (:func:`profile_before`), finds the new languages
    most like the old; with none, the recipe's classifier term is dropped.
    ``classifier_count`` None places :func:`default_classifier_count` of
    them: 7 on a first expansion, 5 on a later one, clipped to the layer
    count. Then review the routers on :func:`review_mixture`'s sample of
    the old and new groups. Returns the model and the losses."""
    if not model.expansion_history:
        raise ConfigurationError("review needs an expanded model")
    if classifier_count is None:
        lifelong = len(model.expansion_history) > 1
        classifier_count = default_classifier_count(lifelong, model.config.layers)
    if not 0 <= classifier_count <= model.config.layers:
        raise ConfigurationError(
            f"classifier_count {classifier_count} outside 0..{model.config.layers}"
        )
    # Stage 2 trains on a sample of the corpus; check all of it, so that a
    # bad sequence fails the same way whether or not the sample draws it.
    model.config.check_tokens(corpus.sequences, corpus.sequences.shape[1] - 1)
    new_group = model.expansion_history[-1].group
    old, new = corpus.languages_in(model.old_groups), corpus.languages_in([new_group])
    layers = model.config.layers
    if (profile.old_languages, profile.new_languages, profile.layer_count) != (old, new, layers):
        raise InvalidInputError(
            f"profile has new {list(profile.new_languages)}, old {list(profile.old_languages)}"
            f" and {profile.layer_count} layers; review needs new {list(new)}, old {list(old)}"
            f" and {layers}")
    if classifier_count > 0:
        add_classifiers(model, select_classifier_layers(profile.new_old, classifier_count))
    else:
        recipe = replace(recipe, cls_weight=0.0)
    old_part, new_part = corpus.subset_groups(model.old_groups), corpus.subset_groups([new_group])
    mixture = review_mixture(old_part, new_part, expansion_seed(seed, model, new_group, "review"))
    return stage2_train(model, mixture, recipe, seed)


def lifelong_expand(
    model: Model,
    corpus: TaggedCorpus,
    new_group: str,
    budget: int,
    recipe1: TrainingRecipe,
    recipe2: TrainingRecipe,
    seed: int,
    *,
    q: int = PROFILE_Q,
    classifier_count: int | None = None,
) -> tuple[Model, ExpansionResult]:
    """One full expansion at pipeline seed ``seed``: :func:`profile_before`
    on the current model, allocate the budget, :func:`expand` (freezing
    everything pre-existing) and :func:`review`, with "old" covering every
    previously known group. The one profile both allocates and places the
    classifiers. ``classifier_count`` goes to :func:`review`, which picks
    the default for None; 0 disables classifiers and the classifier term of
    stage 2.
    """
    before = profile_before(model, corpus, new_group, seed, q=q)
    plan = allocate(before.indicated, budget)
    expanded, reports1 = expand(model, plan, corpus, new_group, recipe1, seed)
    expanded, reports2 = review(expanded, corpus, recipe2, seed, before,
                                classifier_count=classifier_count)
    return expanded, ExpansionResult(plan, before, reports1, reports2)


def save_reports_csv(reports: Sequence[LossReport], path: str | Path) -> None:
    header = ["step", "total", "ntp", "balance", "lpr", "cls"]
    rows = ([r.step, *(repr(getattr(r, name)) for name in header[1:])] for r in reports)
    schema.save_csv(path, header, rows)
