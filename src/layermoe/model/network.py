"""Toy decoder-only transformer and its per-layer-variable MoE upcycle.

A dense model is a model with no expansion: every model answers the same
questions (:class:`Model`), and its parameter layout is read from its
expansion history. The constructor checks every model's groups, classifier
layers and parameter layout; :func:`extend_expansion` makes every
expansion, the first one too. ``upcycle`` and the dense and MoE class names
are kept for the benchmark. A model holds at most 2**27 parameters (1 GiB
as float64), checked before any of them is allocated.

Fixed architecture (expert-copy initialisation and the checkpoint format
depend on it, so it is pinned here):

- learned token and position embeddings, no dropout, no biases anywhere;
- per block: ``x <- x + attention(x)`` with causal multi-head attention
  on the raw residual stream, then ``h = rmsnorm(x)`` and the block output
  is ``experts(h) + h``. That normalised post-attention state ``h`` is
  exactly what the router, the classifier, the profiler tap, and the expert
  inputs all see. Each block's ``attn_norm`` gain is created and stored in
  checkpoints, but nothing reads it. Each attention and each rmsnorm is
  one tape node (``autodiff.attention``, ``autodiff.rms_norm``), each
  router two (``autodiff.route``: the scores and the top-k weights);
- experts are SiLU-gated FFNs ``down(silu(h @ gate) * (h @ up))``;
- final rmsnorm, untied linear head.

An upcycled layer holds expert 0 (the original dense FFN, frozen), any
number of added experts, one router column per expert, and optionally a
two-class classifier whose "old" verdict bypasses the router entirely at
inference. The gate is a row mask on the layer's single expert dispatch
(``expert_mix``): a row where it fires gets expert 0 alone with weight
exactly 1.0, so its output is ``E0(h) + h``. ``forward(mode="gated")``
gates every layer that has a classifier and runs the others plain.

The expert stage works on the ``n = batch * length`` positions flattened to
rows, in batch-major order: row ``r`` is position ``r % length`` of sequence
``r // length``. Each MoE layer's routing decisions are one ``LayerTrace``
over those rows, the same record for the losses and for evaluation.

``forward(..., logits=False)`` is for callers that read only the taps (the
profiler): it returns right after the last layer's tap, skipping that
layer's route and expert stage, ``out_norm`` and the head. Its ``logits``
are None, and an MoE model's trace has one entry per layer but the last.
The taps are the bits the full forward gives.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import (
    ConfigurationError,
    InvalidInputError,
    PlanMismatchError,
)
from ..numerics import (
    SeededRng,
    Tensor,
    attention,
    derive_seed,
    embedding,
    expert_mix,
    rms_norm,
    route,
    silu,
)
from .config import ModelConfig

RMS_EPS = 1e-6
INIT_STD = 0.02
# Token embeddings start at residual-stream scale: tokens the backbone never
# trains on (a language expanded later) must still carry strong, mutually
# distinct directions, the way a pretrained multilingual embedding table
# does. Weight-scale init would leave them indistinguishable noise.
TOKEN_EMB_STD = 1.0
NEW_EXPERT_NOISE_STD = 0.01

_MASK_CACHE: dict[int, np.ndarray] = {}
_PARTS = ("gate", "up", "down")  # an expert's weights, in Expert's argument order


class Expansion(NamedTuple):
    """One language-group expansion: group id plus new experts per layer."""

    group: str
    new_experts: tuple[int, ...]


class Expert:
    """SiLU-gated FFN; callable on a (n, hidden) tensor."""

    def __init__(self, gate: Tensor, up: Tensor, down: Tensor):
        self.gate = gate
        self.up = up
        self.down = down

    def __call__(self, x: Tensor) -> Tensor:
        return (silu(x @ self.gate) * (x @ self.up)) @ self.down


@dataclass
class MoELayer:
    """View of one layer's expert stage: its experts, one router column per
    expert, and an optional two-class classifier that gates the layer."""

    experts: Sequence[Expert]
    router_columns: Sequence[Tensor]
    top_k: int
    classifier: Tensor | None = None


@dataclass(frozen=True)
class LayerTrace:
    """Routing decisions of one MoE layer over the ``n`` flattened rows of a
    forwarded batch (row ``r`` is position ``r % length`` of sequence
    ``r // length``). ``scores``, ``indices`` and ``weights`` are what
    ``autodiff.route`` returns; the tensors stay on the tape when training."""

    scores: Tensor  # (n, n_experts) full softmax scores
    indices: np.ndarray  # (n, k) selected experts, best first
    weights: Tensor  # (n, k) renormalised mixing weights
    classifier_logits: Tensor | None  # (n, 2) where the layer has a classifier
    gate_old: np.ndarray | None  # (n,) bool where the gate fired, gated layers only


@dataclass(frozen=True)
class ForwardResult:
    """Inference forward. ``trace`` holds one ``LayerTrace`` per layer over
    flat rows (None for dense models); logits and taps keep the batch shape."""

    logits: np.ndarray | None  # (batch, length, vocab); None without logits
    layer_taps: list[np.ndarray]  # per layer, (batch, length, hidden) router inputs
    trace: tuple[LayerTrace, ...] | None

    @cached_property
    def taps(self) -> np.ndarray:
        """(layers, batch, length, hidden): the layer taps, stacked when first read."""
        return np.stack(self.layer_taps)


@dataclass
class _GraphResult:
    logits: Tensor | None  # (batch, length, vocab)
    layers: tuple[LayerTrace, ...] | None
    taps: list[np.ndarray]


# ---------------------------------------------------------------------------
# parameter initialisation and containers


def _init_rng(seed: int, name: str) -> np.random.Generator:
    return SeededRng(derive_seed(seed, "init", name)).generator()


def _dense_param_specs(config: ModelConfig):
    h, f = config.hidden, config.ffn
    yield "tok_emb", (config.vocab, h), "token_emb"
    yield "pos_emb", (config.context, h), "normal"
    for i in range(config.layers):
        yield f"blocks.{i}.attn_norm", (h,), "ones"
        for name in ("wq", "wk", "wv", "wo"):
            yield f"blocks.{i}.{name}", (h, h), "normal"
        yield f"blocks.{i}.ffn_norm", (h,), "ones"
        yield f"blocks.{i}.ffn.gate", (h, f), "normal"
        yield f"blocks.{i}.ffn.up", (h, f), "normal"
        yield f"blocks.{i}.ffn.down", (f, h), "normal"
    yield "out_norm", (h,), "ones"
    yield "head", (h, config.vocab), "normal"


def _check_size(count: int) -> None:
    """Refuse a model of more than 2**27 parameters (1 GiB as float64), the
    bound :func:`~layermoe.corpus.generate` puts on a corpus."""
    if count > 2**27:
        raise InvalidInputError(f"a model of {count} parameters is over the bound of 2**27")


def param_shapes(model: "Model") -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the model's structure implies."""
    shapes = {name: shape for name, shape, _ in _dense_param_specs(model.config)}
    if model.expansion_history:
        h = model.config.hidden
        for i, count in enumerate(model.expert_counts()):
            ffn = {part: shapes.pop(f"blocks.{i}.ffn.{part}") for part in _PARTS}
            for e in range(count):
                shapes.update({f"blocks.{i}.experts.{e}.{p}": s for p, s in ffn.items()})
                shapes[f"blocks.{i}.router.{e}"] = (h,)
        shapes.update({f"blocks.{i}.classifier": (h, 2) for i in model.classifier_layers})
    return shapes


class Model:
    """What every model has: its config, its parameters by name, the groups
    of its dense training (``base_groups``), its expansions and classifier
    layers. A dense model is a model with no expansion: both are empty by
    default, and callers read them rather than ask a model its class."""

    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, Tensor],
        base_groups: Sequence[str],
        expansion_history: Sequence[Expansion] = (),
        classifier_layers: Sequence[int] = (),
    ):
        self.config = config
        self.params = params
        self.base_groups = tuple(base_groups)
        self.expansion_history = tuple(expansion_history)
        if not self.base_groups:
            raise InvalidInputError("a model needs at least one group")
        for group, counts in self.expansion_history:
            if len(counts) != config.layers or not all(isinstance(c, Integral) and c >= 0
                                                       for c in counts):
                raise InvalidInputError(f"expansion {group!r} gives {list(counts)}, not one"
                                        f" count >= 0 for each of {config.layers} layers")
        moe = range(config.layers if self.expansion_history else 0)  # the layers a classifier gates
        if wrong := [i for i in classifier_layers if not (isinstance(i, Integral) and i in moe)]:
            raise InvalidInputError(f"classifier layers {wrong} are not among the model's"
                                    f" {len(moe)} MoE layers")
        self.classifier_layers = tuple(sorted(int(i) for i in classifier_layers))
        for what, values in [("group", self.proficient_groups),
                             ("classifier layer", self.classifier_layers)]:
            repeated = ", ".join(map(str, sorted({v for v in values if values.count(v) > 1})))
            if repeated:
                raise InvalidInputError(f"{what} listed more than once: {repeated}")
        # Bounds param_shapes, which names every expert the history counts.
        if sum(self.expert_counts()) > len(params):
            raise InvalidInputError("expansion history has more experts than parameters")
        shapes = param_shapes(self)
        found = {n: p.data.shape for n, p in params.items()}
        wrong = [n for n in sorted(shapes.keys() | found.keys()) if found.get(n) != shapes.get(n)]
        if wrong:
            detail = "; ".join(f"{n} {found.get(n)} != {shapes.get(n)}" for n in wrong)
            raise InvalidInputError(f"parameters do not fit the model (found != expected): {detail}")

    @property
    def proficient_groups(self) -> tuple[str, ...]:
        return self.base_groups + tuple(e.group for e in self.expansion_history)

    @property
    def old_groups(self) -> tuple[str, ...]:
        """Groups the model knew before its most recent expansion."""
        return self.proficient_groups[:-1] if self.expansion_history else self.base_groups

    def fingerprint(self) -> str:
        return hash_params(self, sorted(self.params))

    def expert_counts(self) -> tuple[int, ...]:
        """Experts per layer: 1 (the dense FFN) plus each expansion's new ones."""
        history = self.expansion_history
        return tuple(1 + sum(e.new_experts[i] for e in history) for i in range(self.config.layers))

    def layer(self, index: int) -> MoELayer:
        n = self.expert_counts()[index]
        experts = [
            Expert(*(self.params[f"blocks.{index}.experts.{e}.{part}"] for part in _PARTS))
            for e in range(n)
        ]
        cols = [self.params[f"blocks.{index}.router.{e}"] for e in range(n)]
        cls = self.params.get(f"blocks.{index}.classifier")
        return MoELayer(experts, cols, self.config.top_k, cls)

    @classmethod
    def create(cls, config: ModelConfig, groups: Sequence[str]) -> "Model":
        """A freshly initialised model of ``groups``, with no expansion; its
        size is bounded before anything is allocated."""
        # Every block has the same shapes, so the layout's size is linear in
        # the layer count: read it off one- and two-block layouts.
        one, two = (sum(math.prod(s) for _, s, _ in _dense_param_specs(replace(config, layers=n)))
                    for n in (1, 2))
        _check_size(one + (config.layers - 1) * (two - one))
        params: dict[str, Tensor] = {}
        for name, shape, init in _dense_param_specs(config):
            if init == "ones":
                data = np.ones(shape, dtype=np.float64)
            else:
                std = TOKEN_EMB_STD if init == "token_emb" else INIT_STD
                data = _init_rng(config.seed, name).normal(0.0, std, size=shape)
            params[name] = Tensor(data)
        return cls(config, params, groups)


DenseModel = Model  # the benchmark builds its base with DenseModel.create


class MoEModel(Model):
    """A model with expansions, where a dense model has none: per layer,
    expert 0 (the dense FFN) plus each expansion's new experts, one router
    column each, and optional classifiers."""


def hash_params(model: Model, names: Sequence[str]) -> str:
    """SHA-256 over the named parameters' raw bytes; order-insensitive input."""
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(model.params[name].data).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# upcycling and expansion


def _plan_counts(plan, layers: int) -> tuple[int, ...]:
    counts = tuple(int(c) for c in getattr(plan, "new_experts", plan))
    if len(counts) != layers:
        raise PlanMismatchError(f"plan covers {len(counts)} layers, model has {layers}")
    if any(c < 0 for c in counts):
        raise PlanMismatchError("negative expert counts")
    return counts


def extend_expansion(model: Model, plan, group: str) -> MoEModel:
    """Copy of ``model`` plus ``group``'s expansion: per layer, ``plan`` new
    experts with zero router columns. A new expert is the layer's expert 0
    (the original dense FFN) plus seeded Gaussian noise; a first expansion
    makes each dense FFN expert 0, with a zero router column. Classifiers from
    the previous expansion are dropped, since the next review stage re-selects
    layers and trains fresh ones against the enlarged old group. ``group``
    must be one the model does not know yet."""
    if group in model.proficient_groups:
        raise InvalidInputError(f"group {group!r} is already proficient")
    config = model.config
    counts = _plan_counts(plan, config.layers)
    expansion = len(model.expansion_history)
    kept = {name.replace(".ffn.", ".experts.0."): p.data  # ".ffn." only before an expansion
            for name, p in model.params.items() if not name.endswith(".classifier")}
    if not model.expansion_history:
        kept |= {f"blocks.{i}.router.0": np.zeros(config.hidden) for i in range(config.layers)}
    # A new expert is expert 0's three matrices plus a router column, the same in every layer.
    expert = sum(kept[f"blocks.0.experts.0.{part}"].size for part in _PARTS) + config.hidden
    _check_size(sum(data.size for data in kept.values()) + sum(counts) * expert)
    params = {name: Tensor(data.copy()) for name, data in kept.items()}
    for i, existing in enumerate(model.expert_counts()):
        for e in range(existing, existing + counts[i]):
            for part in _PARTS:
                base = kept[f"blocks.{i}.experts.0.{part}"]
                tag = ("expansion", expansion, "layer", i, "expert", e, part)
                rng = SeededRng(derive_seed(config.seed, *tag)).generator()
                data = base + rng.normal(0.0, NEW_EXPERT_NOISE_STD, size=base.shape)
                params[f"blocks.{i}.experts.{e}.{part}"] = Tensor(data)
            params[f"blocks.{i}.router.{e}"] = Tensor(np.zeros(config.hidden))
    history = list(model.expansion_history) + [Expansion(group, counts)]
    return MoEModel(config, params, model.base_groups, history)


def upcycle(dense: Model, plan, group: str) -> MoEModel:
    """:func:`extend_expansion` of a model with no expansion, under the name
    the benchmark calls and times (as ``trainer.upcycle``)."""
    return extend_expansion(dense, plan, group)


def add_classifiers(model: Model, layers: Sequence[int]) -> Model:
    """Install zero-initialised two-class classifiers on ``layers``,
    replacing any previous classifier set."""
    layer_ids = sorted(set(layers))
    params = {n: p for n, p in model.params.items() if not n.endswith(".classifier")}
    params |= {f"blocks.{i}.classifier": Tensor(np.zeros((model.config.hidden, 2)))
               for i in layer_ids}
    checked = Model(model.config, params, model.base_groups, model.expansion_history, layer_ids)
    model.params, model.classifier_layers = checked.params, checked.classifier_layers
    return model


# ---------------------------------------------------------------------------
# forward passes


def _causal_mask(length: int) -> np.ndarray:
    mask = _MASK_CACHE.get(length)
    if mask is None:
        visible = np.tril(np.ones((length, length), dtype=bool))
        mask = np.where(visible, 0.0, -1e30).reshape(1, 1, length, length)
        _MASK_CACHE[length] = mask
    return mask


def _attention(x: Tensor, params: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    weights = (params[f"{prefix}.{name}"] for name in ("wq", "wk", "wv", "wo"))
    return attention(x, *weights, _causal_mask(x.shape[1]), heads)


def _moe_mix(hsa: Tensor, layer: MoELayer, gated: bool) -> tuple[Tensor, LayerTrace]:
    """Expert stage on flattened rows: weighted expert mix plus residual.
    With ``gated`` (only for a layer with a classifier), the classifier's
    "old" verdict is a row mask that sends the row to expert 0 alone."""
    if not layer.experts or len(layer.router_columns) != len(layer.experts):
        raise ConfigurationError("layer needs one router column per expert")
    scores, indices, weights = route(hsa, layer.router_columns, layer.top_k)
    cls_logits = (hsa @ layer.classifier) if layer.classifier is not None else None
    gate_old = cls_logits.data.argmax(axis=1) == 0 if gated else None
    out = expert_mix(hsa, weights, indices, layer.experts, gate_old) + hsa
    return out, LayerTrace(scores, indices, weights, cls_logits, gate_old)


def forward_graph(
    model: Model, tokens: np.ndarray, *, mode: str = "plain", logits: bool = True
) -> _GraphResult:
    """Run the model, keeping the tape alive wherever parameters require
    gradients. Returns tape-connected logits, per-layer router-input taps
    and per-layer routing records. ``mode="gated"`` gates every layer that
    has a classifier. With ``logits=False`` it stops at the last layer's tap
    (see the module docstring)."""
    if mode not in ("plain", "gated"):
        raise InvalidInputError(f"unknown forward mode {mode!r}")
    if mode == "gated" and not model.classifier_layers:
        raise ConfigurationError("gated mode needs a model with classifiers")
    is_moe = bool(model.expansion_history)
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise InvalidInputError("tokens must be two dimensional (batch, length)")
    config = model.config
    config.check_tokens(tokens, tokens.shape[1])

    b, t = tokens.shape
    h = config.hidden
    params = model.params
    x = embedding(params["tok_emb"], tokens) + embedding(params["pos_emb"], np.arange(t))
    layers: list[LayerTrace] = []
    taps: list[np.ndarray] = []
    for i in range(config.layers):
        prefix = f"blocks.{i}"
        x = x + _attention(x, params, prefix, config.heads)
        hsa = rms_norm(x, params[f"{prefix}.ffn_norm"], RMS_EPS).reshape((b * t, h))
        taps.append(hsa.data.reshape(b, t, h))
        if not logits and i == config.layers - 1:
            return _GraphResult(None, tuple(layers) if is_moe else None, taps)
        if is_moe:
            layer = model.layer(i)
            out, trace = _moe_mix(hsa, layer, mode == "gated" and layer.classifier is not None)
            layers.append(trace)
        else:
            out = Expert(*(params[f"{prefix}.ffn.{part}"] for part in _PARTS))(hsa) + hsa
        x = out.reshape((b, t, h))
    final = rms_norm(x, params["out_norm"], RMS_EPS).reshape((b * t, h))
    head = (final @ params["head"]).reshape((b, t, config.vocab))
    return _GraphResult(head, tuple(layers) if is_moe else None, taps)


def forward(
    model: Model, tokens: np.ndarray, mode: str = "plain", *, logits: bool = True
) -> ForwardResult:
    """Inference forward: logits, per-layer router-input taps, routing trace.
    ``logits=False`` stops at the last layer's tap (see the module docstring)."""
    result = forward_graph(model, tokens, mode=mode, logits=logits)
    head = None if result.logits is None else result.logits.data
    return ForwardResult(head, result.taps, result.layers)


# ---------------------------------------------------------------------------
# parameter partitions


def partition_params(model: Model, stage: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Trainable / frozen parameter names for a training stage.

    stage1: the most recent expansion's experts plus their router columns.
    stage2: every router column plus every classifier.
    The two sets are disjoint and jointly cover all parameters.
    """
    if stage not in ("stage1", "stage2"):
        raise InvalidInputError(f"unknown stage {stage!r}")
    if not model.expansion_history:
        raise ConfigurationError("model has no expansion to train")
    trainable: list[str] = []
    if stage == "stage1":
        last = len(model.expansion_history) - 1
        counts = model.expansion_history[last].new_experts
        for i in range(model.config.layers):
            start = 1 + sum(e.new_experts[i] for e in model.expansion_history[:last])
            for e in range(start, start + counts[i]):
                trainable.extend(f"blocks.{i}.experts.{e}.{part}" for part in _PARTS)
                trainable.append(f"blocks.{i}.router.{e}")
        if not trainable:
            raise ConfigurationError("stage-1 trainable set is empty (no new experts)")
    else:
        for name in model.params:
            if ".router." in name or name.endswith(".classifier"):
                trainable.append(name)
    trainable_set = frozenset(trainable)
    frozen = tuple(sorted(set(model.params) - trainable_set))
    return tuple(sorted(trainable_set)), frozen
