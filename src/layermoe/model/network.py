"""Toy decoder-only transformer and its per-layer-variable MoE upcycle.

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
from dataclasses import dataclass
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
    taps: np.ndarray  # (layers, batch, length, hidden) router inputs
    trace: tuple[LayerTrace, ...] | None


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


def param_shapes(model: "Model") -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the model's structure implies."""
    shapes = {name: shape for name, shape, _ in _dense_param_specs(model.config)}
    if isinstance(model, MoEModel):
        h = model.config.hidden
        for i, count in enumerate(model.expert_counts()):
            ffn = {part: shapes.pop(f"blocks.{i}.ffn.{part}") for part in _PARTS}
            for e in range(count):
                shapes.update({f"blocks.{i}.experts.{e}.{p}": s for p, s in ffn.items()})
                shapes[f"blocks.{i}.router.{e}"] = (h,)
        shapes.update({f"blocks.{i}.classifier": (h, 2) for i in model.classifier_layers})
    return shapes


class DenseModel:
    """The plain transformer: one FFN per layer, nothing routed."""

    kind = "dense"

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], groups: Sequence[str] = ()):
        self.config = config
        self.params = params
        self.groups = tuple(groups)

    @classmethod
    def create(cls, config: ModelConfig, groups: Sequence[str] = ()) -> "DenseModel":
        params: dict[str, Tensor] = {}
        for name, shape, init in _dense_param_specs(config):
            if init == "ones":
                data = np.ones(shape, dtype=np.float64)
            else:
                std = TOKEN_EMB_STD if init == "token_emb" else INIT_STD
                data = _init_rng(config.seed, name).normal(0.0, std, size=shape)
            params[name] = Tensor(data)
        return cls(config, params, groups)

    def fingerprint(self) -> str:
        return hash_params(self, sorted(self.params))


class MoEModel:
    """Upcycled transformer with a variable expert count per layer."""

    kind = "moe"

    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, Tensor],
        base_groups: Sequence[str],
        expansion_history: Sequence[Expansion],
        classifier_layers: Sequence[int] = (),
    ):
        self.config = config
        self.params = params
        self.base_groups = tuple(base_groups)
        self.expansion_history = tuple(
            Expansion(e[0], tuple(int(c) for c in e[1])) for e in expansion_history
        )
        self.classifier_layers = tuple(sorted(int(i) for i in classifier_layers))

    # -- structure ----------------------------------------------------------

    @property
    def proficient_groups(self) -> tuple[str, ...]:
        return self.base_groups + tuple(e.group for e in self.expansion_history)

    @property
    def old_groups(self) -> tuple[str, ...]:
        """Groups the model knew before its most recent expansion."""
        return self.proficient_groups[:-1] if self.expansion_history else self.base_groups

    def expert_counts(self) -> tuple[int, ...]:
        counts = [1] * self.config.layers
        for exp in self.expansion_history:
            for i, c in enumerate(exp.new_experts):
                counts[i] += c
        return tuple(counts)

    def layer(self, index: int) -> MoELayer:
        n = self.expert_counts()[index]
        experts = [
            Expert(*(self.params[f"blocks.{index}.experts.{e}.{part}"] for part in _PARTS))
            for e in range(n)
        ]
        cols = [self.params[f"blocks.{index}.router.{e}"] for e in range(n)]
        cls = self.params.get(f"blocks.{index}.classifier")
        return MoELayer(experts, cols, self.config.top_k, cls)

    def fingerprint(self) -> str:
        return hash_params(self, sorted(self.params))


Model = DenseModel | MoEModel


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


def _add_experts(model: MoEModel, plan, group: str, init: str) -> MoEModel:
    """Copy of ``model`` without classifiers, plus ``group``'s expansion: per
    layer, ``plan`` new experts with zero router columns. A new expert is the
    layer's expert 0 plus seeded Gaussian noise (``init="inherit"``) or
    seeded weights drawn from scratch (``"random"``)."""
    config = model.config
    counts = _plan_counts(plan, config.layers)
    expansion = len(model.expansion_history)
    params = {
        name: Tensor(p.data.copy())
        for name, p in model.params.items()
        if not name.endswith(".classifier")
    }
    for i, existing in enumerate(model.expert_counts()):
        for e in range(existing, existing + counts[i]):
            for part in _PARTS:
                base = model.params[f"blocks.{i}.experts.0.{part}"].data
                tag = ("expansion", expansion, "layer", i, "expert", e, part)
                rng = SeededRng(derive_seed(config.seed, *tag)).generator()
                if init == "inherit":
                    data = base + rng.normal(0.0, NEW_EXPERT_NOISE_STD, size=base.shape)
                elif init == "random":
                    data = rng.normal(0.0, INIT_STD, size=base.shape)
                else:
                    raise InvalidInputError(f"unknown expert init {init!r}")
                params[f"blocks.{i}.experts.{e}.{part}"] = Tensor(data)
            params[f"blocks.{i}.router.{e}"] = Tensor(np.zeros(config.hidden))
    history = list(model.expansion_history) + [Expansion(group, counts)]
    return MoEModel(config, params, model.base_groups, history)


def upcycle(dense: DenseModel, plan, group: str, *, init: str = "inherit") -> MoEModel:
    """Turn a dense model into an MoE: per layer, expert 0 is the original
    FFN and ``plan`` new experts are added (default: copies of expert 0 plus
    seeded Gaussian noise). Routers start at zero, so routing begins uniform
    with deterministic tie-breaking. ``dense`` is left untouched."""
    params = {name.replace(".ffn.", ".experts.0."): p for name, p in dense.params.items()}
    for i in range(dense.config.layers):
        params[f"blocks.{i}.router.0"] = Tensor(np.zeros(dense.config.hidden))
    return _add_experts(MoEModel(dense.config, params, dense.groups, ()), plan, group, init)


def extend_expansion(model: MoEModel, plan, group: str) -> MoEModel:
    """Add a further expansion to an existing MoE model. New experts copy the
    layer's expert 0 (the original dense FFN) plus noise; classifiers from the
    previous expansion are dropped, since the next review stage re-selects
    layers and trains fresh ones against the enlarged old group."""
    return _add_experts(model, plan, group, "inherit")


def add_classifiers(model: MoEModel, layers: Sequence[int]) -> MoEModel:
    """Install zero-initialised two-class classifiers on ``layers``,
    replacing any previous classifier set."""
    layer_ids = tuple(sorted({int(i) for i in layers}))
    if layer_ids and not (0 <= layer_ids[0] and layer_ids[-1] < model.config.layers):
        raise InvalidInputError(f"classifier layers {layer_ids} out of range")
    for name in [n for n in model.params if n.endswith(".classifier")]:
        del model.params[name]
    for i in layer_ids:
        model.params[f"blocks.{i}.classifier"] = Tensor(np.zeros((model.config.hidden, 2)))
    model.classifier_layers = layer_ids
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
    is_moe = isinstance(model, MoEModel)
    if mode == "gated" and not (is_moe and model.classifier_layers):
        raise ConfigurationError("gated mode needs a model with classifiers")
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2:
        raise InvalidInputError("tokens must be one or two dimensional")
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
    return ForwardResult(head, np.stack(result.taps), result.layers)


# ---------------------------------------------------------------------------
# parameter partitions


def partition_params(model: MoEModel, stage: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Trainable / frozen parameter names for a training stage.

    stage1: the most recent expansion's experts plus their router columns.
    stage2: every router column plus every classifier.
    The two sets are disjoint and jointly cover all parameters.
    """
    if not isinstance(model, MoEModel):
        raise ConfigurationError("partition_params needs an upcycled model")
    if stage not in ("stage1", "stage2"):
        raise InvalidInputError(f"unknown stage {stage!r}")
    trainable: list[str] = []
    if stage == "stage1":
        if not model.expansion_history:
            raise ConfigurationError("model has no expansion to train")
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
