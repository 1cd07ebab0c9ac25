"""The benchmark's workloads: configs, timed sessions, checks and metrics.

``lifelong`` and ``wide_expand`` time ``layermoe.cli.run_pipeline``;
``serve_gated`` times ``layermoe.model.load_model`` followed by a closed
loop of gated ``forward`` calls. Per-module numbers come only from spans the
benchmark wraps around calls into each module's public functions, in the
namespace that makes the call (see :data:`STAGE_WRAPS` and
:data:`LAYER_WRAPS`). Every time is read from the tracer's clock, which the
benchmark paces (see ``pace.py``). Import this module only after
``layermoe``, so that ``LAYERMOE_THREADS`` reaches the BLAS environment
before numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from layermoe import cli, profiler, trainer
from layermoe import model as lm_model
from layermoe.allocator import load_plan, validate
from layermoe.corpus import TaggedCorpus, generate, language_specs, required_vocab
from layermoe.errors import ConfigurationError, LayerMoEError
from layermoe.model import (
    DenseModel,
    Expert,
    ModelConfig,
    MoEModel,
    add_classifiers,
    save_model,
    upcycle,
)
from layermoe.numerics import SeededRng, Tensor, derive_seed
from layermoe.trainer import SGD, EvalMetrics, evaluate

from spans import Tracer

ROOT = "bench.session"

# Shared by every workload: an 8-layer, width-32 toy transformer and two
# languages per group. Learning rate and momentum are the values at which
# the dense base learns its languages within the step counts below.
SCALES = {
    "full": {
        "model": dict(layers=8, hidden=32, heads=4, vocab=128, ffn=64, context=16, top_k=2),
        "block": 16,
        "tokens_per_language": 2048,
        "batch": 8,
        "base_steps": 60,
        "stage1_steps": 30,
        "stage2_steps": 40,
        "q": 128,
        "eval_sequences": 32,
        "serve_batch": 64,
        "serve_tokens_per_language": 3072,
        "calibration_tokens_per_language": 512,
    },
    "tiny": {
        "model": dict(layers=2, hidden=16, heads=2, vocab=64, ffn=16, context=8, top_k=2),
        "block": 8,
        "tokens_per_language": 512,
        "batch": 4,
        "base_steps": 4,
        "stage1_steps": 3,
        "stage2_steps": 3,
        "q": 16,
        "eval_sequences": 8,
        "serve_batch": 4,
        "serve_tokens_per_language": 64,
        "calibration_tokens_per_language": 64,
    },
}
OVERLAP = 0.3
LEARNING_RATE = 0.05
MOMENTUM = 0.9
# New experts per layer and expansion: a small budget for the lifelong
# sequence, a large one for the single wide expansion and the served model.
LIFELONG_PER_LAYER = 1
WIDE_PER_LAYER = 8
SERVE_CLASSIFIER_LAYERS = 5
SERVE_ROUTER_STD = 0.3
# The untimed warm-up pipeline is the same in every run; at the tiny scale
# some seeds give a layer a non-positive similarity, which allocation rejects.
WARMUP_SEED = 0
# Largest share of a traced session's wall time that may fall outside every
# layer span before the run fails its accounting check.
UNATTRIBUTED_LIMIT = 0.05


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so the value is one actually measured."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# wrap points


def _mark(tracer: Tracer, args) -> None:
    tracer.mark = tracer.clock()


def _step_done(tracer: Tracer, args, result, end: float) -> None:
    tracer.sample_since_mark("step_ms", end)


def _enter_forward(tracer: Tracer, args) -> None:
    tracer.flags["moe"] = isinstance(args[0], MoEModel)


def _enter_profile_forward(tracer: Tracer, args) -> None:
    _enter_forward(tracer, args)
    tracer.count("profile_positions", np.asarray(args[1]).size)


def _routing_done(tracer: Tracer, args, result, end: float) -> None:
    for layer in result.trace or ():
        if layer.gate_old is not None:
            fired = int(layer.gate_old.sum())
            tracer.count("gate_rows", layer.gate_old.size)
            tracer.count("gate_fired", fired)
            # A fired row's top-k mix was computed and then replaced by the bypass.
            tracer.count("expert_rows_discarded", fired * layer.indices.shape[-1])


def _expert_done(tracer: Tracer, args, result, end: float) -> None:
    tracer.count("expert_rows", args[1].shape[0])


def _candidates_done(tracer: Tracer, args, result, end: float) -> None:
    tracer.count("profile_samples", args[3])


def _checkpoint_written(tracer: Tracer, args, result, end: float) -> None:
    tracer.count("checkpoint_bytes", Path(args[1]).stat().st_size)


def _checkpoint_read(tracer: Tracer, args, result, end: float) -> None:
    tracer.count("checkpoint_bytes", Path(args[0]).stat().st_size)


def _in_moe(tracer: Tracer) -> bool:
    return tracer.flags.get("moe", False)


# Timed in every session: the training stages behind the throughput and
# step-latency metrics, and the operations counted as attempted.
STAGE_WRAPS = [
    (cli, "train_dense", "trainer.dense", {"before": _mark}),
    (trainer, "stage1_train", "trainer.stage1", {"before": _mark}),
    (trainer, "stage2_train", "trainer.stage2", {"before": _mark}),
    (trainer, "profile_similarity", "profiler.profile", {}),
    (SGD, "step", "trainer.sgd", {"after": _step_done}),
]

# Timed only in traced sessions.
LAYER_WRAPS = [
    (cli, "generate", "corpus.generate", {}),
    (cli, "save_model", "checkpoint.save", {"after": _checkpoint_written}),
    (cli, "evaluate", "trainer.eval", {}),
    (cli, "lifelong_expand", "trainer.expand", {}),
    (cli, "save_profile", "cli.artifact_io", {}),
    (cli, "save_plan", "cli.artifact_io", {}),
    (cli, "save_reports_csv", "cli.artifact_io", {}),
    (TaggedCorpus, "save_jsonl", "cli.artifact_io", {}),
    (EvalMetrics, "save_json", "cli.artifact_io", {}),
    (EvalMetrics, "save_csv", "cli.artifact_io", {}),
    (trainer, "allocate", "allocator.allocate", {}),
    (trainer, "upcycle", "network.upcycle", {}),
    (trainer, "extend_expansion", "network.upcycle", {}),
    (trainer, "review_mixture", "corpus.review_mix", {}),
    (trainer, "forward_graph", "network.train_forward", {"before": _enter_forward}),
    (trainer, "forward", "network.infer_forward", {"before": _enter_forward, "after": _routing_done}),
    (trainer, "ntp_loss", "trainer.loss", {}),
    (trainer, "balance_loss", "trainer.loss", {}),
    (trainer, "lpr_loss", "trainer.loss", {}),
    (trainer, "cls_loss", "trainer.loss", {}),
    (profiler, "collect_candidates", "profiler.candidates", {"after": _candidates_done}),
    (profiler, "forward", "network.infer_forward", {"before": _enter_profile_forward, "after": _routing_done}),
    (profiler, "pair_similarity", "profiler.pairs", {}),
    (lm_model, "load_model", "checkpoint.load", {"after": _checkpoint_read}),
    (lm_model, "forward", "network.infer_forward", {"before": _enter_forward, "after": _routing_done}),
    (Tensor, "backward", "autodiff.backward", {}),
    # The dense FFN also runs through Expert; only MoE expert calls get a span.
    (Expert, "__call__", "network.expert", {"after": _expert_done, "when": _in_moe}),
]


def install(tracer: Tracer, traced: bool) -> None:
    for owner, attr, name, hooks in STAGE_WRAPS + (LAYER_WRAPS if traced else []):
        tracer.wrap(owner, attr, name, **hooks)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced session. ``_s`` values are span
    totals unless the name says self time (see README.md)."""
    t = tracer
    c = t.counters
    step_ms = t.samples.get("step_ms", [])
    backward = t.stats.get("autodiff.backward")
    expert_calls = t.calls("network.expert")
    rows = c.get("expert_rows", 0)
    return {
        "autodiff.backward_s": t.total("autodiff.backward"),
        "autodiff.backward_ms_p50": statistics.median(backward.durations) * 1e3 if backward else 0.0,
        "autodiff.backward_share": t.total("autodiff.backward") / (sum(step_ms) / 1e3) if step_ms else 0.0,
        "network.train_forward_s": t.self_time("network.train_forward"),
        "network.infer_forward_s": t.self_time("network.infer_forward"),
        "network.expert_s": t.total("network.expert"),
        "network.expert_calls": expert_calls,
        "network.rows_per_expert_call": rows / expert_calls if expert_calls else 0.0,
        "network.gate_fire_rate": c.get("gate_fired", 0) / c["gate_rows"] if c.get("gate_rows") else 0.0,
        "network.expert_row_yield": (rows - c.get("expert_rows_discarded", 0)) / rows if rows else 0.0,
        "trainer.dense_s": t.total("trainer.dense"),
        "trainer.stage1_s": t.total("trainer.stage1"),
        "trainer.stage2_s": t.total("trainer.stage2"),
        "trainer.eval_s": t.total("trainer.eval"),
        "trainer.loss_s": t.total("trainer.loss"),
        "trainer.sgd_s": t.total("trainer.sgd"),
        "trainer.steps": t.calls("trainer.sgd"),
        "trainer.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "profiler.profile_s": t.total("profiler.profile"),
        "profiler.candidates_s": t.total("profiler.candidates"),
        "profiler.pairs_s": t.total("profiler.pairs"),
        "profiler.sample_yield": (
            c.get("profile_samples", 0) / c["profile_positions"] if c.get("profile_positions") else 0.0
        ),
        "checkpoint.save_s": t.total("checkpoint.save"),
        "checkpoint.load_s": t.total("checkpoint.load"),
        "checkpoint.mb": c.get("checkpoint_bytes", 0) / 1e6,
        "corpus.generate_s": t.total("corpus.generate"),
        "corpus.review_mix_s": t.total("corpus.review_mix"),
        "cli.artifact_io_s": t.total("cli.artifact_io"),
        "allocator.allocate_s": t.total("allocator.allocate"),
    }


class SessionFailed(Exception):
    """An operation of the program raised during a timed session."""

    def __init__(self, attempted: int):
        super().__init__(f"a session failed after {attempted} attempted operations")
        self.attempted = attempted


def run_sessions(workload, clock, seconds: float, trace: bool, min_sessions: int) -> list[tuple[bool, Tracer, dict]]:
    """Closed loop of sessions until the next one would overrun ``seconds``
    of wall time. Traced runs alternate untraced and traced sessions, at
    least one each. Spans read ``clock``."""
    sessions = []
    start = time.perf_counter()
    while True:
        traced = trace and len(sessions) % 2 == 1
        tracer = Tracer(clock)
        install(tracer, traced)
        session_start = time.perf_counter()
        try:
            facts = workload.session(tracer)
        except LayerMoEError as error:
            done = sum(attempted_operations(t) for _, t, _ in sessions)
            raise SessionFailed(done + attempted_operations(tracer)) from error
        finally:
            tracer.restore()
        end = time.perf_counter()
        facts["wall_s"] = end - session_start
        sessions.append((traced, tracer, facts))
        typical = statistics.median(f["wall_s"] for _, _, f in sessions)
        if len(sessions) >= (2 if trace else min_sessions) and end - start + typical > seconds:
            return sessions


def attempted_operations(tracer: Tracer) -> int:
    """Training steps, profile calls and served batches of one session."""
    return (
        tracer.calls("trainer.sgd")
        + tracer.calls("profiler.profile")
        + int(tracer.counters.get("served_batches", 0))
    )


# ---------------------------------------------------------------------------
# pipeline workloads


def _stage(steps: int, batch: int) -> dict:
    return {"steps": steps, "batch_size": batch, "learning_rate": LEARNING_RATE, "momentum": MOMENTUM}


def pipeline_config(workload: str, seed: int, scale: str) -> dict:
    """``lifelong``: dense base plus two small expansions. ``wide_expand``:
    dense base plus one expansion with eight new experts per layer."""
    s = SCALES[scale]
    layers = s["model"]["layers"]
    groups = {"g0": ["a0", "a1"], "g1": ["b0", "b1"]}
    if workload == "lifelong":
        groups["g2"] = ["c0", "c1"]
        new_groups, per_layer = ["g1", "g2"], LIFELONG_PER_LAYER
    else:
        new_groups, per_layer = ["g1"], WIDE_PER_LAYER
    return {
        "seed": seed,
        "languages": {
            "groups": groups,
            "block_size": s["block"],
            "shared_size": s["block"],
            "overlap": OVERLAP,
        },
        "model": dict(s["model"]),
        "corpus": {"tokens_per_language": s["tokens_per_language"]},
        "base": {"group": "g0", **_stage(s["base_steps"], s["batch"])},
        "expansions": [
            {
                "group": group,
                "budget": per_layer * layers,
                "q": s["q"],
                "stage1": _stage(s["stage1_steps"], s["batch"]),
                "stage2": _stage(s["stage2_steps"], s["batch"]),
            }
            for group in new_groups
        ],
        "evaluation": {"max_sequences_per_language": s["eval_sequences"]},
    }


def _stages(config: dict) -> list[dict]:
    """Every training stage of a pipeline config, base first."""
    return [config["base"]] + [e[s] for e in config["expansions"] for s in ("stage1", "stage2")]


def _frozen_problems(base: DenseModel, previous: MoEModel | None, model: MoEModel, tag: str) -> list[str]:
    problems = []
    for name, param in base.params.items():
        moe_name = name.replace(".ffn.", ".experts.0.")
        if not _bitwise_equal(param.data, model.params[moe_name].data):
            problems.append(f"{tag}: {moe_name} differs from the dense base")
    if previous is not None:
        for name, param in previous.params.items():
            if ".experts." in name and not _bitwise_equal(param.data, model.params[name].data):
                problems.append(f"{tag}: earlier expert {name} changed")
    return problems


class PipelineWorkload:
    """One ``run_pipeline`` call per session."""

    def __init__(self, name: str, seed: int, scale: str, out_dir: Path):
        self.config = pipeline_config(name, seed, scale)
        self.warmup_config = pipeline_config(name, WARMUP_SEED, "tiny")
        self.out_dir = out_dir

    def setup(self) -> None:
        """What a user does before ``run_pipeline``: serialise the config and
        parse it back, and resolve the model config and language layout it
        names."""
        config = json.loads(json.dumps(self.config, indent=2, sort_keys=True))
        languages = config["languages"]
        specs = language_specs(
            languages["groups"],
            block_size=languages["block_size"],
            shared_size=languages["shared_size"],
            overlap=languages["overlap"],
            seed=config["seed"],
        )
        model_config = ModelConfig.from_dict({**config["model"], "seed": config["seed"]})
        if required_vocab(specs) > model_config.vocab:
            raise ConfigurationError(f"languages need vocab {required_vocab(specs)}, model has {model_config.vocab}")

    def warm_up(self) -> None:
        """Clear the output directory and run a tiny pipeline, untimed, so
        imports, caches and lazy set-up are done before the first timed
        session."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        cli.run_pipeline(self.warmup_config, self.out_dir / "warmup")

    def train_tokens(self) -> int:
        per_sequence = self.config["model"]["context"] - 1
        return sum(st["steps"] * st["batch_size"] * per_sequence for st in _stages(self.config))

    def session(self, tracer: Tracer) -> dict:
        run_dir = self.out_dir / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        with tracer.span(ROOT):
            outputs = cli.run_pipeline(self.config, run_dir)
        return {"outputs": outputs, "hashes": {k: _sha256(p) for k, p in sorted(outputs.items())}}

    def timing(self, sessions: list[tuple[Tracer, dict]]) -> dict[str, float]:
        train_s = sum(
            tracer.total(n) for tracer, _ in sessions for n in ("trainer.dense", "trainer.stage1", "trainer.stage2")
        )
        steps = [v for tracer, _ in sessions for v in tracer.samples["step_ms"]]
        return {
            "tok_s": self.train_tokens() * len(sessions) / train_s,
            "batch_ms_p50": statistics.median(steps),
            "batch_ms_p90": percentile(steps, 90),
            "batch_samples": len(steps),
        }

    def check(self, facts: dict, tracer: Tracer) -> tuple[dict, dict, list[str]]:
        """Quality metrics, model fingerprints and failed checks of the first
        session's artifacts."""
        cfg = self.config
        outputs = facts["outputs"]
        layers = cfg["model"]["layers"]
        problems = []
        expected_steps = sum(st["steps"] for st in _stages(cfg))
        if tracer.calls("trainer.sgd") != expected_steps:
            problems.append(f"ran {tracer.calls('trainer.sgd')} training steps, config asks {expected_steps}")
        base = lm_model.load_model(outputs["base"])
        fingerprints = {"base": base.fingerprint()}
        previous = None
        for index, exp in enumerate(cfg["expansions"]):
            tag = f"{index}_{exp['group']}"
            model = lm_model.load_model(outputs[f"model_{tag}"])
            fingerprints[f"model_{tag}"] = model.fingerprint()
            problems += _frozen_problems(base, previous, model, tag)
            plan = load_plan(outputs[f"plan_{tag}"])
            problems += [f"plan {tag}: {p}" for p in validate(plan, layers)]
            previous = model
        for key, path in outputs.items():
            if key.startswith("metrics_"):
                ppl = json.loads(Path(path).read_text())["perplexity"]
                problems += [f"{key}: perplexity of {l} is {v}" for l, v in ppl.items() if not math.isfinite(v)]
        last = cfg["expansions"][-1]
        record = json.loads(Path(outputs[f"metrics_{len(cfg['expansions']) - 1}_{last['group']}"]).read_text())
        base_record = json.loads(Path(outputs["metrics_base"]).read_text())
        groups = cfg["languages"]["groups"]
        old = [l for g, langs in groups.items() if g != last["group"] for l in langs]
        quality, more = _quality(record, base_record, old, groups[last["group"]])
        return quality, fingerprints, problems + more


def _nll(record: dict, languages: list[str]) -> float:
    """Mean ln(perplexity) over ``languages``: the log of their geometric mean."""
    return statistics.fmean(math.log(record["perplexity"][l]) for l in languages)


def _quality(record: dict, base_record: dict, old: list[str], new: list[str]) -> tuple[dict, list[str]]:
    """Quality of one evaluation record. The perplexities are given as the
    ratio of their logs to those of the dense model on the same sequences,
    which hardly varies from seed to seed."""
    quality = {
        "nll_old_ratio": _nll(record, old) / _nll(base_record, old),
        "nll_new_ratio": _nll(record, new) / _nll(base_record, new),
    }
    accuracy = record["classifier_accuracy"]
    routing = record["routing_old_fraction"]
    if not accuracy or not routing:
        return quality, ["evaluation reports no classifier accuracy or routing fraction"]
    quality["cls_acc"] = statistics.fmean(accuracy.values())
    quality["route_old_e0"] = statistics.fmean(routing.values())
    return quality, []


# ---------------------------------------------------------------------------
# serving workload


class ServeWorkload:
    """Load a fixed MoE checkpoint, then serve a held-out corpus in gated
    mode: one closed-loop client, fixed-size batches, one after another."""

    old_group, new_group = "g0", "g1"
    groups = {"g0": ["a0", "a1"], "g1": ["b0", "b1"]}

    def __init__(self, seed: int, scale: str, out_dir: Path):
        self.seed = seed
        self.scale = SCALES[scale]
        self.out_dir = out_dir
        self.model_path = out_dir / "served.lmoe"
        layers = self.scale["model"]["layers"]
        self.classifier_layers = tuple(range(max(0, layers - SERVE_CLASSIFIER_LAYERS), layers))
        self.config = {
            "seed": seed,
            "model": dict(self.scale["model"]),
            "languages": self.groups,
            "block_size": self.scale["block"],
            "overlap": OVERLAP,
            "new_experts_per_layer": WIDE_PER_LAYER,
            "classifier_layers": list(self.classifier_layers),
            "router_std": SERVE_ROUTER_STD,
            "batch": self.scale["serve_batch"],
            "tokens_per_language": self.scale["serve_tokens_per_language"],
        }
        self.setup_hashes: list[str] = []

    def setup(self) -> None:
        """Build the seeded MoE, fit its classifiers and save it; generate
        the held-out corpus and cut it into batches."""
        s, seed = self.scale, self.seed
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        config = ModelConfig(**s["model"], seed=seed)
        specs = language_specs(
            self.groups, block_size=s["block"], shared_size=s["block"], overlap=OVERLAP, seed=seed
        )
        calibration = generate(
            specs, s["calibration_tokens_per_language"], config.context, derive_seed(seed, "bench-calibration")
        )
        held_out = generate(
            specs, s["serve_tokens_per_language"], config.context, derive_seed(seed, "bench-held-out")
        )
        dense = DenseModel.create(config, groups=(self.old_group,))
        self.dense = dense
        model = upcycle(dense, (WIDE_PER_LAYER,) * config.layers, self.new_group)
        for name in sorted(model.params):
            if ".router." in name:
                gen = SeededRng(derive_seed(seed, "bench-router", name)).generator()
                model.params[name].data[:] = gen.normal(0.0, SERVE_ROUTER_STD, size=config.hidden)
        add_classifiers(model, self.classifier_layers)
        self._fit_classifiers(model, calibration)
        save_model(model, self.model_path)
        self.setup_hashes.append(_sha256(self.model_path))
        self.fingerprint = model.fingerprint()

        order = SeededRng(derive_seed(seed, "bench-batches")).generator().permutation(len(held_out))
        size = s["serve_batch"]
        picks = [order[i : i + size] for i in range(0, len(order) - size + 1, size)]
        self.served = held_out.take(sorted(int(i) for p in picks for i in p))
        self.batches = [held_out.sequences[p][:, :-1] for p in picks]
        self.targets = [held_out.sequences[p][:, 1:] for p in picks]
        self.batch_languages = [[held_out.languages[i] for i in p] for p in picks]

    def _fit_classifiers(self, model: MoEModel, corpus: TaggedCorpus) -> None:
        """Nearest-centroid classifiers: column 0 is the mean unit router
        input of old-language tokens, column 1 that of new-language tokens,
        so the gate fires where a row is closer in angle to the old centroid."""
        taps = lm_model.forward(model, corpus.sequences).taps
        old = corpus.old_token_mask([self.old_group])
        new = corpus.token_mask() & ~old
        for i in self.classifier_layers:
            unit = taps[i] / np.linalg.norm(taps[i], axis=-1, keepdims=True)
            columns = [unit[old].mean(axis=0), unit[new].mean(axis=0)]
            weight = np.stack([c / np.linalg.norm(c) for c in columns], axis=1)
            model.params[f"blocks.{i}.classifier"].data[:] = weight

    def warm_up(self) -> None:
        """Load the model and serve one batch, untimed."""
        lm_model.forward(lm_model.load_model(self.model_path), self.batches[0], mode="gated")

    def session(self, tracer: Tracer) -> dict:
        latencies, logits = [], []
        clock = tracer.clock
        with tracer.span(ROOT):
            model = lm_model.load_model(self.model_path)
            loop_start = clock()
            for batch in self.batches:
                tracer.count("served_batches")
                start = clock()
                result = lm_model.forward(model, batch, mode="gated")
                latencies.append((clock() - start) * 1e3)
                logits.append(result.logits)
            loop_s = clock() - loop_start
        digest = hashlib.sha256()
        nll_sum: dict[str, float] = {}
        for block, targets, languages in zip(logits, self.targets, self.batch_languages):
            digest.update(block.tobytes())
            shifted = block - block.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            nll = -np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0].sum(axis=1)
            for language, value in zip(languages, nll):
                nll_sum[language] = nll_sum.get(language, 0.0) + float(value)
        return {
            "fingerprint": model.fingerprint(),
            "nll_sum": nll_sum,
            "loop_s": loop_s,
            "latencies": latencies,
            "hashes": {"logits": digest.hexdigest(), "checkpoint": _sha256(self.model_path)},
        }

    def timing(self, sessions: list[tuple[Tracer, dict]]) -> dict[str, float]:
        tokens = sum(b.size for b in self.batches)
        latencies = [v for _, facts in sessions for v in facts["latencies"]]
        return {
            "tok_s": tokens * len(sessions) / sum(facts["loop_s"] for _, facts in sessions),
            "batch_ms_p50": statistics.median(latencies),
            "batch_ms_p90": percentile(latencies, 90),
            "batch_samples": len(latencies),
        }

    def check(self, facts: dict, tracer: Tracer) -> tuple[dict, dict, list[str]]:
        """Recount perplexity from the served logits and compare it with
        ``evaluate(mode="gated")`` on the same sequences; report that
        evaluation's quality."""
        problems = []
        if len(set(self.setup_hashes)) != 1:
            problems.append("repeated set-up wrote different checkpoints")
        if facts["fingerprint"] != self.fingerprint:
            problems.append("loaded model differs from the model that was saved")
        nll_sum = facts["nll_sum"]
        metrics = evaluate(lm_model.load_model(self.model_path), self.served, mode="gated")
        base_metrics = evaluate(self.dense, self.served)
        for language in sorted(nll_sum):
            recount = math.exp(nll_sum[language] / metrics.token_counts[language])
            reported = metrics.perplexity[language]
            if not (math.isfinite(reported) and abs(recount - reported) <= 1e-12 * reported):
                problems.append(f"{language}: recounted perplexity {recount!r}, evaluate says {reported!r}")
        quality, more = _quality(
            metrics.to_dict(), base_metrics.to_dict(), self.groups[self.old_group], self.groups[self.new_group]
        )
        return quality, {"served": self.fingerprint}, problems + more


def make_workload(name: str, seed: int, scale: str, out_dir: Path):
    if name == "serve_gated":
        return ServeWorkload(seed, scale, out_dir)
    return PipelineWorkload(name, seed, scale, out_dir)

