"""Command-line front door: corpus generation, base training, profiling,
allocation, expansion, review, evaluation, and full pipelines. ``expand``
and ``review`` run the same two steps as each expansion of ``run-pipeline``.

Every artifact-producing command writes a manifest (``<out>.manifest.json``)
holding the resolved arguments, package version, and output hashes. The
``replay`` command rebuilds a command line from a manifest's arguments,
parses it with the same parser as ``main``, re-runs it, and fails unless
every output's sha256 matches the recorded one. Errors exit 2 with a
one-line JSON record on stderr.

Pipeline config precedence: file < LAYERMOE_OVERRIDES environment variable
(semicolon-separated dotted key=value pairs) < repeated ``--set key=value``.
``main`` puts the environment's pairs ahead of the ``--set`` ones, so a
manifest records every override and ``replay`` never reads the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import allocate, load_plan, save_plan
from .corpus import TaggedCorpus, generate, language_specs, required_vocab
from .errors import ConfigurationError, FormatError, InvalidInputError, LayerMoEError
from .model import DenseModel, ModelConfig, MoEModel, load_model, save_model
from .numerics import derive_seed
from .profiler import load_profile, profile_similarity, save_profile
from .schema import Int, List, Map, check, load_json, problems, save_json
from .trainer import (
    TrainingRecipe,
    evaluate,
    expand,
    lifelong_expand,
    review,
    save_reports_csv,
    train_dense,
)


class _CliError(LayerMoEError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse calls this on unknown flags etc.
        raise _CliError(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(command: str, args: dict, outputs: dict[str, Path]) -> None:
    primary = next(iter(outputs.values()))
    manifest = {
        "command": command,
        "arguments": {k: v for k, v in args.items() if k not in ("func", "command")},
        "package_version": __version__,
        "outputs": {
            name: {"path": str(path), "sha256": _sha256(path)} for name, path in outputs.items()
        },
    }
    save_json(f"{primary}.manifest.json", manifest)


# A language layout, as in gen-corpus --spec and a pipeline's "languages".
_LANGUAGES = {"groups": Map([str]), "block_size?": int, "shared_size?": int, "overlap?": float}


def _language_specs(cfg: dict, seed: int):
    return language_specs(
        cfg["groups"],
        block_size=cfg.get("block_size", 48),
        shared_size=cfg.get("shared_size"),
        overlap=cfg.get("overlap", 0.0),
        seed=seed,
    )


def _groups_arg(value: str) -> list[str]:
    return [part for part in value.split(",") if part]


def _recipe(values: dict, stage: str, seed: int) -> TrainingRecipe:
    """A stage's recipe from a pipeline stage config or a command's
    arguments; a rate that ``values`` lacks keeps its TrainingRecipe default."""
    names = [f.name for f in fields(TrainingRecipe) if f.name not in ("stage", "seed")]
    return TrainingRecipe(stage, seed=seed, **{n: values[n] for n in names if n in values})


def _save_trained(model, reports, out: str) -> dict[str, Path]:
    """A trained checkpoint plus its per-step losses in ``<out>.losses.csv``."""
    out = Path(out)
    save_model(model, out)
    losses = out.with_suffix(out.suffix + ".losses.csv")
    save_reports_csv(reports, losses)
    return {"model": out, "losses": losses}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(args) -> dict[str, Path]:
    spec_cfg = check(load_json(args.spec), _LANGUAGES, f"{args.spec}: corpus spec")
    specs = _language_specs(spec_cfg, args.seed)
    corpus = generate(specs, args.tokens, args.seq_len, args.seed)
    out = Path(args.out)
    corpus.save_jsonl(out)
    return {"corpus": out}


def _cmd_train_base(args) -> dict[str, Path]:
    model_cfg = check(load_json(args.config), {}, f"{args.config}: model config")
    config = ModelConfig.from_dict({"seed": args.seed, **model_cfg})
    corpus = TaggedCorpus.load_jsonl(args.corpus).subset_groups([args.group])
    if len(corpus) == 0:
        raise InvalidInputError(f"corpus has no sequences in group {args.group!r}")
    model = DenseModel.create(config, groups=(args.group,))
    recipe = _recipe(vars(args), "dense", derive_seed(args.seed, "train-base"))
    return _save_trained(model, train_dense(model, corpus, recipe), args.out)


def _cmd_profile(args) -> dict[str, Path]:
    model = load_model(args.model)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    profile = profile_similarity(
        model,
        corpus,
        corpus.languages_in(_groups_arg(args.old)),
        corpus.languages_in(_groups_arg(args.new)),
        q=args.q,
        seed=args.seed,
        literal_new_new=args.literal_new_new,
    )
    out = Path(args.out)
    save_profile(profile, out)
    return {"profile": out, "profile_csv": out.with_suffix(".csv")}


def _cmd_allocate(args) -> dict[str, Path]:
    profile = load_profile(args.profile)
    plan = allocate(profile.indicated, args.budget)
    plan = replace(plan, meta={"profile": profile.meta, "mode": "layerwise"})
    out = Path(args.out)
    save_plan(plan, out)
    return {"plan": out, "plan_csv": out.with_suffix(".csv")}


def _cmd_expand(args) -> dict[str, Path]:
    dense = load_model(args.model)
    if not isinstance(dense, DenseModel):
        raise ConfigurationError("expand starts from a dense checkpoint")
    plan = load_plan(args.plan)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    recipe = _recipe(vars(args), "stage1", derive_seed(args.seed, "stage1"))
    model, reports = expand(dense, plan, corpus, args.group, recipe, init=args.init)
    return _save_trained(model, reports, args.out)


def _cmd_review(args) -> dict[str, Path]:
    model = load_model(args.model)
    if not isinstance(model, MoEModel):
        raise ConfigurationError("review needs an expanded checkpoint")
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    model, profile, reports = review(
        model,
        corpus,
        _recipe(vars(args), "stage2", derive_seed(args.seed, "stage2")),
        classifier_count=args.classifier_count,
        q=args.q,
        profile_seed=derive_seed(args.seed, "review-profile"),
        mix_seed=derive_seed(args.seed, "review-mix"),
        review_ratio=(args.ratio_old, args.ratio_new),
    )
    outputs = _save_trained(model, reports, args.out)
    if profile is not None:
        profile_out = Path(args.out).with_suffix(".profile.json")
        save_profile(profile, profile_out)
        outputs.update(profile=profile_out, profile_csv=profile_out.with_suffix(".csv"))
    return outputs


def _cmd_eval(args) -> dict[str, Path]:
    model = load_model(args.model)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    old_groups = _groups_arg(args.old_groups) if args.old_groups else None
    metrics = evaluate(
        model,
        corpus,
        mode=args.mode,
        old_groups=old_groups,
        max_sequences_per_language=args.max_sequences,
    )
    out = Path(args.out)
    metrics.save_json(out)
    csv_out = out.with_suffix(".csv")
    metrics.save_csv(csv_out)
    return {"metrics": out, "metrics_csv": csv_out}


# ---------------------------------------------------------------------------
# pipeline


def _apply_override(config: dict, dotted: str, raw: str) -> None:
    """Replace the value at a dotted path that ``config`` already has; a
    list is entered by its index (``expansions.1.budget``)."""
    node = config
    for key in dotted.split("."):
        parent = node
        if isinstance(node, list) and key.isdecimal() and int(key) < len(node):
            key = int(key)
        elif not (isinstance(node, dict) and key in node):
            raise InvalidInputError(f"override path {dotted!r} not in config")
        node = parent[key]
    try:
        parent[key] = json.loads(raw)
    except json.JSONDecodeError:
        parent[key] = raw


def _resolve_pipeline_config(args) -> dict:
    config = load_json(args.config)
    for pair in args.set or ():
        if "=" not in pair:
            raise InvalidInputError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        _apply_override(config, key.strip(), value.strip())
    return config


_RATES = ("learning_rate", "momentum", "balance_weight", "lpr_weight", "cls_weight")
_STAGE = {"steps": int, "batch_size": int, **{f"{key}?": float for key in _RATES},
          "cls_mode?": {"standard_ce", "literal_paper"}}
# Every value run_pipeline reads; ModelConfig.from_dict checks the model's.
_PIPELINE = {
    "seed?": int,
    "languages": _LANGUAGES,
    "model": {},
    "corpus": {"tokens_per_language": int},
    "evaluation?": {"max_sequences_per_language?": Int(1), "mode?": {"plain", "gated"}},
    "base": {"group": str, **_STAGE},
    "expansions?": [
        {"group": str, "budget": int, "q?": int, "classifier_count?": int,
         "review_ratio?": List(Int(0), 2, 2), "stage1": _STAGE, "stage2": _STAGE}
    ],
}


def run_pipeline(config: dict, out_dir: Path) -> dict[str, Path]:
    """Chain corpus generation, dense training, and every configured
    expansion, evaluating after each stage. Deterministic given the config."""
    check(config, _PIPELINE, "pipeline config")
    outputs: dict[str, Path] = {}
    seed = config.get("seed", 0)

    specs = _language_specs(config["languages"], seed)
    model_config = ModelConfig.from_dict({"seed": seed, **config["model"]})
    if required_vocab(specs) > model_config.vocab:
        raise ConfigurationError(
            f"language layout needs vocab {required_vocab(specs)}, model has {model_config.vocab}"
        )
    for index, exp_cfg in enumerate(config.get("expansions", ())):
        count = exp_cfg.get("classifier_count", 0)
        if not 0 <= count <= model_config.layers:
            raise ConfigurationError(
                f"expansions.{index}.classifier_count {count} outside 0..{model_config.layers}"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = generate(
        specs,
        config["corpus"]["tokens_per_language"],
        model_config.context,
        derive_seed(seed, "corpus"),
    )
    corpus_path = out_dir / "corpus.jsonl"
    corpus.save_jsonl(corpus_path)
    outputs["corpus"] = corpus_path

    base_cfg = config["base"]
    base_group = base_cfg["group"]
    dense = DenseModel.create(model_config, groups=(base_group,))
    dense_recipe = _recipe(base_cfg, "dense", derive_seed(seed, "base"))
    base_reports = train_dense(dense, corpus.subset_groups([base_group]), dense_recipe)
    base_path = out_dir / "base.lmoe"
    save_model(dense, base_path)
    outputs["base"] = base_path
    save_reports_csv(base_reports, out_dir / "base.losses.csv")
    outputs["base_losses"] = out_dir / "base.losses.csv"

    eval_cfg = config.get("evaluation", {})
    max_sequences = eval_cfg.get("max_sequences_per_language")
    base_metrics = evaluate(dense, corpus, max_sequences_per_language=max_sequences)
    base_metrics_path = out_dir / "metrics.base.json"
    base_metrics.save_json(base_metrics_path)
    base_metrics.save_csv(base_metrics_path.with_suffix(".csv"))
    outputs["metrics_base"] = base_metrics_path

    model = dense
    for index, exp_cfg in enumerate(config.get("expansions", ())):
        group = exp_cfg["group"]
        tag = f"{index}_{group}"
        expansion_seed = derive_seed(seed, "expansion", index, group)
        model, result = lifelong_expand(
            model,
            corpus,
            group,
            exp_cfg["budget"],
            _recipe(exp_cfg["stage1"], "stage1", derive_seed(expansion_seed, "stage1")),
            _recipe(exp_cfg["stage2"], "stage2", derive_seed(expansion_seed, "stage2")),
            q=exp_cfg.get("q", 512),
            seed=expansion_seed,
            classifier_count=exp_cfg.get("classifier_count"),
            review_ratio=tuple(exp_cfg.get("review_ratio", (1, 2))),
        )
        profile_path = out_dir / f"profile.{tag}.json"
        save_profile(result.profile_before, profile_path)
        outputs[f"profile_{tag}"] = profile_path
        plan_path = out_dir / f"plan.{tag}.json"
        save_plan(result.plan, plan_path)
        outputs[f"plan_{tag}"] = plan_path
        if result.profile_stage1 is not None:
            stage1_profile_path = out_dir / f"profile.stage1.{tag}.json"
            save_profile(result.profile_stage1, stage1_profile_path)
            outputs[f"profile_stage1_{tag}"] = stage1_profile_path
        save_reports_csv(result.stage1_reports, out_dir / f"stage1.{tag}.losses.csv")
        save_reports_csv(result.stage2_reports, out_dir / f"stage2.{tag}.losses.csv")
        model_path = out_dir / f"model.{tag}.lmoe"
        save_model(model, model_path)
        outputs[f"model_{tag}"] = model_path

        mode = eval_cfg.get("mode", "gated") if model.classifier_layers else "plain"
        metrics = evaluate(model, corpus, mode=mode, max_sequences_per_language=max_sequences)
        metrics_path = out_dir / f"metrics.{tag}.json"
        metrics.save_json(metrics_path)
        metrics.save_csv(metrics_path.with_suffix(".csv"))
        outputs[f"metrics_{tag}"] = metrics_path
    return outputs


def _cmd_run_pipeline(args) -> dict[str, Path]:
    config = _resolve_pipeline_config(args)
    outputs = run_pipeline(config, Path(args.out_dir))
    resolved = Path(args.out_dir) / "pipeline.config.json"
    save_json(resolved, config)
    return {"config": resolved, **outputs}


def _cmd_replay(args) -> dict[str, Path]:
    manifest = check(load_json(args.manifest), _MANIFEST, f"{args.manifest}: manifest")
    argv = [manifest["command"]]
    for dest, value in manifest["arguments"].items():
        flag = "--" + dest.replace("_", "-")
        for v in value if isinstance(value, list) else [value]:  # a list repeats the flag
            if v is True:
                argv.append(flag)
            elif v is not None and v is not False:
                argv.append(f"{flag}={v}")
    try:
        replay_args = _build_parser().parse_args(argv)
    except _CliError as exc:
        raise FormatError(f"{args.manifest}: arguments: {exc}") from None
    outputs = _COMMANDS[replay_args.command](replay_args)
    want = {name: entry["sha256"] for name, entry in manifest["outputs"].items()}
    found = {name: _sha256(path) for name, path in outputs.items()}
    differ = sorted(n for n in want.keys() | found.keys() if want.get(n) != found.get(n))
    if differ:
        raise FormatError(f"{args.manifest}: replay does not reproduce {', '.join(differ)}")
    _write_manifest(replay_args.command, vars(replay_args), outputs)
    return outputs


# ---------------------------------------------------------------------------
# argument wiring


def _add_training_options(p, steps: int, *weights: str) -> None:
    """Step and batch options, and the rates with TrainingRecipe's defaults."""
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--batch-size", type=int, default=8)
    defaults = {f.name: f.default for f in fields(TrainingRecipe)}
    for name in ("learning_rate", "momentum", *weights):
        p.add_argument("--" + name.replace("_", "-"), type=float, default=defaults[name])


def _build_parser() -> _Parser:
    parser = _Parser(prog="layermoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic tagged corpus")
    p.add_argument("--spec", required=True, help="JSON language-group spec")
    p.add_argument("--tokens", type=int, required=True, help="token budget per language")
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-base", help="train the dense backbone")
    p.add_argument("--config", required=True, help="JSON model config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--group", required=True)
    _add_training_options(p, 300)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("profile", help="per-layer similarity profile")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--old", required=True, help="comma-separated old group ids")
    p.add_argument("--new", required=True, help="comma-separated new group ids")
    p.add_argument("--q", type=int, default=512)
    p.add_argument("--literal-new-new", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("allocate", help="turn a profile into an expert plan")
    p.add_argument("--profile", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("expand", help="upcycle a dense model and run stage 1")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--init", choices=("inherit", "random"), default="inherit")
    _add_training_options(p, 400, "balance_weight")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("review", help="stage-2 router review with classifiers")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--classifier-count", type=int, default=0)
    p.add_argument("--q", type=int, default=512)
    p.add_argument("--ratio-old", type=int, default=1)
    p.add_argument("--ratio-new", type=int, default=2)
    _add_training_options(p, 200, "lpr_weight", "cls_weight")
    p.add_argument("--cls-mode", choices=("standard_ce", "literal_paper"), default="standard_ce")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="per-language perplexity and routing stats")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("plain", "gated"), default="plain")
    p.add_argument("--old-groups", default="")
    p.add_argument("--max-sequences", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run-pipeline", help="full single/lifelong expansion pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)

    return parser


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "train-base": _cmd_train_base,
    "profile": _cmd_profile,
    "allocate": _cmd_allocate,
    "expand": _cmd_expand,
    "review": _cmd_review,
    "eval": _cmd_eval,
    "run-pipeline": _cmd_run_pipeline,
    "replay": _cmd_replay,
}
_ARGUMENT = lambda v: v is None or isinstance(v, (bool, int, float, str))
_MANIFEST = {
    "command": set(_COMMANDS) - {"replay"},
    # replay repeats a flag per list item; --set is the one repeatable option.
    "arguments": Map(_ARGUMENT, {"set": lambda v: v is None or not problems(v, [str])}),
    "outputs": Map({"sha256": str}),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run-pipeline":
            env = os.environ.get("LAYERMOE_OVERRIDES", "").split(";")
            args.set = [pair for pair in env if pair.strip()] + (args.set or []) or None
        # A computation that overflows or turns NaN fails the command with
        # one error record, instead of numpy warnings ahead of a later error.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outputs = _COMMANDS[args.command](args)
        if args.command != "replay":
            _write_manifest(args.command, vars(args), outputs)
        for name, path in outputs.items():
            print(f"{name}\t{path}")
        return 0
    except (LayerMoEError, OSError, FloatingPointError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
