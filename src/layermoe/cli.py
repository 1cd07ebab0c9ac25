"""Command-line front door: corpus generation, base training, profiling,
allocation, expansion, review, evaluation, and full pipelines.

Every artifact-producing command writes a manifest (``<out>.manifest.json``)
holding the resolved arguments, package version, and output hashes; the
``replay`` command re-runs a manifest and fails unless every output's sha256
matches the recorded one. Errors exit 2 with a one-line JSON record on stderr.

Pipeline config precedence: file < LAYERMOE_OVERRIDES environment variable
(semicolon-separated dotted key=value pairs) < repeated ``--set key=value``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .allocator import allocate, load_plan, save_plan
from .corpus import TaggedCorpus, generate, language_specs, required_vocab
from .errors import ConfigurationError, FormatError, InvalidInputError, LayerMoEError
from .model import DenseModel, ModelConfig, MoEModel, load_model, save_model
from .numerics import derive_seed
from .profiler import profile_similarity, save_profile, select_classifier_layers
from .trainer import (
    TrainingRecipe,
    evaluate,
    lifelong_expand,
    save_reports_csv,
    stage1_train,
    stage2_train,
    train_dense,
)
from .model import add_classifiers, upcycle


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


def _write_manifest(command: str, args: dict, outputs: dict[str, Path]) -> Path:
    primary = next(iter(outputs.values()))
    manifest = {
        "command": command,
        "arguments": {k: v for k, v in args.items() if k not in ("func", "command")},
        "package_version": __version__,
        "outputs": {
            name: {"path": str(path), "sha256": _sha256(path)} for name, path in outputs.items()
        },
    }
    path = Path(str(primary) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None


def _groups_arg(value: str) -> list[str]:
    return [part for part in value.split(",") if part]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(args) -> dict[str, Path]:
    spec_cfg = _load_json(args.spec)
    if not isinstance(spec_cfg, dict) or not isinstance(spec_cfg.get("groups"), dict):
        raise FormatError(f"{args.spec}: a corpus spec needs a 'groups' object")
    specs = language_specs(
        spec_cfg["groups"],
        block_size=spec_cfg.get("block_size", 48),
        shared_size=spec_cfg.get("shared_size"),
        overlap=spec_cfg.get("overlap", 0.0),
        seed=args.seed,
    )
    corpus = generate(specs, args.tokens, args.seq_len, args.seed)
    out = Path(args.out)
    corpus.save_jsonl(out)
    return {"corpus": out}


def _cmd_train_base(args) -> dict[str, Path]:
    model_cfg = _load_json(args.config)
    if not isinstance(model_cfg, dict):
        raise FormatError(f"{args.config}: a model config is a JSON object")
    config = ModelConfig.from_dict({"seed": args.seed, **model_cfg})
    corpus = TaggedCorpus.load_jsonl(args.corpus).subset_groups([args.group])
    if len(corpus) == 0:
        raise InvalidInputError(f"corpus has no sequences in group {args.group!r}")
    if corpus.sequences.max() >= config.vocab:
        raise InvalidInputError("corpus token ids exceed the model vocabulary")
    model = DenseModel.create(config, groups=(args.group,))
    recipe = TrainingRecipe(
        stage="dense",
        steps=args.steps,
        batch_size=args.batch_size,
        seed=derive_seed(args.seed, "train-base"),
        learning_rate=args.learning_rate,
        momentum=args.momentum,
    )
    reports = train_dense(model, corpus, recipe)
    out = Path(args.out)
    save_model(model, out)
    losses = out.with_suffix(out.suffix + ".losses.csv")
    save_reports_csv(reports, losses)
    return {"model": out, "losses": losses}


def _profile_languages(corpus, old_groups, new_groups):
    group_of = corpus.group_of()
    old = [l for l in corpus.language_set() if group_of[l] in set(old_groups)]
    new = [l for l in corpus.language_set() if group_of[l] in set(new_groups)]
    if not old or not new:
        raise InvalidInputError("old/new groups not found in the corpus")
    return old, new


def _cmd_profile(args) -> dict[str, Path]:
    model = load_model(args.model)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    old, new = _profile_languages(corpus, _groups_arg(args.old), _groups_arg(args.new))
    profile = profile_similarity(
        model,
        corpus,
        old,
        new,
        q=args.q,
        seed=args.seed,
        literal_new_new=args.literal_new_new,
    )
    out = Path(args.out)
    csv_out = out.with_suffix(".csv")
    save_profile(profile, out, csv_path=csv_out)
    return {"profile": out, "profile_csv": csv_out}


def _cmd_allocate(args) -> dict[str, Path]:
    from .profiler import load_profile

    profile = load_profile(args.profile)
    plan = allocate(profile.indicated, args.budget)
    plan = replace(plan, meta={"profile": profile.meta, "mode": "layerwise"})
    out = Path(args.out)
    save_plan(plan, out, csv_path=out.with_suffix(".csv"))
    return {"plan": out, "plan_csv": out.with_suffix(".csv")}


def _stage1_recipe(args) -> TrainingRecipe:
    return TrainingRecipe(
        stage="stage1",
        steps=args.steps,
        batch_size=args.batch_size,
        seed=derive_seed(args.seed, "stage1"),
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        balance_weight=args.balance_weight,
    )


def _cmd_expand(args) -> dict[str, Path]:
    dense = load_model(args.model)
    if not isinstance(dense, DenseModel):
        raise ConfigurationError("expand starts from a dense checkpoint")
    plan = load_plan(args.plan)
    corpus = TaggedCorpus.load_jsonl(args.corpus).subset_groups([args.group])
    model = upcycle(dense, plan, args.group, init=args.init)
    model, reports = stage1_train(model, corpus, _stage1_recipe(args))
    out = Path(args.out)
    save_model(model, out)
    losses = out.with_suffix(out.suffix + ".losses.csv")
    save_reports_csv(reports, losses)
    return {"model": out, "losses": losses}


def _cmd_review(args) -> dict[str, Path]:
    from .corpus import review_mixture

    model = load_model(args.model)
    if not isinstance(model, MoEModel):
        raise ConfigurationError("review needs an expanded checkpoint")
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    new_group = model.expansion_history[-1].group
    layers: tuple[int, ...] = ()
    profile_out = None
    if args.classifier_count > 0:
        old, new = _profile_languages(corpus, model.old_groups, [new_group])
        profile = profile_similarity(
            model, corpus, old, new, q=args.q, seed=derive_seed(args.seed, "review-profile")
        )
        layers = select_classifier_layers(profile.new_old, args.classifier_count)
        add_classifiers(model, layers)
        profile_out = Path(args.out).with_suffix(".profile.json")
        save_profile(profile, profile_out)
    recipe = TrainingRecipe(
        stage="stage2",
        steps=args.steps,
        batch_size=args.batch_size,
        seed=derive_seed(args.seed, "stage2"),
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        lpr_weight=args.lpr_weight,
        cls_weight=args.cls_weight if layers else 0.0,
        cls_mode=args.cls_mode,
    )
    review = review_mixture(
        corpus.subset_groups(model.old_groups),
        corpus.subset_groups([new_group]),
        args.ratio_old,
        args.ratio_new,
        derive_seed(args.seed, "review-mix"),
    )
    model, reports = stage2_train(model, review, recipe, layers)
    out = Path(args.out)
    save_model(model, out)
    losses = out.with_suffix(out.suffix + ".losses.csv")
    save_reports_csv(reports, losses)
    outputs = {"model": out, "losses": losses}
    if profile_out is not None:
        outputs["profile"] = profile_out
        outputs["profile_csv"] = profile_out.with_suffix(".csv")
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


_MISSING = object()


def _of(*types):
    """A check that a value has one of ``types``; a bool is not an int here."""
    return lambda value: not isinstance(value, bool) and isinstance(value, types)


_INT, _NUMBER, _STR, _OBJECT = _of(int), _of(int, float), _of(str), _of(dict)


def _language_groups(groups) -> bool:
    return isinstance(groups, dict) and all(
        isinstance(languages, list) and all(map(_STR, languages)) for languages in groups.values()
    )


def _review_ratio(ratio) -> bool:
    return isinstance(ratio, list) and len(ratio) == 2 and all(_INT(n) and n >= 0 for n in ratio)


# (key, check, required) of every value run_pipeline reads from a training
# stage, from the config, and from each expansion.
_STAGE_KEYS = [("steps", _INT, True), ("batch_size", _INT, True)] + [
    (key, _NUMBER, False)
    for key in ("learning_rate", "momentum", "balance_weight", "lpr_weight", "cls_weight")
]
_PIPELINE_KEYS = [
    ("seed", _INT, False),
    ("languages.groups", _language_groups, True),
    ("languages.block_size", _INT, False),
    ("languages.shared_size", _INT, False),
    ("languages.overlap", _NUMBER, False),
    ("model", _OBJECT, True),
    ("corpus.tokens_per_language", _INT, True),
    ("evaluation", _OBJECT, False),
    ("evaluation.max_sequences_per_language", _INT, False),
    ("evaluation.mode", lambda mode: mode in ("plain", "gated"), False),
    ("base.group", _STR, True),
] + [(f"base.{key}", check, required) for key, check, required in _STAGE_KEYS]
_EXPANSION_KEYS = [
    ("group", _STR, True),
    ("budget", _INT, True),
    ("q", _INT, False),
    ("classifier_count", _INT, False),
    ("review_ratio", _review_ratio, False),
] + [(f"stage{n}.{key}", check, required) for n in (1, 2) for key, check, required in _STAGE_KEYS]


def _get(node, dotted: str):
    """The value at a dotted key path, or _MISSING."""
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _apply_override(config: dict, dotted: str, raw: str) -> None:
    if _get(config, dotted) is _MISSING:
        raise InvalidInputError(f"override path {dotted!r} not in config")
    *keys, last = dotted.split(".")
    node = config
    for key in keys:
        node = node[key]
    try:
        node[last] = json.loads(raw)
    except json.JSONDecodeError:
        node[last] = raw


def _resolve_pipeline_config(args) -> dict:
    config = _load_json(args.config)
    env = os.environ.get("LAYERMOE_OVERRIDES", "")
    pairs = [p for p in env.split(";") if p.strip()]
    pairs += list(args.set or ())
    for pair in pairs:
        if "=" not in pair:
            raise InvalidInputError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        _apply_override(config, key.strip(), value.strip())
    return config


def _check_pipeline_config(config) -> None:
    """Raise FormatError naming every key that run_pipeline reads without a
    default and the config lacks, and every value it reads that fails its
    check: the wrong type (a bool is not an int here), a language group that
    is not a list of strings, a ``review_ratio`` that is not two
    non-negative ints, or an unknown ``evaluation.mode``."""
    expansions = config.get("expansions", []) if isinstance(config, dict) else []
    if not isinstance(expansions, list):
        raise FormatError("pipeline config: 'expansions' must be a list")
    nodes = [("", config, _PIPELINE_KEYS)]
    nodes += [(f"expansions.{i}.", exp, _EXPANSION_KEYS) for i, exp in enumerate(expansions)]
    missing, wrong = [], []
    for prefix, node, keys in nodes:
        for key, check, required in keys:
            value = _get(node, key)
            if value is _MISSING:
                missing += [prefix + key] if required else []
            elif not check(value):
                wrong.append(prefix + key)
    problems = [f"lacks {', '.join(missing)}"] if missing else []
    problems += [f"has a value of the wrong type at {', '.join(wrong)}"] if wrong else []
    if problems:
        raise FormatError(f"pipeline config {'; '.join(problems)}")


def _recipe_from(cfg: dict, stage: str, seed: int) -> TrainingRecipe:
    return TrainingRecipe(
        stage=stage,
        steps=cfg["steps"],
        batch_size=cfg["batch_size"],
        seed=seed,
        learning_rate=cfg.get("learning_rate", 5e-5),
        momentum=cfg.get("momentum", 0.0),
        balance_weight=cfg.get("balance_weight", 0.01),
        lpr_weight=cfg.get("lpr_weight", 0.1),
        cls_weight=cfg.get("cls_weight", 0.1),
        cls_mode=cfg.get("cls_mode", "standard_ce"),
    )


def run_pipeline(config: dict, out_dir: Path) -> dict[str, Path]:
    """Chain corpus generation, dense training, and every configured
    expansion, evaluating after each stage. Deterministic given the config."""
    _check_pipeline_config(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, Path] = {}
    seed = config.get("seed", 0)

    lang_cfg = config["languages"]
    specs = language_specs(
        lang_cfg["groups"],
        block_size=lang_cfg.get("block_size", 48),
        shared_size=lang_cfg.get("shared_size"),
        overlap=lang_cfg.get("overlap", 0.0),
        seed=seed,
    )
    model_config = ModelConfig.from_dict({"seed": seed, **config["model"]})
    if required_vocab(specs) > model_config.vocab:
        raise ConfigurationError(
            f"language layout needs vocab {required_vocab(specs)}, model has {model_config.vocab}"
        )
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
    dense_recipe = _recipe_from(base_cfg, "dense", derive_seed(seed, "base"))
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
            _recipe_from(exp_cfg["stage1"], "stage1", derive_seed(expansion_seed, "stage1")),
            _recipe_from(exp_cfg["stage2"], "stage2", derive_seed(expansion_seed, "stage2")),
            q=exp_cfg.get("q", 512),
            seed=expansion_seed,
            classifier_count=exp_cfg.get("classifier_count"),
            review_ratio=tuple(exp_cfg.get("review_ratio", (1, 2))),
        )
        profile_path = out_dir / f"profile.{tag}.json"
        save_profile(result.profile_before, profile_path)
        outputs[f"profile_{tag}"] = profile_path
        plan_path = out_dir / f"plan.{tag}.json"
        save_plan(result.plan, plan_path, csv_path=plan_path.with_suffix(".csv"))
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

        mode = eval_cfg.get("mode", "gated" if model.classifier_layers else "plain")
        if mode == "gated" and not model.classifier_layers:
            mode = "plain"
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
    resolved.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"config": resolved, **outputs}


def _cmd_replay(args) -> dict[str, Path]:
    manifest = _load_json(args.manifest)
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, str) or command not in _COMMANDS or command == "replay":
        raise FormatError(f"{args.manifest}: no replayable command, found {command!r}")
    arguments, recorded = manifest.get("arguments"), manifest.get("outputs")
    if not isinstance(arguments, dict) or not isinstance(recorded, dict):
        raise FormatError(f"{args.manifest}: a manifest needs 'arguments' and 'outputs' objects")
    replay_args = argparse.Namespace(**arguments)
    try:
        outputs = _COMMANDS[command](replay_args)
    except AttributeError as exc:
        if exc.obj is not replay_args:
            raise
        raise FormatError(f"{args.manifest}: arguments lack {exc.name!r}") from None
    want = {name: e.get("sha256") for name, e in recorded.items() if isinstance(e, dict)}
    found = {name: _sha256(path) for name, path in outputs.items()}
    differ = sorted(n for n in want.keys() | found.keys() if want.get(n) != found.get(n))
    if differ:
        raise FormatError(f"{args.manifest}: replay does not reproduce {', '.join(differ)}")
    _write_manifest(command, vars(replay_args), outputs)
    return outputs


# ---------------------------------------------------------------------------
# argument wiring


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
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=5e-5)
    p.add_argument("--momentum", type=float, default=0.0)
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
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=5e-5)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--balance-weight", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("review", help="stage-2 router review with classifiers")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--classifier-count", type=int, default=0)
    p.add_argument("--q", type=int, default=512)
    p.add_argument("--ratio-old", type=int, default=1)
    p.add_argument("--ratio-new", type=int, default=2)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=5e-5)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--lpr-weight", type=float, default=0.1)
    p.add_argument("--cls-weight", type=float, default=0.1)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        outputs = _COMMANDS[args.command](args)
        if args.command != "replay":
            _write_manifest(args.command, vars(args), outputs)
        for name, path in outputs.items():
            print(f"{name}\t{path}")
        return 0
    except (LayerMoEError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
