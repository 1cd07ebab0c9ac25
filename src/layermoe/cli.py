"""Command-line front door: corpus generation, base training, profiling,
allocation, expansion, review, evaluation, and full pipelines. ``profile``,
``allocate``, ``expand`` and ``review`` run the steps of any expansion of
``run-pipeline``, later ones included (``expand`` upcycles a dense checkpoint
or extends an expanded one), and write its bytes: they take no setting that
a pipeline config cannot give. ``--seed`` is the pipeline seed, the one seed
a caller gives: the model's initialisation is drawn from it (a model config
has no seed), and each step derives its own from it as
``trainer.expansion_seed`` lists. The old groups are those the checkpoint
knows before the expansion. ``review`` places classifiers from the profile
that ``profile`` wrote, so an expansion is profiled once. Run with their
defaults, ``review`` and ``eval`` apply the pipeline's classifier count and
evaluation mode.

Each artifact is one file, save that metrics also get a CSV mirror. Every
artifact-producing command writes a manifest (``<out>.manifest.json``) holding
the resolved arguments, package version, and output hashes. The ``replay``
command rebuilds a command line from a manifest's arguments, parses it with the
same parser as ``main``, re-runs it into a fresh temporary directory, and fails
unless every output's sha256 matches the recorded one; it writes none of the
recorded files. Errors exit 2 with a one-line JSON record on stderr.

A pipeline config is the file with each repeated ``--set key=value`` applied
in order; the manifest records them, and ``replay`` applies them again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import allocate, load_plan, save_plan
from .corpus import TaggedCorpus, generate, language_specs, required_vocab
from .errors import ConfigurationError, FormatError, InvalidInputError, LayerMoEError
from .model import Model, ModelConfig, load_model, save_model
from .model.config import MODEL_SPEC
from .numerics import derive_seed
from .profiler import PROFILE_Q, draw_sequences, load_profile, save_profile
from .schema import Int, Map, check, load_json, problems, save_json
from .trainer import (
    STAGE_SETTINGS,
    TrainingRecipe,
    evaluate,
    expand,
    lifelong_expand,
    profile_before,
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
        "arguments": {k: v for k, v in args.items() if k != "command"},
        "package_version": __version__,
        "outputs": {
            name: {"path": str(path), "sha256": _sha256(path)} for name, path in outputs.items()
        },
    }
    save_json(f"{primary}.manifest.json", manifest)


# A language layout, as in gen-corpus --spec and a pipeline's "languages":
# the keyword arguments of corpus.language_specs, less the seed.
_LANGUAGES = {"groups": Map([str]), "block_size?": int, "shared_size?": int, "overlap?": float}

# A model config, as in train-base --config and a pipeline's "model": the
# checkpoint's, less the seed, which is the pipeline seed.
_MODEL = {key: spec for key, spec in MODEL_SPEC.items() if key != "seed?"}


def _recipe(values: dict, stage: str) -> TrainingRecipe:
    """A stage's recipe from a pipeline stage config or a command's
    arguments; a rate that ``values`` lacks keeps its TrainingRecipe default."""
    names = [f.name for f in fields(TrainingRecipe) if f.name != "stage"]
    return TrainingRecipe(stage, **{n: values[n] for n in names if n in values})


def _save_trained(model, reports, out: str) -> dict[str, Path]:
    """A trained checkpoint plus its per-step losses in ``<out>.losses.csv``."""
    out = Path(out)
    save_model(model, out)
    losses = out.with_suffix(out.suffix + ".losses.csv")
    save_reports_csv(reports, losses)
    return {"model": out, "losses": losses}


def _save_metrics(metrics, path: Path) -> Path:
    """Metrics as JSON plus a CSV mirror, whose path is returned. The mirror
    is the one left, and stays until the benchmark no longer wraps
    ``EvalMetrics.save_csv`` (ROADMAP item 3)."""
    metrics.save_json(path)
    return metrics.save_csv(path.with_suffix(".csv"))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_corpus(args) -> dict[str, Path]:
    spec_cfg = check(load_json(args.spec), _LANGUAGES, f"{args.spec}: corpus spec")
    specs = language_specs(**spec_cfg, seed=args.seed)
    corpus = generate(specs, args.tokens, args.seq_len, derive_seed(args.seed, "corpus"))
    out = Path(args.out)
    corpus.save_jsonl(out)
    return {"corpus": out}


def _cmd_train_base(args) -> dict[str, Path]:
    model_cfg = check(load_json(args.config), _MODEL, f"{args.config}: model config")
    config = ModelConfig(**model_cfg, seed=args.seed)
    corpus = TaggedCorpus.load_jsonl(args.corpus).subset_groups([args.group])
    if len(corpus) == 0:
        raise InvalidInputError(f"corpus has no sequences in group {args.group!r}")
    model = Model.create(config, groups=(args.group,))
    reports = train_dense(model, corpus, _recipe(vars(args), "dense"), args.seed)
    return _save_trained(model, reports, args.out)


def _cmd_profile(args) -> dict[str, Path]:
    model = load_model(args.model)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    profile = profile_before(model, corpus, args.group, args.seed, q=args.q)
    save_profile(profile, args.out)
    return {"profile": Path(args.out)}


def _cmd_allocate(args) -> dict[str, Path]:
    profile = load_profile(args.profile)
    plan = allocate(profile.indicated, args.budget)
    save_plan(plan, args.out)
    return {"plan": Path(args.out)}


def _cmd_expand(args) -> dict[str, Path]:
    model = load_model(args.model)
    plan = load_plan(args.plan)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    recipe = _recipe(vars(args), "stage1")
    model, reports = expand(model, plan, corpus, args.group, recipe, args.seed)
    return _save_trained(model, reports, args.out)


def _cmd_review(args) -> dict[str, Path]:
    model = load_model(args.model)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    model, reports = review(model, corpus, _recipe(vars(args), "stage2"), args.seed,
                            load_profile(args.profile), classifier_count=args.classifier_count)
    return _save_trained(model, reports, args.out)


def _cmd_eval(args) -> dict[str, Path]:
    model = load_model(args.model)
    corpus = TaggedCorpus.load_jsonl(args.corpus)
    metrics = evaluate(model, corpus, args.mode, max_sequences_per_language=args.max_sequences)
    out = Path(args.out)
    return {"metrics": out, "metrics_csv": _save_metrics(metrics, out)}


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


def _stage_spec(stage: str) -> dict:
    """A pipeline stage: its size, its rates, and the settings it reads."""
    rates = ("learning_rate", "momentum", *STAGE_SETTINGS[stage])
    return {"steps": int, "batch_size": int, **{f"{n}?": float for n in rates}}


# Every value run_pipeline reads, and nothing else.
_PIPELINE = {
    "seed?": int,
    "languages": _LANGUAGES,
    "model": _MODEL,
    "corpus": {"tokens_per_language": int},
    "evaluation?": {"max_sequences_per_language?": Int(1)},
    "base": {"group": str, **_stage_spec("dense")},
    "expansions?": [
        {"group": str, "budget": int, "q?": Int(2), "classifier_count?": int,
         "stage1": _stage_spec("stage1"), "stage2": _stage_spec("stage2")}
    ],
}


def run_pipeline(config: dict, out_dir: Path) -> dict[str, Path]:
    """Chain corpus generation, dense training, and every configured
    expansion, evaluating after each stage. Deterministic given the config."""
    check(config, _PIPELINE, "pipeline config")
    outputs: dict[str, Path] = {}
    seed = config.get("seed", 0)

    specs = language_specs(**config["languages"], seed=seed)
    model_config = ModelConfig(**config["model"], seed=seed)
    if required_vocab(specs) > model_config.vocab:
        raise ConfigurationError(
            f"language layout needs vocab {required_vocab(specs)}, model has {model_config.vocab}"
        )
    expansions = config.get("expansions", [])
    layers = model_config.layers
    for index, exp_cfg in enumerate(expansions):
        count, budget = exp_cfg.get("classifier_count"), exp_cfg["budget"]
        if count is not None and not 0 <= count <= layers:
            raise ConfigurationError(
                f"expansions.{index}.classifier_count {count} outside 0..{layers}")
        if budget < layers:
            raise ConfigurationError(
                f"expansions.{index}.budget {budget} cannot give {layers} layers one expert each")
    # Each group trains once, in order: the base's, then each expansion's.
    named = [("base.group", config["base"]["group"])]
    named += [(f"expansions.{i}.group", exp_cfg["group"]) for i, exp_cfg in enumerate(expansions)]
    for index, (key, group) in enumerate(named):
        if not config["languages"]["groups"].get(group):
            raise ConfigurationError(f"{key} {group!r} has no languages in languages.groups")
        if group in [earlier for _, earlier in named[:index]]:
            raise ConfigurationError(f"{key} {group!r} is already proficient")
    dense_recipe = _recipe(config["base"], "dense")
    stage_recipes = [(_recipe(e["stage1"], "stage1"), _recipe(e["stage2"], "stage2"))
                     for e in expansions]
    base_group = config["base"]["group"]
    dense = Model.create(model_config, groups=(base_group,))
    tokens = config["corpus"]["tokens_per_language"]
    corpus = generate(specs, tokens, model_config.context, derive_seed(seed, "corpus"))
    for index, exp_cfg in enumerate(expansions):  # each profile's languages hold its sample
        for language in corpus.languages_in([group for _, group in named[: index + 2]]):
            draw_sequences(corpus, language, exp_cfg.get("q", PROFILE_Q), seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    def put(name: str, filename: str, save, value) -> None:
        # The metrics saver also writes a CSV mirror and returns its path.
        outputs[name] = out_dir / filename
        if (mirror := save(value, outputs[name])) is not None:
            outputs[f"csv_{name}"] = mirror

    put("corpus", "corpus.jsonl", TaggedCorpus.save_jsonl, corpus)

    base_reports = train_dense(dense, corpus.subset_groups([base_group]), dense_recipe, seed)
    put("base", "base.lmoe", save_model, dense)
    put("base_losses", "base.losses.csv", save_reports_csv, base_reports)

    eval_cfg = config.get("evaluation", {})
    max_sequences = eval_cfg.get("max_sequences_per_language")
    base_metrics = evaluate(dense, corpus, max_sequences_per_language=max_sequences)
    put("metrics_base", "metrics.base.json", _save_metrics, base_metrics)

    model = dense
    for index, (exp_cfg, (recipe1, recipe2)) in enumerate(zip(expansions, stage_recipes)):
        group = exp_cfg["group"]
        tag = f"{index}_{group}"
        model, result = lifelong_expand(
            model,
            corpus,
            group,
            exp_cfg["budget"],
            recipe1,
            recipe2,
            seed,
            **{k: exp_cfg[k] for k in ("q", "classifier_count") if k in exp_cfg},
        )
        put(f"profile_{tag}", f"profile.{tag}.json", save_profile, result.profile_before)
        put(f"plan_{tag}", f"plan.{tag}.json", save_plan, result.plan)
        for stage, reports in [("stage1", result.stage1_reports),
                               ("stage2", result.stage2_reports)]:
            put(f"{stage}_losses_{tag}", f"{stage}.{tag}.losses.csv", save_reports_csv, reports)
        put(f"model_{tag}", f"model.{tag}.lmoe", save_model, model)

        metrics = evaluate(model, corpus, max_sequences_per_language=max_sequences)
        put(f"metrics_{tag}", f"metrics.{tag}.json", _save_metrics, metrics)
    return outputs


def _cmd_run_pipeline(args) -> dict[str, Path]:
    config = load_json(args.config)
    for pair in args.set or ():
        if "=" not in pair:
            raise InvalidInputError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        _apply_override(config, key.strip(), value.strip())
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
    # An argument recorded as None or False adds no flag, so the parser
    # cannot see it; the command must still take it.
    unknown = sorted(manifest["arguments"].keys() - vars(replay_args).keys())
    if unknown:
        raise FormatError(f"{args.manifest}: arguments: {manifest['command']} takes no"
                          f" {', '.join(unknown)}")
    # The outputs go to a fresh directory under their recorded names, so
    # that the recorded files stay as they are whatever the result.
    with tempfile.TemporaryDirectory() as scratch:
        for dest in {"out", "out_dir"} & vars(replay_args).keys():
            setattr(replay_args, dest, str(Path(scratch, Path(getattr(replay_args, dest)).name)))
        outputs = _COMMANDS[replay_args.command](replay_args)
        found = {name: _sha256(path) for name, path in outputs.items()}
    want = {name: entry["sha256"] for name, entry in manifest["outputs"].items()}
    differ = sorted(n for n in want.keys() | found.keys() if want.get(n) != found.get(n))
    if differ:
        raise FormatError(f"{args.manifest}: replay does not reproduce {', '.join(differ)}")
    return {name: Path(entry["path"]) for name, entry in manifest["outputs"].items()
            if "path" in entry}


# ---------------------------------------------------------------------------
# argument wiring


def _add_training_options(p, stage: str, steps: int) -> None:
    """Step and batch options, then the rates and the settings that
    ``stage`` reads (``STAGE_SETTINGS``), with TrainingRecipe's defaults."""
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--batch-size", type=int, default=8)
    defaults = {f.name: f.default for f in fields(TrainingRecipe)}
    for name in ("learning_rate", "momentum", *STAGE_SETTINGS[stage]):
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
    _add_training_options(p, "dense", 300)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("profile", help="per-layer similarity profile")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--group", required=True, help="the new group; the model's groups are old")
    p.add_argument("--q", type=int, default=PROFILE_Q,
                   help="at least Q token positions per language, taken as whole sequences")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("allocate", help="turn a profile into an expert plan")
    p.add_argument("--profile", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("expand", help="add a group's experts to a model and run stage 1")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--group", required=True)
    _add_training_options(p, "stage1", 400)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("review", help="stage-2 router review with classifiers")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--profile", required=True, help="the expansion's profile, as profile wrote it")
    p.add_argument("--classifier-count", type=int, default=None)
    _add_training_options(p, "stage2", 200)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="per-language perplexity and routing stats")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("plain", "gated"), default=None)
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
    # replay reads only each output's sha256; the rest is named so that it loads.
    "package_version?": str,
    "outputs": Map({"path?": str, "sha256": str}),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
