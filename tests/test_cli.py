"""The CLI: every command runs end to end and replays to the same bytes, and
a malformed input file exits 2 with one JSON line on stderr and no
traceback."""

import copy
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layermoe
from layermoe.allocator import load_plan
from layermoe import trainer
from layermoe.cli import main, run_pipeline
from layermoe.model import DenseModel, ModelConfig, load_model, save_model, upcycle
from layermoe.profiler import (
    SimilarityProfile,
    indicated_similarity,
    load_profile,
    save_profile,
    select_classifier_layers,
)
from layermoe.schema import save_csv
from pipeline_hashes import pipeline_config as pipeline_hashes_config
from util import read_header, write_checkpoint

TINY_MODEL = {"layers": 2, "hidden": 8, "heads": 2, "vocab": 32, "ffn": 8, "context": 8}
# A complete checkpoint-header config, so that a header test fails on its params alone.
HEADER_CONFIG = {**TINY_MODEL, "layers": 1}


def run_failing(argv, capsys) -> dict:
    assert main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def write_json(path, record):
    path.write_text(json.dumps(record), encoding="utf-8")
    return str(path)


def test_allocate_rejects_profile_without_layers(tmp_path, capsys):
    profile = write_json(tmp_path / "profile.json", {"pairs": {}})
    argv = ["allocate", "--profile", profile, "--budget", "4", "--out", str(tmp_path / "p.json")]
    assert run_failing(argv, capsys)["error"] == "FormatError"


def test_allocate_names_the_layer_whose_similarity_is_not_positive(tmp_path, capsys):
    layers = [{"index": i, "s_new_old": s, "s_new_new": None, "s": s}
              for i, s in enumerate([0.4, -0.05, 0.2])]
    profile = write_json(tmp_path / "profile.json", {
        "layers": layers, "pairs": {"a|b": [0.4, -0.05, 0.2]},
        "old_languages": ["a"], "new_languages": ["b"]})
    argv = ["allocate", "--profile", profile, "--budget", "4", "--out", str(tmp_path / "p.json")]
    record = run_failing(argv, capsys)
    assert record["error"] == "UnsupportedSimilarityError"
    assert record["message"].endswith("layer 1 has similarity -0.05")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]


def test_allocate_rejects_a_budget_beyond_float64s_range(tmp_path, capsys):
    """At the parent the budget's conversion to float overflowed: a
    traceback and exit 1."""
    profile = write_json(tmp_path / "profile.json", {
        "layers": [{"index": 0, "s_new_old": 0.5, "s_new_new": None, "s": 0.5}],
        "pairs": {"a|b": [0.5]}, "old_languages": ["a"], "new_languages": ["b"]})
    argv = ["allocate", "--profile", profile, "--budget", str(10**400)]
    record = run_failing(argv + ["--out", str(tmp_path / "p.json")], capsys)
    assert record == {"error": "BudgetError",
                      "message": "budget of 401 digits is beyond float64's range"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]


def test_deeply_nested_json_is_rejected(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["allocate", "--profile", str(profile), "--budget", "4", "--out", str(tmp_path / "p.json")]
    assert run_failing(argv, capsys)["error"] == "FormatError"


def test_gen_corpus_rejects_spec_without_groups(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"block_size": 8})
    argv = ["gen-corpus", "--spec", spec, "--tokens", "64", "--seq-len", "8"]
    argv += ["--out", str(tmp_path / "corpus.jsonl")]
    assert run_failing(argv, capsys)["error"] == "FormatError"


@pytest.mark.parametrize("length", ["0", "-1"])
def test_gen_corpus_rejects_a_sequence_length_below_two(tmp_path, capsys, length):
    spec = write_json(tmp_path / "spec.json", {"groups": {"g0": ["a"]}, "block_size": 8})
    argv = ["gen-corpus", "--spec", spec, "--tokens", "64", "--seq-len", length]
    record = run_failing(argv + ["--out", str(tmp_path / "corpus.jsonl")], capsys)
    assert record == {"error": "InvalidInputError", "message": "sequence length must be >= 2"}
    assert not (tmp_path / "corpus.jsonl").exists()


@pytest.mark.parametrize("name", ["a|1", ""])
def test_gen_corpus_rejects_a_language_name_a_profile_cannot_hold(tmp_path, capsys, name):
    """A profile names a language pair by two names joined by "|". Such a
    name gave a corpus, a base and a profile, and then ``allocate`` exited 2
    with ``profile pairs key 'a|1|b0' is not two names joined by '|'``."""
    spec = write_json(tmp_path / "spec.json", {"groups": {"g0": [name, "a2"], "g1": ["b0", "b1"]}})
    argv = ["gen-corpus", "--spec", spec, "--tokens", "64", "--seq-len", "8"]
    record = run_failing(argv + ["--out", str(tmp_path / "corpus.jsonl")], capsys)
    assert record == {"error": "InvalidInputError",
                      "message": f"language name {name!r} is empty or holds '|'"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_expand_rejects_plan_that_breaks_its_invariants(tmp_path, capsys):
    config = ModelConfig(layers=2, hidden=8, heads=2, vocab=32, ffn=8, context=8)
    model = tmp_path / "dense.lmoe"
    save_model(DenseModel.create(config, groups=("g0",)), model)
    layers = [
        {"index": 0, "similarity": 0.5, "new_experts": 7},
        {"index": 1, "similarity": 0.4, "new_experts": 0},
    ]
    plan = tmp_path / "plan.json"
    argv = ["expand", "--model", str(model), "--plan", str(plan), "--group", "g1"]
    argv += ["--corpus", str(tmp_path / "c.jsonl"), "--steps", "1", "--out", str(tmp_path / "m")]
    write_json(plan, {"budget": 99, "layers": layers})
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    assert "lacks layers.0.raw, layers.0.pre_reconciliation" in record["message"]

    for row in layers:
        row.update(raw=float(row["new_experts"]), pre_reconciliation=row["new_experts"])
    write_json(plan, {"budget": 99, "layers": layers})
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    assert "new_experts at layer 0 is 7, allocate gives 44" in record["message"]


def test_run_pipeline_rejects_config_without_languages(tmp_path, capsys):
    config = write_json(tmp_path / "pipeline.json", {"seed": 1})
    argv = ["run-pipeline", "--config", config, "--out-dir", str(tmp_path / "out")]
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    for key in ("languages.groups", "model", "corpus.tokens_per_language", "base.group"):
        assert key in record["message"]
    assert not (tmp_path / "out").exists()


def test_run_pipeline_names_every_missing_stage_key(tmp_path, capsys):
    record = {
        "languages": {},
        "model": {},
        "corpus": {"tokens_per_language": 64},
        "base": {"group": "g0", "steps": 1},
        "expansions": [{"group": "g1", "budget": 2, "stage1": {"steps": 1}, "stage2": {}}],
    }
    config = write_json(tmp_path / "pipeline.json", record)
    argv = ["run-pipeline", "--config", config, "--out-dir", str(tmp_path / "out")]
    message = run_failing(argv, capsys)["message"]
    missing = [
        "languages.groups",
        *(f"model.{key}" for key in TINY_MODEL),
        "base.batch_size",
        "expansions.0.stage1.batch_size",
        "expansions.0.stage2.steps",
        "expansions.0.stage2.batch_size",
    ]
    assert message.endswith("lacks " + ", ".join(missing))


def test_eval_rejects_checkpoint_missing_an_expert_weight(tmp_path, capsys):
    config = ModelConfig(layers=2, hidden=8, heads=2, vocab=32, ffn=8, context=8)
    model = upcycle(DenseModel.create(config, groups=("g0",)), [1, 2], "g1")
    del model.params["blocks.1.experts.1.up"]
    path = tmp_path / "moe.lmoe"
    save_model(model, path)
    argv = ["eval", "--model", str(path), "--corpus", str(tmp_path / "c.jsonl")]
    argv += ["--out", str(tmp_path / "metrics.json")]
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    assert "blocks.1.experts.1.up" in record["message"]


def pipeline_config(**changes):
    """A complete tiny run-pipeline config, with top-level keys replaced."""
    stage = {"steps": 1, "batch_size": 2}
    record = {
        "seed": 1,
        "languages": {"groups": {"g0": ["a"], "g1": ["b"]}, "block_size": 8},
        "model": TINY_MODEL,
        "corpus": {"tokens_per_language": 64},
        "base": {"group": "g0", **stage},
        "expansions": [{"group": "g1", "budget": 2, "q": 8, "stage1": dict(stage),
                        "stage2": dict(stage)}],
    }
    record.update(changes)
    return record


def test_run_pipeline_rejects_values_of_the_wrong_type(tmp_path, capsys):
    config = pipeline_config(base={"group": "g0", "steps": "2", "batch_size": 2, "momentum": True})
    config["expansions"][0]["budget"] = "4"
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert record["error"] == "FormatError"
    assert record["message"].endswith(
        "wrong type at base.steps, base.momentum, expansions.0.budget"
    )


@pytest.mark.parametrize(
    "change, wrong",
    [
        ({"seed": "1"}, "seed"),
        ({"languages": {"groups": {"g0": "ab", "g1": ["b"]}}}, "languages.groups.g0"),
        (
            {"languages": {"groups": {"g0": ["a"]}, "block_size": 8.0, "overlap": "0.3"}},
            "languages.block_size, languages.overlap",
        ),
        (
            {"evaluation": {"max_sequences_per_language": "8"}},
            "evaluation.max_sequences_per_language",
        ),
        (
            {"evaluation": {"max_sequences_per_language": 0}},
            "evaluation.max_sequences_per_language",
        ),
    ],
    ids=[
        "seed",
        "groups",
        "language-layout",
        "eval-sequences",
        "eval-no-sequences",
    ],
)
def test_run_pipeline_checks_every_value_it_reads(tmp_path, capsys, change, wrong):
    config = pipeline_config()
    config.update(change)
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert record["error"] == "FormatError"
    assert record["message"].endswith("wrong type at " + wrong)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "path, value",
    [
        (("evaluation", "mode"), "plain"),
        (("expansions", 0, "review_ratio"), [1, 2]),
        (("model", "seed"), 7),
        (("expansions", 0, "stage2", "cls_mode"), "standard_ce"),
    ],
    ids=["eval-mode", "review-ratio", "model-seed", "stage2-cls-mode"],
)
def test_run_pipeline_rejects_the_settings_nothing_set(tmp_path, capsys, path, value):
    """No pipeline set ``evaluation.mode``, ``review_ratio`` or stage 2's
    ``cls_mode`` to anything but its default, which is now the only
    behaviour: evaluation runs gated exactly when the model has classifiers,
    a review samples 1:2 old to new, and the classifier loss is the
    two-class cross-entropy over every language token. ``model.seed``
    overrode the pipeline seed for initialisation alone."""
    config = pipeline_config(evaluation={}, model=dict(TINY_MODEL))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    named = ".".join(map(str, path))
    assert record == {"error": "FormatError",
                      "message": f"pipeline config has unknown keys {named}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.json"]


@pytest.mark.parametrize("count", [9, -1])
def test_run_pipeline_rejects_a_classifier_count_beyond_the_layers(tmp_path, capsys, count):
    config = pipeline_config()
    config["expansions"][0]["classifier_count"] = count
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert record["error"] == "ConfigurationError"
    assert f"expansions.0.classifier_count {count} outside 0..2" in record["message"]
    assert not (tmp_path / "out").exists()


def test_run_pipeline_rejects_an_empty_model_config(tmp_path, capsys):
    config = write_json(tmp_path / "pipeline.json", pipeline_config(model={}))
    argv = ["run-pipeline", "--config", config, "--out-dir", str(tmp_path / "out")]
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    missing = ", ".join(f"model.{key}" for key in TINY_MODEL)
    assert record["message"] == f"pipeline config lacks {missing}"


@pytest.mark.parametrize(
    "model, error, details",
    [
        (
            {**TINY_MODEL, "hidden": 8.0, "dropout": 0.1},
            "FormatError",
            ["wrong type at hidden", "unknown keys dropout"],
        ),
        ([2, 8], "FormatError", ["model config has a value of the wrong type at the top level"]),
    ],
    ids=["bad-keys", "not-an-object"],
)
def test_train_base_rejects_a_malformed_model_config(tmp_path, capsys, model, error, details):
    config = write_json(tmp_path / "model.json", model)
    argv = ["train-base", "--config", config, "--corpus", str(tmp_path / "c.jsonl")]
    record = run_failing(argv + ["--group", "g0", "--out", str(tmp_path / "m.lmoe")], capsys)
    assert record["error"] == error
    assert all(detail in record["message"] for detail in details)


def test_train_base_takes_its_seed_from_seed_alone(artifacts, tmp_path, capsys):
    """A ``seed`` in the model config silently overrode ``--seed`` for the
    initialisation, and for nothing else."""
    config = write_json(tmp_path / "model.json", {**TINY_MODEL, "seed": 7})
    argv = ["train-base", "--config", config, "--corpus", artifacts["c.jsonl"], "--group", "g0"]
    record = run_failing(argv + ["--steps", "1", "--out", str(tmp_path / "m.lmoe")], capsys)
    assert record == {"error": "FormatError",
                      "message": f"{config}: model config has unknown keys seed"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_checkpoint_header_without_params_is_rejected(tmp_path, capsys):
    header = json.dumps({"kind": "dense", "config": HEADER_CONFIG}).encode("utf-8")
    path = tmp_path / "bad.lmoe"
    path.write_bytes(b"LMOE" + struct.pack("<IQ", 1, len(header)) + header)
    argv = ["eval", "--model", str(path), "--corpus", str(tmp_path / "c.jsonl")]
    record = run_failing(argv + ["--out", str(tmp_path / "metrics.json")], capsys)
    assert record["error"] == "FormatError"
    assert "lacks params" in record["message"]


@pytest.mark.parametrize(
    "params, detail",
    [
        ([{"name": "x"}], "lacks params.0.shape"),
        ([{"name": "x", "shape": [2]}, {"name": "y", "shape": [2, True]}], "at params.1.shape.1"),
        ([{"name": "x", "shape": [-1]}], "at params.0.shape.0"),
        ([{"name": 3, "shape": [2]}], "at params.0.name"),
        ({"x": [2]}, "wrong type at config.layers, params"),
    ],
    ids=["no-shape", "bool-dimension", "negative-dimension", "int-name", "not-a-list"],
)
def test_checkpoint_header_with_a_malformed_params_entry_is_rejected(
    tmp_path, capsys, params, detail
):
    header = json.dumps({"kind": "dense", "config": HEADER_CONFIG, "params": params})
    path = tmp_path / "bad.lmoe"
    path.write_bytes(b"LMOE" + struct.pack("<IQ", 1, len(header)) + header.encode("utf-8"))
    argv = ["eval", "--model", str(path), "--corpus", str(tmp_path / "c.jsonl")]
    record = run_failing(argv + ["--out", str(tmp_path / "metrics.json")], capsys)
    assert record["error"] == "FormatError"
    assert detail in record["message"]


@pytest.mark.parametrize(
    "second_line, detail",
    [
        ('{"lang": "a", "group": "g0", "tokens": [0, 2', "JSONDecodeError"),
        ('{"lang": "a", "tokens": [0, 2]}', "lacks group"),
        ('{"lang": "a", "group": "g0", "tokens": "abc"}', "wrong type at tokens"),
        ('{"lang": "a", "group": "g0", "tokens": [0, true]}', "wrong type at tokens.1"),
        ('{"lang": "a", "group": "g0", "tokens": [0, 18446744073709551616]}', "at tokens.1"),
        ('{"lang": 7, "group": "g0", "tokens": [0, 2]}', "wrong type at lang"),
    ],
    ids=["truncated", "no-group", "string-tokens", "bool-token", "huge-token", "int-lang"],
)
def test_malformed_corpus_line_is_rejected(tmp_path, capsys, second_line, detail):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0, 3]}\n' + second_line + "\n")
    argv = ["train-base", "--config", write_json(tmp_path / "model.json", TINY_MODEL)]
    argv += ["--corpus", str(corpus), "--group", "g0", "--out", str(tmp_path / "m.lmoe")]
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    assert "corpus.jsonl:2:" in record["message"] and detail in record["message"]


def test_train_base_rejects_negative_steps(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0, 3, 4]}\n')
    argv = ["train-base", "--config", write_json(tmp_path / "model.json", TINY_MODEL)]
    argv += ["--corpus", str(corpus), "--group", "g0", "--steps", "-1"]
    record = run_failing(argv + ["--out", str(tmp_path / "m.lmoe")], capsys)
    assert record["error"] == "ConfigurationError"
    assert not (tmp_path / "m.lmoe").exists()


@pytest.mark.parametrize("option", ["--learning-rate", "--momentum"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_base_rejects_a_rate_that_is_not_finite(tmp_path, capsys, option, value):
    """A NaN rate used to train one step and save a checkpoint full of NaN."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0, 3, 4]}\n')
    argv = ["train-base", "--config", write_json(tmp_path / "model.json", TINY_MODEL)]
    argv += ["--corpus", str(corpus), "--group", "g0", "--steps", "1", option, value]
    record = run_failing(argv + ["--out", str(tmp_path / "m.lmoe")], capsys)
    assert record["error"] == "ConfigurationError"
    assert "must be finite" in record["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "model.json"]


@pytest.mark.parametrize("option, value", [("--learning-rate", "-0.05"), ("--momentum", "-0.9")])
def test_train_base_rejects_a_negative_rate(tmp_path, capsys, option, value):
    """A negative learning rate used to run gradient ascent and save its
    checkpoint."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0, 3, 4]}\n')
    argv = ["train-base", "--config", write_json(tmp_path / "model.json", TINY_MODEL)]
    argv += ["--corpus", str(corpus), "--group", "g0", "--steps", "1", option, value]
    record = run_failing(argv + ["--out", str(tmp_path / "m.lmoe")], capsys)
    assert record == {"error": "ConfigurationError",
                      "message": "learning rate, momentum and loss weights must be >= 0"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "model.json"]


def test_run_pipeline_rejects_a_negative_learning_rate(tmp_path, capsys):
    """``--set base.learning_rate=-0.05`` used to train the base by gradient
    ascent and write every checkpoint after it."""
    config = pipeline_config()
    config["base"]["learning_rate"] = 0.01
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    out = tmp_path / "out"
    record = run_failing(argv + ["--out-dir", str(out), "--set", "base.learning_rate=-0.05"], capsys)
    assert record == {"error": "ConfigurationError",
                      "message": "learning rate, momentum and loss weights must be >= 0"}
    assert not list(out.glob("*.lmoe"))


@pytest.mark.parametrize(
    "pair, message",
    [("base.learning_rate=-0.05", "learning rate, momentum and loss weights must be >= 0"),
     ("expansions.0.stage1.learning_rate=-0.05",
      "learning rate, momentum and loss weights must be >= 0"),
     ("expansions.0.group=zz", "expansions.0.group 'zz' has no languages in languages.groups"),
     ("expansions.0.group=g0", "expansions.0.group 'g0' is already proficient"),
     ("expansions.1.group=g1", "expansions.1.group 'g1' is already proficient"),
     ("expansions.0.budget=2", "expansions.0.budget 2 cannot give 3 layers one expert each"),
     ("expansions.1.budget=2", "expansions.1.budget 2 cannot give 3 layers one expert each")],
    ids=["negative-base-rate", "negative-stage1-rate", "unknown-group", "base-group",
         "group-expanded-twice", "first-budget-below-layers", "second-budget-below-layers"],
)
def test_a_pipeline_that_cannot_run_writes_no_file(tmp_path, capsys, pair, message):
    """Each failed only when its stage came: the first after the corpus was
    written, the others after the base, its losses and metrics too (and the
    second expansion's after the first expansion's files). A budget below
    the layer count failed in ``allocate`` with a BudgetError."""
    config = pipeline_hashes_config("lifelong", 1)
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    out = tmp_path / "out"
    record = run_failing(argv + ["--out-dir", str(out), "--set", pair], capsys)
    assert record == {"error": "ConfigurationError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "pair, error, message",
    [("model.context=1", "InvalidInputError", "sequence length must be >= 2"),
     ("corpus.tokens_per_language=4", "InvalidInputError",
      "tokens_per_language must be >= sequence_length"),
     ("expansions.0.q=1", "FormatError",
      "pipeline config has a value of the wrong type at expansions.0.q")],
    ids=["context-below-two", "corpus-below-one-sequence", "q-below-two"],
)
def test_a_pipeline_whose_corpus_or_profile_cannot_be_made_writes_no_file(
    tmp_path, capsys, pair, error, message
):
    """The first two left an empty output directory, made before the corpus;
    q 1 failed in the first profile, after the corpus and the base's files."""
    config = pipeline_hashes_config("lifelong", 1)
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    out = tmp_path / "out"
    record = run_failing(argv + ["--out-dir", str(out), "--set", pair], capsys)
    assert record == {"error": error, "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "pair", ["base.learning_rate=NaN", "expansions.0.stage2.cls_weight=Infinity"]
)
def test_run_pipeline_rejects_a_rate_that_is_not_finite(tmp_path, capsys, pair):
    """``--set`` values are JSON as Python reads it, which has NaN and
    Infinity; the config schema turns both away before anything is written."""
    config = pipeline_config()
    config["base"]["learning_rate"] = 0.01
    config["expansions"][0]["stage2"] = {"steps": 1, "batch_size": 2, "cls_weight": 0.1}
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    out = tmp_path / "out"
    record = run_failing(argv + ["--out-dir", str(out), "--set", pair], capsys)
    assert record["error"] == "FormatError"
    assert f"wrong type at {pair.split('=')[0]}" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest, detail",
    [
        ({"arguments": {}, "outputs": {}}, "lacks command"),
        ({"command": "route-stats"}, "wrong type at command"),
        ({"command": "eval", "arguments": {"mode": "plain"}, "outputs": {}}, "--model"),
        (
            {"command": "allocate", "outputs": {},
             "arguments": {"profile": "p.json", "budget": ["2", "3"], "out": "plan.json"}},
            "wrong type at arguments.budget",
        ),
    ],
    ids=["no-command", "unknown-command", "missing-argument", "list-for-a-single-value"],
)
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, manifest, detail):
    argv = ["replay", "--manifest", write_json(tmp_path / "m.manifest.json", manifest)]
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    assert detail in record["message"]


def run_ok(argv, capsys) -> dict[str, str]:
    """Run a command that must succeed; returns its printed outputs."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return dict(line.split("\t") for line in captured.out.splitlines())


def test_every_command_runs_and_replays_to_the_same_bytes(tmp_path, capsys):
    groups = {"g0": ["a"], "g1": ["b"]}
    spec = write_json(tmp_path / "spec.json", {"groups": groups, "block_size": 8, "overlap": 0.8})
    config = write_json(tmp_path / "model.json", TINY_MODEL)
    corpus, base, moe, reviewed, profile, plan = (
        str(tmp_path / name)
        for name in ("c.jsonl", "base.lmoe", "moe.lmoe", "rev.lmoe", "profile.json", "plan.json")
    )
    data = ["--corpus", corpus]
    train = ["--steps", "2", "--batch-size", "4", "--learning-rate", "0.05", "--seed", "3"]
    commands = [
        ["gen-corpus", "--spec", spec, "--tokens", "256", "--seq-len", "8", "--out", corpus],
        ["train-base", "--config", config, *data, "--group", "g0", *train, "--out", base],
        ["profile", "--model", base, *data, "--group", "g1", "--q", "16", "--out", profile],
        ["allocate", "--profile", profile, "--budget", "3", "--out", plan],
        ["expand", "--model", base, "--plan", plan, *data, "--group", "g1", *train, "--out", moe],
        ["review", "--model", moe, *data, "--classifier-count", "1", "--profile", profile, *train]
        + ["--out", reviewed],
        ["eval", "--model", reviewed, *data, "--mode", "gated", "--out", str(tmp_path / "m.json")],
    ]
    manifests = []
    for argv in commands:
        outputs = run_ok(argv, capsys)
        manifests.append(next(iter(outputs.values())) + ".manifest.json")
    assert json.loads((tmp_path / "m.json").read_text())["classifier_accuracy"]

    written = {p: p.read_bytes() for p in tmp_path.iterdir()}
    for manifest in manifests:
        run_ok(["replay", "--manifest", manifest], capsys)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == written

    record = json.loads((tmp_path / "base.lmoe.manifest.json").read_text())
    record["arguments"]["learning_rate"] = 0.5
    tampered = write_json(tmp_path / "base.lmoe.manifest.json", record)
    failure = run_failing(["replay", "--manifest", tampered], capsys)
    assert failure["error"] == "FormatError"
    assert failure["message"].endswith("replay does not reproduce losses, model")
    assert json.loads((tmp_path / "base.lmoe.manifest.json").read_text()) == record


@pytest.mark.parametrize(
    "command, tamper, differ",
    [("gen-corpus", {"seed": 5}, "corpus"), ("run-pipeline", {"set": ["base.steps=2"]}, "base,")],
    ids=["gen-corpus", "run-pipeline"],
)
def test_a_replay_leaves_every_recorded_file_as_it_was(tmp_path, capsys, command, tamper, differ):
    """``replay`` used to re-run a command into its recorded paths, so a
    replay that failed had already overwritten the files it was checking,
    and one that passed rewrote the manifest."""
    if command == "gen-corpus":
        spec = write_json(tmp_path / "spec.json", {"groups": {"g0": ["a"]}, "block_size": 8})
        argv = ["--spec", spec, "--tokens", "64", "--seq-len", "8", "--seed", "1"]
        manifest = tmp_path / "c.jsonl.manifest.json"
        run_ok([command, *argv, "--out", str(tmp_path / "c.jsonl")], capsys)
    else:
        config = write_json(tmp_path / "pipeline.json", pipeline_config())
        manifest = tmp_path / "out" / "pipeline.config.json.manifest.json"
        run_ok([command, "--config", config, "--out-dir", str(tmp_path / "out")], capsys)

    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    record, written = json.loads(manifest.read_text()), files()
    replayed = run_ok(["replay", "--manifest", str(manifest)], capsys)
    assert replayed == {name: entry["path"] for name, entry in record["outputs"].items()}
    assert files() == written

    record["arguments"].update(tamper)
    write_json(manifest, record)
    written = files()
    failure = run_failing(["replay", "--manifest", str(manifest)], capsys)
    assert failure["message"].startswith(f"{manifest}: replay does not reproduce {differ}")
    assert files() == written


def test_the_command_chain_runs_a_second_expansion(tmp_path, capsys):
    """``expand`` used to accept only a dense checkpoint, so the chain could
    not add g2 to the model that g1's review left. Each expansion's steps
    freeze what came before: the dense backbone and g1's experts stay
    bitwise unchanged."""
    # Overlapping languages, as in the one-expansion chain above: allocation
    # needs every layer's similarity to be positive.
    groups = {"g0": ["a"], "g1": ["b"], "g2": ["c"]}
    spec = write_json(tmp_path / "spec.json", {"groups": groups, "block_size": 8, "overlap": 0.8})
    config = write_json(tmp_path / "model.json", {**TINY_MODEL, "vocab": 64})
    corpus, base = str(tmp_path / "c.jsonl"), str(tmp_path / "base.lmoe")
    data = ["--corpus", corpus]
    train = ["--steps", "2", "--batch-size", "4", "--learning-rate", "0.05", "--seed", "3"]
    run_ok(["gen-corpus", "--spec", spec, "--tokens", "256", "--seq-len", "8", "--out", corpus],
           capsys)
    run_ok(["train-base", "--config", config, *data, "--group", "g0", *train, "--out", base],
           capsys)
    model = base
    for group in ("g1", "g2"):
        profile, plan, moe, reviewed = (
            str(tmp_path / f"{kind}.{group}") for kind in ("profile", "plan", "moe", "rev")
        )
        for argv in [
            ["profile", "--model", model, *data, "--group", group, "--q", "16", "--out", profile],
            ["allocate", "--profile", profile, "--budget", "3", "--out", plan],
            ["expand", "--model", model, "--plan", plan, *data, "--group", group, *train]
            + ["--out", moe],
            ["review", "--model", moe, *data, "--classifier-count", "1", "--profile", profile]
            + [*train, "--out", reviewed],
        ]:
            run_ok(argv, capsys)
        model = reviewed

    dense, first, last = (load_model(tmp_path / name) for name in ("base.lmoe", "rev.g1", "rev.g2"))
    assert [e.group for e in last.expansion_history] == ["g1", "g2"]
    for name, param in dense.params.items():
        assert np.array_equal(param.data, last.params[name.replace(".ffn.", ".experts.0.")].data)
    g1_experts = [name for name in first.params if ".experts." in name]
    assert len(first.params) < len(last.params)
    for name in g1_experts:
        assert np.array_equal(first.params[name].data, last.params[name].data), name

    written = {p: p.read_bytes() for p in tmp_path.iterdir()}
    for name in ("moe.g2", "rev.g2"):
        run_ok(["replay", "--manifest", str(tmp_path / f"{name}.manifest.json")], capsys)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == written


def test_the_default_command_chain_reviews_with_classifiers_and_evaluates_gated(tmp_path, capsys):
    """Run with their defaults, ``review`` placed no classifiers and ``eval``
    evaluated plain, where ``run-pipeline`` places min(7, layers) and
    evaluates gated. Now the chain does what the pipeline does: the
    classifiers go on the layers that the expansion's one profile, the one
    that allocated its experts, ranks most similar."""
    groups = {"g0": ["a"], "g1": ["b"]}
    spec = write_json(tmp_path / "spec.json", {"groups": groups, "block_size": 8, "overlap": 0.8})
    config = write_json(tmp_path / "model.json", {**TINY_MODEL, "layers": 8})
    corpus, base, profile, plan, moe, reviewed, metrics = (
        str(tmp_path / name)
        for name in ("c.jsonl", "base.lmoe", "profile.json", "plan.json", "moe.lmoe", "rev.lmoe",
                     "m.json")
    )
    data = ["--corpus", corpus]
    train = ["--steps", "2", "--batch-size", "4", "--learning-rate", "0.05", "--seed", "3"]
    commands = [
        ["gen-corpus", "--spec", spec, "--tokens", "256", "--seq-len", "8", "--out", corpus],
        ["train-base", "--config", config, *data, "--group", "g0", *train, "--out", base],
        ["profile", "--model", base, *data, "--group", "g1", "--q", "16", "--out", profile],
        ["allocate", "--profile", profile, "--budget", "8", "--out", plan],
        ["expand", "--model", base, "--plan", plan, *data, "--group", "g1", *train, "--out", moe],
        ["review", "--model", moe, *data, "--profile", profile, *train, "--out", reviewed],
        ["eval", "--model", reviewed, *data, "--out", metrics],
    ]
    for argv in commands:
        run_ok(argv, capsys)

    layers = load_model(reviewed).classifier_layers
    assert layers == select_classifier_layers(load_profile(profile).new_old, 7)
    assert not (tmp_path / "rev.profile.json").exists()
    record = json.loads(Path(metrics).read_text())
    assert record["mode"] == "gated"
    assert sorted(record["classifier_accuracy"]) == sorted(map(str, layers))

    written = {p: p.read_bytes() for p in tmp_path.iterdir()}
    for name in (reviewed, metrics):
        run_ok(["replay", "--manifest", name + ".manifest.json"], capsys)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == written


def test_expand_rejects_a_plan_that_carries_classifier_layers(artifacts, tmp_path, capsys):
    """A plan no longer holds classifier layers: nothing set them, and a
    model's classifier layers live in its checkpoint. A plan file written
    before that fails on the key."""
    record = json.loads(Path(artifacts["plan.json"]).read_text())
    plan = write_json(tmp_path / "plan.json", {**record, "classifier_layers": []})
    argv = ["expand", "--model", artifacts["base.lmoe"], "--plan", plan]
    argv += ["--corpus", artifacts["c.jsonl"], "--group", "g1", "--steps", "1"]
    failure = run_failing(argv + ["--out", str(tmp_path / "moe.lmoe")], capsys)
    assert failure["error"] == "FormatError"
    assert failure["message"].endswith("has unknown keys classifier_layers")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


def test_eval_takes_its_old_groups_from_the_checkpoint(artifacts, tmp_path, capsys):
    """``--old-groups`` is gone: every caller passed the model's own old
    groups. An ``eval`` manifest written before records ``old_groups`` and
    no longer replays."""
    metrics = str(tmp_path / "m.json")
    argv = ["eval", "--model", artifacts["rev.lmoe"], "--corpus", artifacts["c.jsonl"]]
    argv += ["--out", metrics]
    record = run_failing(argv + ["--old-groups", "g0"], capsys)
    assert "unrecognized arguments: --old-groups g0" in record["message"]
    run_ok(argv, capsys)
    manifest = json.loads(Path(metrics + ".manifest.json").read_text())
    manifest["arguments"].update(mode="plain", old_groups="")
    failure = run_failing(["replay", "--manifest", write_json(tmp_path / "old.json", manifest)],
                          capsys)
    assert failure["error"] == "FormatError"
    assert "unrecognized arguments: --old-groups=" in failure["message"]


@pytest.mark.parametrize(
    "command, options",
    [("review", ["--ratio-old", "1"]), ("review", ["--ratio-new", "2"]),
     ("profile", ["--old", "g0"]), ("review", ["--cls-mode", "literal_paper"]),
     ("profile", ["--literal-new-new"]), ("review", ["--q", "8"])],
    ids=["review-ratio-old", "review-ratio-new", "profile-old", "review-cls-mode",
         "profile-literal-new-new", "review-q"],
)
def test_the_options_nothing_set_are_gone(artifacts, tmp_path, capsys, command, options):
    """Every caller gave ``review`` the 1:2 review ratio and the two-class
    classifier loss, and ``profile`` the model's own groups as old and the
    new-new denominator of ordered pairs; all of these now come from the
    program. ``review`` no longer profiles, so its sample size went too."""
    argv = {
        "review": ["review", "--model", artifacts["moe.lmoe"], "--steps", "1"]
        + ["--profile", artifacts["profile.json"]],
        "profile": ["profile", "--model", artifacts["base.lmoe"], "--group", "g1"],
    }[command]
    argv += options + ["--corpus", artifacts["c.jsonl"], "--out", str(tmp_path / "out")]
    record = run_failing(argv, capsys)
    assert f"unrecognized arguments: {' '.join(options)}" in record["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "change, detail",
    [({"old": "g0", "new": "g1", "group": None}, "the following arguments are required: --group"),
     ({"old": "g0"}, "unrecognized arguments: --old=g0")],
    ids=["old-and-new", "old-beside-group"],
)
def test_a_profile_manifest_that_records_old_groups_no_longer_replays(
    artifacts, tmp_path, capsys, change, detail
):
    """``profile --old --new`` became ``profile --group``; a manifest
    written before records ``old`` and ``new``."""
    manifest = json.loads(Path(artifacts["profile.json"] + ".manifest.json").read_text())
    manifest["arguments"].update(change)
    failure = run_failing(["replay", "--manifest", write_json(tmp_path / "m.json", manifest)],
                          capsys)
    assert failure["error"] == "FormatError"
    assert failure["message"] == f"{tmp_path / 'm.json'}: arguments: {detail}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


@pytest.mark.parametrize(
    "manifest, argument, value, detail",
    [
        ("rev.lmoe", "cls_mode", "standard_ce", "unrecognized arguments: --cls-mode=standard_ce"),
        ("profile.json", "literal_new_new", True, "unrecognized arguments: --literal-new-new"),
        ("profile.json", "literal_new_new", False, "profile takes no literal_new_new"),
    ],
    ids=["review-cls-mode", "profile-literal-new-new", "profile-literal-new-new-false"],
)
def test_a_manifest_that_records_a_removed_setting_no_longer_replays(
    artifacts, tmp_path, capsys, manifest, argument, value, detail
):
    """``review --cls-mode`` and ``profile --literal-new-new`` are gone. A
    manifest written before records them, most often at their defaults; a
    False flag adds nothing to the command line, so replay names it."""
    record = json.loads(Path(artifacts[manifest] + ".manifest.json").read_text())
    record["arguments"][argument] = value
    failure = run_failing(["replay", "--manifest", write_json(tmp_path / "m.json", record)],
                          capsys)
    assert failure == {"error": "FormatError",
                       "message": f"{tmp_path / 'm.json'}: arguments: {detail}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_a_manifest_that_records_a_plan_mirror_no_longer_replays(artifacts, tmp_path, capsys):
    """``allocate`` used to write a CSV mirror of its plan and record it as
    ``plan_csv``. Replay names that output, and the recorded files stay."""
    plan = tmp_path / "plan.json"
    run_ok(["allocate", "--profile", artifacts["profile.json"], "--budget", "3",
            "--out", str(plan)], capsys)
    loaded = load_plan(plan)
    mirror = save_csv(plan.with_suffix(".csv"), ["layer", "similarity", "new_experts"],
                      ([i, repr(s), n] for i, (s, n) in
                       enumerate(zip(loaded.similarities, loaded.new_experts))))
    manifest = Path(f"{plan}.manifest.json")
    record = json.loads(manifest.read_text())
    record["outputs"]["plan_csv"] = {"path": str(mirror),
                                     "sha256": hashlib.sha256(mirror.read_bytes()).hexdigest()}
    manifest.write_text(json.dumps(record))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    failure = run_failing(["replay", "--manifest", str(manifest)], capsys)
    assert failure == {"error": "FormatError",
                       "message": f"{manifest}: replay does not reproduce plan_csv"}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("model, group", [("base.lmoe", "g0"), ("rev.lmoe", "g1")])
def test_profile_rejects_a_group_the_model_knows(artifacts, tmp_path, capsys, model, group):
    argv = ["profile", "--model", artifacts[model], "--corpus", artifacts["c.jsonl"]]
    argv += ["--group", group, "--q", "8", "--out", str(tmp_path / "profile.json")]
    record = run_failing(argv, capsys)
    assert record == {"error": "InvalidInputError",
                      "message": f"group {group!r} is already proficient"}
    assert list(tmp_path.iterdir()) == []


def test_expand_has_one_way_to_add_experts(artifacts, tmp_path, capsys):
    """New experts always copy their layer's expert 0. ``--init`` is gone,
    and a manifest that still records it no longer replays."""
    argv = ["expand", "--model", artifacts["base.lmoe"], "--plan", artifacts["plan.json"]]
    argv += ["--corpus", artifacts["c.jsonl"], "--group", "g1", "--steps", "1", "--init", "random"]
    record = run_failing(argv + ["--out", str(tmp_path / "moe.lmoe")], capsys)
    assert "unrecognized arguments: --init random" in record["message"]
    manifest = json.loads(Path(artifacts["moe.lmoe"] + ".manifest.json").read_text())
    manifest["arguments"]["init"] = "inherit"
    failure = run_failing(["replay", "--manifest", write_json(tmp_path / "m.json", manifest)], capsys)
    assert failure["error"] == "FormatError"
    assert "unrecognized arguments: --init=inherit" in failure["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_eval_rejects_fewer_than_one_sequence_per_language(tmp_path, capsys):
    model = tmp_path / "dense.lmoe"
    save_model(DenseModel.create(ModelConfig(**TINY_MODEL), groups=("g0",)), model)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0, 3, 4]}\n')
    argv = ["eval", "--model", str(model), "--corpus", str(corpus), "--max-sequences", "0"]
    record = run_failing(argv + ["--out", str(tmp_path / "metrics.json")], capsys)
    assert record["error"] == "InvalidInputError"
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("command", ["train-base", "eval"])
def test_corpus_of_one_token_sequences_is_rejected(tmp_path, capsys, command):
    """A sequence needs an input token and a target; these used to end in a
    traceback from the forward pass."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0]}\n' * 2)
    if command == "train-base":
        config = write_json(tmp_path / "model.json", TINY_MODEL)
        argv = ["train-base", "--config", config, "--group", "g0"]
    else:
        model = tmp_path / "dense.lmoe"
        save_model(DenseModel.create(ModelConfig(**TINY_MODEL), groups=("g0",)), model)
        argv = ["eval", "--model", str(model)]
    record = run_failing(argv + ["--corpus", str(corpus), "--out", str(tmp_path / "out")], capsys)
    assert record["error"] == "FormatError"
    assert record["message"].startswith(f"{corpus}: ")
    assert "at least two tokens" in record["message"]


def test_eval_rejects_a_language_tagged_with_two_groups(tmp_path, capsys):
    """``group_of`` kept the last tag, so g0's language went missing from
    ``languages_in(["g0"])`` while its record still counted as old."""
    model = tmp_path / "dense.lmoe"
    save_model(DenseModel.create(ModelConfig(**TINY_MODEL), groups=("g0",)), model)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"lang": "a", "group": "g0", "tokens": [0, 3, 4]}\n'
        '{"lang": "a", "group": "g1", "tokens": [0, 5, 6]}\n'
    )
    argv = ["eval", "--model", str(model), "--corpus", str(corpus)]
    record = run_failing(argv + ["--out", str(tmp_path / "metrics.json")], capsys)
    assert record == {"error": "FormatError",
                      "message": f"{corpus}: language 'a' is tagged 'g0' and 'g1'"}
    assert not (tmp_path / "metrics.json").exists()


def test_profile_names_a_group_missing_from_the_corpus(tmp_path, capsys):
    model = tmp_path / "dense.lmoe"
    save_model(DenseModel.create(ModelConfig(**TINY_MODEL), groups=("g0",)), model)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"lang": "a", "group": "g0", "tokens": [0, 3, 4]}\n')
    argv = ["profile", "--model", str(model), "--corpus", str(corpus), "--group", "gX"]
    record = run_failing(argv + ["--out", str(tmp_path / "profile.json")], capsys)
    assert record["error"] == "InvalidInputError"
    assert "['gX']" in record["message"]
    assert not (tmp_path / "profile.json").exists()


@pytest.mark.parametrize(
    "old, new, layers, message",
    [
        (("x",), ("b",), 2, "profile has new ['b'], old ['x'] and 2 layers;"
         " review needs new ['b'], old ['a'] and 2"),
        (("a",), ("x",), 2, "profile has new ['x'], old ['a'] and 2 layers;"
         " review needs new ['b'], old ['a'] and 2"),
        (("a",), ("b",), 3, "profile has new ['b'], old ['a'] and 3 layers;"
         " review needs new ['b'], old ['a'] and 2"),
    ],
    ids=["old-languages", "new-languages", "layer-count"],
)
def test_review_rejects_a_profile_of_another_expansion(
    artifacts, tmp_path, capsys, old, new, layers, message
):
    """``review`` places its classifiers from the expansion's allocation
    profile, so that profile must compare the model's old languages with its
    newest group's, layer for layer."""
    pairs = {tuple(sorted((n, o))): np.full(layers, 0.5) for n in new for o in old}
    profile = tmp_path / "profile.json"
    save_profile(SimilarityProfile(pairs, old, new), profile)
    argv = ["review", "--model", artifacts["moe.lmoe"], "--corpus", artifacts["c.jsonl"]]
    argv += ["--profile", str(profile), "--steps", "1", "--out", str(tmp_path / "rev.lmoe")]
    assert run_failing(argv, capsys) == {"error": "InvalidInputError", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]


def test_run_pipeline_profiles_each_expansion_once(tmp_path, monkeypatch):
    """Stage 2 used to profile the expanded model again to place its
    classifiers, so each expansion ran two profiles and wrote
    ``profile.stage1.*``. Now the allocation profile places them."""
    calls, real = [], trainer.profile_similarity

    def counted(model, corpus, old, new, **options):
        calls.append(tuple(new))
        return real(model, corpus, old, new, **options)

    monkeypatch.setattr(trainer, "profile_similarity", counted)
    outputs = run_pipeline(pipeline_hashes_config("lifelong", 1), tmp_path / "out")
    assert calls == [("b0", "b1"), ("c0", "c1")]
    assert [name for name in outputs if name.startswith("profile")] == ["profile_0_g1",
                                                                       "profile_1_g2"]


def test_expand_rejects_a_group_the_base_already_knows(artifacts, tmp_path, capsys):
    argv = ["expand", "--model", artifacts["base.lmoe"], "--plan", artifacts["plan.json"]]
    argv += ["--corpus", artifacts["c.jsonl"], "--group", "g0", "--steps", "1"]
    record = run_failing(argv + ["--out", str(tmp_path / "moe.lmoe")], capsys)
    assert record == {"error": "InvalidInputError", "message": "group 'g0' is already proficient"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["-1", "3"])
def test_review_rejects_a_classifier_count_outside_the_layers(artifacts, tmp_path, capsys, count):
    argv = ["review", "--model", artifacts["moe.lmoe"], "--corpus", artifacts["c.jsonl"]]
    argv += ["--classifier-count", count, "--profile", artifacts["profile.json"], "--steps", "1"]
    record = run_failing(argv + ["--out", str(tmp_path / "rev.lmoe")], capsys)
    message = f"classifier_count {count} outside 0..2"
    assert record == {"error": "ConfigurationError", "message": message}
    assert list(tmp_path.iterdir()) == []


def out_of_vocabulary_corpus(artifacts, target):
    """The artifacts' corpus with the last token of its first ``b`` sequence
    set to 999, an id no tiny model knows and a position the model reads
    only as a target."""
    lines = Path(artifacts["c.jsonl"]).read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["lang"] == "b")
    record = json.loads(lines[index])
    record["tokens"][-1] = 999
    lines[index] = json.dumps(record)
    target.write_text("\n".join(lines) + "\n")
    return str(target)


@pytest.mark.parametrize(
    "command, options",
    [
        ("eval", []),
        ("eval", ["--max-sequences", "1"]),
        ("expand", ["--steps", "0"]),
        ("expand", ["--steps", "1", "--batch-size", "1"]),
        ("expand", ["--steps", "40"]),
        ("review", ["--classifier-count", "0", "--steps", "1", "--batch-size", "1"]),
        ("review", ["--classifier-count", "1", "--steps", "0"]),
        ("profile", ["--q", "2"]),
        ("profile", ["--q", "4"]),
        ("profile", ["--q", "40"]),
    ],
)
def test_a_token_id_beyond_the_vocabulary_exits_2(artifacts, tmp_path, capsys, command, options):
    """At the parent ``eval`` and ``expand --steps 40`` ended in an IndexError
    traceback, while ``expand --steps 1``, ``review`` and ``profile --q 2``
    exited 0, depending on whether sampling drew the bad sequence."""
    corpus = out_of_vocabulary_corpus(artifacts, tmp_path / "bad.jsonl")
    argv = {
        "eval": ["eval", "--model", artifacts["rev.lmoe"]],
        "expand": ["expand", "--model", artifacts["base.lmoe"], "--plan", artifacts["plan.json"]]
        + ["--group", "g1"],
        "review": ["review", "--model", artifacts["moe.lmoe"]]
        + ["--profile", artifacts["profile.json"]],
        "profile": ["profile", "--model", artifacts["base.lmoe"], "--group", "g1"],
    }[command]
    out = tmp_path / "out"
    record = run_failing(argv + options + ["--corpus", corpus, "--out", str(out)], capsys)
    assert record == {"error": "InvalidInputError", "message": "token id outside the vocabulary 0..31"}
    assert not out.exists()


def test_gen_corpus_rejects_a_language_listed_twice(tmp_path, capsys):
    spec = {"groups": {"g0": ["a", "a"], "g1": ["b"]}, "block_size": 8}
    argv = ["gen-corpus", "--spec", write_json(tmp_path / "spec.json", spec), "--tokens", "64"]
    record = run_failing(argv + ["--seq-len", "8", "--out", str(tmp_path / "c.jsonl")], capsys)
    assert record == {"error": "InvalidInputError", "message": "language 'a' is listed twice"}
    assert not (tmp_path / "c.jsonl").exists()


def test_run_pipeline_rejects_a_language_listed_twice(tmp_path, capsys):
    config = pipeline_config(languages={"groups": {"g0": ["a"], "g1": ["b", "b"]}, "block_size": 8})
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert record == {"error": "InvalidInputError", "message": "language 'b' is listed twice"}
    assert not (tmp_path / "out").exists()


def test_run_pipeline_records_overrides_and_replays_them(tmp_path, capsys):
    config = write_json(tmp_path / "pipeline.json", pipeline_config())
    out = tmp_path / "out"
    argv = ["run-pipeline", "--config", config, "--out-dir", str(out)]
    run_ok(argv + ["--set", "seed=5", "--set", " base.steps=2", "--set", "seed=3"], capsys)
    manifest = out / "pipeline.config.json.manifest.json"
    recorded = json.loads(manifest.read_text())["arguments"]["set"]
    assert recorded == ["seed=5", " base.steps=2", "seed=3"]
    resolved = json.loads((out / "pipeline.config.json").read_text())
    assert (resolved["seed"], resolved["base"]["steps"]) == (3, 2)

    written = {p: p.read_bytes() for p in out.iterdir()}
    run_ok(["replay", "--manifest", str(manifest)], capsys)
    assert {p: p.read_bytes() for p in out.iterdir()} == written


def test_overrides_step_into_lists_by_index(tmp_path, capsys):
    config = pipeline_config()
    config["expansions"][0]["classifier_count"] = 0
    path = write_json(tmp_path / "pipeline.json", config)
    out = tmp_path / "out"
    argv = ["run-pipeline", "--config", path, "--out-dir", str(out)]
    argv += ["--set", "expansions.0.classifier_count=1", "--set", "expansions.0.stage2.steps=2"]
    outputs = run_ok(argv, capsys)
    resolved = json.loads((out / "pipeline.config.json").read_text())["expansions"][0]
    assert (resolved["classifier_count"], resolved["stage2"]["steps"]) == (1, 2)
    assert len(load_model(outputs["model_0_g1"]).classifier_layers) == 1


def test_run_pipeline_lists_every_file_it_writes(tmp_path, capsys):
    """The stage losses and the CSV mirrors of every metrics file used to be
    written but left out of the outputs, so neither the manifest nor
    ``replay`` checked them. A ``metrics_*`` output is always a JSON file:
    the benchmark reads each one as JSON. Profiles and plans have no mirror."""
    config = write_json(tmp_path / "pipeline.json", pipeline_config())
    out = tmp_path / "out"
    outputs = run_ok(["run-pipeline", "--config", config, "--out-dir", str(out)], capsys)
    manifest = out / "pipeline.config.json.manifest.json"
    listed = {Path(entry["path"]) for entry in json.loads(manifest.read_text())["outputs"].values()}
    assert set(out.iterdir()) - {manifest} == listed
    assert {"stage1_losses_0_g1", "csv_metrics_base"} <= outputs.keys()
    mirrored = {p.stem for p in out.glob("*.csv")} & {p.stem for p in out.glob("*.json")}
    assert mirrored == {"metrics.base", "metrics.0_g1"}
    assert all(p.endswith(".json") for k, p in outputs.items() if k.startswith("metrics_"))


def test_run_pipeline_rejects_a_setting_its_stage_does_not_read(tmp_path, capsys):
    """Each stage accepted every loss setting and silently ignored the ones
    it does not read: dense training reads none, stage 1 only the balance
    weight, stage 2 only the prior-routing and classifier settings."""
    config = pipeline_config()
    config["base"].update(lpr_weight=50.0, balance_weight=9.0, cls_mode="literal_paper")
    config["expansions"][0]["stage1"] = {"steps": 1, "batch_size": 2, "lpr_weight": 50.0,
                                         "cls_weight": 50.0, "cls_mode": "literal_paper"}
    config["expansions"][0]["stage2"] = {"steps": 1, "batch_size": 2, "balance_weight": 50.0}
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    unknown = ["base.lpr_weight", "base.balance_weight", "base.cls_mode",
               "expansions.0.stage1.lpr_weight", "expansions.0.stage1.cls_weight",
               "expansions.0.stage1.cls_mode", "expansions.0.stage2.balance_weight"]
    message = "pipeline config has unknown keys " + ", ".join(unknown)
    assert record == {"error": "FormatError", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.json"]


def test_run_pipeline_names_every_misspelled_key_and_writes_nothing(tmp_path, capsys):
    """Before objects were closed, this trained only the dense base: the
    expansions hid under a misspelled key and the learning rate was ignored."""
    config = {
        "seed": 1,
        "languages": {"groups": {"g0": ["a"], "g1": ["b"]}, "block_size": 8},
        "model": TINY_MODEL,
        "corpus": {"tokens_per_language": 64},
        "base": {"group": "g0", "steps": 1, "batch_size": 2, "learning_rte": 9.0},
        "expansion": [{"group": "g1", "budget": 2, "q": 8,
                       "stage1": {"steps": 1, "batch_size": 2},
                       "stage2": {"steps": 1, "batch_size": 2}}],
    }
    argv = ["run-pipeline", "--config", write_json(tmp_path / "pipeline.json", config)]
    record = run_failing(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    message = "pipeline config has unknown keys base.learning_rte, expansion"
    assert record == {"error": "FormatError", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.json"]


@pytest.mark.parametrize(
    "pair",
    [
        "expansions.1.budget=3",
        "expansions.x.budget=3",
        "expansions.-1.budget=3",
        "seed.0=1",
        "expansions.0.stage9.steps=1",
    ],
)
def test_override_outside_the_config_exits_2(tmp_path, capsys, pair):
    config = write_json(tmp_path / "pipeline.json", pipeline_config())
    argv = ["run-pipeline", "--config", config, "--out-dir", str(tmp_path / "out"), "--set", pair]
    record = run_failing(argv, capsys)
    assert record["error"] == "InvalidInputError"
    assert "not in config" in record["message"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# single-field mutations of every artifact kind


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A valid file of each kind, written by the commands that make them."""
    root = tmp_path_factory.mktemp("artifacts")
    names = ("c.jsonl", "base.lmoe", "profile.json", "plan.json", "moe.lmoe", "rev.lmoe")
    path = {name: str(root / name) for name in names}
    spec = write_json(root / "spec.json", {"groups": {"g0": ["a"], "g1": ["b"]}, "block_size": 8})
    path["model.json"] = write_json(root / "model.json", TINY_MODEL)
    train = ["--corpus", path["c.jsonl"], "--steps", "1", "--batch-size", "2"]
    for argv in [
        ["gen-corpus", "--spec", spec, "--tokens", "128", "--seq-len", "8"]
        + ["--out", path["c.jsonl"]],
        ["train-base", "--config", path["model.json"], *train, "--group", "g0"]
        + ["--out", path["base.lmoe"]],
        ["profile", "--model", path["base.lmoe"], "--corpus", path["c.jsonl"], "--group", "g1"]
        + ["--q", "8", "--out", path["profile.json"]],
        ["allocate", "--profile", path["profile.json"], "--budget", "3"]
        + ["--out", path["plan.json"]],
        ["expand", "--model", path["base.lmoe"], "--plan", path["plan.json"], *train]
        + ["--group", "g1", "--out", path["moe.lmoe"]],
        ["review", "--model", path["moe.lmoe"], *train, "--classifier-count", "1"]
        + ["--profile", path["profile.json"], "--out", path["rev.lmoe"]],
    ]:
        assert main(argv) == 0, argv
    return path


def artifact_kind(kind, path):
    """(a valid record, how to write a mutated one to a file, the command
    that reads that file) for one artifact kind."""

    def json_file(target, record):
        Path(target).write_text(json.dumps(record), encoding="utf-8")

    if kind == "pipeline-config":
        config = pipeline_config(evaluation={"max_sequences_per_language": 4})
        config["languages"].update(shared_size=8, overlap=0.5)
        config["base"].update(learning_rate=0.01, momentum=0.0)
        config["expansions"][0].update(classifier_count=1)
        config["expansions"][0]["stage2"] = {"steps": 1, "batch_size": 2, "cls_weight": 0.1}
        return config, json_file, lambda f: ["run-pipeline", "--config", f, "--out-dir", f + ".d"]
    if kind == "corpus-record":
        lines = Path(path["c.jsonl"]).read_text().splitlines(keepends=True)

        def corpus_file(target, record):
            Path(target).write_text(json.dumps(record) + "\n" + "".join(lines[1:]))

        argv = ["train-base", "--config", path["model.json"], "--group", "g0", "--steps", "1"]
        record = json.loads(lines[0])
        return record, corpus_file, lambda f: argv + ["--corpus", f, "--out", f + ".m"]
    if kind in ("dense-header", "moe-header"):
        header, payload = read_header(path["base.lmoe" if kind == "dense-header" else "rev.lmoe"])
        mode = "gated" if kind == "moe-header" else "plain"
        argv = ["eval", "--corpus", path["c.jsonl"], "--mode", mode]
        return (
            header,
            lambda target, record: write_checkpoint(target, record, payload),
            lambda f: argv + ["--model", f, "--out", f + ".json"],
        )
    if kind == "profile":
        argv = ["allocate", "--budget", "3"]
        record = json.loads(Path(path["profile.json"]).read_text())
        return record, json_file, lambda f: argv + ["--profile", f, "--out", f + ".plan"]
    if kind == "plan":
        argv = ["expand", "--model", path["base.lmoe"], "--corpus", path["c.jsonl"]]
        argv += ["--group", "g1"]
        record = json.loads(Path(path["plan.json"]).read_text())
        return record, json_file, lambda f: argv + ["--steps", "1", "--plan", f, "--out", f + ".m"]
    record = json.loads(Path(path["plan.json"] + ".manifest.json").read_text())
    return record, json_file, lambda f: ["replay", "--manifest", f]


KINDS = [
    "pipeline-config",
    "corpus-record",
    "dense-header",
    "moe-header",
    "profile",
    "plan",
    "manifest",
]
DELETE = object()
MUTATIONS = [None, "x", True, -1, 0, 1.5, 1e308, [], {}, DELETE]


def field_paths(node, path=()):
    """Every object key, and the first item of every list, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield path + (0,)
        yield from field_paths(node[0], path + (0,))


def mutated(record, path, value):
    record = copy.deepcopy(record)
    node = record
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return record


@pytest.mark.parametrize("kind", KINDS)
def test_every_single_field_mutation_exits_0_or_2(tmp_path, capsys, monkeypatch, artifacts, kind):
    """Replace one field with each of MUTATIONS, run the command that reads
    the file, and require exit 0, or exit 2 with one JSON line on stderr."""
    monkeypatch.chdir(tmp_path)  # a replayed --out of "x" lands here
    record, write, command = artifact_kind(kind, artifacts)
    failures = []
    for n, path in enumerate(field_paths(record)):
        for m, value in enumerate(MUTATIONS):
            if value == 1e308 and "expansion_history" in path:
                continue  # unbounded at the parent: run in a memory-capped subprocess below
            target = str(tmp_path / f"{n}.{m}")
            write(target, mutated(record, path, value))
            code = main(command(target))
            err = capsys.readouterr().err.strip().splitlines()
            if not (code == 0 or (code == 2 and len(err) == 1 and json.loads(err[0]))):
                failures.append((path, value, code, err))
    assert not failures


def edit(path, value):
    return lambda record: mutated(record, path, value)


def extend(path, extra):
    """Add ``extra`` to the value at ``path``; adding 0.5 to an int keeps
    what ``int()`` reads from it."""

    def change(record):
        node = record
        for key in path:
            node = node[key]
        return mutated(record, path, node + extra)

    return change


def add_unknown(path, key="colour", value="blue"):
    """Give the object at ``path`` a key that its spec does not name; the
    error must name that key by its dotted path."""
    change = edit((*path, key), value)
    change.named = ".".join(map(str, (*path, key)))
    return change


UNKNOWN_KEYS = [(kind, add_unknown(path)) for kind, path in [
    ("pipeline-config", ()),
    ("pipeline-config", ("base",)),
    ("pipeline-config", ("expansions", 0)),
    ("pipeline-config", ("evaluation",)),
    ("pipeline-config", ("languages",)),
    ("corpus-record", ()),
    ("dense-header", ()),
    ("dense-header", ("config",)),
    ("dense-header", ("params", 0)),
    ("moe-header", ()),
    ("moe-header", ("config",)),
    ("moe-header", ("params", 0)),
    ("profile", ()),
    ("profile", ("layers", 0)),
    ("plan", ()),
    ("plan", ("layers", 0)),
    ("manifest", ()),
    ("manifest", ("outputs", "plan")),
]]


@pytest.mark.parametrize(
    "kind, change",
    [
        ("moe-header", edit(("base_groups",), "x")),
        ("moe-header", extend(("classifier_layers", 0), 0.5)),
        ("moe-header", edit(("classifier_layers",), None)),
        ("moe-header", extend(("expansion_history", 0), [0])),
        ("plan", extend(("layers", 0, "new_experts"), 0.5)),
        ("plan", edit(("layers", 1, "index"), 0)),
        ("plan", edit(("classifier_layers",), "x")),
        ("plan", edit(("layers", 0, "raw"), -7.0)),
        ("plan", edit(("layers", 0, "similarity"), 1e-9)),
        ("profile", edit(("layers", 0, "s"), True)),
        ("profile", edit(("old_languages",), "abc")),
        ("profile", edit(("old_languages",), 5)),
        ("manifest", edit(("arguments", "budget"), "x")),
        ("manifest", edit(("arguments", "out"), None)),
        *UNKNOWN_KEYS,
        ("dense-header", add_unknown((), "classifier_layers", [0])),
        ("moe-header", add_unknown((), "groups", ["g0"])),
        ("dense-header", edit(("config", "heads"), 3)),
    ],
    ids=[
        "string-base-groups",
        "fractional-classifier-layer",
        "null-classifier-layers",
        "three-element-history-entry",
        "fractional-new-experts",
        "repeated-index",
        "string-plan-classifier-layers",
        "plan-raw-that-allocate-does-not-give",
        "plan-similarity-that-its-counts-do-not-follow",
        "bool-similarity",
        "string-old-languages",
        "int-old-languages",
        "string-budget",
        "null-out",
        *(f"unknown-key-{kind}-{change.named}" for kind, change in UNKNOWN_KEYS),
        "dense-header-with-an-moe-key",
        "moe-header-with-a-dense-key",
        "heads-that-do-not-divide-hidden",
    ],
)
def test_reported_input_faults_exit_2(tmp_path, capsys, monkeypatch, artifacts, kind, change):
    """Each was accepted silently or ended in a traceback before every
    artifact was read through one checker."""
    monkeypatch.chdir(tmp_path)
    record, write, command = artifact_kind(kind, artifacts)
    write(str(tmp_path / "artifact"), change(record))
    failure = run_failing(command(str(tmp_path / "artifact")), capsys)
    assert failure["error"] == "FormatError"
    named = getattr(change, "named", None)
    assert named is None or f"has unknown keys {named}" in failure["message"]


@pytest.mark.parametrize(
    "change, message",
    [
        (edit(("base_groups",), []), "has a value of the wrong type at base_groups"),
        (edit(("expansion_history", 0, 0), "g0"), "group listed more than once: g0"),
        (edit(("classifier_layers",), [1, 1]), "classifier layer listed more than once: 1"),
        (edit(("expansion_history",), DELETE), "lacks expansion_history"),
        (edit(("expansion_history",), []), "has a value of the wrong type at expansion_history"),
    ],
    ids=["no-base-group", "history-repeats-the-base-group", "repeated-classifier-layer",
         "no-history", "empty-history"],
)
def test_a_checkpoint_is_checked_against_its_own_history(
    tmp_path, capsys, artifacts, change, message
):
    """The first two loaded, and ``eval`` ran on a model that knew the groups
    ('g1',) or ('g0', 'g0'); the third failed on the shape of a classifier
    parameter, not on the repeat. An MoE header records at least one
    expansion; without one, the last two failed on the parameters instead."""
    record, write, command = artifact_kind("moe-header", artifacts)
    write(str(tmp_path / "model.lmoe"), change(record))
    failure = run_failing(command(str(tmp_path / "model.lmoe")), capsys)
    assert failure["error"] == "FormatError"
    assert failure["message"].endswith(message)


@pytest.mark.parametrize(
    "groups, message",
    [
        ([], "has a value of the wrong type at groups"),
        (["g0", "g0"], "group listed more than once: g0"),
        (DELETE, "lacks groups"),
    ],
    ids=["no-group", "repeated-group", "missing-groups"],
)
def test_a_dense_checkpoint_needs_distinct_groups(tmp_path, capsys, artifacts, groups, message):
    """With ``"groups": []`` the checkpoint loaded: ``eval`` exited 0, and
    ``expand`` wrote an MoE checkpoint that no command could load (``wrong
    type at base_groups``)."""
    record, write, command = artifact_kind("dense-header", artifacts)
    model, out = tmp_path / "base.lmoe", tmp_path / "moe.lmoe"
    write(str(model), mutated(record, ("groups",), groups))
    for argv in [
        command(str(model)),
        ["expand", "--model", str(model), "--plan", artifacts["plan.json"]]
        + ["--corpus", artifacts["c.jsonl"], "--group", "g1", "--steps", "1"]
        + ["--out", str(out)],
    ]:
        failure = run_failing(argv, capsys)
        assert failure["error"] == "FormatError"
        assert failure["message"].endswith(message)
    assert not out.exists()


def scale(path, factor):
    """Multiply the number at ``path`` by ``factor``."""

    def change(record):
        node = record
        for key in path:
            node = node[key]
        return mutated(record, path, node * factor)

    return change


def derived(row, field):
    """The message for a profile value at ``layers[row][field]`` that its
    pairs do not give, from the valid record and the changed one."""
    return lambda old, new: (
        f"{field} at layer {row} is {new['layers'][row][field]!r},"
        f" its pairs give {old['layers'][row][field]!r}"
    )


def one_ulp_up(path):
    return lambda record: mutated(
        record, path, float(np.nextafter(record[path[0]][path[1]][path[2]], 1.0))
    )


@pytest.mark.parametrize(
    "change, message",
    [
        (edit(("layers", 1, "s"), 7.5), derived(1, "s")),
        (edit(("layers", 0, "s_new_old"), -1.5), derived(0, "s_new_old")),
        (scale(("layers", 1, "s"), 1.5), derived(1, "s")),
        (one_ulp_up(("layers", 0, "s_new_old")), derived(0, "s_new_old")),
        (edit(("pairs", "a|b"), [0.5]), lambda *_: "pairs a|b has 1 values for 2 layers"),
        (edit(("pairs", "a|b", 1), 1.5), lambda *_: "pairs a|b at layer 1 is 1.5, outside [-1, 1]"),
        (
            edit(("new_languages",), []),
            lambda *_: "no new languages to profile",
        ),
        (edit(("new_languages",), DELETE), lambda *_: "lacks new_languages"),
        (edit(("pairs",), DELETE), lambda *_: "lacks pairs"),
        (edit(("old_languages",), DELETE), lambda *_: "lacks old_languages"),
    ],
    ids=[
        "s-7.5",
        "s_new_old-below-minus-1",
        "s-1.5-times-its-pairs",
        "s_new_old-one-ulp-off",
        "short-pairs",
        "pair-value-1.5",
        "pairs-without-new-languages",
        "no-new-languages-key",
        "no-pairs-key",
        "no-old-languages-key",
    ],
)
def test_a_profile_is_checked_against_its_pairs(tmp_path, capsys, artifacts, change, message):
    """``allocate`` wrote a plan from each of the first four, and from a
    profile without pairs: no mean of cosines is 7.5 or -1.5, and the third
    and fourth are no longer what their pairs give."""
    record, write, command = artifact_kind("profile", artifacts)
    changed = change(record)
    write(str(tmp_path / "profile.json"), changed)
    failure = run_failing(command(str(tmp_path / "profile.json")), capsys)
    assert failure["error"] == "FormatError"
    assert failure["message"].endswith("profile " + message(record, changed))
    assert not (tmp_path / "profile.json.plan").exists()


def test_allocate_rejects_a_profile_with_the_published_new_new(tmp_path, capsys):
    """The published ``s_new_new`` divides by twice the ordered-pair count.
    A profile that says so in its ``meta`` and holds those values no longer
    loads: its pairs give the ordered-pair mean."""
    pairs = {("a", "b"): [0.5, 0.4], ("a", "c"): [0.3, 0.2], ("b", "c"): [0.8, 0.6]}
    new_old, new_new, _ = (v.tolist() for v in indicated_similarity(pairs, ["a"], ["b", "c"]))
    literal = [v / 2 for v in new_new]
    layers = [{"index": i, "s_new_old": new_old[i], "s_new_new": literal[i],
               "s": (new_old[i] + literal[i]) / 2} for i in range(2)]
    record = {"layers": layers, "pairs": {"|".join(k): v for k, v in pairs.items()},
              "old_languages": ["a"], "new_languages": ["b", "c"],
              "meta": {"q": 8, "seed": 0, "literal_new_new": True}}
    profile = write_json(tmp_path / "profile.json", record)
    failure = run_failing(["allocate", "--profile", profile, "--budget", "3",
                           "--out", str(tmp_path / "plan.json")], capsys)
    message = f"s_new_new at layer 0 is {literal[0]!r}, its pairs give {new_new[0]!r}"
    assert failure == {"error": "FormatError", "message": f"{profile}: profile {message}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]


def add_pair(key, like="a|b"):
    """Add a ``pairs`` entry ``key`` holding the values of ``like``."""
    return lambda record: mutated(record, ("pairs", key), record["pairs"][like])


def old_and_new(record):
    """``b`` listed as old as well as new, with a ``b|b`` pair equal to
    ``a|b``, so that the layers recomputed from the pairs keep their bits."""
    return add_pair("b|b")(mutated(record, ("old_languages",), ["a", "b"]))


@pytest.mark.parametrize(
    "change, message",
    [
        (
            old_and_new,
            "old_languages and new_languages both list b: a language cannot be both old and new",
        ),
        (add_pair("zz"), "pairs key 'zz' is not two names joined by '|'"),
        (add_pair("q|r|s"), "pairs key 'q|r|s' is not two names joined by '|'"),
    ],
    ids=["language-old-and-new", "one-name-pair", "three-name-pair"],
)
def test_a_profile_lists_each_language_once_and_pairs_two(
    tmp_path, capsys, artifacts, change, message
):
    """``allocate`` wrote a plan from each: ``profile_similarity`` refuses a
    language that is both old and new, and a pair key that is not two names
    was never read."""
    record, write, command = artifact_kind("profile", artifacts)
    write(str(tmp_path / "profile.json"), change(record))
    failure = run_failing(command(str(tmp_path / "profile.json")), capsys)
    assert failure["error"] == "FormatError"
    assert failure["message"].endswith("profile " + message)
    assert not (tmp_path / "profile.json.plan").exists()


CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from layermoe.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(argv) -> dict:
    """Run a command that must fail in a process with a 2 GB address-space
    limit and a timeout, so that a regression that allocates or hangs fails
    only its test; returns the one error record."""
    source = str(Path(layermoe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", CAPPED, *argv], capture_output=True, text=True, timeout=20, env=env
    )
    assert done.returncode == 2
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("moe-header", ("expansion_history", 0, 1, 0), 1e308),
        ("dense-header", ("config", "layers"), 10**9),
    ],
    ids=["huge-expansion-count", "billion-layers"],
)
def test_unbounded_header_counts_are_rejected_before_allocating(
    tmp_path, artifacts, kind, path, value
):
    """At the parent these hung or ran out of memory."""
    record, write, command = artifact_kind(kind, artifacts)
    write(str(tmp_path / "model.lmoe"), mutated(record, path, value))
    assert run_capped(command(str(tmp_path / "model.lmoe")))["error"] == "FormatError"


@pytest.mark.parametrize("tokens", [10**30, 10**12])
def test_gen_corpus_rejects_a_corpus_too_large_to_hold(tmp_path, tokens):
    """At the parent 10**30 tokens raised numpy's ValueError and 10**12 tried
    to allocate the corpus; each printed a traceback."""
    spec = write_json(tmp_path / "spec.json", {"groups": {"g0": ["a"]}, "block_size": 8})
    argv = ["gen-corpus", "--spec", spec, "--tokens", str(tokens), "--seq-len", "8"]
    record = run_capped(argv + ["--out", str(tmp_path / "c.jsonl")])
    positions = -(-tokens // 8) * 8
    message = f"a corpus of {positions} token positions is over the bound of 2**27"
    assert record == {"error": "InvalidInputError", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize(
    "key, value, count",
    [
        ("hidden", 10**30, 8 * 10**60 + 125 * 10**30),
        ("vocab", 10**30, 16 * 10**30 + 1000),
        ("ffn", 10**30, 48 * 10**30 + 1128),
        ("context", 10**30, 8 * 10**30 + 1448),
        ("layers", 10**9, 464 * 10**9 + 584),
    ],
    ids=["hidden", "vocab", "ffn", "context", "layers"],
)
def test_train_base_rejects_a_model_too_large_to_hold(tmp_path, artifacts, key, value, count):
    """At the parent the 10**30 configs raised numpy's ValueError; a billion
    layers would have initialised block after block."""
    config = write_json(tmp_path / "model.json", {**TINY_MODEL, key: value})
    argv = ["train-base", "--config", config, "--corpus", artifacts["c.jsonl"], "--group", "g0"]
    record = run_capped(argv + ["--steps", "1", "--batch-size", "2", "--out", str(tmp_path / "m")])
    message = f"a model of {count} parameters is over the bound of 2**27"
    assert record == {"error": "InvalidInputError", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_expand_rejects_a_plan_too_large_to_hold(tmp_path, artifacts):
    """At the parent a plan of a billion experts built them one at a time
    and did not finish."""
    plan = ["allocate", "--profile", artifacts["profile.json"], "--budget", str(10**9)]
    assert main(plan + ["--out", str(tmp_path / "plan.json")]) == 0
    argv = ["expand", "--model", artifacts["base.lmoe"], "--plan", str(tmp_path / "plan.json")]
    argv += ["--corpus", artifacts["c.jsonl"], "--group", "g1", "--steps", "1"]
    record = run_capped(argv + ["--out", str(tmp_path / "moe.lmoe")])
    # The base's 1,512 parameters, a zero router column per layer for expert
    # 0, and 10**9 new experts of 3 * 8 * 8 weights and an 8-wide router column.
    count = 1512 + 2 * 8 + 10**9 * (3 * 8 * 8 + 8)
    message = f"a model of {count} parameters is over the bound of 2**27"
    assert record == {"error": "InvalidInputError", "message": message}
    assert not (tmp_path / "moe.lmoe").exists()


def test_train_base_rejects_a_batch_too_large_to_hold(tmp_path, artifacts):
    """At the parent this raised numpy's ValueError."""
    argv = ["train-base", "--config", artifacts["model.json"], "--corpus", artifacts["c.jsonl"]]
    argv += ["--group", "g0", "--steps", "1", "--batch-size", str(10**30)]
    record = run_capped(argv + ["--out", str(tmp_path / "m.lmoe")])
    message = "steps must be >= 0 and batch_size in 1..2**16"
    assert record == {"error": "ConfigurationError", "message": message}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "pair, error",
    [(f"model.hidden={10**30}", "InvalidInputError"),
     (f"base.batch_size={10**30}", "ConfigurationError"),
     (f"expansions.0.stage2.batch_size={2**16 + 1}", "ConfigurationError"),
     (f"corpus.tokens_per_language={10**12}", "InvalidInputError")],
    ids=["huge-model", "huge-base-batch", "batch-over-the-bound", "huge-corpus"],
)
def test_run_pipeline_rejects_what_it_cannot_hold_before_writing(tmp_path, pair, error):
    """The first two raised numpy's ValueError after corpus.jsonl was written;
    the huge corpus left an empty output directory."""
    config = write_json(tmp_path / "pipeline.json", pipeline_config())
    out = tmp_path / "out"
    record = run_capped(["run-pipeline", "--config", config, "--out-dir", str(out), "--set", pair])
    assert record["error"] == error
    assert not out.exists()


SWEEP = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from layermoe.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a traceback the command let through
        code, err = None, io.StringIO(repr(exc))
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""
INT_VALUES = (-1, 0, 1, 2**31, 2**63, 10**30, 10**400)
FLOAT_VALUES = ("nan", "inf", "-0.0", "1e308")


def test_every_number_option_exits_0_or_2_with_one_json_line(tmp_path, artifacts):
    """Every int and float option of the file commands, given each edge
    value, either runs or fails by the error contract. All calls run
    in-process in one subprocess with a 2 GB address-space limit, so that a
    value that allocates or hangs fails only this test. ``--steps`` stays 1
    unless it is under test, where 2**31 and above would only mean a long run."""
    from layermoe.cli import _build_parser

    spec = write_json(tmp_path / "spec.json", {"groups": {"g0": ["a"], "g1": ["b"]}, "block_size": 8})
    a = artifacts
    train = ["--corpus", a["c.jsonl"], "--steps", "1", "--batch-size", "2"]
    base = {
        "gen-corpus": ["--spec", spec, "--tokens", "128", "--seq-len", "8"],
        "train-base": ["--config", a["model.json"], *train, "--group", "g0"],
        "profile": ["--model", a["base.lmoe"], "--corpus", a["c.jsonl"], "--group", "g1", "--q", "8"],
        "allocate": ["--profile", a["profile.json"], "--budget", "3"],
        "expand": ["--model", a["base.lmoe"], "--plan", a["plan.json"], *train, "--group", "g1"],
        "review": ["--model", a["moe.lmoe"], *train, "--profile", a["profile.json"]],
        "eval": ["--model", a["rev.lmoe"], "--corpus", a["c.jsonl"]],
    }
    commands = next(x for x in _build_parser()._actions if x.dest == "command").choices
    calls = []
    for command, argv in base.items():
        out = ["--out", str(tmp_path / command)]
        for action in commands[command]._actions:
            values = {int: INT_VALUES, float: FLOAT_VALUES}.get(action.type, ())
            for value in values:
                if action.dest == "steps" and int(value) >= 2**31:
                    continue
                calls.append([command, *argv, *out, f"{action.option_strings[0]}={value}"])
    assert {call[0] for call in calls} == set(base)
    source = str(Path(layermoe.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", SWEEP], input=json.dumps(calls),
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    broken = []
    for argv, (code, err) in zip(calls, json.loads(done.stdout)):
        lines = err.strip().splitlines()
        if code == 0 and not lines:
            continue
        if code == 2 and len(lines) == 1 and json.loads(lines[0]).keys() == {"error", "message"}:
            continue
        broken.append((argv[0], argv[-1], code, err[-300:]))
    assert not broken


def checkpoint_bytes(path, header=None, payload=None) -> bytes:
    """The checkpoint at ``path`` with its header bytes or payload replaced."""
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = raw[16 : 16 + hlen] if header is None else header
    payload = raw[16 + hlen :] if payload is None else payload
    return raw[:8] + struct.pack("<Q", len(header)) + header + payload


def over_long_header(path):
    raw = Path(path).read_bytes()
    return raw[:8] + struct.pack("<Q", len(raw)) + raw[16:]


def nan_payload(path):
    _, payload = read_header(path)
    return checkpoint_bytes(path, payload=struct.pack("<d", math.nan) + payload[8:])


def experts_beyond_params(path):
    """Each count within the parameter count, their sum beyond it."""
    header, _ = read_header(path)
    n = len(header["params"])
    header["expansion_history"][0][1] = [n, n]
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return checkpoint_bytes(path, header=encoded)


@pytest.mark.parametrize(
    "checkpoint, change, message",
    [
        ("base.lmoe", over_long_header, "truncated header"),
        ("base.lmoe", lambda path: checkpoint_bytes(path, header=b"\xff\xfe"),
         "unreadable header: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("base.lmoe", nan_payload, "non-finite values in parameter blocks.0.attn_norm"),
        ("rev.lmoe", experts_beyond_params, "expansion history has more experts than parameters"),
    ],
    ids=["header-beyond-the-file", "header-not-utf8", "nan-in-payload", "experts-beyond-params"],
)
def test_eval_rejects_a_checkpoint_that_cannot_hold_its_model(
    tmp_path, capsys, artifacts, checkpoint, change, message
):
    path = tmp_path / "model.lmoe"
    path.write_bytes(change(artifacts[checkpoint]))
    argv = ["eval", "--model", str(path), "--corpus", artifacts["c.jsonl"]]
    record = run_failing(argv + ["--out", str(tmp_path / "metrics.json")], capsys)
    assert record["error"] == "FormatError"
    assert record["message"].startswith(f"{path}: {message}")
