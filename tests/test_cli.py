"""The CLI: every command runs end to end and replays to the same bytes, and
a malformed input file exits 2 with one JSON line on stderr and no
traceback."""

import json
import struct

import pytest

from layermoe.cli import main
from layermoe.model import DenseModel, ModelConfig, save_model, upcycle

TINY_MODEL = {"layers": 2, "hidden": 8, "heads": 2, "vocab": 32, "ffn": 8, "context": 8}


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


def test_gen_corpus_rejects_spec_without_groups(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"block_size": 8})
    argv = ["gen-corpus", "--spec", spec, "--tokens", "64", "--seq-len", "8"]
    argv += ["--out", str(tmp_path / "corpus.jsonl")]
    assert run_failing(argv, capsys)["error"] == "FormatError"


def test_expand_rejects_plan_that_breaks_its_invariants(tmp_path, capsys):
    config = ModelConfig(layers=2, hidden=8, heads=2, vocab=32, ffn=8, context=8)
    model = tmp_path / "dense.lmoe"
    save_model(DenseModel.create(config, groups=("g0",)), model)
    layers = [
        {"index": 0, "similarity": 0.5, "new_experts": 7},
        {"index": 1, "similarity": 0.4, "new_experts": 0},
    ]
    plan = write_json(tmp_path / "plan.json", {"budget": 99, "layers": layers})
    argv = ["expand", "--model", str(model), "--plan", plan, "--corpus", str(tmp_path / "c.jsonl")]
    argv += ["--group", "g1", "--steps", "1", "--out", str(tmp_path / "moe.lmoe")]
    record = run_failing(argv, capsys)
    assert record["error"] == "FormatError"
    assert "budget is 99" in record["message"]
    assert "fewer than one" in record["message"]


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
        "expansions": [{"group": "g1", "budget": 2, "q": 8, "stage1": stage, "stage2": stage}],
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


def test_run_pipeline_rejects_an_empty_model_config(tmp_path, capsys):
    config = write_json(tmp_path / "pipeline.json", pipeline_config(model={}))
    argv = ["run-pipeline", "--config", config, "--out-dir", str(tmp_path / "out")]
    record = run_failing(argv, capsys)
    assert record["error"] == "ConfigurationError"
    assert "lacks layers, hidden, heads, vocab, ffn, context" in record["message"]


@pytest.mark.parametrize(
    "model, error, details",
    [
        (
            {**TINY_MODEL, "hidden": 8.0, "dropout": 0.1},
            "ConfigurationError",
            ["unknown key 'dropout'", "hidden is not an int"],
        ),
        ([2, 8], "FormatError", ["a model config is a JSON object"]),
    ],
    ids=["bad-keys", "not-an-object"],
)
def test_train_base_rejects_a_malformed_model_config(tmp_path, capsys, model, error, details):
    config = write_json(tmp_path / "model.json", model)
    argv = ["train-base", "--config", config, "--corpus", str(tmp_path / "c.jsonl")]
    record = run_failing(argv + ["--group", "g0", "--out", str(tmp_path / "m.lmoe")], capsys)
    assert record["error"] == error
    assert all(detail in record["message"] for detail in details)


def test_checkpoint_header_without_params_is_rejected(tmp_path, capsys):
    header = json.dumps({"kind": "dense", "config": {"layers": 1}}).encode("utf-8")
    path = tmp_path / "bad.lmoe"
    path.write_bytes(b"LMOE" + struct.pack("<IQ", 1, len(header)) + header)
    argv = ["eval", "--model", str(path), "--corpus", str(tmp_path / "c.jsonl")]
    record = run_failing(argv + ["--out", str(tmp_path / "metrics.json")], capsys)
    assert record["error"] == "FormatError"
    assert "lacks params" in record["message"]


@pytest.mark.parametrize(
    "second_line, detail",
    [
        ('{"lang": "a", "group": "g0", "tokens": [0, 2', "JSONDecodeError"),
        ('{"lang": "a", "tokens": [0, 2]}', "KeyError('group')"),
    ],
    ids=["truncated", "no-group"],
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


@pytest.mark.parametrize(
    "manifest, detail",
    [
        ({"arguments": {}, "outputs": {}}, "found None"),
        ({"command": "route-stats"}, "found 'route-stats'"),
        ({"command": "eval", "arguments": {"mode": "plain"}, "outputs": {}}, "lack 'model'"),
    ],
    ids=["no-command", "unknown-command", "missing-argument"],
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
        ["profile", "--model", base, *data, "--old", "g0", "--new", "g1", "--q", "16"]
        + ["--out", profile],
        ["allocate", "--profile", profile, "--budget", "3", "--out", plan],
        ["expand", "--model", base, "--plan", plan, *data, "--group", "g1", *train, "--out", moe],
        ["review", "--model", moe, *data, "--classifier-count", "1", "--q", "16", *train]
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
