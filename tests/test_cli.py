"""The CLI error contract: a malformed input file exits 2 with one JSON
line on stderr and no traceback."""

import json

from layermoe.cli import main
from layermoe.model import DenseModel, ModelConfig, save_model, upcycle


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
