"""The CLI error contract: a malformed input file exits 2 with one JSON
line on stderr and no traceback."""

import json

from layermoe.cli import main
from layermoe.model import DenseModel, ModelConfig, save_model


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
