"""The bytes of every file ``cli.run_pipeline`` writes for the small pipelines
of ``pipeline_hashes.py``, of every artifact of its command chain and of its
served batch's logits, held to the checked-in ledger; the chain's artifacts
held to the pipeline's; and each pipeline artifact held to what its own
loader and saver make of it.

The ledger's hashes hold for one numpy and BLAS build running one BLAS
kernel, so on any other build or kernel that test skips and names both. A
change that moves output bytes on purpose records a new ledger
(``pipeline_hashes.py --ledger``) and says which files moved and why. That
the chain writes the pipeline's bytes holds on every build.
"""

import json
from pathlib import Path

import pytest

import pipeline_hashes

LEDGER = Path(__file__).with_name("ledger.json")

# Each chain artifact and the file run_pipeline writes for the same thing in
# the first expansion. The chain's stage-1 model has no namesake: the
# pipeline does not save it.
NAMESAKES = {
    "corpus.jsonl": "corpus.jsonl",
    "base.lmoe": "base.lmoe",
    "base.lmoe.losses.csv": "base.losses.csv",
    "profile.json": "profile.0_g1.json",
    "plan.json": "plan.0_g1.json",
    "moe.lmoe.losses.csv": "stage1.0_g1.losses.csv",
    "rev.lmoe": "model.0_g1.lmoe",
    "rev.lmoe.losses.csv": "stage2.0_g1.losses.csv",
    "metrics.json": "metrics.0_g1.json",
    "metrics.csv": "metrics.0_g1.csv",
}


def test_pipeline_outputs_match_the_ledger():
    recorded = json.loads(LEDGER.read_text())
    here = pipeline_hashes.build()
    if here != recorded["build"]:
        pytest.skip(f"ledger recorded on {recorded['build']}, this build is {here}")
    found = pipeline_hashes.ledger()["files"]
    moved = sorted(n for n in recorded["files"].keys() | found.keys()
                   if recorded["files"].get(n) != found.get(n))
    assert not moved, f"{len(moved)} of {len(recorded['files'])} files differ: {moved}"


def test_the_command_chain_writes_the_pipelines_bytes(tmp_path):
    """The chain used to derive its seeds its own way, so that none of its
    files equalled the pipeline's at the same config and seed, not even the
    corpus. Now ``--seed`` is the pipeline seed on every command."""
    from layermoe.cli import run_pipeline

    chain, pipeline = tmp_path / "chain", tmp_path / "pipeline"
    chain.mkdir()
    pipeline_hashes.chain(chain)
    run_pipeline(pipeline_hashes.pipeline_config("lifelong", pipeline_hashes.CHAIN_SEED), pipeline)
    written = {p.name for p in chain.iterdir() if not p.name.endswith(".manifest.json")}
    assert written == {*NAMESAKES, "moe.lmoe"}
    differ = [name for name, namesake in NAMESAKES.items()
              if (chain / name).read_bytes() != (pipeline / namesake).read_bytes()]
    assert not differ, f"chain files that differ from their pipeline namesakes: {differ}"


def test_each_artifact_saves_its_loaded_form_to_the_same_bytes(tmp_path):
    """One way to write and read each artifact: every profile, plan,
    checkpoint and corpus a pipeline writes, loaded and saved again, is the
    same file, so a second writer or a field that a loader drops fails here.
    It holds on every build."""
    from layermoe.allocator import load_plan, save_plan
    from layermoe.cli import run_pipeline
    from layermoe.corpus import TaggedCorpus
    from layermoe.model import load_model, save_model
    from layermoe.profiler import load_profile, save_profile

    codecs = {
        "corpus": (TaggedCorpus.load_jsonl, TaggedCorpus.save_jsonl),
        "base": (load_model, save_model),
        "model": (load_model, save_model),
        "profile": (load_profile, save_profile),
        "plan": (load_plan, save_plan),
    }
    outputs = run_pipeline(pipeline_hashes.pipeline_config("lifelong", 1), tmp_path / "run")
    checked = {name: path for name, path in outputs.items()
               if path.name.split(".")[0] in codecs and path.suffix != ".csv"}
    differ = []
    for name, path in checked.items():
        load, save = codecs[path.name.split(".")[0]]
        again = tmp_path / path.name
        save(load(path), again)
        if again.read_bytes() != path.read_bytes():
            differ.append(name)
    assert len(checked) == 8
    assert not differ, f"saved again from their loaded form, these differ: {differ}"
