"""The bytes of every file ``cli.run_pipeline`` writes for the small pipelines
of ``pipeline_hashes.py``, of every artifact of its command chain and of its
served batch's logits, held to the checked-in ledger; and the chain's
artifacts held to the pipeline's.

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
    "profile.csv": "profile.0_g1.csv",
    "plan.json": "plan.0_g1.json",
    "plan.csv": "plan.0_g1.csv",
    "moe.lmoe.losses.csv": "stage1.0_g1.losses.csv",
    "rev.lmoe": "model.0_g1.lmoe",
    "rev.lmoe.losses.csv": "stage2.0_g1.losses.csv",
    "rev.profile.json": "profile.stage1.0_g1.json",
    "rev.profile.csv": "profile.stage1.0_g1.csv",
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
