"""The bytes of every file ``cli.run_pipeline`` writes for the small pipelines
of ``pipeline_hashes.py``, and of every artifact of its command chain, held
to the checked-in ledger.

The hashes hold for one numpy and BLAS build running one BLAS kernel, so on
any other build or kernel the test skips and names both. A change that moves output bytes on purpose records a
new ledger (``pipeline_hashes.py --ledger``) and says which files moved and why.
"""

import json
from pathlib import Path

import pytest

import pipeline_hashes

LEDGER = Path(__file__).with_name("ledger.json")


def test_pipeline_outputs_match_the_ledger():
    recorded = json.loads(LEDGER.read_text())
    here = pipeline_hashes.build()
    if here != recorded["build"]:
        pytest.skip(f"ledger recorded on {recorded['build']}, this build is {here}")
    found = pipeline_hashes.ledger()["files"]
    moved = sorted(n for n in recorded["files"].keys() | found.keys()
                   if recorded["files"].get(n) != found.get(n))
    assert not moved, f"{len(moved)} of {len(recorded['files'])} files differ: {moved}"
