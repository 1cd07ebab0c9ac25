"""The benchmark times package calls by replacing them by name; every name
it wraps must still resolve, or only a traced benchmark run would notice."""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("workloads")


def test_every_wrapped_name_is_callable(workloads):
    wraps = workloads.STAGE_WRAPS + workloads.LAYER_WRAPS
    assert wraps
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in wraps
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"benchmark wraps names that no longer exist: {missing}"
