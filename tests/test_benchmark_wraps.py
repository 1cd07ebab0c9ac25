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


def test_every_wrapped_name_is_called(workloads, tmp_path):
    """A tiny ``lifelong`` and a tiny ``serve_gated`` session reach every
    wrapped name between them. A refactor that calls around one would leave
    the name resolving while its span, say ``trainer.stage1_s``, reads 0.
    Each wrap is also timed under a name of its own, so that one of several
    wraps sharing a span cannot hide behind the others."""
    wraps = workloads.STAGE_WRAPS + workloads.LAYER_WRAPS
    calls: dict[str, int] = {}
    for name in ("lifelong", "serve_gated"):
        workload = workloads.make_workload(name, 1, "tiny", tmp_path / name)
        workload.setup()
        tracer = workloads.Tracer()
        workloads.install(tracer, True)
        for index, (owner, attr, *_) in enumerate(wraps):
            tracer.wrap(owner, attr, f"wrap {index}: {owner.__name__}.{attr}")
        try:
            workload.session(tracer)
        finally:
            tracer.restore()
        for span, stats in tracer.stats.items():
            calls[span] = calls.get(span, 0) + stats.calls
    # MoE experts run inside autodiff.expert_mix, not through Expert.__call__,
    # so network.expert reads 0 on every workload (a FOUND in CHANGES.md).
    expected = [span for _, _, span, _ in wraps if span != "network.expert"]
    expected += [
        f"wrap {index}: {owner.__name__}.{attr}"
        for index, (owner, attr, span, _) in enumerate(wraps)
        if span != "network.expert"
    ]
    silent = sorted({span for span in expected if not calls.get(span)})
    assert not silent, f"wrapped names no session called: {silent}"
