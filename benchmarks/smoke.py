"""Smoke tests for the benchmark itself, at ``--scale tiny``.

    python3 benchmarks/smoke.py
    python3 -m pytest benchmarks/smoke.py

Each workload runs untraced and traced. The tests check that the run passes
its own checks and emits every metric named in ``BENCHMARK.json`` with its
unit, and that every span's self time is non-negative. A copy of the
benchmark without the program must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload]
    command += ["--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_run(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float), metric["name"]
    if trace:
        record_path = ROOT / ".bench_out" / "results" / f"{workload}-seed3-trace1.json"
        spans = json.loads(record_path.read_text())["spans"]
        assert spans, "a traced run records spans"
        for name, span in spans.items():
            assert span["min_self_s"] >= 0.0, name
            assert span["self_s"] <= span["total_s"], name


def test_lifelong():
    _check_run("lifelong", 0)
    _check_run("lifelong", 1)


def test_wide_expand():
    _check_run("wide_expand", 0)
    _check_run("wide_expand", 1)


def test_serve_gated():
    _check_run("serve_gated", 0)
    _check_run("serve_gated", 1)


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("lifelong", 0, cwd=bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
