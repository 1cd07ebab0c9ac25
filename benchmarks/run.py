"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload lifelong --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ``src/`` and the
metric names and units come from ``BENCHMARK.json``. The run sets up the
workload several times (``setup_s`` is the median), warms it up once
untimed, then runs timed sessions back to back until the next one would
overrun ``--seconds``, checks the outputs outside the timed region, writes a
full record under ``.bench_out/results/`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every time is read from the paced clock of ``pace.py``, which takes out the
host's changing speed; the record also keeps each session's wall time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced sessions and reports the per-layer metrics of the traced
ones, with the tracing overhead against the untraced ones. ``--scale tiny``
shrinks every workload for the smoke tests in ``smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# Set-up runs at least this many times and for at least this many paced
# seconds in all; the pipelines' set-up takes under a millisecond.
SETUP_REPEATS = 7
SETUP_SECONDS = 0.5
MIN_SESSIONS = 3


def _git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout at ``root``; None when it is not a git
    checkout. Git does not look above ``root``."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lifelong", "wide_expand", "serve_gated"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "layermoe").is_dir() or not (root / "BENCHMARK.json").is_file():
        print("run from a checkout holding src/layermoe and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # One BLAS thread: LAYERMOE_THREADS must be set before numpy first loads,
    # which happens inside the layermoe import.
    os.environ["LAYERMOE_THREADS"] = "1"
    sys.path.insert(0, str(root / "src"))
    import layermoe
    import numpy as np
    from layermoe.errors import LayerMoEError
    import pace
    import workloads

    out_dir = root / ".bench_out" / args.workload
    workload = workloads.make_workload(args.workload, args.seed, args.scale, out_dir)
    setup_runs = []
    try:
        with pace.PacedClock() as clock:
            while len(setup_runs) < SETUP_REPEATS or sum(setup_runs) < SETUP_SECONDS:
                start = clock.now()
                workload.setup()
                setup_runs.append(clock.now() - start)
            workload.warm_up()
            sessions = workloads.run_sessions(workload, clock.now, args.seconds, bool(args.trace), MIN_SESSIONS)
    except (LayerMoEError, workloads.SessionFailed) as error:
        # An operation of the program failed: report it as such, with no
        # metrics. A failed set-up or warm-up is one failed operation.
        traceback.print_exc()
        attempted = error.attempted if isinstance(error, workloads.SessionFailed) else 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}}))
        return 1
    untraced = [(t, f) for was_traced, t, f in sessions if not was_traced]
    traced = [(t, f) for was_traced, t, f in sessions if was_traced]

    first_tracer, first = untraced[0]
    quality, fingerprints, problems = workload.check(first, first_tracer)
    hashes = first["hashes"]
    for index, (_, _, facts) in enumerate(sessions):
        if facts["hashes"] != hashes:
            problems.append(f"session {index} produced different output bytes")

    walls = [t.total(workloads.ROOT) for t, _ in untraced]
    timing = workload.timing(untraced)
    batch_samples = timing.pop("batch_samples")
    spans = {}
    if args.trace:
        per_session = [workloads.layer_metrics(t) for t, _ in traced]
        metrics = {k: statistics.median(m[k] for m in per_session) for k in per_session[0]}
        traced_walls = [t.total(workloads.ROOT) for t, _ in traced]
        unattributed = max(t.self_time(workloads.ROOT) / t.total(workloads.ROOT) for t, _ in traced)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(walls)
        metrics["trace.unattributed_share"] = unattributed
        if unattributed > workloads.UNATTRIBUTED_LIMIT:
            problems.append(f"{unattributed:.1%} of a traced session is outside every layer span")
        spans = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "min_self_s": s.min_self_s}
            for name, s in sorted(traced[-1][0].stats.items())
        }
    else:
        metrics = {
            "setup_s": statistics.median(setup_runs),
            "wall_s": statistics.median(walls),
            **timing,
            **quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    problems += [f"metric {name} was not measured" for name in missing]
    result = {
        "correct": not problems,
        "attempted": sum(workloads.attempted_operations(t) for _, t, _ in sessions),
        "failed": 0,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layermoe": layermoe.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in ("LAYERMOE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "config": workload.config,
        "setup_runs": len(setup_runs),
        "setup_quartiles_s": statistics.quantiles(setup_runs, n=4),
        "pace": {"reference_s": pace.REFERENCE_S, "passes": clock.passes, "kernel_s": clock.kernel_s},
        "sessions": [
            {"traced": tr, "paced_s": t.total(workloads.ROOT), "wall_s": facts["wall_s"]} for tr, t, facts in sessions
        ],
        "batch_samples": batch_samples,
        "output_hashes": hashes,
        "model_fingerprints": fingerprints,
        "quality": quality,
        "problems": problems,
        "spans": spans,
        "result": result,
    }
    results_dir = root / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"batch samples {batch_samples}; record {record_path.relative_to(root)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
