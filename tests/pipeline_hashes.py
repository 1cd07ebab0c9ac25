"""Hash every file that ``cli.run_pipeline`` writes for two small pipelines,
or compare two such listings file by file.

    PYTHONPATH=src python tests/pipeline_hashes.py > head.txt
    python tests/pipeline_hashes.py --compare base.txt head.txt

The first form runs a lifelong-shaped pipeline (a dense base plus two small
expansions) and a wide-shaped one (one expansion with eight new experts per
layer), each at two seeds, with the ``layermoe`` found on the path, and prints
one ``<sha256>  <run>/<file>`` line per output file. The second prints a
Markdown table of the files whose hashes differ, or that only one listing
has, and a count of those that match. CI runs it on a pull request's base
and head to show which output bytes the change moves; it reports, and
exits 0 either way.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

# Both shapes run to the end at these seeds; at some others a layer's
# similarity is not positive and allocation rejects the profile.
SEEDS = (1, 3)


def _stage(steps: int) -> dict:
    return {"steps": steps, "batch_size": 4, "learning_rate": 0.05, "momentum": 0.9}


def pipeline_config(shape: str, seed: int) -> dict:
    groups = {"g0": ["a0", "a1"], "g1": ["b0", "b1"]}
    if shape == "lifelong":
        groups["g2"] = ["c0", "c1"]
        new_groups, per_layer = ["g1", "g2"], 1
    else:
        new_groups, per_layer = ["g1"], 8
    layers = 3
    return {
        "seed": seed,
        "languages": {"groups": groups, "block_size": 8, "shared_size": 8, "overlap": 0.3},
        "model": {"layers": layers, "hidden": 16, "heads": 2, "vocab": 64, "ffn": 16,
                  "context": 12, "top_k": 2},
        "corpus": {"tokens_per_language": 768},
        "base": {"group": "g0", **_stage(6)},
        "expansions": [
            {"group": group, "budget": per_layer * layers, "q": 24,
             "stage1": _stage(4), "stage2": _stage(4)}
            for group in new_groups
        ],
        "evaluation": {"max_sequences_per_language": 8},
    }


def hashes() -> list[str]:
    from layermoe.cli import run_pipeline

    lines = []
    for shape in ("lifelong", "wide"):
        for seed in SEEDS:
            run = f"{shape}-{seed}"
            with tempfile.TemporaryDirectory() as out:
                try:
                    run_pipeline(pipeline_config(shape, seed), Path(out))
                except Exception as exc:  # reported, so that one run cannot hide the rest
                    lines.append(f"error  {run}: {exc!r}")
                    continue
                for path in sorted(Path(out).iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {run}/{path.name}")
    return lines


def compare(base: Path, head: Path) -> list[str]:
    def read(path: Path) -> dict[str, str]:
        pairs = (line.split("  ", 1) for line in path.read_text().splitlines() if line)
        return {name: digest for digest, name in pairs}

    old, new = read(base), read(head)
    names = sorted(old.keys() | new.keys())
    moved = [n for n in names if old.get(n) != new.get(n)]
    out = [f"**Pipeline output bytes:** {len(names) - len(moved)} of {len(names)} files "
           "match the base."]
    if moved:
        out += ["", "| file | base | head |", "|---|---|---|"]
        out += [f"| {n} | {old.get(n, '—')[:12]} | {new.get(n, '—')[:12]} |" for n in moved]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    lines = compare(*args.compare) if args.compare else hashes()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
