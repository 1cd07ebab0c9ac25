"""Hash every file that ``cli.run_pipeline`` writes for two small pipelines,
or compare two such listings file by file.

    PYTHONPATH=src python tests/pipeline_hashes.py > head.txt
    python tests/pipeline_hashes.py --compare base.txt head.txt
    PYTHONPATH=src python tests/pipeline_hashes.py --ledger > tests/ledger.json

The first form runs a lifelong-shaped pipeline (a dense base plus two small
expansions) and a wide-shaped one (one expansion with eight new experts per
layer), each at two seeds, with the ``layermoe`` found on the path, and prints
one ``<sha256>  <run>/<file>`` line per output file. The second prints a
Markdown table of the files whose hashes differ, or that only one listing
has, and a count of those that match. CI runs it on a pull request's base
and head to show which output bytes the change moves; it reports, and
exits 0 either way. The third form records the hashes with the numpy and
BLAS build, and the BLAS kernel, that made them, as the ledger
``test_ledger.py`` checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _blas_core() -> str:
    """The kernel that the loaded OpenBLAS runs (``SkylakeX``, ``Haswell``,
    ...): it picks one for the CPU at load time, ``OPENBLAS_CORETYPE`` can
    override it, and kernels differ in output bits. ``numpy.show_config()``
    names only the build target. ``unknown`` where it cannot be read."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:  # the library numpy has loaded, so this reads its state
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def build() -> dict:
    """The numpy version, BLAS library and BLAS kernel that every hash
    depends on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build
        library = "unknown"
    return {"numpy": numpy.__version__, "blas": library, "core": _blas_core()}


def ledger() -> dict:
    """The hashes, keyed by ``<run>/<file>``, with the build that made them."""
    pairs = (line.split("  ", 1) for line in hashes())
    return {"build": build(), "files": {name: digest for digest, name in pairs}}


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
    parser.add_argument("--ledger", action="store_true", help="print the hashes as a ledger")
    args = parser.parse_args(argv)
    if args.ledger:
        print(json.dumps(ledger(), indent=2, sort_keys=True))
        return 0
    lines = compare(*args.compare) if args.compare else hashes()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
