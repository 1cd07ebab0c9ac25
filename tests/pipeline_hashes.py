"""Hash every file that ``cli.run_pipeline`` writes for two small pipelines,
every artifact of the command chain and the logits of one served batch, or
compare two such listings file by file.

    PYTHONPATH=src python tests/pipeline_hashes.py > head.txt
    python tests/pipeline_hashes.py --compare base.txt head.txt
    PYTHONPATH=src python tests/pipeline_hashes.py --ledger > tests/ledger.json

The first form runs a lifelong-shaped pipeline (a dense base plus two small
expansions) and a wide-shaped one (one expansion with eight new experts per
layer), each at two seeds, with the ``layermoe`` found on the path. It also
runs the command chain of the lifelong pipeline's first expansion
(``gen-corpus`` to ``eval``) at that pipeline's config and first seed, with
the defaults of ``review`` and ``eval``; every chain file but the stage-1
model has a byte-equal namesake in ``lifelong-1``. And it serves one gated
batch at the width the benchmark serves (``served``). It prints one
``<sha256>  <run>/<file>`` line per output file; a chain command's manifest
is left out, because it records absolute temporary paths. The second prints a
Markdown table of the files whose hashes differ, or that only one listing
has, and a count of those that match. CI runs it on a pull request's base
and head to show which output bytes the change moves; it reports, and
exits 0 either way. The third form records the hashes with the numpy and
BLAS build, and the BLAS kernel, that made them, as the ledger
``test_ledger.py`` checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

# Both shapes run to the end at these seeds; at some others a layer's
# similarity is not positive and allocation rejects the profile.
SEEDS = (1, 3)
CHAIN_SEED = 1
SERVE_SEED = 1


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


def _flags(values: dict) -> list[str]:
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


def chain(out: Path) -> None:
    """The lifelong pipeline's first expansion, run as the command chain
    into ``out``: sizes, rates and the pipeline seed are set, and ``review``
    and ``eval`` keep their defaults for the classifier count and the mode."""
    from layermoe.cli import main

    config = pipeline_config("lifelong", CHAIN_SEED)
    expansion = config["expansions"][0]
    seed, old, group = [f"--seed={CHAIN_SEED}"], config["base"]["group"], expansion["group"]
    corpus, base, profile, plan, moe, reviewed = (
        str(out / name)
        for name in ("corpus.jsonl", "base.lmoe", "profile.json", "plan.json", "moe.lmoe",
                     "rev.lmoe")
    )
    with tempfile.TemporaryDirectory() as inputs:
        spec, model = Path(inputs, "spec.json"), Path(inputs, "model.json")
        spec.write_text(json.dumps(config["languages"]))
        model.write_text(json.dumps(config["model"]))
        base_stage = {k: v for k, v in config["base"].items() if k != "group"}
        commands = [
            ["gen-corpus", f"--spec={spec}", f"--tokens={config['corpus']['tokens_per_language']}",
             f"--seq-len={config['model']['context']}", f"--out={corpus}", *seed],
            ["train-base", f"--config={model}", f"--corpus={corpus}", f"--group={old}",
             *_flags(base_stage), f"--out={base}", *seed],
            ["profile", f"--model={base}", f"--corpus={corpus}", f"--group={group}",
             f"--q={expansion['q']}", f"--out={profile}", *seed],
            ["allocate", f"--profile={profile}", f"--budget={expansion['budget']}", f"--out={plan}"],
            ["expand", f"--model={base}", f"--plan={plan}", f"--corpus={corpus}", f"--group={group}",
             *_flags(expansion["stage1"]), f"--out={moe}", *seed],
            ["review", f"--model={moe}", f"--corpus={corpus}", f"--q={expansion['q']}",
             *_flags(expansion["stage2"]), f"--out={reviewed}", *seed],
            ["eval", f"--model={reviewed}", f"--corpus={corpus}", f"--out={out / 'metrics.json'}",
             f"--max-sequences={config['evaluation']['max_sequences_per_language']}"],
        ]
        for argv in commands:
            errors = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}: {errors.getvalue().strip()}")


def served(out: Path) -> None:
    """One gated forward at serving width into ``out/logits.f64``: 64
    sequences of 15 tokens through a 3-layer MoE with hidden 32, ffn 64 and
    9 experts per layer, seeded non-zero router columns and seeded
    classifiers on layers 1 and 2, so that the gate fires on some rows of
    each."""
    from layermoe.model import DenseModel, ModelConfig, add_classifiers, forward, upcycle
    from layermoe.numerics import SeededRng, derive_seed

    config = ModelConfig(layers=3, hidden=32, heads=4, vocab=64, ffn=64, context=16, top_k=2,
                         seed=SERVE_SEED)
    model = upcycle(DenseModel.create(config, ("g0",)), (8,) * config.layers, "g1")
    add_classifiers(model, (1, 2))
    for name in sorted(model.params):
        if ".router." in name or name.endswith(".classifier"):
            gen = SeededRng(derive_seed(SERVE_SEED, "served", name)).generator()
            model.params[name].data[:] = gen.normal(0.0, 0.3, size=model.params[name].shape)
    gen = SeededRng(derive_seed(SERVE_SEED, "served", "tokens")).generator()
    tokens = gen.integers(0, config.vocab, size=(64, 15))
    (out / "logits.f64").write_bytes(forward(model, tokens, mode="gated").logits.tobytes())


def hashes() -> list[str]:
    from layermoe.cli import run_pipeline

    runs = {
        f"{shape}-{seed}": partial(run_pipeline, pipeline_config(shape, seed))
        for shape in ("lifelong", "wide")
        for seed in SEEDS
    }
    runs[f"chain-{CHAIN_SEED}"] = chain
    runs[f"served-{SERVE_SEED}"] = served
    lines = []
    for run, make in runs.items():
        with tempfile.TemporaryDirectory() as out:
            try:
                make(Path(out))
            except Exception as exc:  # reported, so that one run cannot hide the rest
                lines.append(f"error  {run}: {exc!r}")
                continue
            for path in sorted(Path(out).iterdir()):
                if not path.name.endswith(".manifest.json"):
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
