"""Shared helpers for the test suite."""

import io
import json
import struct
from pathlib import Path

import numpy as np

from layermoe.corpus import generate, language_specs
from layermoe.model import DenseModel, ModelConfig, add_classifiers, upcycle
from layermoe.model.checkpoint import VERSION, load_model, save_model
from layermoe.numerics import SeededRng


def rel_err(a, b, floor=1.0):
    """Max elementwise |a-b| / max(floor, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def read_header(path):
    """A checkpoint's JSON header and the payload bytes after it."""
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]


def write_checkpoint(path, header, payload):
    """A checkpoint of ``header`` and ``payload`` at the current version, as
    ``save_model`` lays it out."""
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    Path(path).write_bytes(b"LMOE" + struct.pack("<IQ", VERSION, len(encoded)) + encoded + payload)


def clone_model(model, tmp_path, name="clone.lmoe"):
    """Deep copy via a checkpoint round trip."""
    path = tmp_path / name
    save_model(model, path)
    return load_model(path)


def gradcheck_setup(plan=(1, 1), classifier_layers=(), seed=3, router_noise=0.3):
    """2-layer, width-16, vocab-32 MoE with randomised routers (so top-k
    selections sit away from ties) plus a two-language corpus."""
    config = ModelConfig(
        layers=2, hidden=16, heads=2, vocab=32, ffn=12, context=8, top_k=2, seed=seed
    )
    specs = language_specs(
        {"g0": ["a"], "g1": ["b"]}, block_size=10, shared_size=10, overlap=0.0, seed=seed
    )
    corpus = generate(specs, 400, config.context, seed + 1)
    dense = DenseModel.create(config, groups=("g0",))
    model = upcycle(dense, plan, "g1")
    gen = SeededRng(seed + 2).generator()
    if router_noise:
        for name in sorted(model.params):
            if ".router." in name:
                model.params[name].data[:] = gen.normal(0.0, router_noise, size=config.hidden)
    if classifier_layers:
        add_classifiers(model, classifier_layers)
        for i in classifier_layers:
            model.params[f"blocks.{i}.classifier"].data[:] = gen.normal(
                0.0, router_noise, size=(config.hidden, 2)
            )
    return dense, model, corpus
