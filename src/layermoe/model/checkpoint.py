"""Versioned binary checkpoints, bit-exact across save/load cycles.

Layout (little-endian):
    magic   4 bytes  b"LMOE"
    version u32      currently 1
    hlen    u64      byte length of the JSON header
    header  hlen bytes of canonical JSON (sorted keys, no whitespace)
    payload concatenated float64 parameter blobs, row-major, in the
            header's ``params`` order

The header carries the model kind, config, language groups, expansion
history, classifier layers, and each parameter's name and shape. The kind
is derived from the history: "moe" for a model with an expansion, "dense"
for one without. A dense header names its base groups ``groups``; an MoE
header names them ``base_groups`` and records at least one expansion.
Loading checks the header against its spec and the payload against the
header, then builds the model, whose constructor checks the rest: groups,
classifier layers, and parameters that fit the model's structure.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError, InvalidInputError
from ..numerics import Tensor
from ..schema import Int, List, check, problems
from .config import MODEL_SPEC, ModelConfig
from .network import Expansion, Model, MoEModel

MAGIC = b"LMOE"
VERSION = 1


def _header(model: Model) -> dict:
    names = sorted(model.params)
    history = [[e.group, list(e.new_experts)] for e in model.expansion_history]
    header = {
        "kind": "moe" if history else "dense",
        "config": model.config.to_dict(),
        "params": [{"name": n, "shape": list(model.params[n].data.shape)} for n in names],
    }
    if history:
        header.update(base_groups=list(model.base_groups), expansion_history=history,
                      classifier_layers=list(model.classifier_layers))
    else:
        header["groups"] = list(model.base_groups)
    return header


def save_model(model: Model, path: str | Path) -> None:
    header = json.dumps(_header(model), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name in sorted(model.params):
            fh.write(np.ascontiguousarray(model.params[name].data, dtype="<f8").tobytes())


def _header_spec(header) -> dict:
    """The header's spec, with only its kind's keys (the dense ones when the
    kind is malformed). Counts are at most the number of params present, so
    nothing is enumerated beyond what the file holds; classifier layers and
    history fit ``config.layers`` (taken as 0 when malformed, which is reported)."""
    found = header if isinstance(header, dict) else {}
    n = len(found["params"]) if isinstance(found.get("params"), list) else 0
    layers = found["config"].get("layers") if isinstance(found.get("config"), dict) else 0
    layers = 0 if problems(layers, int) else layers
    moe = {
        "base_groups": List(str, 1),
        "expansion_history": List((str, List(Int(0, n), layers, layers)), 1),
        "classifier_layers?": [Int(0, layers - 1)],
    }
    return {
        "kind": {"dense", "moe"},
        "config": {**MODEL_SPEC, "layers": Int(1, n)},
        "params": [{"name": str, "shape": [Int(0)]}],
        **(moe if found.get("kind") == "moe" else {"groups": List(str, 1)}),
    }


def load_model(path: str | Path) -> Model:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    check(header, _header_spec(header), f"{path}: checkpoint header")

    expected = sum(math.prod(entry["shape"]) for entry in header["params"])
    payload = raw[16 + hlen :]
    if len(payload) != expected * 8:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected * 8}"
        )

    params: dict[str, Tensor] = {}
    offset = 0
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        block = np.frombuffer(payload, dtype="<f8", count=count, offset=offset * 8)
        offset += count
        data = block.astype(np.float64).reshape(shape)
        if not np.isfinite(data).all():
            raise FormatError(f"{path}: non-finite values in parameter {entry['name']}")
        params[entry["name"]] = Tensor(data)

    config = ModelConfig(**header["config"])
    # The spec admits a history exactly when the kind is "moe".
    history = [Expansion(g, tuple(c)) for g, c in header.get("expansion_history", [])]
    base_groups = header["base_groups" if history else "groups"]
    layers = header.get("classifier_layers", [])
    try:
        return (MoEModel if history else Model)(config, params, base_groups, history, layers)
    except InvalidInputError as exc:
        raise FormatError(f"{path}: {exc}") from exc
