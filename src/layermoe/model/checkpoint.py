"""Versioned binary checkpoints, bit-exact across save/load cycles.

Layout (little-endian):
    magic   4 bytes  b"LMOE"
    version u32      currently 2
    hlen    u64      byte length of the JSON header
    header  hlen bytes of canonical JSON (sorted keys, no whitespace)
    payload concatenated float64 parameter blobs, row-major, in the
            header's ``params`` order

Every model has one header, whose keys are its constructor's arguments: its
config, each parameter's name and shape, ``base_groups``,
``expansion_history`` and ``classifier_layers``, the last two empty for a
model with no expansion. Version 2 has that one header and one parameter
layout, in which a dense model's FFN is expert 0 and no block has an
attention norm; version 1 files are refused as such. The model's
constructor checks its structure: groups, expansion counts, classifier
layers, and parameters that fit them. Loading only parses: it checks the
header against its spec and the payload against the header, refuses a
parameter named twice, makes one constructor call, and reports what the
constructor refuses as a ``FormatError`` that names the file.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, FormatError, InvalidInputError
from ..numerics import Tensor
from ..schema import Int, List, check
from .config import MODEL_SPEC, ModelConfig
from .network import Model, MoEModel

MAGIC = b"LMOE"
VERSION = 2


def _header(model: Model) -> dict:
    names = sorted(model.params)
    return {
        "config": model.config.to_dict(),
        "params": [{"name": n, "shape": list(model.params[n].data.shape)} for n in names],
        "base_groups": list(model.base_groups),
        "expansion_history": [[e.group, list(e.new_experts)] for e in model.expansion_history],
        "classifier_layers": list(model.classifier_layers),
    }


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
    """The header's spec. Counts are at most the number of params present, so
    nothing is enumerated beyond what the file holds."""
    found = header if isinstance(header, dict) else {}
    n = len(found["params"]) if isinstance(found.get("params"), list) else 0
    return {
        "config": {**MODEL_SPEC, "layers": Int(1, n)},
        "params": [{"name": str, "shape": [Int(0)]}],
        "base_groups": List(str, 1),
        "expansion_history": [(str, [Int(0, n)])],
        "classifier_layers": [int],
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
        if entry["name"] in params:
            raise FormatError(f"{path}: parameter listed more than once: {entry['name']}")
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        block = np.frombuffer(payload, dtype="<f8", count=count, offset=offset * 8)
        offset += count
        data = block.astype(np.float64).reshape(shape)
        if not np.isfinite(data).all():
            raise FormatError(f"{path}: non-finite values in parameter {entry['name']}")
        params[entry["name"]] = Tensor(data)

    try:  # the header's keys are the constructor's arguments
        header.update(config=ModelConfig(**header["config"]), params=params)
        return (MoEModel if header["expansion_history"] else Model)(**header)
    except (ConfigurationError, InvalidInputError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
