"""Versioned binary checkpoints, bit-exact across save/load cycles.

Layout (little-endian):
    magic   4 bytes  b"LMOE"
    version u32      currently 1
    hlen    u64      byte length of the JSON header
    header  hlen bytes of canonical JSON (sorted keys, no whitespace)
    payload concatenated float64 parameter blobs, row-major, in the
            header's ``params`` order

The header carries the model kind, config, language groups, expansion
history, classifier layers, and each parameter's name and shape. Loading
checks that the parameters are exactly the names and shapes this structure
implies.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError
from ..numerics import Tensor
from .config import ModelConfig
from .network import DenseModel, Expansion, Model, MoEModel, param_shapes

MAGIC = b"LMOE"
VERSION = 1


def _header(model: Model) -> dict:
    names = sorted(model.params)
    header = {
        "kind": model.kind,
        "config": model.config.to_dict(),
        "params": [{"name": n, "shape": list(model.params[n].data.shape)} for n in names],
    }
    if isinstance(model, MoEModel):
        header["base_groups"] = list(model.base_groups)
        header["expansion_history"] = [
            [e.group, list(e.new_experts)] for e in model.expansion_history
        ]
        header["classifier_layers"] = list(model.classifier_layers)
    else:
        header["groups"] = list(model.groups)
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


def _is_param_entry(entry) -> bool:
    """A header ``params`` entry: a string name and a shape of non-negative ints."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        return False
    shape = entry.get("shape")
    return isinstance(shape, list) and all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
    )


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    keys = header if isinstance(header, dict) else {}
    missing = [k for k in ("kind", "config", "params") if k not in keys]
    if missing:
        raise FormatError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if not isinstance(header["params"], list):
        raise FormatError(f"{path}: checkpoint header 'params' must be a list")
    for index, entry in enumerate(header["params"]):
        if not _is_param_entry(entry):
            raise FormatError(
                f"{path}: header params entry {index} needs a string 'name' and a 'shape' "
                f"of non-negative ints, found {entry!r}"
            )

    expected = sum(
        int(np.prod(entry["shape"], dtype=np.int64)) for entry in header["params"]
    )
    payload = raw[16 + hlen :]
    if len(payload) != expected * 8:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected * 8}"
        )

    params: dict[str, Tensor] = {}
    offset = 0
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        block = np.frombuffer(payload, dtype="<f8", count=count, offset=offset * 8)
        offset += count
        data = block.astype(np.float64).reshape(shape)
        if not np.isfinite(data).all():
            raise FormatError(f"{path}: non-finite values in parameter {entry['name']}")
        params[entry["name"]] = Tensor(data)

    config = ModelConfig.from_dict(header["config"])
    if header["kind"] == "dense":
        model = DenseModel(config, params, header.get("groups", ()))
    elif header["kind"] == "moe":
        history = [Expansion(g, tuple(c)) for g, c in header.get("expansion_history", [])]
        if any(len(e.new_experts) != config.layers for e in history):
            raise FormatError(f"{path}: expansion history does not cover {config.layers} layers")
        groups, layers = header.get("base_groups", ()), header.get("classifier_layers", ())
        model = MoEModel(config, params, groups, history, layers)
    else:
        raise FormatError(f"{path}: unknown model kind {header['kind']!r}")
    expected = param_shapes(model)
    found = {name: p.data.shape for name, p in params.items()}
    wrong = [n for n in sorted(expected.keys() | found.keys()) if found.get(n) != expected.get(n)]
    if wrong:
        detail = "; ".join(f"{n} {found.get(n)} != {expected.get(n)}" for n in wrong)
        raise FormatError(f"{path}: parameters do not fit the model (found != expected): {detail}")
    return model
