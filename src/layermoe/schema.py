"""One declarative checker for the JSON input the program reads, and the
one format every JSON and CSV artifact is written in.

A spec is a literal: ``int``, ``float`` (a finite int or float), ``str``, a
set of strings (one of them), ``[item]`` (a list of ``item``), a tuple (a
list with one value per spec, in order) or a dict (a closed object: those
keys and no others; a key ending in "?" is optional). ``Int``, ``List`` and
``Map`` add bounds and objects with any keys (``Map.named`` gives some keys
their own spec); ``OBJECT`` is an object whose keys and values are free. Any
other callable is a predicate. A bool is never an int or a number.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import FormatError


@dataclass(frozen=True)
class Int:
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class List:
    item: Any
    lo: int = 0
    hi: int | None = None


@dataclass(frozen=True)
class Map:
    item: Any
    named: dict = field(default_factory=dict)


OBJECT = Map(lambda v: True)


def _leaf(spec, v) -> bool:
    if spec is int or isinstance(spec, Int):
        lo, hi = (spec.lo, spec.hi) if spec is not int else (None, None)
        is_int = isinstance(v, int) and not isinstance(v, bool)
        return is_int and (lo is None or lo <= v) and (hi is None or v <= hi)
    if spec is float:
        is_number = isinstance(v, (int, float)) and not isinstance(v, bool)
        return is_number and abs(v) <= sys.float_info.max
    if isinstance(spec, set):
        return isinstance(v, str) and v in spec
    return isinstance(v, str) if spec is str else spec(v)


def _all_ints(spec, values: list) -> bool:
    """True only if every item passes ``_leaf(spec, item)`` for an int spec:
    one type pass and a min/max instead of a leaf call per item. False sends
    the list to the item-by-item walk, which names each wrong item."""
    lo, hi = (spec.lo, spec.hi) if isinstance(spec, Int) else (None, None)
    if not values:
        return True
    if not set(map(type, values)) <= {int}:  # also rejects bool, an int subclass
        return False
    return (lo is None or min(values) >= lo) and (hi is None or max(values) <= hi)


def _parts(spec, value) -> list | None:
    """(key, spec, value) of each part of a list or map; None if it does not fit."""
    spec = List(spec[0]) if isinstance(spec, list) else spec
    if isinstance(spec, (List, tuple)):
        lo, hi = (spec.lo, spec.hi) if isinstance(spec, List) else (len(spec), len(spec))
        if not isinstance(value, list) or len(value) < lo or (hi is not None and len(value) > hi):
            return None
        if isinstance(spec, List) and (spec.item is int or isinstance(spec.item, Int)):
            if _all_ints(spec.item, value):
                return []
        specs = [spec.item] * len(value) if isinstance(spec, List) else spec
        return list(zip(range(len(value)), specs, value))
    if isinstance(spec, Map):
        items = value.items() if isinstance(value, dict) else None
        return None if items is None else [(k, spec.named.get(k, spec.item), v) for k, v in items]
    return [] if _leaf(spec, value) else None


def _walk(spec, value, path: str, missing: list, wrong: list, unknown: list) -> None:
    at = (lambda key: f"{path}.{key}") if path else str
    if isinstance(spec, dict) and isinstance(value, dict):
        named = 0
        for name, sub in spec.items():
            key = name.rstrip("?")
            if key in value:
                named += 1
                _item(sub, value[key], at, key, missing, wrong, unknown)
            elif key == name:  # a required object is reported by its required keys
                inner = [k for k in sub if not k.endswith("?")] if isinstance(sub, dict) else []
                missing += [f"{at(key)}.{k}" for k in inner] or [at(key)]
        if named < len(value):
            unknown += [at(k) for k in value
                        if f"{k}?" not in spec and (k not in spec or k.endswith("?"))]
        return
    parts = None if isinstance(spec, dict) else _parts(spec, value)
    if parts is None:
        wrong.append(path or "the top level")
    for key, sub, item in parts or ():
        _item(sub, item, at, key, missing, wrong, unknown)


def _item(spec, value, at, key, missing: list, wrong: list, unknown: list) -> None:
    """Walk into the part ``key`` of an object or list, or check a leaf in place."""
    if spec is int and type(value) is int:  # the commonest leaf, passed without a call
        return
    if isinstance(spec, (dict, list, tuple, List, Map)):
        _walk(spec, value, at(key), missing, wrong, unknown)
    elif not _leaf(spec, value):
        wrong.append(at(key))


def problems(value, spec) -> list[str]:
    """What is wrong with ``value`` under ``spec``: ``lacks a, b``, ``has a value
    of the wrong type at x, y`` and ``has unknown keys z``; empty when it matches."""
    found: tuple[list, list, list] = ([], [], [])  # missing, wrong, unknown
    _walk(spec, value, "", *found)
    labels = ("lacks", "has a value of the wrong type at", "has unknown keys")
    return [f"{label} {', '.join(paths)}" for label, paths in zip(labels, found) if paths]


def check(value, spec, what: str):
    """``value`` if it matches ``spec``; otherwise one FormatError that names
    ``what``, every missing key, every wrong path and every unknown key."""
    found = problems(value, spec)
    if found:
        raise FormatError(f"{what} {'; '.join(found)}")
    return value


def by_index(rows: list[dict], what: str) -> list[dict]:
    """``rows`` sorted by their int ``index``, which must run over 0..n-1."""
    rows = sorted(rows, key=lambda row: row["index"])
    if [row["index"] for row in rows] != list(range(len(rows))):
        raise FormatError(f"{what} layer indices are not 0..{len(rows) - 1}")
    return rows


def load_json(path: str | Path):
    """The JSON value in a file; FormatError when the file is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


def save_json(path: str | Path, value) -> None:
    """Write ``value`` as JSON: indent 2, sorted keys, a final newline, UTF-8."""
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def save_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> Path:
    """Write a header row and ``rows`` as UTF-8 CSV with ``\\r\\n`` line ends;
    returns the path written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)
