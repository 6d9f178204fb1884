"""Canonical JSON emission: identical input, identical bytes.

Keys are sorted, floats carry at most 17 significant digits (enough to
round-trip any double), indentation is two spaces with LF newlines, and
non-finite floats serialize as null since JSON has no spelling for them.
A numpy value is written as the plain value it stands for, and a dataclass
instance as the object of its fields, keyed by field name.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

__all__ = ["canonical_dumps"]


def _emit(obj: Any, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if isinstance(obj, float):  # np.float64 included
        pieces.append(format(float(obj), ".17g") if math.isfinite(obj) else "null")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(repr(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = {str(k): v for k, v in obj.items()}
        keys = sorted(items)
        for i, key in enumerate(keys):
            pieces.append(pad + "  " + json.dumps(key) + ": ")
            _emit(items[key], indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    # a numpy value is written as the plain Python value it stands for
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, pieces)
    elif isinstance(obj, np.bool_):
        _emit(bool(obj), indent, pieces)
    elif isinstance(obj, np.integer):
        _emit(int(obj), indent, pieces)
    elif isinstance(obj, np.floating):
        _emit(float(obj), indent, pieces)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # shallow: asdict would deep-copy every field first
        _emit({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent, pieces)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Serialize to deterministic JSON text (no trailing newline)."""
    pieces: list = []
    _emit(obj, 0, pieces)
    return "".join(pieces)
