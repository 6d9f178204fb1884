"""Canonical JSON emission: identical input, identical bytes.

Keys are sorted, floats carry at most 17 significant digits (enough to
round-trip any double), indentation is two spaces with LF newlines, and
non-finite floats serialize as null since JSON has no spelling for them.
A numpy value is written as the plain value it stands for, and a dataclass
instance as the object of its fields, keyed by field name.

``canonical_dump`` writes a document to a text handle in bounded pieces: the
emitter collects a few thousand small strings, writes them out joined and
starts over, so writing a report of any length holds no copy of its text.
A numpy array is written one row at a time, a row of floats as one string.
``canonical_dumps`` returns the same bytes as one string.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from typing import Any, Callable

import numpy as np

__all__ = ["canonical_dump", "canonical_dumps"]

# Pieces the emitter collects before it writes them out, some 0.3 MiB of
# small strings.
_FLUSH_PIECES = 4096


def _float(value: float) -> str:
    return format(value, ".17g") if math.isfinite(value) else "null"


def _emit(obj: Any, indent: int, pieces: list, write: Callable[[str], Any]) -> None:
    if len(pieces) >= _FLUSH_PIECES:
        write("".join(pieces))
        pieces.clear()
    pad = "  " * indent
    if isinstance(obj, float):  # np.float64 included
        pieces.append(_float(float(obj)))
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(repr(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    # an array of rows is written row by row, never as one list
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim > 1):
        if not len(obj):
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(item, indent + 1, pieces, write)
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
            _emit(items[key], indent + 1, pieces, write)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    # a numpy value is written as the plain Python value it stands for, a row of floats in one join
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size and obj.dtype.kind == "f":
        sep = ",\n" + pad + "  "
        pieces.append(f"[\n{pad}  {sep.join(map(_float, obj.tolist()))}\n{pad}]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, pieces, write)
    elif isinstance(obj, np.bool_):
        _emit(bool(obj), indent, pieces, write)
    elif isinstance(obj, np.integer):
        _emit(int(obj), indent, pieces, write)
    elif isinstance(obj, np.floating):
        _emit(float(obj), indent, pieces, write)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # shallow: asdict would deep-copy every field first
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        _emit(fields, indent, pieces, write)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dump(obj: Any, handle) -> None:
    """Write deterministic JSON text (no trailing newline) to a text handle."""
    pieces: list = []
    _emit(obj, 0, pieces, handle.write)
    handle.write("".join(pieces))


def canonical_dumps(obj: Any) -> str:
    """Serialize to deterministic JSON text (no trailing newline)."""
    buffer = io.StringIO()
    canonical_dump(obj, buffer)
    return buffer.getvalue()
