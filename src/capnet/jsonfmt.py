"""Canonical JSON emission: identical input, identical bytes.

Keys are sorted, floats carry at most 17 significant digits (enough to
round-trip any double), indentation is two spaces with LF newlines, and
non-finite floats serialize as null since JSON has no spelling for them.
A numpy value is written as the plain value it stands for, and a dataclass
instance as the object of its fields, keyed by field name.  A dict key must
be a ``str`` or an ``int`` (not a ``bool``), and no two keys of one dict may
print alike, so no entry is dropped or renamed on the way out.

``canonical_dump`` passes each token straight to the text handle's
``write``, so the handle's own buffer is the only one and writing a report
of any length holds no copy of its text. A float array of one or two
dimensions is written a block of rows per ``%`` on a row template, a 1-D
array being the one row of a matrix a level up. ``canonical_dumps``
returns the same bytes as one string.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from typing import Any, Callable

import numpy as np

__all__ = ["canonical_dump", "canonical_dumps"]

_BLOCK_VALUES = 2048  # values of a float matrix formatted per block: 1,024 rows of two


def _float(value: float) -> str:
    return format(value, ".17g") if math.isfinite(value) else "null"


def _emit(obj: Any, indent: int, write: Callable[[str], Any]) -> None:
    pad = "  " * indent
    if isinstance(obj, (float, np.floating)):
        write(_float(float(obj)))
    elif obj is None:
        write("null")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, int):
        write(repr(obj))
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        write("[\n")
        for i, item in enumerate(obj):
            write(pad + "  ")
            _emit(item, indent + 1, write)
            write(",\n" if i + 1 < len(obj) else "\n")
        write(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        items = {}  # each key as written, with the key it came from and its value
        for k, v in obj.items():
            if not isinstance(k, (str, int)) or isinstance(k, bool):
                raise TypeError(f"cannot serialize dict key {k!r}: a key must be a str or an int")
            key = str(k)
            if key in items:
                raise TypeError(f"dict keys {items[key][0]!r} and {k!r} both print as {key!r}")
            items[key] = (k, v)
        write("{\n")
        keys = sorted(items)
        for i, key in enumerate(keys):
            write(pad + "  " + json.dumps(key) + ": ")
            _emit(items[key][1], indent + 1, write)
            write(",\n" if i + 1 < len(keys) else "\n")
        write(pad + "}")
    elif isinstance(obj, np.ndarray) and 0 < obj.ndim < 3 and obj.size and obj.dtype.kind == "f":
        # a block of rows per format call; a 1-D array is laid out as a matrix's one row
        rows = obj.reshape(-1, obj.shape[-1])
        inner = pad + "  " * (obj.ndim - 1)
        row = f"[\n{inner}  " + f",\n{inner}  ".join(["%s"] * rows.shape[1]) + f"\n{inner}]"
        opening, closing = ("[\n" + inner, "\n" + pad + "]") if obj.ndim == 2 else ("", "")
        step = max(1, _BLOCK_VALUES // rows.shape[1])
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            # "%.17g" % x is format(float(x), ".17g"), so the check is on doubles: a
            # longdouble past the double range is written as null
            finite = np.isfinite(block, signature=("d", "?")).all()
            values = block.ravel().tolist() if finite else map(_float, block.ravel().tolist())
            template = f",\n{inner}".join([row.replace("%s", "%.17g") if finite else row] * len(block))
            write((f",\n{inner}" if start else opening) + template % tuple(values))
        write(closing)
    # any other numpy value is written as the plain Python value it stands for
    elif isinstance(obj, (np.ndarray, np.bool_, np.integer)):
        _emit(obj.tolist(), indent, write)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # shallow: asdict would deep-copy every field first
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        _emit(fields, indent, write)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dump(obj: Any, handle) -> None:
    """Write deterministic JSON text (no trailing newline) to a text handle."""
    _emit(obj, 0, handle.write)


def canonical_dumps(obj: Any) -> str:
    """Serialize to deterministic JSON text (no trailing newline)."""
    buffer = io.StringIO()
    canonical_dump(obj, buffer)
    return buffer.getvalue()
