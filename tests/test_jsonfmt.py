"""Tests for deterministic JSON emission."""

import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from capnet import jsonfmt
from capnet.jsonfmt import canonical_dump, canonical_dumps


def _normalize_reference(obj):
    if isinstance(obj, np.ndarray):
        return [_normalize_reference(x) for x in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_normalize_reference(x) for x in obj]
    if isinstance(obj, dict):
        keys = [k for k in obj if isinstance(k, (str, int)) and not isinstance(k, bool)]
        if len(keys) < len(obj) or len({str(k) for k in keys}) < len(obj):
            raise TypeError(f"dict keys {list(obj)!r} are not distinct str or int keys")
        return {str(k): _normalize_reference(v) for k, v in obj.items()}
    return obj


def _emit_reference(obj, indent, pieces):
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(repr(obj))
    elif isinstance(obj, float):
        pieces.append(format(obj, ".17g") if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, list):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(pad + "  ")
            _emit_reference(item, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            pieces.append(pad + "  " + json.dumps(key) + ": ")
            _emit_reference(obj[key], indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps_reference(obj):
    """The two-pass emitter: normalize the whole document, then write it."""
    pieces = []
    _emit_reference(_normalize_reference(obj), 0, pieces)
    return "".join(pieces)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    _FLOATS,
    st.text(max_size=8),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.int8, st.integers(-128, 127)),
    st.builds(np.float64, _FLOATS),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.longdouble, _FLOATS),
)
_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=5).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(lambda xs: np.array(xs).reshape(-1, 1)),
    st.lists(st.booleans(), max_size=4).map(lambda xs: np.array(xs, dtype=bool)),
    # float vectors and matrices of every float width, with non-finite values and -0.0,
    # empty ones and single columns included
    *(
        arrays(
            dtype,
            array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
            elements=st.one_of(st.floats(width=width), _EDGES),
        )
        for dtype, width in ((float, 64), (np.float32, 32), (np.float16, 16), (np.longdouble, 64))
    ),
    # a vector longer than a format block
    arrays(float, jsonfmt._BLOCK_VALUES + 3, elements=st.one_of(_FLOATS, _EDGES)),
)
_DOCUMENTS = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3)), inner, max_size=4),
    ),
    max_leaves=20,
)


def _assert_same_text(text, reference):
    """Fail at the first character where two texts differ.

    pytest's own diff of two texts grows faster than the square of their lines
    (31 s at 500 lines on a 2-CPU Xeon), and hypothesis repeats a failure while
    it shrinks it.
    """
    if text != reference:
        at = len(os.path.commonprefix([text, reference]))
        near = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"texts differ at character {at}: {text[near]!r} != {reference[near]!r}")


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_single_pass_matches_two_pass_reference(doc):
    try:
        reference = _dumps_reference(doc)
    except TypeError:
        with pytest.raises(TypeError, match="dict key"):
            canonical_dumps(doc)
    else:
        _assert_same_text(canonical_dumps(doc), reference)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({1: "a", "1": "b"}, "dict keys 1 and '1' both print as '1'"),
        ({"x": [{"-2": 0, -2: 1}]}, "dict keys '-2' and -2 both print as '-2'"),
        ({True: 1}, "dict key True: a key must be a str or an int"),
        ({"a": 1, np.int64(3): 2}, r"dict key np.int64\(3\): a key must be"),
        ({1.5: "x"}, "dict key 1.5: a key must be"),
        ({None: 0}, "dict key None: a key must be"),
        ({(1, 2): 0}, r"dict key \(1, 2\): a key must be"),
    ],
)
def test_dict_key_not_written_as_given_refused(doc, message):
    # str(k) kept the last of two keys that print alike, and wrote True as "True"
    with pytest.raises(TypeError, match=message):
        canonical_dumps(doc)
    with pytest.raises(TypeError):
        _dumps_reference(doc)


def test_keys_sorted():
    text = canonical_dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')

def test_floats_round_trip():
    for value in (1 / 3, 1e-300, 6.02e23, -0.0, 2.0**-52):
        text = canonical_dumps({"x": value})
        assert json.loads(text)["x"] == value


def test_non_finite_becomes_null():
    doc = json.loads(canonical_dumps({"a": math.nan, "b": math.inf}))
    assert doc == {"a": None, "b": None}
    # a longdouble past the double range rounds to an infinite double, written as null
    big = np.longdouble(2) ** 1100
    for value in (big, np.array([big, -big, 1.0]), np.array([[big, 1.0], [-big, 2.0]])):
        assert canonical_dumps(value) == _dumps_reference(value)


def test_numpy_types_normalized():
    doc = {
        "arr": np.arange(3.0),
        "int": np.int64(7),
        "float": np.float64(0.5),
        "flag": np.bool_(True),
    }
    parsed = json.loads(canonical_dumps(doc))
    assert parsed == {"arr": [0.0, 1.0, 2.0], "int": 7, "float": 0.5, "flag": True}


def test_identical_input_identical_bytes():
    doc = {"values": [1 / 7, 2 / 7], "name": "run", "n": 3}
    assert canonical_dumps(doc) == canonical_dumps(dict(reversed(list(doc.items()))))


def test_nested_layout():
    text = canonical_dumps({"outer": {"inner": [1, 2]}, "empty": {}, "none": None})
    assert json.loads(text) == {"outer": {"inner": [1, 2]}, "empty": {}, "none": None}
    assert "\n" in text and text.startswith("{") and not text.endswith("\n")


@dataclasses.dataclass(frozen=True)
class _Inner:
    values: np.ndarray
    label: str


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    pairs: tuple
    count: int = dataclasses.field(init=False, default=2)


def test_dataclass_written_by_its_fields():
    doc = _Outer(inner=_Inner(values=np.arange(2.0), label="x"), pairs=((1, 0.5),))
    expected = {"inner": {"values": [0.0, 1.0], "label": "x"}, "pairs": [[1, 0.5]], "count": 2}
    assert canonical_dumps(doc) == canonical_dumps(expected)
    assert canonical_dumps([doc]) == canonical_dumps([expected])


def test_unserializable_rejected():
    # a dataclass class is not an instance; np.clongdouble(1).tolist() is itself
    for value in (object(), _Outer, np.clongdouble(1)):
        with pytest.raises(TypeError, match="serialize"):
            canonical_dumps({"f": value})


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_streamed_dump_matches_the_string_across_many_flushes():
    # a list, a dict and a tuple of pairs of 8,192 items each
    items = [1 / 7, 3, True, np.float64(2.5), math.nan, -math.inf, (1, (0.5, None)), np.int64(-4)]
    size = 8192
    rows = [items[i % len(items)] for i in range(size)]
    wide = {f"k{i:05d}": items[i % len(items)] for i in range(size)}
    pairs = tuple((i, i / 3) for i in range(size))
    inner = _Inner(values=np.arange(3.0), label="x")
    doc = {"rows": rows, "wide": wide, "pairs": pairs, "inner": inner, "flag": False}
    plain = dict(doc, inner={"values": [0.0, 1.0, 2.0], "label": "x"})
    handle = _CountingWriter()
    canonical_dump(doc, handle)
    _assert_same_text(handle.getvalue(), canonical_dumps(doc))
    _assert_same_text(handle.getvalue(), _dumps_reference(plain))
    assert handle.writes >= 10


class _RecordingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def test_float_matrix_written_a_block_of_rows_at_a_time():
    # two and a half format blocks of rows, with non-finite values and -0.0 in the middle one
    rows = 5 * jsonfmt._BLOCK_VALUES // 4
    matrix = np.column_stack((np.arange(rows, 0, -1), np.linspace(0.0, 7.0, rows) / 3))
    matrix[rows // 2] = (math.nan, -0.0)
    matrix[rows // 2 + 1] = (math.inf, -math.inf)
    doc = {"matrix": matrix, "after": [1 / 3]}
    handle = _RecordingWriter()
    canonical_dump(doc, handle)
    text = _dumps_reference(doc)
    _assert_same_text(handle.getvalue(), text)
    array_text = canonical_dumps(matrix)
    assert max(handle.lengths) < len(array_text) / 2


def test_float_rows_written_one_row_at_a_time():
    # a list of 1-D float arrays, like chain's profiles, was held whole until the
    # end: some 300 rows make too few pieces to reach a flush
    doc = {"profiles": [np.linspace(0.0, 1.0, 64) / (k + 3) for k in range(300)], "after": [1 / 3]}
    handle = _RecordingWriter()
    canonical_dump(doc, handle)
    _assert_same_text(handle.getvalue(), _dumps_reference(doc))
    assert max(handle.lengths) < 2 * len(canonical_dumps(doc["profiles"][0]))
