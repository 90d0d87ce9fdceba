import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from bmlandscape import serialize


def test_format_float_fixed_width():
    assert serialize.format_float(1.0) == "1.0000000000000000e+00"
    assert serialize.format_float(-0.5) == "-5.0000000000000000e-01"
    assert serialize.format_float(0.0) == "0.0000000000000000e+00"


def test_format_float_seventeen_significant_digits():
    # 17 significant digits round-trip every double exactly
    for x in [math.pi, 1 / 3, 2**0.5, 5e-3, 1e300, -1e-300]:
        assert float(serialize.format_float(x)) == x


def test_format_float_nonfinite():
    assert serialize.format_float(math.inf) == "null"
    assert serialize.format_float(-math.inf) == "null"
    with pytest.raises(ValueError):
        serialize.format_float(math.nan)


def test_dumps_is_valid_json_and_ordered():
    obj = {"b": 1, "a": [1.5, 2], "nested": {"x": None, "y": True}}
    text = serialize.dumps(obj)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back == {"b": 1, "a": [1.5, 2], "nested": {"x": None, "y": True}}
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_numeric_rows_stay_on_one_line():
    text = serialize.dumps({"m": [[1.0, 2.0], [3.0, 4.0]]})
    lines = text.splitlines()
    row_lines = [ln for ln in lines if "e+00" in ln]
    assert len(row_lines) == 2  # one line per matrix row


def test_dumps_numpy_scalars_and_bool():
    text = serialize.dumps(
        {"f": np.float64(0.25), "i": np.int64(3), "b": np.bool_(True)}
    )
    back = json.loads(text)
    assert back == {"f": 0.25, "i": 3, "b": True}


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        serialize.dumps({"bad": object()})
    with pytest.raises(TypeError):
        serialize.dumps({1: "non-string key"})


def test_dumps_deterministic():
    obj = {"values": list(np.random.default_rng(3).standard_normal(20))}
    assert serialize.dumps(obj) == serialize.dumps(obj)


def test_save_and_load_round_trip(tmp_path):
    path = tmp_path / "blob.json"
    obj = {"n": 4, "vals": [1.0, 2.5, -3.25], "tag": "x"}
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    assert serialize.load_json(str(path)) == obj


def test_load_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": 1,\n  "b": }\n')
    with pytest.raises(json.JSONDecodeError) as err:
        serialize.load_json(str(path))
    assert err.value.lineno == 2


def test_matrix_round_trip():
    m = np.arange(12, dtype=float).reshape(3, 4)
    rows = serialize.matrix_to_lists(m)
    assert rows == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [8.0, 9.0, 10.0, 11.0]]
    back = serialize.matrix_from_lists(rows)
    assert np.array_equal(back, m)
    with pytest.raises(ValueError, match="expected a 2-d array"):
        serialize.matrix_to_lists(np.arange(3.0))
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        serialize.matrix_to_lists(np.array([[1.0, np.inf]]))


def test_matrix_from_lists_rejects_ragged_and_nonfinite():
    with pytest.raises(ValueError):
        serialize.matrix_from_lists([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        serialize.matrix_from_lists([[1.0, float("nan")]])


# -- rows of plain floats take one format operation, same bytes ----------------

LARGEST = 1.7976931348623157e308
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, LARGEST, -LARGEST, math.inf, -math.inf]
)
FLOATS = st.one_of(st.floats(allow_nan=False), EDGE_FLOATS)
SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
)
ROWS = st.one_of(
    st.lists(FLOATS, max_size=12),  # all Python floats: the one-operation path
    st.lists(SCALARS, max_size=6),  # mixed: the per-element path
    st.lists(st.sampled_from([LARGEST, 1e308, -1e308]), min_size=2, max_size=5),
)
NESTED = st.recursive(ROWS, lambda inner: st.lists(inner, min_size=1, max_size=3), max_leaves=8)
ARRAYS = npst.arrays(
    np.float64,
    npst.array_shapes(min_dims=2, max_dims=3, max_side=4),
    elements=FLOATS,
)


def _reference_scalar(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    return "null" if math.isinf(x) else "%.16e" % x


def _reference(obj, level=0):
    """dumps' layout with every number formatted on its own."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if not isinstance(obj, list):
        return _reference_scalar(obj)
    if not obj:
        return "[]"
    if all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
        return "[" + ", ".join(_reference_scalar(v) for v in obj) + "]"
    pad = "  " * (level + 1)
    body = ",\n".join(pad + _reference(v, level + 1) for v in obj)
    return "[\n" + body + "\n" + "  " * level + "]"


def _assert_round_trip(sent, back):
    if isinstance(sent, np.ndarray):
        sent = sent.tolist()
    if isinstance(sent, list):
        assert isinstance(back, list) and len(back) == len(sent)
        for a, b in zip(sent, back):
            _assert_round_trip(a, b)
    elif isinstance(sent, (bool, np.bool_)):
        assert back is bool(sent)
    elif isinstance(sent, (int, np.integer)):
        assert type(back) is int and back == int(sent)
    elif math.isinf(sent):
        assert back is None
    else:
        assert type(back) is float
        assert struct.pack("<d", back) == struct.pack("<d", float(sent))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(NESTED, ARRAYS))
def test_dumps_matches_per_element_rule_and_round_trips(obj):
    text = serialize.dumps(obj)
    assert text == _reference(obj) + "\n"
    _assert_round_trip(obj, json.loads(text))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(NESTED, st.data())
def test_dumps_rejects_nan_anywhere(obj, data):
    # walk down to a random row and put NaN at a random place in it
    row = obj
    while row and isinstance(row[0], list):
        row = row[data.draw(st.integers(0, len(row) - 1))]
    nan = data.draw(st.sampled_from([math.nan, np.float64(math.nan)]))
    row.insert(data.draw(st.integers(0, len(row))), nan)
    with pytest.raises(ValueError, match="NaN"):
        serialize.dumps(obj)


def test_dumps_rejects_nan_in_arrays():
    with pytest.raises(ValueError, match="NaN"):
        serialize.dumps({"m": np.array([[1.0, 2.0], [math.inf, math.nan]])})
