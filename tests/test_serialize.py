import json
import math

import numpy as np
import pytest

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


def test_matrix_from_lists_rejects_ragged_and_nonfinite():
    with pytest.raises(ValueError):
        serialize.matrix_from_lists([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        serialize.matrix_from_lists([[1.0, float("nan")]])
