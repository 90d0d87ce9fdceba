"""Deterministic JSON emission for numeric artifacts.

Every floating-point number is written with 17 significant decimal digits
(``%.16e``), which round-trips float64 exactly and keeps re-runs of the same
command byte-identical.  The stdlib ``json`` module cannot control float
formatting, hence this small hand-rolled emitter.  Parsing is plain
``json.loads``.

Lists of numbers are written on one line.  A row whose elements are all
Python floats with a finite sum (so every element is finite; a sum that
overflows only sends the row down the general path) is written by one ``%``
operation on a cached ``"[%.16e, ..., %.16e]"`` string.  That is the same C
conversion ``format_float`` applies to each element, so the bytes are those
of the per-element path, at a fraction of the Python calls: instance
records are mostly such rows.  Every other row (ints, bools, numpy scalars,
infinities, NaN) goes element by element.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Any

import numpy as np

from .matkernel import as_factor

__all__ = [
    "format_float",
    "dumps",
    "load_json",
    "matrix_to_lists",
    "matrix_from_lists",
]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits; null for non-finite values."""
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        # +/- infinity has no portable JSON encoding; callers that allow an
        # infinite sentinel (e.g. a degenerate lower bound) emit null.
        return "null"
    return "%.16e" % x


def _emit(obj: Any, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, (int, float, np.bool_, np.integer, np.floating)):
        out.append(_scalar(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(pad + json.dumps(key) + ": ")
            _emit(val, out, indent, level + 1)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        # nested matrices stay compact: one row per line
        if all(type(v) is float for v in obj) and math.isfinite(sum(obj)):
            # a finite sum means every element is finite: one C-level format
            out.append(_row_format(len(obj)) % tuple(obj))
            return
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if flat:
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for k, val in enumerate(obj):
            out.append(pad)
            _emit(val, out, indent, level + 1)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj)!r}")


@functools.lru_cache(maxsize=64)
def _row_format(length: int) -> str:
    """``"[%.16e, ..., %.16e]"`` with *length* fields."""
    return "[" + ", ".join(["%.16e"] * length) + "]"


def _scalar(v: Any) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_float(float(v))


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize *obj* to deterministic JSON text (keys in insertion order)."""
    out: list = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def matrix_to_lists(m: np.ndarray) -> list:
    """Row-major nested lists for the matrix JSON exchange format."""
    return as_factor(m).tolist()


def _number_array(nested) -> np.ndarray:
    """Array of nested JSON lists of numbers, as numpy parses it.

    numpy reads ``true`` and ``false`` among numbers as 1 and 0, so a
    numeric array is also searched for booleans entry by entry.  The
    record loaders parse every matrix and the measurement stack here.
    """
    a = np.asarray(nested)
    entries = [nested]
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if a.dtype.kind not in "iuf" or bool in set(map(type, entries)):
        raise ValueError("matrix entries must be JSON numbers")
    return a


def matrix_from_lists(rows: list) -> np.ndarray:
    return as_factor(_number_array(rows))
