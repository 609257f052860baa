"""Report emission: a report as ``json.dumps(report, sort_keys=True,
indent=2, default=np.ndarray.tolist)`` writes it, byte for byte, in one
pass.

A report's sample tables hold one numpy array per column.  :func:`to_json`
formats all entries of an array at once and joins their texts: a 1-D
array directly, each row of a deeper one with one ``%`` template of its
row shape.
"""

from __future__ import annotations

import functools
import json

import numpy as np


def to_json(payload) -> str:
    """The payload as ``json.dumps(payload, sort_keys=True, indent=2,
    default=np.ndarray.tolist)`` writes it, plus a newline, byte for byte.
    That call runs CPython's pure-Python encoder (the C one takes no
    indent), so reports are written here instead; dict keys must be
    strings."""
    out: list = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
# float.__repr__ of the values json writes as its own tokens
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL_TEXT = ("false", "true")


@functools.lru_cache(maxsize=256)
def _dict_heads(keys: tuple, newline: str) -> tuple:
    """(key, text before its value) for the keys of a dict in sorted order,
    the dict starting on the line that ``newline`` ends."""
    inner = newline + "  "
    return tuple(
        (key, ("," if k else "{") + inner + _encode_str(key) + ": ")
        for k, key in enumerate(sorted(keys))
    )


def _write(value, newline: str, emit) -> None:
    """Pass the chunks of ``value`` to ``emit`` in order; ``newline`` is a
    line break followed by the indentation of the line ``value`` starts on."""
    cls = type(value)
    if cls is float:
        text = float.__repr__(value)
        emit(_FLOAT_TOKENS.get(text, text))
    elif cls is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        for key, head in _dict_heads(tuple(value), newline):
            emit(head)
            _write(value[key], inner, emit)
        emit(newline + "}")
    elif cls is list or cls is tuple:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep, rest = "[" + inner, "," + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = rest
        emit(newline + "]")
    elif cls is str:
        emit(_encode_str(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif cls is int:
        emit(int.__repr__(value))
    elif cls is np.ndarray:
        _write_array(value, newline, emit)
    # subclasses, written as json.dumps writes them (np.float64 is a float)
    elif isinstance(value, str):
        emit(_encode_str(value))
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        emit(_FLOAT_TOKENS.get(text, text))
    elif isinstance(value, (list, tuple)):
        _write(list(value), newline, emit)
    elif isinstance(value, dict):
        _write(dict(value), newline, emit)
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _write_array(arr: np.ndarray, newline: str, emit) -> None:
    """:func:`_write` of ``arr.tolist()``, from the texts of its entries."""
    if not arr.ndim or not arr.size or arr.dtype.kind not in "fbiu":
        _write(arr.tolist(), newline, emit)
        return
    inner = newline + "  "
    texts = _column_texts(arr)
    if arr.ndim > 1:
        template = _shape_template(arr.shape[1:], inner)
        texts = map(template.__mod__, zip(*[iter(texts)] * (arr.size // len(arr))))
    emit("[" + inner + ("," + inner).join(texts) + newline + "]")


@functools.lru_cache(maxsize=256)
def _shape_template(shape: tuple, newline: str) -> str:
    """The text of a nested list of ``shape``, started on the line that
    ``newline`` ends, with a ``%s`` slot for each entry in row-major order."""
    if not shape:
        return "%s"
    inner = newline + "  "
    item = _shape_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"


def _column_texts(col: np.ndarray) -> list:
    """The entries of the float, bool or integer array ``col`` in
    row-major order, each as :func:`_write` writes it."""
    values = col.ravel().tolist()
    kind = col.dtype.kind
    if kind == "f":
        # a column the jet support makes zero is all +0.0 (NaN is truthy)
        if not any(values) and not np.signbit(col).any():
            return ["0.0"] * len(values)
        texts = list(map(float.__repr__, values))
        return texts if np.isfinite(col).all() else [_FLOAT_TOKENS.get(t, t) for t in texts]
    if kind == "b":
        return [_BOOL_TEXT[v] for v in values]
    return list(map(int.__repr__, values))
