"""Report emission: a report as ``json.dumps(report, sort_keys=True,
indent=2)`` writes it, byte for byte, in one pass.

A report's row tables are :class:`RowTable` lists, which keep the
columns their rows were built from; :func:`to_json` writes such a table
from its columns, one ``%`` template per row layout, each template made
by the writer itself from a row of placeholders.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Sequence

import numpy as np


def to_json(payload) -> str:
    """The payload as ``json.dumps(payload, sort_keys=True, indent=2)``
    writes it, plus a newline, byte for byte.  That call runs CPython's
    pure-Python encoder (the C one takes no indent), so reports are
    written here instead; dict keys must be strings."""
    out: list = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
# float.__repr__ of the values json writes as its own tokens
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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
    elif cls is RowTable:
        _write_table(value, newline, emit)
    elif cls is _Slot:
        emit(value)
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


class RowTable(list):
    """A report table: a list of its rows, as dicts, that keeps the
    columns they were built from.  :func:`_write` writes the table from
    the columns, each row with one ``%`` template of its layout.
    ``layouts`` lists ``(key, row, positions, columns)``: ``row(*values)``
    builds the row at each of ``positions`` from one entry of each column
    (numpy arrays, axis 0 over the rows), and ``key`` names ``row`` and
    the constants it holds in the template cache.  No row may change
    after it is built, since the writer reads the columns."""

    def __init__(self, size: int, layouts: Sequence[tuple]) -> None:
        rows: list = [None] * size
        for _key, row, positions, columns in layouts:
            for pos, values in zip(positions, zip(*(col.tolist() for col in columns))):
                rows[pos] = row(*values)
        super().__init__(rows)
        self.layouts = layouts


class _Slot(str):
    """A leaf :func:`_write` emits as it is: a slot of a row template."""


# (layout key, row shapes of its columns, newline) -> (template, slots)
_TEMPLATES: dict = {}
_BOOL_TEXT = ("false", "true")


def _write_table(table: RowTable, newline: str, emit) -> None:
    """:func:`_write` of a table, from its columns."""
    if not table:
        emit("[]")
        return
    inner = newline + "  "
    texts: list = [None] * len(table)
    for key, row, positions, columns in table.layouts:
        shapes = tuple(col.shape[1:] for col in columns)
        cache_key = (key, shapes, inner)
        template, slots = _TEMPLATES.get(cache_key) or _row_template(cache_key, row, shapes)
        flat = [_column_texts(col) for col in columns]
        widths = [math.prod(shape) for shape in shapes]
        args = zip(*(flat[c][j :: widths[c]] for c, j in slots))
        for pos, values in zip(positions, args):
            texts[pos] = template % values
    emit("[" + inner)
    emit(("," + inner).join(texts))
    emit(newline + "]")


def _row_template(cache_key: tuple, row, shapes: tuple) -> tuple[str, tuple]:
    """``(template, slots)`` of a layout's rows, written by :func:`_write`
    from a row of placeholders and cached under ``cache_key``, whose last
    entry is the newline the rows start after.  Each ``%s`` of the
    template takes entry j of a row of column c, for the ``(c, j)`` at its
    place in ``slots``."""
    placeholders = [
        np.array([_Slot(f"\0{c} {j}\0") for j in range(math.prod(shape))], dtype=object)
        .reshape(shape).tolist()
        for c, shape in enumerate(shapes)
    ]
    out: list = []
    _write(row(*placeholders), cache_key[-1], out.append)
    parts = "".join(out).split("\0")
    template = "%s".join(part.replace("%", "%%") for part in parts[::2])
    slots = tuple(tuple(map(int, part.split())) for part in parts[1::2])
    if len(_TEMPLATES) >= 256:
        _TEMPLATES.clear()
    _TEMPLATES[cache_key] = template, slots
    return template, slots


def _column_texts(col: np.ndarray) -> list:
    """The entries of ``col`` in row-major order, each as :func:`_write`
    writes it."""
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
    if kind in "iu":
        return list(map(int.__repr__, values))
    return list(map(_encode_str, values))
