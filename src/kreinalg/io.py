"""JSON matrix documents: the interchange format of the command line tool.

A matrix document is an object with exactly the keys ``field`` ("real" or
"complex"), ``rows``, ``cols``, and ``data``.  ``data`` is a list of
``rows`` rows of ``cols`` entries each; real entries are plain JSON
numbers, complex entries are two-element ``[re, im]`` arrays.  Numbers
round-trip exactly: serialization uses the shortest decimal form that
parses back to the same double.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain

import numpy as np

from .errors import ParseError, SchemaError
from .matrices import COMPLEX, REAL, field_of

__all__ = [
    "parse_matrix_document",
    "matrix_document",
    "serialize_matrix_document",
    "scalar_pair",
    "dumps",
]

_DOCUMENT_KEYS = {"field", "rows", "cols", "data"}
_NUMBER_TYPES = {int, float}  # json.loads gives no subclasses, and bool is not one of these


def _require_finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{where}: integer out of the double range") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: entries must be finite")
    return value


def parse_matrix_document(text) -> np.ndarray:
    """Parse a matrix document into a float64/complex128 array.

    Raises ParseError (with line and column where json gives them) on
    input json cannot read, and SchemaError when the JSON does not follow
    the document schema.
    """
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except ValueError as exc:  # json reads integer literals with int(), which caps their length
        raise ParseError(
            f"integer literal of more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise SchemaError("matrix document must be a JSON object")
    if set(doc) != _DOCUMENT_KEYS:
        raise SchemaError(
            f"matrix document must have exactly the keys "
            f"{sorted(_DOCUMENT_KEYS)}, got {sorted(doc)}"
        )
    field = doc["field"]
    if field not in (REAL, COMPLEX):
        raise SchemaError(f'field must be "real" or "complex", got {field!r}')
    rows, cols = doc["rows"], doc["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SchemaError(f"{name} must be a positive integer, got {value!r}")
    data = doc["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(f"data must be a list of {rows} rows")
    out = _parse_at_once(data, cols, field)
    return _parse_by_entry(data, cols, field) if out is None else out


def _parse_at_once(data: list, cols: int, field: str):
    """The entries as one array, or None when any row or entry breaks the schema.

    The types of all entries are checked together, numpy converts them in
    one call, and one pass tests them for finiteness.  The array has the
    bits of :func:`_parse_by_entry`'s.
    """
    if not all(type(row) is list and len(row) == cols for row in data):
        return None
    shape = (len(data), cols)
    if field == COMPLEX:  # the [re, im] pairs become rows of two numbers
        data = list(chain.from_iterable(data))
        if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
            return None
    if not set(map(type, chain.from_iterable(data))) <= _NUMBER_TYPES:
        return None
    count = len(data) * len(data[0])
    try:
        values = np.fromiter(chain.from_iterable(data), np.float64, count)
    except OverflowError:  # an integer beyond the double range
        return None
    if not np.isfinite(values).all():
        return None
    if field == COMPLEX:
        values = values.view(np.complex128)
    return values.reshape(shape)


def _parse_by_entry(data: list, cols: int, field: str) -> np.ndarray:
    """The entries checked one at a time, in order.

    Raises the SchemaError of the first row or entry that breaks the
    schema, so it names where that is.
    """
    out = np.zeros((len(data), cols), dtype=np.complex128 if field == COMPLEX else np.float64)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"data row {i} must be a list of {cols} entries")
        for j, entry in enumerate(row):
            where = f"data[{i}][{j}]"
            if field == REAL:
                out[i, j] = _require_finite_number(entry, where)
            else:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SchemaError(f"{where}: complex entries are [re, im] pairs")
                out[i, j] = complex(
                    _require_finite_number(entry[0], where),
                    _require_finite_number(entry[1], where),
                )
    return out


def matrix_document(matrix) -> dict:
    """Canonical document dict for a 2-D array."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise SchemaError(f"only 2-D matrices can be serialized, got ndim={matrix.ndim}")
    rows, cols = matrix.shape
    field = field_of(matrix)
    data = np.stack([matrix.real, matrix.imag], -1) if field == COMPLEX else matrix
    data = data.astype(np.float64).tolist()
    return {"field": field, "rows": int(rows), "cols": int(cols), "data": data}


def scalar_pair(z) -> list:
    """A scalar as the [re, im] pair used in result documents."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def dumps(obj) -> str:
    """Compact deterministic JSON with a trailing newline.

    The schema admits only finite numbers, so a NaN or an infinity (a
    result outside the double range) raises SchemaError.
    """
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:  # json's error for a non-finite float
        raise SchemaError("result has a number outside the double range") from None


def serialize_matrix_document(matrix) -> str:
    """Canonical serialized form; parse followed by serialize is idempotent."""
    return dumps(matrix_document(matrix))
