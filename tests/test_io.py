import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinalg import ParseError, SchemaError
from kreinalg.generators import random_matrix
from kreinalg.io import (
    dumps,
    matrix_document,
    parse_matrix_document,
    scalar_pair,
    serialize_matrix_document,
)


class TestParse:
    def test_one_by_one_real(self):
        m = parse_matrix_document('{"field":"real","rows":1,"cols":1,"data":[[2]]}')
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, [[2.0]])

    def test_one_by_one_complex(self):
        m = parse_matrix_document('{"field":"complex","rows":1,"cols":1,"data":[[[0,1]]]}')
        assert m.dtype == np.complex128
        np.testing.assert_array_equal(m, [[1.0j]])

    def test_exact_doubles(self):
        text = '{"field":"real","rows":1,"cols":2,"data":[[0.1,1e-300]]}'
        m = parse_matrix_document(text)
        assert m[0, 0] == 0.1
        assert m[0, 1] == 1e-300

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_matrix_document('{"field":"real",\n  broken')
        assert info.value.line == 2
        assert info.value.column is not None

    @pytest.mark.parametrize(
        "text",
        [
            '{"field":"real","rows":2,"cols":1,"data":[[1]]}',
            '{"field":"real","rows":1,"cols":2,"data":[[1]]}',
            '{"field":"quaternion","rows":1,"cols":1,"data":[[1]]}',
            '{"field":"real","rows":0,"cols":1,"data":[]}',
            '{"field":"real","rows":1,"cols":1,"data":[[true]]}',
            '{"field":"complex","rows":1,"cols":1,"data":[[1]]}',
            '{"field":"complex","rows":1,"cols":1,"data":[[[1,2,3]]]}',
            '{"field":"real","rows":1,"cols":1,"data":[[1]],"extra":0}',
            '{"field":"real","rows":1,"cols":1,"data":[[NaN]]}',
            '[1,2,3]',
        ],
    )
    def test_schema_violations(self, text):
        with pytest.raises(SchemaError):
            parse_matrix_document(text)


_HUGE = "9" * 400  # an integer literal beyond the double range
_LONG = "9" * 5000  # more digits than int() reads from a string


class TestUnreadableInput:
    """Valid JSON that no double holds, and bytes json cannot read, are errors, not crashes."""

    @pytest.mark.parametrize("field,entry,where", [
        ("real", _HUGE, "data[0][1]"),
        ("real", "-" + _HUGE, "data[0][1]"),
        ("complex", f"[0,{_HUGE}]", "data[0][1]"),
    ], ids=["real", "negative", "complex"])
    def test_integer_beyond_the_double_range(self, field, entry, where):
        first = "[1,2]" if field == "complex" else "1"
        text = f'{{"field":"{field}","rows":1,"cols":2,"data":[[{first},{entry}]]}}'
        with pytest.raises(SchemaError) as info:
            parse_matrix_document(text)
        assert str(info.value) == f"{where}: integer out of the double range"

    @pytest.mark.parametrize("text", [
        f'{{"field":"real","rows":1,"cols":1,"data":[[{_LONG}]]}}',
        f'{{"field":"real","rows":{_LONG},"cols":1,"data":[[1]]}}',
    ], ids=["entry", "rows"])
    def test_integer_literal_too_long_to_read(self, text):
        with pytest.raises(ParseError, match="integer literal of more than 4300 digits"):
            parse_matrix_document(text)

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_matrix_document(b'{"field":"real","rows":1,"cols":1,"data":[[1\xff]]}')

    def test_nesting_too_deep(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_matrix_document("[" * 100_000 + "]" * 100_000)


def _data_by_entry(doc):
    """The entry-at-a-time parse of a document's data, kept as the reference.

    This is the loop that ``parse_matrix_document`` ran on every document
    before it checked whole arrays.  The one change: an integer beyond the
    double range gets its SchemaError, where ``float()`` raised
    OverflowError.
    """
    def number(value, where):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise SchemaError(f"{where}: integer out of the double range") from None
        if not math.isfinite(value):
            raise SchemaError(f"{where}: entries must be finite")
        return value

    field, rows, cols = doc["field"], doc["rows"], doc["cols"]
    out = np.zeros((rows, cols), dtype=np.complex128 if field == "complex" else np.float64)
    for i, row in enumerate(doc["data"]):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"data row {i} must be a list of {cols} entries")
        for j, entry in enumerate(row):
            where = f"data[{i}][{j}]"
            if field == "real":
                out[i, j] = number(entry, where)
            else:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SchemaError(f"{where}: complex entries are [re, im] pairs")
                out[i, j] = complex(number(entry[0], where), number(entry[1], where))
    return out


def _outcome(parse, *args):
    """(dtype, shape, bytes) of the parsed array, or (type, message) of the error raised."""
    try:
        out = parse(*args)
    except SchemaError as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # signed zeros and subnormals included
    st.integers(-(2**60), 2**60),  # beyond 2**53 an integer must round to nearest even
    st.sampled_from([2**1024 - 2**970 - 1, -(2**1023)]),  # round to +-the largest doubles
)
# Entries that break the schema: booleans, non-numbers, non-finite values,
# integers that round beyond the largest double, bad pairs.
_BAD = st.sampled_from([True, False, None, "1", {}, [], [1.0], [1, 2, 3], [True, 0],
                        [0, None], [0, math.nan], [0, 2**1024], math.nan, math.inf,
                        -math.inf, 2**1024 - 2**970, -(10**400)])


def _is_pair(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 2


@st.composite
def _documents(draw):
    """A matrix document with a valid header; its data may break the schema anywhere."""
    field = draw(st.sampled_from(["real", "complex"]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.lists(_NUMBERS, min_size=2, max_size=2) if field == "complex" else _NUMBERS
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        kind = draw(st.sampled_from(["entry", "component", "drop", "extend", "row"]))
        if not isinstance(data[i], list) or j >= len(data[i]):  # an earlier edit took it
            continue
        if kind == "entry":
            data[i][j] = draw(_BAD)
        elif kind == "component" and field == "complex" and _is_pair(data[i][j]):
            data[i][j] = list(data[i][j])  # _BAD's lists are shared samples: edit a copy
            data[i][j][draw(st.integers(0, 1))] = draw(_BAD)
        elif kind == "drop":
            data[i].pop()
        elif kind == "extend":
            data[i].append(draw(entry))
        elif kind == "row":
            data[i] = draw(st.sampled_from([None, 1.0, {}, "row"]))
    return {"field": field, "rows": rows, "cols": cols, "data": data}


class TestParseMatchesTheEntryLoop:
    """The whole-array parse gives the entry loop's bits, and its first error and message."""

    @settings(max_examples=400, deadline=None)
    @given(doc=_documents())
    def test_documents(self, doc):
        text = json.dumps(doc)
        assert _outcome(parse_matrix_document, text) == _outcome(_data_by_entry, json.loads(text))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_64_by_64(self, field):
        m = random_matrix(np.random.default_rng(64), 64, 64, field) * 10.0 ** np.arange(-32, 32)
        text = serialize_matrix_document(m)
        assert _outcome(parse_matrix_document, text) == _outcome(_data_by_entry, json.loads(text))
        assert parse_matrix_document(text).tobytes() == m.tobytes()


class TestSerialize:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_roundtrip_is_exact(self, field):
        rng = np.random.default_rng(200)
        m = random_matrix(rng, 3, 4, field)
        back = parse_matrix_document(serialize_matrix_document(m))
        np.testing.assert_array_equal(back, m)

    def test_canonical_idempotence(self):
        text = '{"field":"real","rows":1,"cols":1,"data":[[2]]}'
        once = serialize_matrix_document(parse_matrix_document(text))
        twice = serialize_matrix_document(parse_matrix_document(once))
        assert once == twice

    def test_document_shape(self):
        doc = matrix_document(np.eye(2))
        assert list(doc) == ["field", "rows", "cols", "data"]
        assert doc["field"] == "real"
        assert doc["data"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_complex_pairs(self):
        doc = matrix_document(np.array([[1.0 + 2.0j]]))
        assert doc["data"] == [[[1.0, 2.0]]]

    def test_scalar_pair(self):
        assert scalar_pair(-2.0) == [-2.0, 0.0]
        assert scalar_pair(1.5j) == [0.0, 1.5]

    def test_output_is_valid_json(self):
        rng = np.random.default_rng(201)
        text = serialize_matrix_document(random_matrix(rng, 2, 2, "complex"))
        json.loads(text)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_schema_error(self, value):
        with pytest.raises(SchemaError, match="outside the double range"):
            dumps({"eigenvalues": [1.0, value]})
        with pytest.raises(SchemaError, match="outside the double range"):
            serialize_matrix_document(np.array([[1.0, value * 1j]]))


def _document_by_entry(matrix):
    """The entry-at-a-time serializer, kept as the reference."""
    matrix = np.asarray(matrix)
    rows, cols = matrix.shape
    if np.iscomplexobj(matrix):
        field = "complex"
        data = [
            [[float(matrix[i, j].real), float(matrix[i, j].imag)] for j in range(cols)]
            for i in range(rows)
        ]
    else:
        field = "real"
        data = [[float(matrix[i, j]) for j in range(cols)] for i in range(rows)]
    return {"field": field, "rows": rows, "cols": cols, "data": data}


_WIDE = np.arange(24.0).reshape(4, 6) / 7.0


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[1, -2], [3, 4]]),
        np.array([[True, False]]),
        np.array([[-0.0, 0.0], [1.0, -0.0]]),
        np.array([[5e-324, -2.2250738585072e-308]]),
        _WIDE[::2, ::3],
        np.asfortranarray(_WIDE),
        np.array([[1.0 - 0.0j, -0.0 + 5e-324j], [0.1 + 0.2j, -3.0 - 1e300j]]),
        random_matrix(np.random.default_rng(202), 64, 64, "complex"),
    ],
    ids=["int", "bool", "signed-zero", "subnormal", "strided", "fortran", "complex", "complex-64"],
)
def test_document_bytes_match_the_entry_loop(matrix):
    assert dumps(matrix_document(matrix)) == dumps(_document_by_entry(matrix))
