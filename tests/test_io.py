import json

import numpy as np
import pytest

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
