"""One rule decides the scalar field: ``matrices.as_matrix``.

Complex data cast to the real field raises FieldError, wherever it enters
(a space's kets, bras and operators, a Gram matrix, a basis, a map, a
map's representation, a tensor, a CLI document).  Real data on the
complex field is upcast exactly.  A map between spaces over different
fields raises FieldError too.
"""

import json
import pathlib

import numpy as np
import pytest

from kreinalg import (
    Basis,
    FieldError,
    InnerProduct,
    LinearMapRep,
    Tensor,
    VectorSpace,
    canonical_form_bases,
    natural_basis,
    norm,
    rep_vector,
    represent_map,
    standard_inner_product,
)
from kreinalg.cli import main
from kreinalg.matrices import as_matrix
from kreinalg.tensors import scalar_tensor

GOLDEN_IN = pathlib.Path(__file__).parent / "golden" / "in"

REAL2 = VectorSpace(2)
COMPLEX2 = VectorSpace(2, "complex")
I_E1 = np.array([[1j], [0.0]])
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])


class TestComplexDataOnARealSpace:
    @pytest.mark.parametrize(
        "cast",
        [
            lambda: REAL2.ket(I_E1),
            lambda: REAL2.bra(I_E1.T),
            lambda: REAL2.operator(PAULI_Y),
            lambda: InnerProduct(REAL2, np.eye(2) + 0.5 * PAULI_Y),
            lambda: norm(I_E1, standard_inner_product(REAL2)),
            lambda: rep_vector(I_E1, natural_basis(REAL2)),
            lambda: Basis(REAL2, np.diag([1j, 1.0])),
            lambda: canonical_form_bases(np.diag([1j, 1.0]), REAL2, REAL2),
            lambda: represent_map(PAULI_Y, natural_basis(REAL2), natural_basis(REAL2)),
            lambda: scalar_tensor(REAL2, 1j),
            lambda: Tensor(REAL2, ("up",), [1j, 0]),
            lambda: LinearMapRep(natural_basis(REAL2), natural_basis(REAL2), PAULI_Y),
        ],
        ids=[
            "ket", "bra", "operator", "gram", "norm", "rep_vector", "basis",
            "canonical_form_bases", "represent_map", "scalar_tensor", "tensor",
            "linear_map_rep",
        ],
    )
    def test_raises_field_error(self, cast):
        with pytest.raises(FieldError):
            cast()

    def test_complex_dtype_decides_not_the_values(self):
        with pytest.raises(FieldError):
            as_matrix(np.eye(2, dtype=complex), "real")


class TestMapBetweenFields:
    """A map's domain and codomain must share a field; the error names both."""

    def test_represent_map(self):
        with pytest.raises(FieldError, match="domain and codomain .*: complex vs real"):
            represent_map(np.eye(2), natural_basis(COMPLEX2), natural_basis(REAL2))

    def test_canonical_form_bases(self):
        with pytest.raises(FieldError, match="domain and codomain .*: complex vs real"):
            canonical_form_bases(np.eye(2), COMPLEX2, REAL2)


class TestRealDataOnAComplexSpace:
    def test_kets_bras_operators_upcast_exactly(self):
        rng = np.random.default_rng(9100)
        x, y, f = rng.uniform(-1, 1, (2, 1)), rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (2, 2))
        for got, data in ((COMPLEX2.ket(x), x), (COMPLEX2.bra(y), y), (COMPLEX2.operator(f), f)):
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, data)

    def test_scalar_tensor_and_inner_product_upcast_exactly(self):
        assert scalar_tensor(COMPLEX2, 2.5).components == 2.5 + 0j
        g = np.array([[2.0, 0.5], [0.5, 1.0]])
        ip = InnerProduct(COMPLEX2, g)
        assert ip.gram.dtype == np.complex128
        np.testing.assert_array_equal(ip.gram, g)

    def test_tensor_and_map_representation_upcast_exactly(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        tensor = Tensor(COMPLEX2, ("up", "down"), f)
        rep = LinearMapRep(natural_basis(COMPLEX2), natural_basis(COMPLEX2), f)
        for got in (tensor.components, rep.matrix):
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, f)

    def test_real_map_between_complex_spaces(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        rep = represent_map(f, natural_basis(COMPLEX2), natural_basis(COMPLEX2))
        assert rep.matrix.dtype == np.complex128
        np.testing.assert_array_equal(rep.matrix, f)


def _doc(name: str) -> str:
    return str(GOLDEN_IN / name)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--in", _doc("pauli_y.json"), "--gram", _doc("eye2.json")],
        ["adjoint", "--in", _doc("pauli_y.json"), "--gram", _doc("eye2.json")],
        ["check", "--kind", "selfadjoint", "--in", _doc("pauli_y.json"), "--gram", _doc("eye2.json")],
        ["dirac-adjoint", "--in", _doc("pauli_y.json"), "--hform", _doc("eta2.json")],
        ["change-basis", "--in", _doc("eye2.json"), "--in", _doc("pauli_y.json")],
        ["change-basis", "--in", _doc("eye2.json"), "--in", _doc("b_new.json"),
         "--in", _doc("pauli_y.json")],
    ],
    ids=[
        "spectral", "adjoint", "check-selfadjoint", "dirac-adjoint", "change-basis",
        "change-basis-operator",
    ],
)
def test_cli_complex_document_on_a_real_space_is_field_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "FieldError"
