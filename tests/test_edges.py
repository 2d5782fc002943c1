"""The edge-of-domain contract.

Every public callable of the layers that takes a matrix first, and every
public callable of the tensor layer on the operator tensor of the
matrix, answers edge input (n = 0, n = 1, a NaN entry, a result beyond
the double range, subnormal entries) with a :class:`KreinAlgError` or
its documented answer: never a numpy exception, and never a
RuntimeWarning in place of the answer.  Beyond the double range the answer is infinite, with no
warning; n = 0 raises ShapeError in every decomposition.  Non-finite
input has one answer wherever it is scaled: NonFiniteError, naming the
first bad entry; the plain arithmetic, which scales nothing, carries
the NaN into its result as numpy does.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import kreinalg
from kreinalg import (
    Basis,
    HForm,
    InnerProduct,
    KreinAlgError,
    NonFiniteError,
    ShapeError,
    SingularBasisError,
    SymmetryError,
    VectorSpace,
    charpoly_eigenvalues,
    characteristic_polynomial,
    determinant,
    determinant_permutation_sum,
    dirac_spectral,
    eigen_hermitian,
    jacobi_hermitian,
    kernel_dimension,
    minkowski_structure,
    natural_basis,
    rank,
    spectral_representation,
    standard_inner_product,
    tensor_from_ket,
    tensor_from_operator,
    transform_tensor,
)
from kreinalg import tensors
from kreinalg.unitary import g_selfadjoint_eigen

LAYERS = ["matrices", "spaces", "eigen", "unitary", "indefinite"]
# The names the layers give a matrix argument; the other first arguments
# are kets, bras, lists of vectors, eigenvalue lists, sizes, spaces,
# bases, tensors and structures.
MATRIX_PARAMETERS = {"a", "f", "f_natural", "gram", "hform_matrix"}

EDGES = {
    "n=0": np.zeros((0, 0)),
    "n=1": np.array([[2.0]]),
    "nan": np.array([[1.0, 0.0], [0.0, np.nan]]),
    "overflow": 1e308 * np.ones((2, 2)),
    "overflow-skew": 1.7e308 * np.array([[1.0, 0.5], [-0.5, 1.0]]),
    "subnormal": 5e-324 * np.array([[2.0, 1.0], [1.0, 2.0]]),
}


def _matrix_first_callables():
    found = {}
    for layer in LAYERS:
        module = getattr(kreinalg, layer)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                first = next(iter(inspect.signature(obj).parameters))
                if first in MATRIX_PARAMETERS:
                    found[f"{layer}.{name}"] = obj
    return found


def _companions(fn, a):
    """The arguments after the matrix: well-behaved companions of its size (at least 1).

    A second operand is ``2 1``, not the identity, so that a product of
    entries near the overflow threshold leaves the double range.
    """
    n, field = a.shape[0], "complex" if a.dtype.kind == "c" else "real"
    size = max(n, 1)
    space = VectorSpace(size, field)
    make = {
        "b": lambda: 2.0 * np.eye(n, dtype=a.dtype),
        "hform_matrix": lambda: np.eye(n, dtype=a.dtype),
        "ip": lambda: standard_inner_product(space),
        "ms": lambda: minkowski_structure(size - size // 2, size // 2, field),
        "domain_space": lambda: space,
        "codomain_space": lambda: space,
        "domain_basis": lambda: natural_basis(space),
        "codomain_basis": lambda: natural_basis(space),
    }
    params = list(inspect.signature(fn).parameters.values())[1:]
    return [make[p.name]() for p in params if p.default is inspect.Parameter.empty]


def test_the_sweep_covers_every_decomposition_and_oracle():
    names = set(_matrix_first_callables())
    assert {
        "matrices.determinant", "matrices.determinant_permutation_sum", "spaces.rank",
        "eigen.jacobi_hermitian", "eigen.eigen_hermitian", "eigen.charpoly_eigenvalues",
        "unitary.spectral_representation", "unitary.g_selfadjoint_eigen",
        "indefinite.dirac_spectral", "indefinite.metric_structure_from",
    } <= names
    assert len(names) >= 20
    assert set(_tensor_callables()) == {
        f"tensors.{name}" for name in (
            "scalar_tensor", "tensor_from_ket", "tensor_from_bra", "tensor_from_operator",
            "tensor_product", "contract", "full_trace", "transform_tensor", "sort_slots",
            "kron_flatten", "kron_unflatten",
        )
    }


def _outcome(call):
    """What ``call()`` gives, warnings raised: the result, or the exception."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call()
    except Exception as exc:  # the tests sort the outcomes
        return exc


def _matrix_first_outcomes(a):
    """Each matrix-first callable's outcome for ``a`` and its companions."""
    return {name: _outcome(lambda: fn(a.copy(), *_companions(fn, a)))
            for name, fn in _matrix_first_callables().items()}


def _tensor_callables():
    return {f"tensors.{name}": getattr(tensors, name) for name in tensors.__all__
            if inspect.isfunction(getattr(tensors, name))}


def _tensor_arguments(fn, a):
    """Arguments for a tensor-layer callable: the operator tensor of ``a``, or ``a``, its first row or column."""
    space = VectorSpace(a.shape[0], "complex" if a.dtype.kind == "c" else "real")
    make = {
        "space": lambda: space,
        "value": lambda: a[:1, :1].sum(),
        "ket": lambda: a[:, :1],
        "bra": lambda: a[:1, :],
        "matrix": lambda: a,
        "m": lambda: a,
        "flat": lambda: a,
        "variance": lambda: (tensors.UP, tensors.DOWN),
        "t": lambda: tensor_from_operator(space, a),
        "t1": lambda: tensor_from_operator(space, a),
        "t2": lambda: tensor_from_operator(space, a),
        "k": lambda: 1,
        "l": lambda: 2,
    }
    return [make[name]() for name in inspect.signature(fn).parameters]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("edge", list(EDGES))
def test_edge_input_gets_a_domain_error_or_an_answer(edge, field):
    a = EDGES[edge].astype(np.complex128 if field == "complex" else np.float64)
    outcomes = _matrix_first_outcomes(a)
    outcomes.update({name: _outcome(lambda: fn(*_tensor_arguments(fn, a.copy())))
                     for name, fn in _tensor_callables().items()})
    foreign = [f"{name}: {type(out).__name__}: {out}" for name, out in outcomes.items()
               if isinstance(out, Exception) and not isinstance(out, KreinAlgError)]
    assert foreign == []


def _breaks_the_non_finite_rule(out) -> bool:
    """A verdict, a SymmetryError or SingularBasisError, or a NonFiniteError that does not name (1, 1).

    A NaN cannot be a member or a non-member, so a verdict on it cannot be
    told from one on finite input.  An argument-form error (FieldError for
    complex input to a real-only predicate) and a result that carries the
    NaN (the plain arithmetic) keep the rule.
    """
    if isinstance(out, NonFiniteError):
        return "(1, 1)" not in str(out)
    return isinstance(out, (bool, np.bool_, set, SymmetryError, SingularBasisError))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_non_finite_input_raises_non_finite_error_naming_its_entry(field):
    a = EDGES["nan"].astype(np.complex128 if field == "complex" else np.float64)
    outcomes = _matrix_first_outcomes(a)
    broken = [f"{name}: {out!r}" for name, out in outcomes.items() if _breaks_the_non_finite_rule(out)]
    assert broken == []


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("make", [
    Basis, InnerProduct, HForm,
    lambda space, a: transform_tensor(tensor_from_ket(space, np.ones((2, 1))), a),
], ids=["Basis", "InnerProduct", "HForm", "transform_tensor"])
def test_the_classes_and_the_tensor_layer_reject_non_finite_input(make, field):
    # The sweep reads functions only, and sorts no domain error of the
    # tensor layer; the classes and transform_tensor are checked here.
    a = EDGES["nan"].astype(np.complex128 if field == "complex" else np.float64)
    with pytest.raises(NonFiniteError, match=r"\(1, 1\)"):
        make(VectorSpace(2, field), a)


def _decompositions():
    ip = standard_inner_product(VectorSpace(2))
    return {
        "eigen_hermitian": eigen_hermitian,
        "spectral_representation": lambda f: spectral_representation(f, ip),
        "g_selfadjoint_eigen": lambda f: tuple(g_selfadjoint_eigen(f, ip)[0]),
        "dirac_spectral": lambda f: dirac_spectral(f, minkowski_structure(1, 1)),
    }


class TestDocumentedAnswers:
    def test_an_eigenvalue_beyond_the_range_is_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, decompose in _decompositions().items():
                f = EDGES["overflow-skew" if name == "dirac_spectral" else "overflow"]
                dec = decompose(f)
                values = dec if isinstance(dec, tuple) else dec.eigenvalues
                # f h = 1.7e308 [[1, -.5], [-.5, -1]] has eigenvalues +-1.9e308.
                expected = [math.inf, -math.inf] if name == "dirac_spectral" else [math.inf, 0.0]
                assert list(values) == expected, name

    def test_n_zero_decomposition_raises_shape_error(self):
        for name, decompose in _decompositions().items():
            with pytest.raises(ShapeError):
                decompose(EDGES["n=0"])

    def test_n_zero_determinant_and_rank(self):
        assert determinant(EDGES["n=0"]) == 1.0
        assert determinant_permutation_sum(EDGES["n=0"]) == 1.0
        assert rank(EDGES["n=0"]) == 0 and kernel_dimension(EDGES["n=0"]) == 0

    @pytest.mark.parametrize("det", [determinant, determinant_permutation_sum])
    def test_determinant_at_any_scale(self, det):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert det(EDGES["overflow"]) == 0.0
            assert det(1e200 * np.eye(3)) == math.inf
            assert det(EDGES["subnormal"]) == 0.0
            # 3 2**1200 is far beyond the range; formed as s**2 det(a / s) it is not.
            assert det(np.ldexp([[2.0, 1.0], [1.0, 2.0]], 600)) == math.inf
            assert det(np.ldexp([[2.0, 1.0], [1.0, 2.0]], 300)) == pytest.approx(3.0 * 2.0**600, rel=1e-15)
            assert det(np.ldexp([[2.0, 1.0], [1.0, 2.0]], -600)) == pytest.approx(3.0 * 2.0**-1200, rel=1e-15)
            complex_det = det(1e200j * np.eye(2))
            assert complex_det == -math.inf and isinstance(complex_det, complex)

    @pytest.mark.parametrize(
        "oracle", [determinant, determinant_permutation_sum, jacobi_hermitian,
                   characteristic_polynomial, charpoly_eigenvalues, rank, kernel_dimension],
    )
    def test_non_finite_input_raises_non_finite_error(self, oracle):
        with pytest.raises(NonFiniteError, match=r"\(1, 1\)"):
            oracle(EDGES["nan"])

    def test_the_oracles_answer_beyond_the_range_and_below_it(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(charpoly_eigenvalues(EDGES["overflow"])) == [math.inf, 0.0]
            assert list(characteristic_polynomial(EDGES["overflow"])) == [1.0, -math.inf, 0.0]
            diag, _, _ = jacobi_hermitian(EDGES["subnormal"])
            assert sorted(diag.real) == sorted(eigen_hermitian(EDGES["subnormal"]).eigenvalues)

    def test_the_oracles_keep_their_documented_limits(self):
        # The permutation sum stops at n = 6.  A coefficient beyond the range is
        # infinite even where the roots are not, and a root of multiplicity m
        # is found to about eps**(1/m) of its size.
        with pytest.raises(ShapeError):
            determinant_permutation_sum(np.eye(7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = np.diag([1e200, -1e200])
            assert list(characteristic_polynomial(split)) == [1.0, 0.0, -math.inf]
            np.testing.assert_allclose(charpoly_eigenvalues(split), [1e200, -1e200], rtol=1e-15)
            double = charpoly_eigenvalues(1e200 * np.eye(2))
            np.testing.assert_allclose(double, [1e200, 1e200], rtol=4 * math.sqrt(np.finfo(float).eps))
