"""Indefinite Hermitian forms, metric operators, and Dirac conjugation.

An indefinite structure pairs a positive-definite inner product ``G``
with a non-degenerate Hermitian form ``K`` on the same space.  The metric
operator ``h = G^{-1} K`` is G-selfadjoint; the pair is *compatible* when
``h @ h`` is the identity, which forces every eigenvalue of ``h`` to be
+1 or -1 and splits the space into two G-orthogonal subspaces.  The
counts of +1 and -1 eigenvalues form the signature.

Conjugating with ``h`` turns the ordinary adjoint into the Dirac adjoint
(``hconj(f) = h adjoint(f) h``), under which the form-preserving
operators are exactly the pseudo-unitary group of the signature.  With
``h`` equal to the identity the whole apparatus collapses back to the
Hermitian one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .errors import (
    CompatibilityError,
    DegenerateFormError,
    FieldError,
    ShapeError,
)
from .eigen import (  # noqa: F401  (jacobi_hermitian stays bound: perfbench/selftest.py checks it)
    SpectralDecomposition,
    _hermitian_form_eigh,
    _spectral_function,
    jacobi_hermitian,
)
from .matrices import (
    COMPLEX,
    REAL,
    _require_square,
    field_of,
    frobenius,
    hermitian_conjugate,
)
from .spaces import Basis, VectorSpace
from .tensors import DOWN, UP, Tensor
from .unitary import (
    InnerProduct,
    adjoint,
    g_selfadjoint_eigen,
    spectral_representation,
)

__all__ = [
    "HForm",
    "MetricStructure",
    "HOrthonormalBasis",
    "DiracSpectralDecomposition",
    "metric_structure_from",
    "compatible_structure_from_hform",
    "minkowski_structure",
    "canonical_projectors",
    "h_orthonormal_basis",
    "hform_value",
    "dirac_adjoint_vector",
    "dirac_adjoint_covector",
    "dirac_adjoint_operator",
    "is_dirac_selfadjoint",
    "is_pseudo_unitary",
    "dirac_spectral",
    "raise_lower_index",
    "is_orthogonal",
    "is_pseudo_orthogonal",
]


class HForm:
    """A non-degenerate Hermitian form, carried by its Gram matrix K.

    Construction validates Hermiticity and non-degeneracy and caches the
    eigendecomposition (used by the compatible-structure synthesis and
    the signature) together with the inverse.
    """

    def __init__(self, space: VectorSpace, matrix) -> None:
        k, eigenvalues, vectors = _hermitian_form_eigh(space.operator(matrix), "H-form matrix")
        if not policy.clears_form_floor(np.abs(eigenvalues), k):
            raise DegenerateFormError(
                f"H-form is numerically degenerate "
                f"(min |eigenvalue| = {np.min(np.abs(eigenvalues)):.3e})"
            )
        self.space = space
        self.matrix = k
        self.inverse = np.linalg.inv(k)
        self._eigenvalues = eigenvalues
        self._eigenvectors = vectors

    def __repr__(self) -> str:
        return f"HForm(space={self.space!r})"


@dataclass(frozen=True)
class MetricStructure:
    """A compatible pair (inner product, H-form) with its metric operator."""

    ip: InnerProduct
    hform: HForm
    h: np.ndarray
    signature: tuple  # (n_plus, n_minus)

    @property
    def space(self) -> VectorSpace:
        return self.ip.space

    @property
    def eta(self) -> np.ndarray:
        """Canonical diagonal of the metric: +1 block, then -1 block."""
        n_plus, n_minus = self.signature
        return np.concatenate([np.ones(n_plus), -np.ones(n_minus)])


def _space_for(matrix: np.ndarray, space: VectorSpace | None, label: str) -> VectorSpace:
    if space is not None:
        return space
    n = matrix.shape[0]
    return VectorSpace(n, field_of(matrix), label)


def _signature_of(hform: HForm) -> tuple:
    n_plus = int(np.sum(hform._eigenvalues > 0))
    return n_plus, hform.space.dim - n_plus


def metric_structure_from(gram, hform_matrix, space: VectorSpace | None = None) -> MetricStructure:
    """Build a structure from an explicit (G, K) pair.

    The pair must be compatible: h = G^{-1} K has to square to the
    identity, otherwise CompatibilityError is raised.
    """
    gram = np.asarray(gram)
    hform_matrix = np.asarray(hform_matrix)
    if field_of(gram) != field_of(hform_matrix):
        raise FieldError("Gram matrix and H-form must share the scalar field")
    space = _space_for(gram, space, "V")
    ip = InnerProduct(space, gram)
    hf = HForm(space, hform_matrix)
    h = ip.gram_inv @ hf.matrix
    # h is G-selfadjoint, so h# = h and compatibility is the isometry rule.
    if not policy.isometric(h, h):
        residual = frobenius(h @ h - np.eye(space.dim))
        raise CompatibilityError(
            f"metric operator does not square to the identity (residual {residual:.3e})"
        )
    return MetricStructure(ip=ip, hform=hf, h=h, signature=_signature_of(hf))


def compatible_structure_from_hform(hform_matrix, space: VectorSpace | None = None) -> MetricStructure:
    """Synthesize the compatible inner product of a bare H-form.

    Eigendecomposing K and replacing its eigenvalues by their absolute
    values yields a positive-definite G; the leftover sign pattern is the
    metric operator.
    """
    hform_matrix = np.asarray(hform_matrix)
    space = _space_for(hform_matrix, space, "V")
    hf = HForm(space, hform_matrix)
    u = hf._eigenvectors
    lam = hf._eigenvalues
    real = space.field == REAL
    h = _spectral_function(u, np.sign(lam), real)
    # InnerProduct symmetrizes away the roundoff asymmetry of this product.
    ip = InnerProduct(space, _spectral_function(u, np.abs(lam), real))
    return MetricStructure(ip=ip, hform=hf, h=h, signature=_signature_of(hf))


def minkowski_structure(n_plus: int, n_minus: int, field: str = REAL) -> MetricStructure:
    """The flat structure with G = identity and K = diag(+1.., -1..)."""
    eta = np.diag(np.concatenate([np.ones(n_plus), -np.ones(n_minus)]))
    if field == COMPLEX:
        eta = eta.astype(np.complex128)
    return metric_structure_from(np.eye(n_plus + n_minus, dtype=eta.dtype), eta)


def canonical_projectors(ms: MetricStructure):
    """The complementary projectors (1 + h)/2 and (1 - h)/2."""
    eye = np.eye(ms.space.dim)
    return (eye + ms.h) / 2.0, (eye - ms.h) / 2.0


@dataclass(frozen=True)
class HOrthonormalBasis:
    """Basis whose columns bring the H-form to the diagonal of +-1 entries."""

    basis: Basis
    eta_diag: tuple  # +1 entries first


def h_orthonormal_basis(ms: MetricStructure) -> HOrthonormalBasis:
    """A basis diagonalizing both the metric operator and the H-form.

    The columns are the G-orthonormal eigenvectors of ``h``, +1 block
    first, so ``B^+ K B`` is the canonical diagonal and the projector
    representations in this basis are exact 0/1 matrices.
    """
    w, columns = g_selfadjoint_eigen(ms.h, ms.ip)
    eta = tuple(1 if value > 0 else -1 for value in w)
    n_plus = sum(1 for e in eta if e == 1)
    if (n_plus, len(eta) - n_plus) != ms.signature:
        raise DegenerateFormError(
            "metric eigenvalues did not split into the recorded signature"
        )
    return HOrthonormalBasis(basis=Basis(ms.space, columns), eta_diag=eta)


def hform_value(x, y, ms: MetricStructure):
    """H(x, y) = x^+ K y; antilinear in the first argument."""
    x = ms.space.ket(x)
    y = ms.space.ket(y)
    value = (hermitian_conjugate(x) @ ms.hform.matrix @ y)[0, 0]
    return complex(value) if ms.space.field == COMPLEX else float(value)


def dirac_adjoint_vector(x, ms: MetricStructure) -> np.ndarray:
    """The covector x^+ K, pairing with y to give H(x, y)."""
    return hermitian_conjugate(ms.space.ket(x)) @ ms.hform.matrix


def dirac_adjoint_covector(y_bra, ms: MetricStructure) -> np.ndarray:
    """Inverse of the vector Dirac adjoint: the ket K^{-1} y^+."""
    return ms.hform.inverse @ hermitian_conjugate(ms.space.bra(y_bra))


def dirac_adjoint_operator(f, ms: MetricStructure) -> np.ndarray:
    """h adjoint(f) h, satisfying H(x, f y) = H(hconj(f) x, y)."""
    return ms.h @ adjoint(f, ms.ip) @ ms.h


def is_dirac_selfadjoint(f, ms: MetricStructure) -> bool:
    """True when the Dirac adjoint of f is f, i.e. H(f x, y) = H(x, f y).

    Non-finite f is never Dirac-selfadjoint.
    """
    return policy.selfadjoint(ms.space.operator(f), lambda m: dirac_adjoint_operator(m, ms))


def is_pseudo_unitary(f, ms: MetricStructure) -> bool:
    """True when the Dirac adjoint inverts f, i.e. f preserves the H-form."""
    f = ms.space.operator(f)
    return policy.isometric(dirac_adjoint_operator(f, ms), f)


@dataclass(frozen=True)
class DiracSpectralDecomposition:
    """Spectral data of a Dirac-selfadjoint operator: f = sum of l * p_l * h."""

    eigenvalues: tuple
    multiplicities: tuple
    projectors: tuple
    metric: np.ndarray

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.metric)
        for value, proj in zip(self.eigenvalues, self.projectors):
            out = out + value * (proj @ self.metric)
        return out

    def as_spectral(self) -> SpectralDecomposition:
        """The underlying decomposition of the G-selfadjoint operator f h."""
        return SpectralDecomposition(self.eigenvalues, self.multiplicities, self.projectors)


def dirac_spectral(f, ms: MetricStructure) -> DiracSpectralDecomposition:
    """Decompose a Dirac-selfadjoint operator through its selfadjoint partner.

    ``f h`` is selfadjoint w.r.t. the inner product whenever f is
    Dirac-selfadjoint; its spectral projectors composed back with ``h``
    reconstruct f.
    """
    f = ms.space.operator(f)
    if not is_dirac_selfadjoint(f, ms):
        raise policy.asymmetry_error(f, "operator", "Dirac-selfadjoint")
    partner = f @ ms.h
    dec = spectral_representation(partner, ms.ip)
    return DiracSpectralDecomposition(
        eigenvalues=dec.eigenvalues,
        multiplicities=dec.multiplicities,
        projectors=dec.projectors,
        metric=ms.h.copy(),
    )


def raise_lower_index(t: Tensor, slot: int, ms: MetricStructure) -> Tensor:
    """Flip one slot's variance using the canonical metric diagonal.

    The tensor components must be given in an h-orthonormal basis, where
    the metric's Gram matrix is diag(eta); contracting a slot with it
    multiplies the corresponding axis entrywise and flips the tag.
    """
    if t.space.dim != ms.space.dim:
        raise ShapeError("tensor and metric structure have different dimensions")
    tag = t.slot(slot)
    axis = slot - 1
    shape = [1] * t.rank
    shape[axis] = t.space.dim
    scaled = t.components * ms.eta.reshape(shape)
    variance = list(t.variance)
    variance[axis] = DOWN if tag == UP else UP
    return Tensor(t.space, tuple(variance), scaled)


def is_orthogonal(f) -> bool:
    """Real specialization: f^T f = identity."""
    f = np.asarray(f)
    if field_of(f) != REAL:
        raise FieldError("orthogonality is a real-field predicate")
    _require_square(f)
    return policy.isometric(f.T, f)


def is_pseudo_orthogonal(f, ms: MetricStructure) -> bool:
    """Real specialization of pseudo-unitarity: f^T K f = K.

    Reuses the complex code path; conjugation is the identity on the
    real field.
    """
    f = np.asarray(f)
    if field_of(f) != REAL or ms.space.field != REAL:
        raise FieldError("pseudo-orthogonality is a real-field predicate")
    return is_pseudo_unitary(f, ms)
