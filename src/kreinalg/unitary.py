"""Definite inner products and the operator theory they induce.

An inner product is carried by its Gram matrix ``G`` in the natural
frame: ``(x, y) = x^+ G y``, antilinear in the first argument.  The
Hermitian square root of ``G`` (cached at construction) turns every
G-selfadjoint eigenproblem into an ordinary Hermitian one, which the
eigensolver seam handles; eigenvectors come back G-orthonormal and the
spectral projectors are G-selfadjoint.  Every tolerance is a rule of
:mod:`kreinalg.policy`.
"""

from __future__ import annotations

import numpy as np

from . import policy
from .errors import DegenerateFormError, DependentSetError, ShapeError
from .eigen import (  # noqa: F401  (jacobi_hermitian stays bound: perfbench/selftest.py checks it)
    SpectralDecomposition,
    _eigh,
    _hermitian_form_eigh,
    _spectral_decomposition,
    _spectral_function,
    jacobi_hermitian,
)
from .matrices import COMPLEX, REAL, hermitian_conjugate
from .spaces import Basis, VectorSpace

__all__ = [
    "InnerProduct",
    "standard_inner_product",
    "inner_product",
    "norm",
    "riesz_map",
    "riesz_inverse",
    "orthonormalize",
    "adjoint",
    "g_selfadjoint_eigen",
    "spectral_representation",
    "is_selfadjoint",
    "is_unitary_wrt",
]


class InnerProduct:
    """A positive-definite Hermitian Gram matrix on a space.

    Construction validates Hermiticity and positive definiteness and
    caches the inverse and the Hermitian square-root factors used by the
    adjoint and spectral machinery.
    """

    def __init__(self, space: VectorSpace, gram) -> None:
        g, eigenvalues, vectors = _hermitian_form_eigh(space.operator(gram), "Gram matrix")
        if not policy.clears_form_floor(eigenvalues, g):
            raise DegenerateFormError(
                f"Gram matrix is not positive definite "
                f"(min eigenvalue {np.min(eigenvalues):.3e})"
            )
        self.space = space
        self.gram = g
        self.gram_inv = np.linalg.inv(g)
        real = space.field == REAL
        self.sqrt = _spectral_function(vectors, np.sqrt(eigenvalues), real)
        self.sqrt_inv = _spectral_function(vectors, 1.0 / np.sqrt(eigenvalues), real)

    def __repr__(self) -> str:
        return f"InnerProduct(space={self.space!r})"


def standard_inner_product(space: VectorSpace) -> InnerProduct:
    """The inner product whose Gram matrix is the identity."""
    return InnerProduct(space, np.eye(space.dim))


def inner_product(x, y, ip: InnerProduct):
    """(x, y) = x^+ G y; antilinear in x, linear in y."""
    x = ip.space.ket(x)
    y = ip.space.ket(y)
    value = (hermitian_conjugate(x) @ ip.gram @ y)[0, 0]
    return complex(value) if ip.space.field == COMPLEX else float(value)


def norm(x, ip: InnerProduct) -> float:
    """sqrt((x, x)); the tiny negative that roundoff can produce is clamped."""
    value = inner_product(x, x, ip)
    return float(np.sqrt(max(np.real(value), 0.0)))


def riesz_map(x, ip: InnerProduct) -> np.ndarray:
    """The covector x^+ G, pairing with y to give (x, y)."""
    return hermitian_conjugate(ip.space.ket(x)) @ ip.gram


def riesz_inverse(y_bra, ip: InnerProduct) -> np.ndarray:
    """The ket G^{-1} y^+ mapped back from a covector row."""
    return ip.gram_inv @ hermitian_conjugate(ip.space.bra(y_bra))


def orthonormalize(vectors, ip: InnerProduct) -> Basis:
    """Gram-Schmidt a full set of vectors into an orthonormal Basis.

    Modified Gram-Schmidt, column at a time, with one reorthogonalization
    pass against the already accepted columns.  Raises DependentSetError
    when a vector collapses below the breakdown threshold.
    """
    dim = ip.space.dim
    cols = [ip.space.ket(v) for v in vectors]
    if len(cols) != dim:
        raise ShapeError(f"need exactly {dim} vectors, got {len(cols)}")
    basis_cols: list[np.ndarray] = []
    for col in cols:
        v = col.copy()
        for _ in range(2):
            for e in basis_cols:
                v = v - e * inner_product(e, v, ip)
        length = norm(v, ip)
        if not length >= policy.BREAKDOWN_TOL:
            raise DependentSetError(
                "vector became numerically zero after projection; input set is dependent"
            )
        basis_cols.append(v / length)
    return Basis(ip.space, np.hstack(basis_cols))


def adjoint(f, ip: InnerProduct) -> np.ndarray:
    """G^{-1} f^+ G, the operator with (adjoint(f) x, y) = (x, f y)."""
    return ip.gram_inv @ hermitian_conjugate(ip.space.operator(f)) @ ip.gram


def g_selfadjoint_eigen(f, ip: InnerProduct):
    """Eigenvalues (descending) and G-orthonormal eigenvector columns.

    The input must already be selfadjoint with respect to ``ip``; the
    similarity transform by the Gram square root hands the problem to the
    Hermitian eigensolver.  Non-finite input raises SymmetryError.
    """
    f = ip.space.operator(f)
    if not np.all(np.isfinite(f)):
        raise policy.asymmetry_error(f, "operator", "selfadjoint w.r.t. the inner product")
    work = ip.sqrt @ f @ ip.sqrt_inv
    w, u = _eigh((work + hermitian_conjugate(work)) / 2.0)
    order = np.argsort(-w)
    w = w[order]
    columns = ip.sqrt_inv @ u[:, order]
    if ip.space.field == REAL:
        columns = columns.real
    return w, columns


def is_selfadjoint(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) equals f, i.e. (f x, y) = (x, f y).

    Non-finite f is never selfadjoint.
    """
    return policy.selfadjoint(ip.space.operator(f), lambda m: adjoint(m, ip))


def spectral_representation(f, ip: InnerProduct) -> SpectralDecomposition:
    """Spectral decomposition of a G-selfadjoint operator.

    The projectors are G-selfadjoint, idempotent, mutually annihilating,
    and complete, and distinct eigenspaces are G-orthogonal.
    """
    f = ip.space.operator(f)
    if not is_selfadjoint(f, ip):
        raise policy.asymmetry_error(f, "operator", "selfadjoint w.r.t. the inner product")
    w, columns = g_selfadjoint_eigen(f, ip)
    return _spectral_decomposition(w, columns, ip.space.field == REAL, ip.gram)


def is_unitary_wrt(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) f equals the identity, i.e. f preserves (.,.)."""
    f = ip.space.operator(f)
    return policy.isometric(adjoint(f, ip), f)
