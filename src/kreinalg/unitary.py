"""Definite inner products and the operator theory they induce.

An inner product is carried by its Gram matrix ``G`` in the natural
frame: ``(x, y) = x^+ G y``, antilinear in the first argument.  Its frame
``W``, with ``W^+ G W = 1`` and ``W^{-1}`` in closed form (both cached at
construction), turns every G-selfadjoint eigenproblem into an ordinary
Hermitian one, which the eigensolver seam handles; eigenvectors come back
G-orthonormal and the spectral projectors are G-selfadjoint.  Every
tolerance is a rule of :mod:`kreinalg.policy`.
"""

from __future__ import annotations

import math

import numpy as np

from . import policy
from .errors import DegenerateFormError, DependentSetError, ShapeError
from .eigen import (  # noqa: F401  (jacobi_hermitian stays bound: perfbench/selftest.py checks it)
    SpectralDecomposition,
    _eigh,
    _hermitian_form,
    _spectral_decomposition,
    jacobi_hermitian,
)
from .matrices import COMPLEX, hermitian_conjugate
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

    Construction validates Hermiticity and positive definiteness, runs one
    eigendecomposition ``G = U diag(w) U^+``, and caches the inverse, the
    smallest eigenvalue ``min_eigenvalue`` and the frame ``W = U
    diag(w^{-1/2})``, a G-orthonormal basis (``W^+ G W = 1``) whose
    inverse ``frame_inv = diag(w^{1/2}) U^+`` is exact in closed form.
    The adjoint and spectral machinery read only these.  The inverse of
    ``G`` is the LU inverse, which is more accurate than ``U diag(1/w)
    U^+``.
    """

    def __init__(self, space: VectorSpace, gram) -> None:
        """Coerce ``gram`` and decide its Hermiticity and form floor, once each."""
        g = _hermitian_form(space.operator(gram), "Gram matrix")
        w, vectors = _eigh(g)
        if not policy.clears_form_floor(w, g):
            raise DegenerateFormError(
                f"Gram matrix is not positive definite "
                f"(min eigenvalue {np.min(w):.3e})"
            )
        self._init(space, g, w, vectors)

    def _init(self, space: VectorSpace, g: np.ndarray, w, vectors) -> None:
        """Cache ``G = U diag(w) U^+`` untested; a bare H-form's ``|K|`` is floored on K."""
        root = np.sqrt(w)
        self.space = space
        self.gram = g
        self.gram_inv = np.linalg.inv(g)
        self.min_eigenvalue = float(np.min(w))
        self.frame = vectors / root
        self.frame_inv = hermitian_conjugate(vectors) * root[:, np.newaxis]

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
    """sqrt((x, x)) at any scale of ``x``, by :func:`policy.scale_free_norm`.

    The tiny negative that roundoff can produce in ``(x, x)`` is clamped.
    """
    return policy.scale_free_norm(
        ip.space.ket(x), lambda v: math.sqrt(max(np.real(inner_product(v, v, ip)), 0.0))
    )


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
    when a vector's projection keeps no more than ``BREAKDOWN_TOL`` of its
    length, so the decision does not depend on the input's scale.
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
        if not length > policy.BREAKDOWN_TOL * norm(col, ip):
            raise DependentSetError(
                "vector became numerically zero after projection; input set is dependent"
            )
        basis_cols.append(v / length)
    return Basis(ip.space, np.hstack(basis_cols))


def adjoint(f, ip: InnerProduct) -> np.ndarray:
    """G^{-1} f^+ G, the operator with (adjoint(f) x, y) = (x, f y)."""
    return ip.gram_inv @ hermitian_conjugate(ip.space.operator(f)) @ ip.gram


def _g_selfadjoint_eigh(f: np.ndarray, ip: InnerProduct):
    """Descending eigenvalues and orthonormal eigenvectors of ``W^{-1} f W``.

    For a G-selfadjoint ``f`` and the frame ``W`` of ``ip`` that matrix
    equals ``W^+ G f W``, Hermitian up to roundoff, so its Hermitian part
    goes to the eigensolver seam.  It is formed from :func:`policy.unit_scaled`
    ``f / s``, so it cannot overflow; scaling by the power of two ``s`` is
    exact, so only the eigenvalues are multiplied back.
    """
    f, scale = policy.unit_scaled(f)
    work = ip.frame_inv @ f @ ip.frame
    w, u = _eigh((work + hermitian_conjugate(work)) / 2.0)
    order = np.argsort(-w)
    return scale * w[order], u[:, order]


def g_selfadjoint_eigen(f, ip: InnerProduct):
    """Eigenvalues (descending) and G-orthonormal eigenvector columns.

    The input must already be selfadjoint with respect to ``ip``; the
    similarity transform by the frame ``W`` of ``ip`` hands the problem to
    the Hermitian eigensolver, and ``W`` maps its orthonormal eigenvectors
    to G-orthonormal ones.  Non-finite input raises SymmetryError.
    """
    f = ip.space.operator(f)
    if not np.all(np.isfinite(f)):
        raise policy.asymmetry_error(f, "operator", "selfadjoint w.r.t. the inner product")
    w, u = _g_selfadjoint_eigh(f, ip)
    return w, ip.frame @ u


def is_selfadjoint(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) equals f, i.e. (f x, y) = (x, f y).

    Non-finite f is never selfadjoint.
    """
    return policy.selfadjoint(ip.space.operator(f), lambda m: adjoint(m, ip))


def spectral_representation(f, ip: InnerProduct) -> SpectralDecomposition:
    """Spectral decomposition of a G-selfadjoint operator, tested once (SymmetryError).

    The projectors are G-selfadjoint, idempotent, mutually annihilating,
    and complete, and distinct eigenspaces are G-orthogonal.
    """
    f = ip.space.operator(f)
    if not policy.selfadjoint(f, lambda m: adjoint(m, ip)):
        raise policy.asymmetry_error(f, "operator", "selfadjoint w.r.t. the inner product")
    w, u = _g_selfadjoint_eigh(f, ip)
    return _spectral_decomposition(w, ip.frame @ u, ip.gram)


def is_unitary_wrt(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) f equals the identity, i.e. f preserves (.,.).

    Non-finite f is never unitary.
    """
    return policy.isometric(ip.space.operator(f), lambda m: adjoint(m, ip))
