"""Definite inner products and the operator theory they induce.

An inner product is carried by its Gram matrix ``G`` in the natural
frame: ``(x, y) = x^+ G y``, antilinear in the first argument.  Its frame
``W``, with ``W^+ G W = 1`` and ``W^{-1}`` in closed form (both cached at
construction), makes the adjoint of f the conjugate transpose of ``M =
W^{-1} (f / s) W``, for a power of two s.  So each operator property is
decided on M by its plain identity (``M^+ = M``, ``M^+ M = 1``), and the
G-selfadjoint eigenproblem is the Hermitian one of M, which the
eigensolver seam handles; eigenvectors come back G-orthonormal and the
spectral projectors are G-selfadjoint.  Only :func:`adjoint` and
:func:`riesz_inverse` read ``G^{-1}``, which is computed on first read.
Every tolerance is a rule of :mod:`kreinalg.policy`.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import policy
from .errors import DegenerateFormError, DependentSetError, ShapeError
from .eigen import (  # noqa: F401  (jacobi_hermitian stays bound: perfbench/selftest.py checks it)
    SpectralDecomposition,
    _adjoint_view,
    _eigenpairs,
    _eigh,
    _hermitian_form,
    _hermitian_part,
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
    eigendecomposition ``G = U diag(w) U^+``, and caches the smallest
    eigenvalue ``min_eigenvalue`` and the frame ``W = U diag(w^{-1/2})``,
    a G-orthonormal basis (``W^+ G W = 1``) whose inverse ``frame_inv =
    diag(w^{1/2}) U^+`` is exact in closed form.  The adjoint and spectral
    machinery read only these.  ``G^{-1}`` is computed on first read: only
    the natural-frame formulas and the metric operator ``h = G^{-1} K``
    read it.  It is the LU inverse, which is more accurate than ``U
    diag(1/w) U^+``.
    """

    def __init__(self, space: VectorSpace, gram) -> None:
        """Coerce ``gram`` and decide its Hermiticity and form floor, once each."""
        h, scale = _hermitian_form(space.operator(gram), "Gram matrix")
        g = scale * h
        w, vectors = _eigh(g)
        if not policy.clears_form_floor(w, g, scale):
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
        self.min_eigenvalue = float(w.min())
        self.frame = vectors / root
        self.frame_inv = hermitian_conjugate(vectors) * root[:, np.newaxis]

    @cached_property
    def gram_inv(self) -> np.ndarray:
        """``G^{-1}`` (LU), computed on first read."""
        return np.linalg.inv(self.gram)

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


def _in_frame(f: np.ndarray, b: np.ndarray, b_inv: np.ndarray):
    """``(M, s)``, ``M = B^{-1} (f / s) B`` for the pair ``(f / s, s)`` of :func:`policy.unit`.

    None for a non-finite f, before any arithmetic runs on it.
    """
    scaled = policy.unit(f)
    return None if scaled is None else (b_inv @ scaled[0] @ b, scaled[1])


def _selfadjoint_eigenpairs(f, ip: InnerProduct):
    """The kernel of :func:`g_selfadjoint_eigen` and :func:`spectral_representation`.

    f is decided self-adjoint on its frame matrix ``M = W^{-1} (f / s) W``
    (``M^+ = M``); the eigenvalues of M's Hermitian part times s are f's,
    and ``W`` maps its orthonormal eigenvectors to G-orthonormal ones.
    """
    f = ip.space.operator(f)
    framed = _in_frame(f, ip.frame, ip.frame_inv)
    if framed is None or not policy.selfadjoint(framed[0], _adjoint_view):
        raise policy.asymmetry_error(f, "operator", "selfadjoint w.r.t. the inner product")
    w, u = _eigenpairs(_hermitian_part(framed[0]), framed[1])
    return w, ip.frame @ u


def g_selfadjoint_eigen(f, ip: InnerProduct):
    """Eigenvalues (descending) and G-orthonormal eigenvector columns, tested once (SymmetryError)."""
    return _selfadjoint_eigenpairs(f, ip)


def is_selfadjoint(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) equals f, i.e. (f x, y) = (x, f y).

    Non-finite f is never selfadjoint.
    """
    framed = _in_frame(ip.space.operator(f), ip.frame, ip.frame_inv)
    return framed is not None and policy.selfadjoint(framed[0], _adjoint_view)


def spectral_representation(f, ip: InnerProduct) -> SpectralDecomposition:
    """Spectral decomposition of a G-selfadjoint operator, tested once (SymmetryError).

    The projectors are G-selfadjoint, idempotent, mutually annihilating,
    and complete, and distinct eigenspaces are G-orthogonal.
    """
    return _spectral_decomposition(*_selfadjoint_eigenpairs(f, ip), ip.gram)


def is_unitary_wrt(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) f equals the identity, i.e. f preserves (.,.).

    Non-finite f is never unitary.
    """
    framed = _in_frame(ip.space.operator(f), ip.frame, ip.frame_inv)
    return framed is not None and policy.isometric(*framed, hermitian_conjugate)
