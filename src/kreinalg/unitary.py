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
from .errors import DegenerateFormError, DependentSetError, ShapeError, SymmetryError
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

    Construction validates Hermiticity and positive definiteness on the
    unit ``G / s`` of :func:`policy.unit`, runs its one eigendecomposition
    ``G / s = U diag(w) U^+``, and keeps the unit ``_unit`` and the scale
    ``_scale`` beside ``gram``, as :class:`HForm` does.  It caches the
    smallest eigenvalue ``min_eigenvalue = s min(w)`` and the frame ``W = U
    diag((s w)^{-1/2})``, a G-orthonormal basis (``W^+ G W = 1``) whose
    inverse ``frame_inv = diag((s w)^{1/2}) U^+`` is exact in closed form;
    the frame of ``4^j G`` is ``2^-j W``, bit for bit.  The adjoint and
    spectral machinery read only these; ``G^{-1}`` (LU, more accurate than
    ``U diag(1/w) U^+``) only the natural-frame formulas and h.
    """

    def __init__(self, space: VectorSpace, gram) -> None:
        """Coerce ``gram`` and decide its Hermiticity and form floor, once each, on its unit."""
        unit, scale = _hermitian_form(space.operator(gram), "Gram matrix")
        w, vectors = _eigh(unit)
        if not policy.clears_form_floor(w, unit):
            least = float(policy.scaled_back(np.min(w), scale))
            raise DegenerateFormError(f"Gram matrix is not positive definite (min eigenvalue {least:.3e})")
        self._init(space, unit, scale, w, vectors)

    def _init(self, space: VectorSpace, unit: np.ndarray, scale: float, w, vectors) -> None:
        """Cache ``G = s U diag(w) U^+``, floored (``|K|`` on K); DegenerateFormError if G^-1 leaves the range."""
        w_min = float(w.min())
        self.min_eigenvalue = scale * w_min
        if not 1.0 / w_min / scale < math.inf:  # 1 / (s min(w)), which cannot divide by zero
            raise DegenerateFormError(
                f"Gram matrix inverse leaves the double range (min eigenvalue {self.min_eigenvalue:.3e})")
        root = policy._scaled_root(w, scale)
        self.space, self._unit, self._scale = space, unit, scale
        self.gram = scale * unit
        self.frame = vectors / root
        self.frame_inv = hermitian_conjugate(vectors) * root[:, np.newaxis]

    @cached_property
    def gram_inv(self) -> np.ndarray:
        """``G^{-1}``, the LU inverse of the unit over the scale, computed on first read."""
        return np.linalg.inv(self._unit) / self._scale

    def __repr__(self) -> str:
        return f"InnerProduct(space={self.space!r})"


def standard_inner_product(space: VectorSpace) -> InnerProduct:
    """The inner product whose Gram matrix is the identity."""
    return InnerProduct(space, np.eye(space.dim))


def inner_product(x, y, ip: InnerProduct):
    """(x, y) = x^+ G y; antilinear in x, linear in y; +-inf beyond the double range, with no warning."""
    x = ip.space.ket(x)
    y = ip.space.ket(y)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (hermitian_conjugate(x) @ ip.gram @ y)[0, 0]
    return complex(value) if ip.space.field == COMPLEX else float(value)


def norm(x, ip: InnerProduct) -> float:
    """sqrt((x, x)) at any scale of ``x`` and of G, by :func:`policy.scale_free_norm`.

    ``(x, x)`` is formed on G's unit, its tiny roundoff negative clamped, and its root scaled back.
    """
    return policy.scale_free_norm(ip.space.ket(x), lambda v: float(policy._scaled_root(
        max(np.real((hermitian_conjugate(v) @ ip._unit @ v)[0, 0]), 0.0), ip._scale)))


def riesz_map(x, ip: InnerProduct) -> np.ndarray:
    """The covector x^+ G, pairing with y to give (x, y); +-inf beyond the double range, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
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

    A non-finite f raises NonFiniteError before any arithmetic runs on it.
    """
    m, scale = policy.unit(f, "operator")
    return b_inv @ m @ b, scale


def _selfadjoint_eigenpairs(m, scale, frame, what="selfadjoint w.r.t. the inner product"):
    """The one spectral kernel, on f's frame matrix ``m = B^{-1} (f / s) B`` for ``B^+ G B = 1``.

    f is decided ``what`` by ``m^+ = m`` (SymmetryError); the eigenvalues of
    m's Hermitian part times s are f's, and ``frame`` B maps its eigenvectors
    to G-orthonormal ones.  B is G's frame W, or, for the Dirac problem,
    which passes ``f h``, the canonical frame.
    """
    if not policy.selfadjoint(m, _adjoint_view):
        ratio = policy._selfadjoint_ratio(m, _adjoint_view)
        raise SymmetryError(f"operator is not {what} within tolerance (residual/bound = {ratio:.3e})")
    w, u = _eigenpairs(_hermitian_part(m), scale)
    return w, frame @ u


def g_selfadjoint_eigen(f, ip: InnerProduct):
    """Eigenvalues (descending) and G-orthonormal eigenvector columns, tested once (SymmetryError)."""
    return _selfadjoint_eigenpairs(*_in_frame(ip.space.operator(f), ip.frame, ip.frame_inv), ip.frame)


def is_selfadjoint(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) equals f, i.e. (f x, y) = (x, f y)."""
    return policy.selfadjoint(_in_frame(ip.space.operator(f), ip.frame, ip.frame_inv)[0], _adjoint_view)


def spectral_representation(f, ip: InnerProduct) -> SpectralDecomposition:
    """Spectral decomposition of a G-selfadjoint operator, tested once (SymmetryError).

    The projectors are G-selfadjoint, idempotent, mutually annihilating,
    and complete, and distinct eigenspaces are G-orthogonal.
    """
    w, columns = _selfadjoint_eigenpairs(*_in_frame(ip.space.operator(f), ip.frame, ip.frame_inv), ip.frame)
    return _spectral_decomposition(w, columns, ip.gram)


def is_unitary_wrt(f, ip: InnerProduct) -> bool:
    """True when adjoint(f) f equals the identity, i.e. f preserves (.,.)."""
    return policy.isometric(*_in_frame(ip.space.operator(f), ip.frame, ip.frame_inv), hermitian_conjugate)
