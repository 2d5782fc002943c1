"""Indefinite Hermitian forms, metric operators, and Dirac conjugation.

An indefinite structure pairs a positive-definite inner product ``G``
with a non-degenerate Hermitian form ``K`` on the same space.  The metric
operator ``h = G^{-1} K`` is G-selfadjoint; the pair is *compatible* when
``h h`` is the identity, which forces every eigenvalue of ``h`` to be
+1 or -1 and splits the space into two G-orthogonal subspaces.  The
counts of +1 and -1 eigenvalues form the signature.

:class:`HForm` has one constructor, which decides only that K is
Hermitian.  K's non-degeneracy is decided by the factory that builds a
structure on it, from the factorization that factory runs anyway:
:func:`compatible_structure_from_hform` floors K's eigenvalues, and
:func:`metric_structure_from` an Ostrowski lower bound on them.

Conjugating with ``h`` turns the ordinary adjoint into the Dirac adjoint
(``hconj(f) = h adjoint(f) h``), under which the form-preserving
operators are exactly the pseudo-unitary group of the signature.  In the
canonical frame B (``B^+ G B = 1``, ``B^+ K B = eta``) the Dirac adjoint
of f is ``eta M^+ eta`` for ``M = B^{-1} (f / s) B``, s a power of two, so
each Dirac property is decided on M by that plain identity, and
:func:`dirac_spectral` decomposes ``M eta``.  With ``h`` equal to the
identity the whole apparatus collapses back to the Hermitian one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    _adjoint_view,
    _eigenpairs,
    _eigh,
    _hermitian_form,
    _hermitian_part,
    _spectral_decomposition,
    _spectral_function,
    jacobi_hermitian,
)
from .matrices import (
    COMPLEX,
    REAL,
    _matrix_view,
    _require_square,
    field_of,
    hermitian_conjugate,
)
from .spaces import Basis, VectorSpace, _inverse
from .tensors import DOWN, UP, Tensor
from .unitary import InnerProduct, _in_frame

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
    """A Hermitian form, carried by its Gram matrix K.

    The one constructor coerces K to the space, decides its Hermiticity
    (SymmetryError) and keeps its Hermitian part with the power of two of
    :func:`policy.unit` for the input; nothing is factorized.  K's
    non-degeneracy is decided on that scale by the structure factory built
    on the form, each by its own bound: :func:`compatible_structure_from_hform`
    floors K's eigenvalues, :func:`metric_structure_from` an Ostrowski
    bound on them (DegenerateFormError).  The inverse ``K^{-1}`` (LU, gated
    as a :class:`Basis` is) is computed on first use: only the Dirac
    adjoint of a covector reads it.
    """

    def __init__(self, space: VectorSpace, matrix) -> None:
        self.space = space
        h, self._scale = _hermitian_form(space.operator(matrix), "H-form matrix")
        self.matrix = self._scale * h

    @cached_property
    def inverse(self) -> np.ndarray:
        """``K^{-1}`` (LU), computed on first use."""
        return _inverse(self.matrix, "H-form matrix")

    def __repr__(self) -> str:
        return f"HForm(space={self.space!r})"


@dataclass(frozen=True)
class HOrthonormalBasis:
    """Basis whose columns bring the H-form to the diagonal of +-1 entries."""

    basis: Basis
    eta_diag: tuple  # +1 entries first


@dataclass(frozen=True)
class MetricStructure:
    """A compatible pair (inner product, H-form) with its metric operator.

    ``frame`` is the canonical (h-orthonormal) frame ``B``, +1 block
    first: ``B^+ K B = diag(eta)`` and ``B^+ G B = 1``.  It is built with
    the structure, from the factorizations the construction already runs,
    and carries its inverse in closed form.
    """

    ip: InnerProduct
    hform: HForm
    h: np.ndarray
    signature: tuple  # (n_plus, n_minus)
    frame: HOrthonormalBasis

    @property
    def space(self) -> VectorSpace:
        return self.ip.space

    @property
    def eta(self) -> np.ndarray:
        """Canonical diagonal of the metric: +1 block, then -1 block."""
        return np.array(self.frame.eta_diag, dtype=float)


def _degenerate(label: str, values) -> DegenerateFormError:
    return DegenerateFormError(f"H-form is numerically degenerate ({label} = {np.min(values):.3e})")


def _signature_of(values) -> tuple:
    """(n_plus, n_minus): the signs of a form's eigenvalues, or of congruent ones."""
    n_plus = int(np.count_nonzero(values > 0))
    return n_plus, len(values) - n_plus


def _frame(space: VectorSpace, b, b_inv, signature: tuple) -> HOrthonormalBasis:
    """The canonical frame ``B`` with its closed-form inverse, +1 block first."""
    n_plus, n_minus = signature
    return HOrthonormalBasis(Basis._with_inverse(space, b, b_inv), (1,) * n_plus + (-1,) * n_minus)


def metric_structure_from(gram, hform_matrix) -> MetricStructure:
    """Build a structure from an explicit (G, K) pair.

    G and K must share the scalar field, otherwise FieldError is raised;
    the space is ``VectorSpace(n, field)`` for the n of G.  K is checked
    Hermitian (SymmetryError) but not decomposed.  The one solve after
    G's is of the Hermitian ``W^+ K W = W^{-1} h W``, for the frame ``W``
    of G and ``h = G^{-1} K``: ``W u`` for its eigenvectors ``u`` is the
    canonical frame, with inverse ``u^+ W^{-1}``, and its eigenvalues
    ``w`` are congruent to K's, so by Sylvester's law of inertia their
    signs are K's signature.  By
    Ostrowski's theorem every ``|eigenvalue|`` of K is at least
    ``lambda_min(G) min |w|``, so K counts as non-degenerate when that
    bound exceeds ``FORM_TOL ||K||``, otherwise DegenerateFormError is
    raised; this accepts no K that the eigenvalue floor of
    :func:`compatible_structure_from_hform` rejects.
    Only then must the pair be compatible: h is similar to the Hermitian
    ``W^+ K W``, so it squares to the identity when every ``|w|`` is 1
    (:func:`policy.involutory`), otherwise CompatibilityError is raised.
    """
    gram = _matrix_view(gram)
    hform_matrix = _matrix_view(hform_matrix)
    if field_of(gram) != field_of(hform_matrix):
        raise FieldError("Gram matrix and H-form must share the scalar field")
    space = VectorSpace(gram.shape[0], field_of(gram))
    return _structure_on(InnerProduct(space, gram), hform_matrix)


def _structure_on(ip: InnerProduct, hform_matrix) -> MetricStructure:
    """:func:`metric_structure_from` on the inner product of G, already built.

    ``hform_matrix`` must be over the field of ``ip``.
    """
    space = ip.space
    hf = HForm(space, hform_matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is answered below
        h = ip.gram_inv @ hf.matrix
        m = hermitian_conjugate(ip.frame) @ hf.matrix @ ip.frame
    if not (np.isfinite(h).all() and np.isfinite(m).all()):
        raise CompatibilityError("metric operator G^{-1} K is not finite")
    w, u = _eigh(_hermitian_part(m))
    u = u[:, np.argsort(-w, kind="stable")]  # +1 block first; exact +-1 ties keep this order
    bounds = ip.min_eigenvalue * np.abs(w)  # below |eigenvalues of K|, by Ostrowski
    if not policy.clears_form_floor(bounds, hf.matrix, hf._scale):
        raise _degenerate("lambda_min(G) min |w|", bounds)
    if not policy.involutory(w):
        residual = np.max(np.abs(np.abs(w) - 1.0))
        raise CompatibilityError(f"metric operator is not an involution (max ||w| - 1| = {residual:.3e})")
    signature = _signature_of(w)
    frame = _frame(space, ip.frame @ u, hermitian_conjugate(u) @ ip.frame_inv, signature)
    return MetricStructure(ip=ip, hform=hf, h=h, signature=signature, frame=frame)


def compatible_structure_from_hform(hform_matrix) -> MetricStructure:
    """Synthesize the compatible inner product of a bare H-form.

    The space is ``VectorSpace(n, field)`` for the n and the field of K.
    K is non-degenerate when every ``|eigenvalue| > FORM_TOL ||K||``,
    otherwise DegenerateFormError is raised.
    Everything comes from the one eigendecomposition ``K = U Lambda U^+``:
    the positive-definite ``G = U |Lambda| U^+`` with its frame ``W = U
    |Lambda|^{-1/2}``, the metric operator ``h = U sign(Lambda) U^+``, and
    the canonical frame, which is ``W`` with its +1 columns first.  Only
    ``G^{-1}`` is a separate (LU) factorization, run on its first read.
    """
    hform_matrix = _matrix_view(hform_matrix)
    space = VectorSpace(hform_matrix.shape[0], field_of(hform_matrix))
    hf = HForm(space, hform_matrix)
    lam, u = _eigh(hf.matrix)
    mag = np.abs(lam)
    if not policy.clears_form_floor(mag, hf.matrix, hf._scale):
        raise _degenerate("min |eigenvalue|", mag)
    half = _spectral_function(u, mag) / 2.0
    ip = InnerProduct.__new__(InnerProduct)
    ip._init(space, half + hermitian_conjugate(half), mag, u)
    h = _spectral_function(u, np.sign(lam))
    signature = _signature_of(lam)
    order = np.argsort(lam < 0, kind="stable")
    frame = _frame(space, ip.frame[:, order], ip.frame_inv[order], signature)
    return MetricStructure(ip=ip, hform=hf, h=h, signature=signature, frame=frame)


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


def h_orthonormal_basis(ms: MetricStructure) -> HOrthonormalBasis:
    """A basis diagonalizing both the metric operator and the H-form.

    The structure's canonical frame, built with it: the columns are
    G-orthonormal eigenvectors of ``h``, +1 block first, so ``B^+ K B``
    is the canonical diagonal and the projector representations in this
    basis are exact 0/1 matrices.  No solve runs here.
    """
    return ms.frame


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
    return ms.h @ (ms.ip.gram_inv @ hermitian_conjugate(ms.space.operator(f)) @ ms.ip.gram) @ ms.h


def _eta_sharp(eta: np.ndarray, adjoint=hermitian_conjugate):
    """The Dirac adjoint in the canonical frame, ``M -> eta M^+ eta``: exact, since eta is +-1.

    ``adjoint`` is ``_adjoint_view`` where the result feeds only an elementwise expression.
    """
    return lambda m: eta[:, np.newaxis] * adjoint(m) * eta


def is_dirac_selfadjoint(f, ms: MetricStructure) -> bool:
    """True when the Dirac adjoint of f is f, i.e. H(f x, y) = H(x, f y).

    Non-finite f is never Dirac-selfadjoint.
    """
    framed = _in_frame(ms.space.operator(f), ms.frame.basis.matrix, ms.frame.basis.inverse)
    return framed is not None and policy.selfadjoint(framed[0], _eta_sharp(ms.eta, _adjoint_view))


def is_pseudo_unitary(f, ms: MetricStructure) -> bool:
    """True when the Dirac adjoint inverts f, i.e. f preserves the H-form.

    Non-finite f is never pseudo-unitary.
    """
    framed = _in_frame(ms.space.operator(f), ms.frame.basis.matrix, ms.frame.basis.inverse)
    return framed is not None and policy.isometric(*framed, _eta_sharp(ms.eta))


@dataclass(frozen=True)
class DiracSpectralDecomposition(SpectralDecomposition):
    """Spectral data of a Dirac-selfadjoint operator: f = sum of l * p_l * h.

    The eigenvalues and projectors are those of the G-selfadjoint
    operator ``f h``; ``metric`` is ``h``.
    """

    metric: np.ndarray

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.metric)
        for value, proj in zip(self.eigenvalues, self.projectors):
            out = out + value * (proj @ self.metric)
        return out


def dirac_spectral(f, ms: MetricStructure) -> DiracSpectralDecomposition:
    """Decompose a Dirac-selfadjoint operator through its selfadjoint partner ``f h``.

    With ``M = B^{-1} (f / s) B`` in the canonical frame B, decided
    Dirac-selfadjoint once (SymmetryError), ``f h = B (M eta) B^{-1}``, so
    the Hermitian part of ``M eta`` is decomposed and its eigenvectors u
    give the G-orthonormal ``B u``.  The projectors times ``h`` give f.
    """
    f, eta = ms.space.operator(f), ms.eta
    framed = _in_frame(f, ms.frame.basis.matrix, ms.frame.basis.inverse)
    if framed is None or not policy.selfadjoint(framed[0], _eta_sharp(eta, _adjoint_view)):
        raise policy.asymmetry_error(f, "operator", "Dirac-selfadjoint")
    w, u = _eigenpairs(_hermitian_part(framed[0] * eta), framed[1])
    dec = _spectral_decomposition(w, ms.frame.basis.matrix @ u, ms.ip.gram)
    return DiracSpectralDecomposition(dec.eigenvalues, dec.multiplicities, dec.projectors, ms.h.copy())


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
    """Real specialization: f^T f = identity; non-finite f is never orthogonal."""
    f = np.asarray(f)
    if field_of(f) != REAL:
        raise FieldError("orthogonality is a real-field predicate")
    _require_square(f)
    scaled = policy.unit(f)
    return scaled is not None and policy.isometric(*scaled, np.transpose)


def is_pseudo_orthogonal(f, ms: MetricStructure) -> bool:
    """Real specialization of pseudo-unitarity, f^T K f = K, decided after the field check."""
    f = np.asarray(f)
    if field_of(f) != REAL or ms.space.field != REAL:
        raise FieldError("pseudo-orthogonality is a real-field predicate")
    framed = _in_frame(ms.space.operator(f), ms.frame.basis.matrix, ms.frame.basis.inverse)
    return framed is not None and policy.isometric(*framed, _eta_sharp(ms.eta))
