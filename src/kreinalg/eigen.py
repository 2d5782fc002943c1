"""Hermitian eigensolver and spectral decompositions.

Every production eigensolve goes through the private seam :func:`_eigh`,
so the solver behind the package is chosen in one place.  It is LAPACK's
Hermitian solver (``np.linalg.eigh``), with one deterministic phase gauge
on the eigenvector columns, so gauge-dependent outputs such as canonical
bases come out the same on every call.  Every spectral decomposition
takes the seam's ascending eigenpairs from the one kernel
:func:`_eigenpairs`, reversed, so no sort runs and the order of exactly
equal eigenvalues is LAPACK's, reversed.

Two independent solvers are kept as reference oracles; neither feeds a
production decomposition:

* :func:`jacobi_hermitian`, a cyclic Jacobi iteration on the full complex
  Hermitian matrix: each rotation is a 2-by-2 unitary chosen to zero one
  off-diagonal pair, and a sweep visits every pair once.  Convergence is
  declared when the off-diagonal Frobenius mass drops below
  ``policy.JACOBI_TOL`` times the matrix norm.  Real symmetric input
  stays exactly real throughout, because every rotation then has a phase
  factor of +-1.
* :func:`charpoly_eigenvalues`, a characteristic-polynomial root finder
  (Faddeev-LeVerrier coefficients plus companion-matrix roots) for small
  matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import policy
from .errors import ConvergenceError, ShapeError
from .matrices import _require_square, hermitian_conjugate

__all__ = [
    "SpectralDecomposition",
    "jacobi_hermitian",
    "cluster_eigenvalues",
    "eigen_hermitian",
    "characteristic_polynomial",
    "charpoly_eigenvalues",
]

def _off_diagonal_norm(a: np.ndarray) -> float:
    return policy.norm(a - np.diag(np.diag(a)))


def jacobi_hermitian(a):
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations (reference oracle).

    Returns ``(diag, vectors, sweeps)`` where ``diag`` is the converged
    complex diagonal (imaginary parts are roundoff-level), the columns of
    ``vectors`` are orthonormal eigenvectors, and ``sweeps`` counts the
    full sweeps performed.  Raises ConvergenceError if the off-diagonal
    mass has not dropped below tolerance within ``policy.JACOBI_MAX_SWEEPS``
    sweeps.  It runs on the unit ``A / s`` of :func:`policy.unit_scaled`, then scales back.
    """
    a = np.asarray(a)
    n = _require_square(a)
    m, scale = policy.unit_scaled(a)
    work = np.array(m, dtype=np.complex128)
    vectors = np.eye(n, dtype=np.complex128)
    threshold = policy.JACOBI_TOL * policy.norm(work)
    max_sweeps = policy.JACOBI_MAX_SWEEPS
    # Rotations on entries this small cannot move the off-diagonal mass
    # past the convergence threshold; skip them.
    skip = threshold / (10.0 * n * n) if threshold > 0.0 else 0.0

    for sweep in range(max_sweeps):
        if _off_diagonal_norm(work) <= threshold:
            return policy.scaled_back(np.diag(work), scale), vectors, sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= skip:
                    continue
                app = work[p, p].real
                aqq = work[q, q].real
                mag = abs(apq)
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * np.conj(phase) * col_q
                work[:, q] = s * phase * col_p + c * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * phase * row_q
                work[q, :] = s * np.conj(phase) * row_p + c * row_q
                work[p, q] = 0.0
                work[q, p] = 0.0

                vec_p = vectors[:, p].copy()
                vec_q = vectors[:, q].copy()
                vectors[:, p] = c * vec_p - s * np.conj(phase) * vec_q
                vectors[:, q] = s * phase * vec_p + c * vec_q

    if _off_diagonal_norm(work) <= threshold:
        return policy.scaled_back(np.diag(work), scale), vectors, max_sweeps
    raise ConvergenceError(
        f"Jacobi iteration did not converge within {max_sweeps} sweeps "
        f"(off-diagonal mass {_off_diagonal_norm(work):.3e}, threshold {threshold:.3e})"
    )


def _eigh(a):
    """The eigensolver seam: ascending real eigenvalues and orthonormal eigenvectors.

    LAPACK ``eigh`` reads the lower triangle of a finite Hermitian ``a``
    and returns the eigenvalues in ascending order; :func:`_eigenpairs`
    reverses the pairs for a spectral decomposition.  Each eigenvector
    column is fixed up to a unit phase, so the seam picks one: the
    column's largest-magnitude entry (the first one on ties) becomes real
    and positive.  Over the real field the phase is the pivot's sign, and
    multiplying by it gives the bits of dividing by ``p / |p|``.
    """
    w, vectors = np.linalg.eigh(a)
    cols = np.arange(vectors.shape[1])
    rows = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[rows, cols]
    if vectors.dtype.kind != "c":
        return w, vectors * np.sign(pivots)
    vectors = vectors / (pivots / np.abs(pivots))
    vectors[rows, cols] = np.abs(pivots)
    return w, vectors


def _eigenpairs(h: np.ndarray, scale: float):
    """The spectral kernel: descending eigenpairs of the Hermitian ``h``, eigenvalues times ``scale``.

    ``h`` is the :func:`_hermitian_part` of a matrix of :func:`policy.unit`,
    or of a frame matrix formed from one, and ``scale`` that matrix's
    scale; an eigenvalue beyond the double range is +-inf.  The columns
    are in Fortran order, the layout in which the products of
    :func:`_spectral_decomposition` read them.
    """
    w, vectors = _eigh(h)
    return policy.scaled_back(w[::-1], scale), np.asfortranarray(vectors[:, ::-1])


def _adjoint_view(m: np.ndarray) -> np.ndarray:
    """``m^+`` as a transposed view (no copy over the real field), for elementwise use.

    A BLAS product takes the C-ordered copy of :func:`hermitian_conjugate`.
    """
    return m.conj().T


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^+) / 2``: exactly Hermitian, so it is its own Hermitian part, bit for bit."""
    return (m + _adjoint_view(m)) / 2.0


def _hermitian_form(a: np.ndarray, what: str):
    """``(H, s)``: the Hermitian part H of the :func:`policy.unit` ``a / s``, once :func:`policy.selfadjoint` accepts ``a / s`` (SymmetryError).

    ``s H`` is the Hermitian part of ``a``.  H is formed on the unit
    matrix, so the sum cannot overflow and the halving is exact at any
    scale of ``a``, subnormal included; where ``(a + a^+)/2`` is formed
    with no overflow and no subnormal entry, ``s H`` has its bits.
    """
    scaled = policy.unit(a)
    if scaled is None or not policy.selfadjoint(scaled[0], _adjoint_view):
        raise policy.asymmetry_error(a, what, "Hermitian")
    m, scale = scaled
    return _hermitian_part(m), scale


def _spectral_function(vectors, values) -> np.ndarray:
    """``V diag(values) V^+`` for orthonormal eigenvectors V of a Hermitian matrix.

    Real eigenvalues keep the field of V, which is the field of the
    decomposed matrix: ``eigh`` of real data has real eigenvectors.
    """
    return (vectors * values) @ hermitian_conjugate(vectors)


def cluster_eigenvalues(values):
    """Group nearly equal real eigenvalues, descending.

    Returns ``(distinct, groups)``: the representative (mean) eigenvalue
    of each cluster and the index groups into the original array, by the
    rule of :func:`_clusters`.  Exactly equal values are listed in
    descending index order on every numpy build (a stable sort, reversed);
    NaN comes first.
    """
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return [], []
    order = np.argsort(values, kind="stable")[::-1]
    bounds, distinct = _clusters(values[order])
    indices = order.tolist()
    if bounds is None:
        return distinct, [[index] for index in indices]
    return distinct, [indices[start:end] for start, end in bounds]


def _clusters(values):
    """``(bounds, distinct)`` for non-empty descending ``values``: each cluster's ``[start, end)`` and mean.

    A value joins the previous one's cluster when the two are at most
    ``CLUSTER_TOL ||finite values||`` apart, so near-ties chain, and each
    NaN or infinity is a cluster of its own.  Gaps, norm and means are of
    ``values / s``, s the power of two of :func:`policy.scale_of` for the
    largest finite ``|value|``: the rule is the same at any scale.  A
    simple spectrum, every gap above the tolerance, is told by one
    vectorized test and answered as ``(None, values)``, each value a
    cluster of its own; a NaN gap fails that test, so non-finite values
    take the general rule.
    """
    finite = None
    peak = float(np.abs(values).max())
    if not peak < math.inf:  # a NaN or an infinity: scale and norm are the finite values'
        finite = np.isfinite(values)
        peak = float(np.abs(values[finite]).max(initial=0.0))
    scale = policy.scale_of(peak)
    scaled = measured = values / scale
    if finite is not None:
        measured = scaled[finite]
        scaled[~finite] = np.nan  # NaN - NaN raises no warning; inf - inf does
    tol = policy.CLUSTER_TOL * policy.frobenius(measured)  # unit data: 0 or at least 2**-52
    gaps = scaled[:-1] - scaled[1:]
    if (gaps > tol).all():
        return None, values.tolist()
    # ``~(gap <= tol)`` rather than ``gap > tol``: a NaN gap starts a new cluster.
    cuts = (np.flatnonzero(~(gaps <= tol)) + 1).tolist()
    bounds = list(zip([0] + cuts, cuts + [len(values)]))
    listed = values.tolist()
    distinct = [
        listed[start] if end - start == 1 else scale * float(np.mean(scaled[start:end]))
        for start, end in bounds
    ]
    return bounds, distinct


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues with their multiplicities and projectors.

    The projectors are idempotent, mutually annihilating, and sum to the
    identity; ``reconstruct()`` rebuilds the decomposed operator.
    """

    eigenvalues: tuple  # distinct, descending
    multiplicities: tuple
    projectors: tuple  # one matrix per distinct eigenvalue

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for value, proj in zip(self.eigenvalues, self.projectors):
            out = out + value * proj
        return out


def eigen_hermitian(a) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    The input must be finite and Hermitian under the self-adjointness rule
    of :mod:`kreinalg.policy`, otherwise SymmetryError is raised; its
    Hermitian part is decomposed at unit scale and its eigenvalues are
    scaled back by the power of two of :func:`policy.unit`, so the
    eigenvalues of ``2**k a`` are ``2**k`` times those of ``a``, bit for
    bit, wherever they are normal numbers; one beyond the double range is
    +-inf.  An empty matrix raises ShapeError.
    """
    a = np.asarray(a)
    if not _require_square(a):
        raise ShapeError("cannot decompose an empty matrix")
    return _spectral_decomposition(*_eigenpairs(*_hermitian_form(a, "matrix")))


def _spectral_decomposition(w, vectors, gram=None) -> SpectralDecomposition:
    """Group descending eigenpairs into eigenspaces with projectors ``V V^+ G``.

    ``w`` is descending, as :func:`_eigenpairs` hands over the seam's
    pairs, so each cluster of :func:`_clusters` is a contiguous run of
    columns.  The columns of ``vectors`` are G-orthonormal; G is the
    identity when ``gram`` is omitted.  The projectors are over the field
    of ``vectors`` (and ``gram``): real eigenpairs of a real problem give
    real projectors.  ``rows = V^+ G`` is formed once, and each projector
    is the product ``V[:, s:e] @ rows[s:e]`` of one cluster's slices: one
    batched ``np.matmul`` of all the rank-1 slices for a simple spectrum,
    which :func:`_clusters` tells by its one vectorized gap test, and one
    product per cluster otherwise.  Each has the bits of its own
    two-dimensional ``matmul`` of Fortran-ordered columns.
    """
    bounds, distinct = _clusters(w)
    cols = np.asfortranarray(vectors)
    rows = hermitian_conjugate(cols)
    if gram is not None:
        rows = rows @ gram
    n = cols.shape[0]
    if bounds is None:
        block = np.matmul(cols.reshape(n, n, 1).transpose(1, 0, 2), rows.reshape(n, 1, n))
        return SpectralDecomposition(tuple(distinct), (1,) * n, tuple(block))
    projectors = tuple(cols[:, start:end] @ rows[start:end] for start, end in bounds)
    return SpectralDecomposition(tuple(distinct), tuple(end - start for start, end in bounds), projectors)


def characteristic_polynomial(a) -> np.ndarray:
    """Coefficients of det(lambda*1 - A), highest degree first.

    Uses the trace recursion on powers of A; costs O(n^4) and is intended
    for small cross-check problems only.  It runs on the unit ``A / s`` of
    :func:`policy.unit_scaled` and scales the k-th coefficient back by ``s**k``.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = _require_square(a)
    a, scale = policy.unit_scaled(a)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.array(a)
    for k in range(1, n + 1):
        if k > 1:
            m = a @ (m + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(m) / k
    return policy.scaled_back(coeffs, scale, np.arange(n + 1))


def charpoly_eigenvalues(a) -> np.ndarray:
    """Roots of the characteristic polynomial, sorted by descending real part.

    Independent of both eigensolvers: coefficients come from the trace
    recursion and roots from the companion matrix, both of the unit ``A / s``.
    """
    m, scale = policy.unit_scaled(np.asarray(a))
    roots = policy.scaled_back(np.roots(characteristic_polynomial(m)), scale)
    return roots[np.argsort(-roots.real)]
