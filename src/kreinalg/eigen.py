"""Hermitian eigensolver and spectral decompositions.

Every production eigensolve goes through the private seam :func:`_eigh`,
so the solver behind the package is chosen in one place.  It is LAPACK's
Hermitian solver (``np.linalg.eigh``), with one deterministic phase gauge
on the eigenvector columns, so gauge-dependent outputs such as canonical
bases come out the same on every call.  The seam's eigenpairs come in
ascending order; a spectral decomposition takes them reversed
(:func:`_descending`), so no sort runs and the order of exactly equal
eigenvalues is LAPACK's, reversed.

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
from .errors import ConvergenceError
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
    sweeps.
    """
    n = _require_square(np.asarray(a))
    work = np.array(a, dtype=np.complex128)
    vectors = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.diag(work).copy(), vectors, 0
    threshold = policy.JACOBI_TOL * policy.norm(work)
    max_sweeps = policy.JACOBI_MAX_SWEEPS
    # Rotations on entries this small cannot move the off-diagonal mass
    # past the convergence threshold; skip them.
    skip = threshold / (10.0 * n * n) if threshold > 0.0 else 0.0

    for sweep in range(max_sweeps):
        if _off_diagonal_norm(work) <= threshold:
            return np.diag(work).copy(), vectors, sweep
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
        return np.diag(work).copy(), vectors, max_sweeps
    raise ConvergenceError(
        f"Jacobi iteration did not converge within {max_sweeps} sweeps "
        f"(off-diagonal mass {_off_diagonal_norm(work):.3e}, threshold {threshold:.3e})"
    )


def _eigh(a):
    """The eigensolver seam: ascending real eigenvalues and orthonormal eigenvectors.

    LAPACK ``eigh`` reads the lower triangle of a finite Hermitian ``a``
    and returns the eigenvalues in ascending order; :func:`_descending`
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


def _descending(w, vectors):
    """The seam's eigenpairs reversed: eigenvalues descending, as :func:`_spectral_decomposition` takes them.

    The columns are copied in Fortran order, the layout in which the
    products of the decomposition read them.
    """
    return w[::-1].copy(), np.asfortranarray(vectors[:, ::-1])


def _hermitian_form(a: np.ndarray, what: str):
    """``(K, s)``: the Hermitian part K of ``a``, once :func:`policy.selfadjoint` accepts it (SymmetryError).

    The rule runs on the :func:`policy.unit` ``a / s``; ``s`` is kept for
    the form floor.  K is ``a/2 + (a/2)^+``, which cannot overflow; in the
    normal range halving is exact, so these are the bits of ``(a + a^+)/2``.
    """
    scaled = policy.unit(a)
    if scaled is None or not policy.selfadjoint(scaled[0], lambda m: np.conj(m).T):
        raise policy.asymmetry_error(a, what, "Hermitian")
    half = a / 2.0
    return half + hermitian_conjugate(half), scaled[1]


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
    return distinct, [indices[start:end] for start, end in bounds]


def _clusters(values):
    """``(bounds, distinct)`` for non-empty descending ``values``: each cluster's ``[start, end)`` and mean.

    A value joins the previous one's cluster when the two are at most
    ``CLUSTER_TOL ||finite values||`` apart, so near-ties chain, and each
    NaN or infinity is a cluster of its own.  Gaps, norm and means are of
    ``values / s``, s the power of two of :func:`policy.scale_of` for the
    largest finite ``|value|``: the rule is the same at any scale.
    """
    listed = values.tolist()
    finite = [v for v in listed if math.isfinite(v)]
    scale = policy.scale_of(max(map(abs, finite), default=0.0))
    scaled = measured = values / scale
    if len(finite) < len(listed):
        measured = np.divide(finite, scale)
        scaled[~np.isfinite(scaled)] = np.nan  # NaN - NaN raises no warning; inf - inf does
    tol = policy.CLUSTER_TOL * policy.norm(measured)
    # ``~(gap <= tol)`` rather than ``gap > tol``: a NaN gap starts a new cluster.
    cuts = (np.flatnonzero(~(scaled[:-1] - scaled[1:] <= tol)) + 1).tolist()
    bounds = list(zip([0] + cuts, cuts + [len(listed)]))
    if len(bounds) == len(listed):
        return bounds, listed
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
    Hermitian part is decomposed.
    """
    a = np.asarray(a)
    _require_square(a)
    w, vectors = _eigh(_hermitian_form(a, "matrix")[0])
    return _spectral_decomposition(*_descending(w, vectors))


def _spectral_decomposition(w, vectors, gram=None) -> SpectralDecomposition:
    """Group descending eigenpairs into eigenspaces with projectors ``V V^+ G``.

    ``w`` is descending, as :func:`_descending` hands over the seam's
    pairs, so each cluster of :func:`_clusters` is a contiguous run of
    columns.  The columns of ``vectors`` are G-orthonormal; G is the
    identity when ``gram`` is omitted.  The projectors are over the field
    of ``vectors`` (and ``gram``): real eigenpairs of a real problem give
    real projectors.  Assembly costs O(n^3) for any spectrum: ``rows =
    V^+ G`` is formed once, so each projector is the product ``V[:, s:e] @
    rows[s:e]`` of one cluster's slices.  The clusters of one size m are
    one batched ``np.matmul`` of their stacked ``(c, n, m)`` and ``(c, m,
    n)`` slices, so there is one product per distinct multiplicity; a
    simple spectrum is a single one.  Batched or not, each product has the
    bits of its own two-dimensional ``matmul`` of Fortran-ordered columns.
    """
    bounds, distinct = _clusters(w)
    cols = np.asfortranarray(vectors)
    rows = hermitian_conjugate(cols)
    if gram is not None:
        rows = rows @ gram
    n = cols.shape[0]
    multiplicities = tuple(end - start for start, end in bounds)
    projectors = [None] * len(bounds)
    for m in sorted(set(multiplicities)):
        which = [k for k, size in enumerate(multiplicities) if size == m]
        c = len(which)
        if c == len(bounds):
            take = slice(None)
        else:
            take = np.concatenate([np.arange(*bounds[k]) for k in which])
        stacked_cols = cols[:, take].reshape(n, c, m).transpose(1, 0, 2)
        block = np.matmul(stacked_cols, rows[take].reshape(c, m, n))
        for k, p in zip(which, block):
            projectors[k] = p
    return SpectralDecomposition(
        eigenvalues=tuple(distinct),
        multiplicities=multiplicities,
        projectors=tuple(projectors),
    )


def characteristic_polynomial(a) -> np.ndarray:
    """Coefficients of det(lambda*1 - A), highest degree first.

    Uses the trace recursion on powers of A; costs O(n^4) and is intended
    for small cross-check problems only.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = _require_square(a)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.array(a)
    for k in range(1, n + 1):
        if k > 1:
            m = a @ (m + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(m) / k
    return coeffs


def charpoly_eigenvalues(a) -> np.ndarray:
    """Roots of the characteristic polynomial, sorted by descending real part.

    Independent of both eigensolvers: coefficients come from the trace
    recursion and roots from the companion matrix.
    """
    roots = np.roots(characteristic_polynomial(a))
    return roots[np.argsort(-roots.real)]
