"""Seeded random instances for the verification suite and the tests.

Every generator takes a ``numpy.random.Generator`` (the PCG64 generator
behind ``numpy.random.default_rng``), so identical seeds give identical
instances.  Generic entries are i.i.d. uniform on [-1, 1] per component;
structured instances (Hermitian, positive definite, non-degenerate,
Dirac-selfadjoint, pseudo-unitary) are built constructively so their
defining property holds exactly, not merely to tolerance.
"""

from __future__ import annotations

import numpy as np

from .eigen import _hermitian_part, _spectral_function
from .matrices import COMPLEX, REAL, hermitian_conjugate
from .spaces import Basis, VectorSpace
from .tensors import Tensor
from .unitary import InnerProduct

__all__ = [
    "random_matrix",
    "random_ket",
    "random_bra",
    "random_invertible",
    "random_unitary",
    "random_hermitian",
    "random_positive_definite",
    "random_nondegenerate_hform",
    "separated_eigenvalues",
    "random_g_selfadjoint",
    "random_dirac_selfadjoint",
    "random_pseudo_unitary",
    "lorentz_boost",
    "random_basis",
    "random_tensor",
]


def random_matrix(rng: np.random.Generator, rows: int, cols: int, field: str = REAL) -> np.ndarray:
    """Entries i.i.d. uniform on [-1, 1] (independently per component for complex)."""
    real = rng.uniform(-1.0, 1.0, size=(rows, cols))
    if field == COMPLEX:
        return real + 1j * rng.uniform(-1.0, 1.0, size=(rows, cols))
    return real


def random_ket(rng: np.random.Generator, n: int, field: str = REAL) -> np.ndarray:
    return random_matrix(rng, n, 1, field)


def random_bra(rng: np.random.Generator, n: int, field: str = REAL) -> np.ndarray:
    return random_matrix(rng, 1, n, field)


def random_unitary(rng: np.random.Generator, n: int, field: str = REAL) -> np.ndarray:
    """Haar-ish unitary (orthogonal over the reals) from a QR factorization."""
    q, r = np.linalg.qr(random_matrix(rng, n, n, field))
    # Fix the phase convention so the distribution does not depend on the
    # sign choices made inside QR.
    d = np.diag(r)
    mag = np.abs(d)
    return q * np.divide(d, mag, out=np.ones_like(d), where=mag > 0)


def random_invertible(rng: np.random.Generator, n: int, field: str = REAL) -> np.ndarray:
    """Well-conditioned invertible matrix: singular values in [0.5, 2]."""
    u = random_unitary(rng, n, field)
    v = random_unitary(rng, n, field)
    s = rng.uniform(0.5, 2.0, size=n)
    return (u * s) @ hermitian_conjugate(v)


def random_hermitian(rng: np.random.Generator, n: int, field: str = REAL) -> np.ndarray:
    """(A + A^+) / 2 for a generic A: Hermitian by construction."""
    return _hermitian_part(random_matrix(rng, n, n, field))


def random_positive_definite(rng: np.random.Generator, n: int, field: str = REAL) -> np.ndarray:
    """Hermitian with eigenvalues in [0.5, 2]: safely positive definite."""
    u = random_unitary(rng, n, field)
    lam = rng.uniform(0.5, 2.0, size=n)
    return _hermitian_part(_spectral_function(u, lam))


def random_nondegenerate_hform(
    rng: np.random.Generator, n: int, field: str = REAL, n_plus: int | None = None
) -> np.ndarray:
    """Hermitian with eigenvalue magnitudes in [0.5, 2] and mixed signs.

    ``n_plus`` fixes the number of positive eigenvalues; by default it is
    drawn uniformly from 0..n.
    """
    if n_plus is None:
        n_plus = int(rng.integers(0, n + 1))
    signs = np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)])
    lam = signs * rng.uniform(0.5, 2.0, size=n)
    u = random_unitary(rng, n, field)
    return _hermitian_part(_spectral_function(u, lam))


# separated_eigenvalues draws from [_LOW, _HIGH], its distinct values _MIN_GAP apart.
_LOW, _HIGH, _MIN_GAP = -2.0, 2.0, 1e-3


def separated_eigenvalues(
    rng: np.random.Generator, n: int, multiplicities: bool = False
) -> np.ndarray:
    """Real eigenvalues in [-2, 2] whose distinct values are at least 1e-3 apart.

    With ``multiplicities=True`` some entries are exact repeats, so
    clustering tests see genuine multiplicity rather than near-ties.
    """
    k = n
    if multiplicities and n >= 2:
        k = int(rng.integers(1, n))
    for _ in range(1000):
        distinct = np.sort(rng.uniform(_LOW, _HIGH, size=k))
        if k == 1 or np.min(np.diff(distinct)) >= _MIN_GAP:
            break
    else:
        distinct = _LOW + (_HIGH - _LOW) * np.arange(k) / max(k - 1, 1)
    values = distinct[rng.integers(0, k, size=n)] if k < n else distinct
    if k < n:
        # Guarantee every distinct value appears at least once.
        values = np.concatenate([distinct, values[k - n :]])[:n]
    return np.sort(values)[::-1]


def random_g_selfadjoint(
    rng: np.random.Generator, ip: InnerProduct, eigenvalues=None
) -> np.ndarray:
    """Operator selfadjoint w.r.t. ``ip`` with a prescribed real spectrum.

    Built as W diag(eigenvalues) W^{-1} for a G-orthonormal W, so the
    spectrum is exact and the G-selfadjointness structural.
    """
    n = ip.space.dim
    if eigenvalues is None:
        eigenvalues = separated_eigenvalues(rng, n)
    w = ip.frame @ random_unitary(rng, n, ip.space.field)
    return (w * np.asarray(eigenvalues, dtype=float)) @ np.linalg.inv(w)


def random_dirac_selfadjoint(rng: np.random.Generator, ms) -> np.ndarray:
    """Dirac-selfadjoint operator with a separated real spectrum.

    Built in the canonical frame B of ``ms`` as ``B (A eta) B^{-1}`` for a
    Hermitian ``A = U diag(eigenvalues) U^+``.  In that frame the Dirac
    rule reads ``eta M^+ eta = M``, which ``M = A eta`` meets up to the
    roundoff of A alone, however large cond(G) and ``||h||`` are.
    """
    n = ms.space.dim
    eigenvalues = separated_eigenvalues(rng, n)
    u = random_unitary(rng, n, ms.space.field)
    a = _spectral_function(u, eigenvalues)
    frame = ms.frame.basis
    return frame.matrix @ (a * ms.eta) @ frame.inverse


def random_pseudo_unitary(
    rng: np.random.Generator, n_plus: int, n_minus: int, field: str = REAL
) -> np.ndarray:
    """Member of the canonical-frame pseudo-unitary group of the signature.

    Composes plane rotations inside each sign block, hyperbolic boosts
    across blocks, and (in the complex case) diagonal phases, all of
    which preserve diag(+1.., -1..) exactly.  When one block is empty
    this produces ordinary unitary/orthogonal matrices.

    The group is non-compact, so the boost rapidities are kept small
    (at most a few tenths in total); membership residuals of heavily
    boosted matrices would otherwise drown in roundoff.
    """
    n = n_plus + n_minus
    eta = np.concatenate([np.ones(n_plus), -np.ones(n_minus)])
    dtype = np.complex128 if field == COMPLEX else np.float64
    if field == COMPLEX:
        m = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=n)))
    else:
        m = np.diag(rng.choice([-1.0, 1.0], size=n)).astype(dtype)
    if n == 1:
        return m

    def apply_plane(i, j, block):
        m[[i, j], :] = block @ m[[i, j], :]

    for _ in range(2 * n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) if field == COMPLEX else 1.0
        if eta[i] == eta[j]:
            theta = rng.uniform(0.0, 2 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            apply_plane(i, j, np.array([[c, -s * np.conj(phase)], [s * phase, c]], dtype=dtype))
    if n_plus and n_minus:
        for _ in range(min(n, 4)):
            i = int(rng.integers(0, n_plus))
            j = int(rng.integers(n_plus, n))
            phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) if field == COMPLEX else 1.0
            t = rng.uniform(-0.3, 0.3)
            c, s = np.cosh(t), np.sinh(t)
            apply_plane(i, j, np.array([[c, s * np.conj(phase)], [s * phase, c]], dtype=dtype))
    return m


def lorentz_boost(rapidity: float, dim: int = 2) -> np.ndarray:
    """Boost along the first spatial axis of a (1, dim-1) canonical metric."""
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    m = np.eye(dim)
    m[0, 0] = c
    m[0, 1] = s
    m[1, 0] = s
    m[1, 1] = c
    return m


def random_basis(rng: np.random.Generator, space: VectorSpace) -> Basis:
    return Basis(space, random_invertible(rng, space.dim, space.field))


def random_tensor(rng: np.random.Generator, space: VectorSpace, variance) -> Tensor:
    variance = tuple(variance)
    shape = (space.dim,) * len(variance)
    comp = rng.uniform(-1.0, 1.0, size=shape)
    if space.field == COMPLEX:
        comp = comp + 1j * rng.uniform(-1.0, 1.0, size=shape)
    return Tensor(space, variance, comp)
