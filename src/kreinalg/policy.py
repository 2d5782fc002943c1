"""The numerical policy: every tolerance and the rules that apply it.

Each object of the theory is defined by one identity (G = G^+, h h = 1,
f## = f, F# F = 1), and deciding whether such an identity holds in
floating point is the one judgement the package makes.  So every tolerance
lives here, named by the decision it governs, and the other modules ask
these rules instead of comparing residuals themselves.  Norms are
Frobenius norms computed by :func:`norm`, which neither overflows nor
underflows, so every rule gives the same answer for ``c A`` as for ``A``
at any scale ``c``.  Every rule is NaN-safe: it accepts only when
``residual <= bound`` holds with a finite bound, so NaN, infinity or an
overflow always rejects.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SymmetryError

__all__ = [
    "TOL", "FORM_TOL", "RANK_TOL", "CLUSTER_TOL", "BREAKDOWN_TOL",
    "JACOBI_TOL", "JACOBI_MAX_SWEEPS",
    "norm", "selfadjoint", "isometric", "require_hermitian", "asymmetry_error",
    "clears_form_floor", "singular_rank", "is_singular",
]

# Self-adjointness and isometry, relative to the operators involved.
TOL = 1e-9
# Non-degenerate (definite) form K: every |eigenvalue| (eigenvalue) > FORM_TOL ||K||.
FORM_TOL = 1e-10
# A singular value s counts as zero when s <= RANK_TOL * s_max.
RANK_TOL = 1e-10
# Eigenvalues closer than CLUSTER_TOL * ||eigenvalues|| share an eigenspace.
CLUSTER_TOL = 1e-8
# Gram-Schmidt gives up when a projected vector's norm drops below this.
BREAKDOWN_TOL = 1e-12
# The Jacobi reference solver stops once the off-diagonal mass is <= JACOBI_TOL ||A||.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100

# Not a tolerance: a finite plain norm at least this large summed squares
# far above the underflow threshold, so scaling would give the same bits.
_PLAIN_NORM_FLOOR = 2.0**-400


def norm(a) -> float:
    """Frobenius norm, scaled: ``s ||a / s||`` with ``s`` near ``max |a_ij|``.

    ``s`` is ``max |a_ij|`` rounded down to a power of two, and at least
    the smallest normal number, so scaling is exact and the result equals
    the plain ``np.linalg.norm(a)`` wherever that neither overflows nor
    underflows.  So the plain norm is returned as it is when it lies in
    ``[_PLAIN_NORM_FLOOR, inf)``, and only the rest is scaled.  Zero gives
    0; a NaN or infinite entry gives a non-finite result.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(a))
    if _PLAIN_NORM_FLOOR <= plain < math.inf:
        return plain
    if not a.size:
        return 0.0
    peak = float(np.max(np.abs(a)))
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    # Never subnormal: dividing a complex array takes 1 / scale, which
    # would overflow.
    scale = math.ldexp(1.0, max(math.frexp(peak)[1] - 1, -1022))
    return scale * float(np.linalg.norm(a / scale))


def _holds(residual, scale) -> bool:
    return bool(residual <= TOL * scale < math.inf)


def selfadjoint(f, sharp) -> bool:
    """f# = f: ``||f# - f|| <= TOL ||f||``, for the adjoint ``f# = sharp(f)``.

    Non-finite ``f`` is rejected before ``sharp`` or any arithmetic runs.
    """
    if not np.all(np.isfinite(f)):
        return False
    return _holds(norm(sharp(f) - f), norm(f))


def isometric(f_sharp, f) -> bool:
    """f# f = 1: ``||f# f - 1|| <= TOL ||f#|| ||f||``.

    Relative to the factors, because the pseudo-unitary groups are not
    compact: an exact Lorentz boost at large rapidity has huge entries
    and a residual of the same relative size as a rotation's.
    """
    residual = norm(f_sharp @ f - np.eye(f.shape[1]))
    return _holds(residual, norm(f_sharp) * norm(f))


def require_hermitian(a: np.ndarray, what: str) -> None:
    """Raise SymmetryError unless ``a`` is Hermitian by :func:`selfadjoint`."""
    if not selfadjoint(a, lambda m: np.conj(m).T):
        raise asymmetry_error(a, what, "Hermitian")


def asymmetry_error(f: np.ndarray, what: str, kind: str) -> SymmetryError:
    """The error for an ``f`` that failed :func:`selfadjoint`.

    The rule rejects every non-finite input, so the message names the
    non-finite entries when there are any.
    """
    bad = np.argwhere(~np.isfinite(f))
    if not bad.size:
        return SymmetryError(f"{what} is not {kind} within tolerance")
    first = tuple(int(i) for i in bad[0])
    return SymmetryError(f"{what} has {len(bad)} non-finite entries, the first at {first}")


def clears_form_floor(values, k) -> bool:
    """Every value (an eigenvalue of the form ``k``) exceeds ``FORM_TOL ||k||``."""
    return bool(np.min(values) > FORM_TOL * norm(k))


def singular_rank(s) -> int:
    """Numerical rank from singular values ``s``, largest first."""
    return int(np.sum(s > RANK_TOL * s[0])) if len(s) else 0


def is_singular(a: np.ndarray) -> bool:
    """Numerical rank below n, free of scale and dimension.

    A zero or non-finite matrix counts as singular.
    """
    if not np.all(np.isfinite(a)):
        return True
    return singular_rank(np.linalg.svd(a, compute_uv=False)) < a.shape[0]
