"""The numerical policy: every tolerance and the rules that apply it.

Each object of the theory is defined by one identity (G = G^+, h h = 1,
f## = f, F# F = 1), and deciding whether such an identity holds in
floating point is the one judgement the package makes.  An operator's
identity is tested on its frame matrix ``M = B^{-1} (f / s) B``
(``unitary._in_frame``), where its adjoint is ``M^+`` or ``eta M^+ eta``,
and ``h h = 1`` on the eigenvalues of h's frame matrix ``W^+ K W``, so
no residual is amplified by cond(G).  Every tolerance lives here, named
by the decision it governs, and the other modules ask these rules
instead of comparing residuals themselves, with four exceptions that
compare against a constant of this module in place: Gram-Schmidt
breakdown (``unitary.orthonormalize``, ``BREAKDOWN_TOL``), eigenvalue
clustering (``eigen._clusters``, ``CLUSTER_TOL``), the stop rule of the
Jacobi oracle (``eigen.jacobi_hermitian``, ``JACOBI_TOL``) and the pivot
floor of row reduction (``spaces.rank``, ``RANK_TOL``).  Norms are
Frobenius norms computed by :func:`norm`, which neither overflows nor
underflows, so every rule gives the same answer for ``c A`` as for ``A``
at any scale ``c``.  Every rule is NaN-safe: it accepts only when
``residual <= bound`` holds with a finite bound, so NaN, infinity or an
overflow always rejects.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError, SymmetryError

__all__ = [
    "TOL", "FORM_TOL", "RANK_TOL", "CLUSTER_TOL", "BREAKDOWN_TOL",
    "JACOBI_TOL", "JACOBI_MAX_SWEEPS",
    "norm", "scale_free_norm", "scale_of", "selfadjoint", "isometric", "involutory",
    "asymmetry_error", "clears_form_floor",
    "unit_scaled", "singular_rank", "numerical_rank", "nonsingular_scaled", "is_singular",
]

# Self-adjointness and isometry, relative to the operators involved.
TOL = 1e-9
# Non-degenerate (definite) form K: every |eigenvalue| (eigenvalue), or a lower
# bound on it, > FORM_TOL ||K||.
FORM_TOL = 1e-10
# A singular value s counts as zero when s <= RANK_TOL * s_max (of a unit_scaled matrix).
RANK_TOL = 1e-10
# Eigenvalues closer than CLUSTER_TOL * ||eigenvalues|| share an eigenspace.
CLUSTER_TOL = 1e-8
# Gram-Schmidt gives up when a projected vector's norm drops to
# BREAKDOWN_TOL times the norm of the vector it came from.
BREAKDOWN_TOL = 1e-12
# The Jacobi reference solver stops once the off-diagonal mass is <= JACOBI_TOL ||A||.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100

# Not a tolerance: a finite plain norm at least this large summed squares
# far above the underflow threshold, so scaling would give the same bits.
_PLAIN_NORM_FLOOR = 2.0**-400


def norm(a) -> float:
    """Frobenius norm, free of scale: see :func:`scale_free_norm`.

    It equals the plain ``np.linalg.norm(a)`` wherever that neither
    overflows nor underflows.
    """
    return scale_free_norm(a, _frobenius)


def _frobenius(a: np.ndarray) -> float:
    """``np.linalg.norm(a)``, numpy's own formula without its wrapper.

    Non-float data is cast to float first; the entries are read in
    memory order, and a complex array's squares are summed as
    ``re.re + im.im``.  For float64 and complex128 data the bits are
    numpy's.
    """
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    x = a.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def scale_free_norm(a, measure) -> float:
    """``measure(a)`` for a norm ``measure``, free of the scale of ``a``.

    The plain value is returned as it is when it lies in
    ``[_PLAIN_NORM_FLOOR, inf)``; anywhere else it is ``s measure(a / s)``,
    with ``s`` the power of two of :func:`_scale_exponent` for
    ``max |a_ij|``.  Scaling by ``s`` is exact, so both give the same bits
    where the plain value is in range.  Zero gives 0; a NaN or infinite
    entry gives a non-finite result.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = measure(a)
    if _PLAIN_NORM_FLOOR <= plain < math.inf:
        return plain
    if not a.size:
        return 0.0
    peak = float(np.abs(a).max())
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    scale = scale_of(peak)
    return scale * measure(a / scale)


def scale_of(size: float) -> float:
    """The power of two of :func:`_scale_exponent` for ``size``; dividing by it is exact."""
    return math.ldexp(1.0, _scale_exponent(size))


def _scale_exponent(peak: float, floor: int = -1022) -> int:
    """The exponent of the largest power of two <= ``peak``, at least ``floor``.

    Dividing by that power brings ``peak`` into [1, 2).  The default floor
    keeps the power normal: dividing a complex array takes its reciprocal,
    which would overflow for a subnormal one.
    """
    return max(math.frexp(peak)[1] - 1, floor)


def _holds(residual, scale) -> bool:
    return bool(residual <= TOL * scale < math.inf)


def selfadjoint(f, sharp) -> bool:
    """f# = f: ``||f# - f|| <= TOL ||f||``, for the adjoint ``f# = sharp(f)``.

    The test runs on ``g = f / s`` as ``||g# - g|| <= TOL ||g||``, so it
    gives the same answer for ``c f`` as for ``f`` at any scale ``c``:
    ``sharp`` is linear, so that is the same test scaled exactly by
    ``1/s``, and ``||g||`` is below 2, so ``g#`` stays finite where ``f#``
    would overflow.  ``s`` is the power of two of :func:`_scale_exponent`
    for ``||f||``, or for ``max |f_ij|`` when ``||f||`` is beyond the
    double range.  ``max |f_ij|`` is non-finite when any entry is, so
    non-finite ``f`` is rejected before ``sharp`` runs.
    """
    size = norm(f)
    if size < math.inf:
        scale = scale_of(size)
        g = f / scale
        size = size / scale
    else:
        peak = float(np.abs(f).max())
        if not peak < math.inf:
            return False
        g = f / scale_of(peak)
        size = norm(g)
    return _holds(norm(sharp(g) - g), size)


def isometric(f, sharp) -> bool:
    """f# f = 1: ``||f# f - 1|| <= TOL ||f#|| ||f||``, for ``f# = sharp(f)``.

    Relative to the factors, because the pseudo-unitary groups are not
    compact: an exact Lorentz boost at large rapidity has huge entries
    and a residual of the same relative size as a rotation's.  The test
    runs on ``g = f / s``, with ``s`` a power of two near ``max |f_ij|``
    (at least ``2**-511``, so ``s**-2`` stays finite), as
    ``||g# g - s**-2 1|| <= TOL ||g#|| ||g||``:
    ``sharp`` is linear, so that is the same test scaled exactly by
    ``s**-2``, and ``g# g`` cannot overflow even for a boost at rapidity
    700.  ``max |f_ij|`` is NaN or infinite when any entry is, so it
    rejects non-finite ``f`` before ``sharp`` or any other arithmetic runs.
    """
    peak = float(np.abs(f).max(initial=0.0))
    if not peak < math.inf:
        return False
    exponent = _scale_exponent(peak, -511)
    g = f / math.ldexp(1.0, exponent)
    g_sharp = sharp(g)
    residual = norm(g_sharp @ g - math.ldexp(1.0, -2 * exponent) * np.eye(f.shape[1]))
    return _holds(residual, norm(g_sharp) * norm(g))


def involutory(w) -> bool:
    """``max ||w| - 1| <= TOL``: a diagonalizable matrix with eigenvalues ``w`` squares to the identity."""
    return _holds(np.max(np.abs(np.abs(w) - 1.0)), 1.0)


def asymmetry_error(f: np.ndarray, what: str, kind: str) -> SymmetryError:
    """The error for an ``f`` that failed :func:`selfadjoint`.

    The rule rejects every non-finite input, so the message names the
    non-finite entries when there are any.
    """
    if np.all(np.isfinite(f)):
        return SymmetryError(f"{what} is not {kind} within tolerance")
    return SymmetryError(_non_finite_message(f, what))


def _non_finite_message(a: np.ndarray, what: str) -> str:
    bad = np.argwhere(~np.isfinite(a))
    first = tuple(int(i) for i in bad[0])
    return f"{what} has {len(bad)} non-finite entries, the first at {first}"


def clears_form_floor(values, k) -> bool:
    """Every value exceeds ``FORM_TOL ||k||``.

    The values are the eigenvalues of the form ``k`` (their moduli, for
    an indefinite form), or lower bounds on those moduli.  When ``||k||``
    is beyond the double range, both sides are compared in units of the
    power of two of :func:`scale_of` for ``max |k_ij|``, so a finite ``k``
    is decided as at any other scale.
    """
    size = norm(k)
    if size < math.inf:
        return bool(values.min() > FORM_TOL * size)
    scale = scale_of(float(np.abs(k).max()))
    return bool((values / scale).min() > FORM_TOL * norm(k / scale))


def unit_scaled(a: np.ndarray) -> tuple:
    """``(a / s, s)`` for a finite ``a``; NonFiniteError, naming the first bad entry, otherwise.

    ``s`` is the power of two of :func:`scale_of` for ``max |a_ij|``, so the
    division is exact and the largest entry of ``a / s`` lies in [1, 2)
    (unless ``a`` is zero or subnormal): no singular value or pivot of
    ``a / s`` overflows or underflows.
    """
    peak = float(np.abs(a).max(initial=0.0))
    if not peak < math.inf:
        raise NonFiniteError(_non_finite_message(a, "matrix"))
    scale = scale_of(peak)
    return a / scale, scale


def singular_rank(s) -> int:
    """The rank rule: the singular values ``s`` (largest first) above ``RANK_TOL s[0]``.

    ``s`` must be those of a :func:`unit_scaled` matrix, so that the count
    is the same at any scale.
    """
    return int(np.sum(s > RANK_TOL * s[0])) if len(s) else 0


def numerical_rank(a: np.ndarray) -> int:
    """:func:`singular_rank` of a finite ``a``, free of scale (NonFiniteError otherwise)."""
    return singular_rank(np.linalg.svd(unit_scaled(a)[0], compute_uv=False))


def nonsingular_scaled(a: np.ndarray):
    """:func:`unit_scaled` ``a`` when it has numerical rank n, else None.

    The rank rule runs on the scaled matrix it hands back, so a caller
    that factors ``a`` scales it once.  A zero or non-finite ``a`` counts
    as singular.
    """
    if not np.all(np.isfinite(a)):
        return None
    scaled, scale = unit_scaled(a)
    if singular_rank(np.linalg.svd(scaled, compute_uv=False)) < a.shape[0]:
        return None
    return scaled, scale


def is_singular(a: np.ndarray) -> bool:
    """Numerical rank below n, free of scale and dimension.

    A zero or non-finite matrix counts as singular.
    """
    return nonsingular_scaled(a) is None
