"""The numerical policy: every tolerance and the rules that apply it.

Each object of the theory is defined by one identity (G = G^+, h h = 1,
f## = f, F# F = 1), and deciding whether such an identity holds in
floating point is the one judgement the package makes.  An operator's
identity is tested on its frame matrix ``M = B^{-1} (f / s) B``
(``unitary._in_frame``), where its adjoint is ``M^+`` or ``eta M^+ eta``,
and ``h h = 1`` on the eigenvalues of h's frame matrix ``W^+ K W``, so
no residual is amplified by cond(G).  Every tolerance lives here, named
by the decision it governs, and the other modules ask these rules
instead of comparing residuals themselves, with three exceptions that
compare against a constant of this module in place: Gram-Schmidt
breakdown (``unitary.orthonormalize``, ``BREAKDOWN_TOL``), eigenvalue
clustering (``eigen._clusters``, ``CLUSTER_TOL``) and the stop rule of
the Jacobi oracle (``eigen.jacobi_hermitian``, ``JACOBI_TOL``).  Every
rank answer is :func:`singular_rank`.  Each input is scaled once, where
it enters, by :func:`unit`, the one function that chooses a scale (the
power of two of ``max |a_ij|``), and the rules decide plain identities
on its matrices, so every rule gives the same answer for ``c A`` as for
``A`` at any scale ``c``; a result computed at unit scale is scaled
back by :func:`scaled_back`.  Norms are Frobenius norms.  The rules measure
their unit data with the plain formula :func:`frobenius`: a matrix of
:func:`unit`, or a frame matrix formed from one, is finite and its norm
is 0 or far inside ``[2**-400, inf)``, where the plain value has the bits
of :func:`norm`, and a residual below ``2**-400`` decides the same way on
both, far under any bound.  :func:`norm`, which neither overflows nor
underflows, serves the inputs that are not unit: the isometry residual,
which carries ``scale**-2``, and the residuals of the lemma suite and
the Jacobi oracle.  Every rule is NaN-safe: it accepts only when
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
    "norm", "frobenius", "scale_free_norm", "scale_of", "unit", "unit_scaled", "scaled_back",
    "selfadjoint", "isometric", "involutory", "asymmetry_error", "clears_form_floor",
    "singular_rank", "rank_deficient", "numerical_rank",
]

# Self-adjointness and isometry, relative to the operators involved.
TOL = 1e-9
# Non-degenerate (definite) form K: every |eigenvalue| (eigenvalue), or a lower
# bound on it, > FORM_TOL ||K||.
FORM_TOL = 1e-10
# A singular value s counts as zero when s <= RANK_TOL * s_max (of a unit matrix).
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
    return scale_free_norm(a, frobenius)


def frobenius(a: np.ndarray) -> float:
    """``np.linalg.norm(a)``, numpy's own formula without its wrapper: the measure of unit data.

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
    with ``s`` the power of two of :func:`scale_of` for ``max |a_ij|``.
    Scaling by ``s`` is exact, so both give the same bits where the plain
    value is in range.  Zero gives 0; a NaN or infinite entry gives a
    non-finite result.
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
    """The largest power of two ``<= size``, which brings it into [1, 2); dividing by it is exact.

    At least ``2**-1022``: dividing a complex array takes the reciprocal,
    which would overflow for a subnormal power.
    """
    return math.ldexp(1.0, max(math.frexp(size)[1] - 1, -1022))


def unit(a):
    """``(a / s, s)``, or None when an entry of ``a`` is NaN or infinite.

    The one place that scales, called once per input where it enters.
    ``s`` is the power of two of :func:`scale_of` for ``max |a_ij|`` (or
    ``2**1023`` when a finite complex entry's modulus overflows): the
    division is exact and the largest entry of ``a / s`` lies in [1, 2)
    unless ``a`` is zero or subnormal.  Non-finite ``a`` is answered
    before any arithmetic but ``max |a_ij|`` runs on it.
    """
    peak = float(np.abs(a).max(initial=0.0))
    if not peak < math.inf:
        if not np.isfinite(a).all():
            return None
        peak = 2.0**1023
    scale = scale_of(peak)
    return a / scale, scale


def scaled_back(x, scale, power=1):
    """``x scale**power`` for a scale of :func:`unit`: +-inf beyond the double range, with no warning.

    Each part of ``x`` gets the exponent added (``np.ldexp``): ``scale**power``
    can overflow where the product does not, and ``0 inf`` is NaN.
    """
    x, e = np.asarray(x), power * (math.frexp(scale)[1] - 1)
    with np.errstate(over="ignore"):
        if x.dtype.kind != "c":
            return np.ldexp(x, e)
        out = np.empty_like(x)
        out.real, out.imag = np.ldexp(x.real, e), np.ldexp(x.imag, e)
        return out


def _holds(residual, size) -> bool:
    return bool(residual <= TOL * size < math.inf)


def selfadjoint(m, sharp) -> bool:
    """m# = m: ``||m# - m|| <= TOL ||m||``, for the adjoint ``m# = sharp(m)``.

    ``m`` is a matrix of :func:`unit`, or a frame matrix formed from one:
    ``sharp`` is linear and the scale is a power of two, so the test
    gives the same answer as on the unscaled ``f``, at any scale.  Both
    norms are the plain :func:`frobenius` of unit data.
    """
    return _holds(frobenius(sharp(m) - m), frobenius(m))


def isometric(m, scale, sharp) -> bool:
    """f# f = 1 for ``f = scale m``: ``||m# m - scale**-2 1|| <= TOL ||m#|| ||m||``.

    ``(m, scale)`` is a pair of :func:`unit`, or a frame matrix formed
    from one, and ``m# = sharp(m)``: ``f# f = 1`` scaled exactly by
    ``scale**-2``, so ``m# m`` cannot overflow even for a Lorentz boost at
    rapidity 700.  Relative to the factors, because the pseudo-unitary
    groups are not compact.  ``scale`` is clamped at ``2**-511`` so that
    ``scale**-2`` stays finite; an ``f`` that small, or one so large that
    ``scale**-2`` underflows, is far from isometric and rejects.  The
    residual, which carries ``scale**-2`` up to ``2**1022``, is measured
    by :func:`norm`; the factors are unit data, measured by the plain
    :func:`frobenius`.
    """
    m_sharp = sharp(m)
    residual = m_sharp @ m
    residual.flat[:: m.shape[1] + 1] -= max(scale, 2.0**-511) ** -2
    return _holds(norm(residual), frobenius(m_sharp) * frobenius(m))


def involutory(w) -> bool:
    """``max ||w| - 1| <= TOL``: a diagonalizable matrix with eigenvalues ``w`` squares to the identity."""
    return _holds(np.abs(np.abs(w) - 1.0).max(), 1.0)


def asymmetry_error(f: np.ndarray, what: str, kind: str) -> SymmetryError:
    """The error for an ``f`` that failed :func:`selfadjoint`.

    :func:`unit` answers every non-finite input first, so the message
    names the non-finite entries when there are any.
    """
    if np.all(np.isfinite(f)):
        return SymmetryError(f"{what} is not {kind} within tolerance")
    return SymmetryError(_non_finite_message(f, what))


def _non_finite_message(a: np.ndarray, what: str) -> str:
    bad = np.argwhere(~np.isfinite(a))
    first = tuple(int(i) for i in bad[0])
    return f"{what} has {len(bad)} non-finite entries, the first at {first}"


def clears_form_floor(values, k, scale) -> bool:
    """Every value exceeds ``FORM_TOL ||k||``, decided on the unit ``k / scale``.

    The values are the eigenvalues of the form ``k`` (their moduli, for
    an indefinite form), or lower bounds on those moduli, and ``scale`` is
    the :func:`unit` scale of the input ``k`` came from.  Both sides are
    divided by it exactly, so a finite ``k`` whose ``||k||`` is beyond the
    double range is decided as at any other scale.  ``k / scale`` is unit
    data, measured by the plain :func:`frobenius`.
    """
    return bool((values / scale).min() > FORM_TOL * frobenius(k / scale))


def unit_scaled(a: np.ndarray) -> tuple:
    """:func:`unit` of a finite ``a``; NonFiniteError, naming the first bad entry, otherwise."""
    scaled = unit(a)
    if scaled is None:
        raise NonFiniteError(_non_finite_message(a, "matrix"))
    return scaled


def singular_rank(s) -> int:
    """The rank rule: the singular values ``s`` (largest first) above ``RANK_TOL s[0]``.

    ``s`` must be those of a matrix of :func:`unit`, so that the count
    is the same at any scale.
    """
    return int(np.sum(s > RANK_TOL * s[0])) if len(s) else 0


def numerical_rank(a: np.ndarray) -> int:
    """:func:`singular_rank` of a finite ``a``, free of scale (NonFiniteError otherwise)."""
    return singular_rank(np.linalg.svd(unit_scaled(a)[0], compute_uv=False))


def rank_deficient(m: np.ndarray) -> bool:
    """The rank rule on a matrix ``m`` of :func:`unit`: numerical rank below n."""
    return singular_rank(np.linalg.svd(m, compute_uv=False)) < m.shape[0]

