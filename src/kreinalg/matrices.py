"""Dense matrices over the real or complex field.

Matrices are plain 2-D ``numpy.ndarray`` values (``float64`` for the real
field, ``complex128`` for the complex one).  Every function here is pure:
inputs are never mutated and results are freshly allocated, so values can
be shared freely between threads.

Column vectors (kets) are ``(n, 1)`` arrays, row covectors (bras) are
``(1, n)`` arrays; the basis index convention is 1-based throughout, so
``natural_ket(n, 1)`` is the first basis column.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import policy
from .errors import FieldError, ShapeError

__all__ = [
    "REAL",
    "COMPLEX",
    "field_of",
    "as_matrix",
    "identity",
    "matmul",
    "hermitian_conjugate",
    "determinant",
    "determinant_permutation_sum",
    "kronecker_product",
    "classify",
    "natural_ket",
    "natural_bra",
    "elementary_projector",
]

REAL = "real"
COMPLEX = "complex"


def _dtype(field: str):
    """``complex128`` for the complex field, ``float64`` for the real one."""
    return np.complex128 if field == COMPLEX else np.float64


def field_of(a: np.ndarray) -> str:
    """Return ``"real"`` or ``"complex"`` according to the dtype of ``a``."""
    if np.asarray(a).dtype.kind == "c":
        return COMPLEX
    return REAL


def as_matrix(a, field: str | None = None) -> np.ndarray:
    """Coerce ``a`` to a fresh 2-D float64/complex128 array over ``field``.

    This is the one place where data is cast to a field; by default the
    field is the data's own.  Real data on the complex field is upcast
    exactly; complex data (a complex dtype, whatever its imaginary parts)
    on the real field raises FieldError.  Kets must be shaped ``(n, 1)``
    and bras ``(1, n)``; 1-D input is rejected so that row/column
    semantics stay explicit.
    """
    return _on_field(_matrix_view(a), field)


def _matrix_view(a) -> np.ndarray:
    """``np.asarray(a)``, uncast, after the 2-D check of :func:`as_matrix`."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _on_field(a, field: str | None = None) -> np.ndarray:
    """The field rule of :func:`as_matrix` for an array of any shape."""
    arr = np.asarray(a)
    if field is None:
        field = field_of(arr)
    elif field == REAL and arr.dtype.kind == "c":
        raise FieldError("complex data cannot be cast to the real field")
    return np.array(arr, dtype=_dtype(field))


def _matrix_pair(a, b, what: str) -> tuple:
    """Both operands as 2-D arrays over one field."""
    a = np.asarray(a)
    b = np.asarray(b)
    fa, fb = field_of(a), field_of(b)
    if fa != fb:
        raise FieldError(f"mixed fields: {fa} vs {fb}")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"{what} operands must be 2-D matrices")
    return a, b


def _require_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {np.shape(a)}")
    return a.shape[0]


def identity(n: int, field: str = REAL) -> np.ndarray:
    """The n-by-n identity over the requested field."""
    return np.eye(n, dtype=_dtype(field))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` with shape and field checks; +-inf beyond the double range, with no warning."""
    a, b = _matrix_pair(a, b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return a @ b


def hermitian_conjugate(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; plain transpose over the real field."""
    a = np.asarray(a)
    return (np.conj(a) if a.dtype.kind == "c" else a).T.copy()


def determinant(a: np.ndarray):
    """Determinant of a square matrix (LU factorization with partial pivoting).

    Returns a Python ``float`` for real input, ``complex`` otherwise.  The LU runs
    on the unit ``a / s`` of :func:`policy.unit` and is scaled back by ``s**n``.
    """
    a = np.asarray(a)
    n = _require_square(a)
    m, scale = policy.unit(a)
    d = policy.scaled_back(np.linalg.det(m), scale, n)
    return complex(d) if field_of(a) == COMPLEX else float(d)


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple:
    """All permutations of range(n) with their parity signs."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        out.append((perm, -1.0 if inversions % 2 else 1.0))
    return tuple(out)


def determinant_permutation_sum(a: np.ndarray):
    """Determinant via the totally antisymmetric permutation sum.

    Exponential-cost cross-check path; limited to n <= 6.  Kept alongside
    the LU path so the two can be compared on random instances; scaled as in :func:`determinant`.
    """
    a = np.asarray(a)
    n = _require_square(a)
    if n > 6:
        raise ShapeError("permutation-sum determinant is limited to n <= 6")
    m, scale = policy.unit(a)
    total = 0.0 + 0.0j if field_of(a) == COMPLEX else 0.0
    for perm, sign in _signed_permutations(n):
        term = sign
        for col, row in enumerate(perm):
            term = term * m[row, col]
        total += term
    total = policy.scaled_back(total, scale, n)
    return complex(total) if field_of(a) == COMPLEX else float(total)


def kronecker_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block Kronecker product: block (i, j) equals ``a[i, j] * b``.

    Built by reindexing the plain outer product, so each entry is one
    scalar multiplication and the result is bit-identical to flattening
    the corresponding tensor product; +-inf beyond the double range, with no warning.
    """
    a, b = _matrix_pair(a, b, "kronecker_product")
    m1, n1 = a.shape
    m2, n2 = b.shape
    with np.errstate(over="ignore", invalid="ignore"):
        outer = np.multiply.outer(a.ravel(), b.ravel())
    return (
        outer.reshape(m1, n1, m2, n2)
        .transpose(0, 2, 1, 3)
        .reshape(m1 * m2, n1 * n2)
        .copy()
    )


def classify(a: np.ndarray) -> set:
    """Structural predicates of a square matrix, decided by :mod:`kreinalg.policy`.

    Returns the subset of {"hermitian", "unitary", "symmetric",
    "orthogonal", "singular"} that holds.  The symmetry predicates are the
    self-adjointness rule, the unitarity ones the isometry rule, and
    "singular" means numerical rank below n.
    """
    a = np.asarray(a)
    _require_square(a)
    m, scale = policy.unit(a)
    rules = {
        "hermitian": policy.selfadjoint(m, hermitian_conjugate),
        "symmetric": policy.selfadjoint(m, np.transpose),
        "unitary": policy.isometric(m, scale, hermitian_conjugate),
        "orthogonal": policy.isometric(m, scale, np.transpose),
        "singular": policy.rank_deficient(m),
    }
    return {name for name, holds in rules.items() if holds}


def natural_ket(n: int, i: int, field: str = REAL) -> np.ndarray:
    """The i-th natural basis column (1-based), shape (n, 1)."""
    if not 1 <= i <= n:
        raise ShapeError(f"ket index {i} out of range 1..{n}")
    v = np.zeros((n, 1), dtype=_dtype(field))
    v[i - 1, 0] = 1.0
    return v


def natural_bra(n: int, i: int, field: str = REAL) -> np.ndarray:
    """The i-th natural dual basis row (1-based), shape (1, n)."""
    return natural_ket(n, i, field).T.copy()


def elementary_projector(n: int, k: int, field: str = REAL) -> np.ndarray:
    """Rank-one projector onto the k-th natural axis (1-based)."""
    ket = natural_ket(n, k, field)
    return ket @ ket.T.conj()
