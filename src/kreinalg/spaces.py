"""Vector spaces with explicit bases, dual bases, and matrix representations.

A space is modeled concretely: it carries a natural reference frame, and a
``Basis`` stores the coordinates of its vectors as the columns of an
invertible matrix ``B`` relative to that frame.  The rows of ``B^{-1}``
then realize the dual covector basis, and representation of vectors,
covectors, and linear maps reduces to multiplication by ``B`` and
``B^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import policy
from .errors import FieldError, ShapeError, SingularBasisError, SpaceError
from .matrices import COMPLEX, REAL, as_matrix, field_of

__all__ = [
    "VectorSpace",
    "Basis",
    "VectorInBasis",
    "CovectorInBasis",
    "LinearMapRep",
    "natural_basis",
    "dual_basis",
    "rep_vector",
    "rep_covector",
    "change_of_basis",
    "represent_map",
    "conjugate_representation",
    "operator_determinant",
    "rank",
    "kernel_dimension",
    "canonical_form_bases",
]


@dataclass(frozen=True)
class VectorSpace:
    """A finite-dimensional space over the real or complex field."""

    dim: int
    field: str = REAL
    label: str = "V"

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"space dimension must be >= 1, got {self.dim}")
        if self.field not in (REAL, COMPLEX):
            raise SpaceError(f"unknown field {self.field!r}")

    def ket(self, x) -> np.ndarray:
        """``x`` as a fresh ``(dim, 1)`` column over this space's field.

        Cast by :func:`as_matrix`, as are bras and operators: real data on
        a complex space is upcast exactly, and complex data on a real
        space raises FieldError.
        """
        return self._coerce(x, (self.dim, 1), "a ket")

    def bra(self, y) -> np.ndarray:
        """``y`` as a fresh ``(1, dim)`` row over this space's field (see :meth:`ket`)."""
        return self._coerce(y, (1, self.dim), "a bra")

    def operator(self, f) -> np.ndarray:
        """``f`` as a fresh ``(dim, dim)`` matrix over this space's field (see :meth:`ket`)."""
        return self._coerce(f, (self.dim, self.dim), "an operator")

    def _coerce(self, a, shape: tuple, what: str) -> np.ndarray:
        m = as_matrix(a, self.field)
        if m.shape != shape:
            raise ShapeError(f"expected {what} of shape {shape} on {self.label}, got {m.shape}")
        return m


class Basis:
    """An ordered basis: column j of ``matrix`` is the j-th basis vector.

    The inverse is computed once (LU) and cached; its rows are the dual
    covectors, so ``inverse @ matrix`` is the identity up to roundoff.
    """

    def __init__(self, space: VectorSpace, matrix) -> None:
        b = space.operator(matrix)
        self.space = space
        self.matrix = b
        self.inverse = _inverse(b, "basis matrix")

    @classmethod
    def _with_inverse(cls, space: VectorSpace, matrix: np.ndarray, inverse: np.ndarray) -> Basis:
        """A basis whose inverse is known in closed form: no rank check, no LU.

        Used for the canonical frames of :mod:`kreinalg.indefinite`: the
        frame ``W`` of an inner product with its columns reordered, or
        ``W u`` for a unitary ``u``.  Each has ``B^+ G B = 1`` for a Gram
        matrix ``G`` that cleared the form floor, so ``B B^+ = G^{-1}``,
        ``cond(B)^2 = cond(G) < 1 / FORM_TOL = 1e10`` and
        ``s_min / s_max > 1e-5``: far above ``RANK_TOL``, so the rank check
        could not fail.  ``matrix`` and ``inverse`` must already be over
        the space's field.
        """
        basis = cls.__new__(cls)
        basis.space = space
        basis.matrix = matrix
        basis.inverse = inverse
        return basis

    def __repr__(self) -> str:
        return f"Basis(space={self.space!r}, matrix=\n{self.matrix!r})"


def _inverse(m: np.ndarray, what: str) -> np.ndarray:
    """``m^{-1}`` (LU), or SingularBasisError when ``m`` is numerically singular.

    The one nonsingularity gate: the rank rule and the LU both run on
    ``m / s`` for the power of two ``s`` of :func:`policy.unit` (a zero or
    non-finite ``m`` is singular), and the inverse is divided by ``s``.
    Both scalings are exact, so in range the bits are those of ``inv(m)``,
    and a well-conditioned ``m`` near the overflow threshold still inverts.
    """
    scaled = policy.unit(m)
    if scaled is None or policy.rank_deficient(scaled[0]):
        raise SingularBasisError(f"{what} is numerically singular")
    return np.linalg.inv(scaled[0]) / scaled[1]


def natural_basis(space: VectorSpace) -> Basis:
    """The reference frame itself as a Basis (identity matrix)."""
    return Basis(space, np.eye(space.dim))


@dataclass(frozen=True)
class VectorInBasis:
    """Component column of a vector relative to a basis."""

    basis: Basis
    components: np.ndarray  # shape (dim, 1)

    def to_natural(self) -> np.ndarray:
        """Coordinates in the natural reference frame."""
        return self.basis.matrix @ self.components


@dataclass(frozen=True)
class CovectorInBasis:
    """Component row of a covector relative to the dual of a basis."""

    basis: Basis
    components: np.ndarray  # shape (1, dim)

    def to_natural(self) -> np.ndarray:
        return self.components @ self.basis.inverse

    def pair(self, vector: VectorInBasis):
        """Dual pairing <covector, vector>; both must share the basis."""
        if vector.basis is not self.basis and not np.array_equal(
            vector.basis.matrix, self.basis.matrix
        ):
            raise SpaceError("pairing requires components in the same basis")
        return (self.components @ vector.components)[0, 0]


@dataclass(frozen=True)
class LinearMapRep:
    """Matrix of a linear map relative to a domain and a codomain basis.

    The matrix is cast as :func:`represent_map` casts a map: the two
    spaces must share a field, and complex data on a real space raises
    FieldError.
    """

    domain_basis: Basis
    codomain_basis: Basis
    matrix: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        matrix = _map_matrix(self.matrix, self.domain_basis.space, self.codomain_basis.space)
        object.__setattr__(self, "matrix", matrix)

    @property
    def is_endomorphism(self) -> bool:
        return (
            self.domain_basis.space == self.codomain_basis.space
            and np.array_equal(self.domain_basis.matrix, self.codomain_basis.matrix)
        )


def dual_basis(basis: Basis) -> np.ndarray:
    """Rows of the returned matrix are the dual covectors of ``basis``."""
    return basis.inverse.copy()


def rep_vector(x_natural, basis: Basis) -> VectorInBasis:
    """Components of a natural-frame ket in the given basis."""
    return VectorInBasis(basis, basis.inverse @ basis.space.ket(x_natural))


def rep_covector(y_natural, basis: Basis) -> CovectorInBasis:
    """Components of a natural-frame bra in the dual of the given basis."""
    return CovectorInBasis(basis, basis.space.bra(y_natural) @ basis.matrix)


def _require_same_space(a: Basis, b: Basis) -> None:
    if a.space != b.space:
        raise SpaceError(f"bases live on different spaces: {a.space} vs {b.space}")


def _map_matrix(f_natural, domain: VectorSpace, codomain: VectorSpace) -> np.ndarray:
    """``f`` as a fresh ``(codomain.dim, domain.dim)`` matrix over the spaces' one field.

    A domain and a codomain over different fields raise FieldError.
    """
    if domain.field != codomain.field:
        raise FieldError(
            f"domain and codomain must share the scalar field: {domain.field} vs {codomain.field}"
        )
    f = as_matrix(f_natural, domain.field)
    if f.shape != (codomain.dim, domain.dim):
        raise ShapeError(f"map must have shape {(codomain.dim, domain.dim)}, got {f.shape}")
    return f


def change_of_basis(old: Basis, new: Basis) -> np.ndarray:
    """Matrix M with components transforming as x' = M x, y' = y M^{-1}."""
    _require_same_space(old, new)
    return new.inverse @ old.matrix


def represent_map(f_natural, domain_basis: Basis, codomain_basis: Basis) -> LinearMapRep:
    """Representation matrix of a natural-frame map in the given bases."""
    f = _map_matrix(f_natural, domain_basis.space, codomain_basis.space)
    matrix = codomain_basis.inverse @ f @ domain_basis.matrix
    return LinearMapRep(domain_basis, codomain_basis, matrix)


def conjugate_representation(rep: LinearMapRep, new_basis: Basis) -> LinearMapRep:
    """Re-express an endomorphism representation in another basis."""
    if not rep.is_endomorphism:
        raise ShapeError("conjugate_representation requires an endomorphism")
    _require_same_space(rep.domain_basis, new_basis)
    m = change_of_basis(rep.domain_basis, new_basis)
    matrix = m @ rep.matrix @ np.linalg.inv(m)
    return LinearMapRep(new_basis, new_basis, matrix)


def operator_determinant(rep: LinearMapRep):
    """Determinant of an endomorphism; independent of the chosen basis."""
    if not rep.is_endomorphism:
        raise ShapeError("operator determinant requires an endomorphism")
    d = np.linalg.det(rep.matrix)
    return complex(d) if field_of(rep.matrix) == COMPLEX else float(d)


def rank(a) -> int:
    """The singular values above ``RANK_TOL sigma_max`` (:func:`policy.numerical_rank`).

    Every rank and nonsingularity answer counts by this rule.  Non-finite input raises NonFiniteError.
    """
    return policy.numerical_rank(as_matrix(a))


def kernel_dimension(a) -> int:
    """Kernel dimension: the column count less :func:`rank`.  Non-finite input raises NonFiniteError."""
    a = as_matrix(a)
    return a.shape[1] - policy.numerical_rank(a)


def canonical_form_bases(
    f_natural, domain_space: VectorSpace, codomain_space: VectorSpace
):
    """Bases in which a map is represented by the block matrix diag(1_r, 0).

    Returns ``(domain_basis, codomain_basis, r)``, with ``r`` the numerical
    rank, from the singular value decomposition ``U diag(sigma) V^+`` of
    ``f / s``, for the power of two ``s`` of :func:`policy.unit_scaled`.
    The domain basis is ``V`` with its first ``r`` columns divided by
    ``sigma_i``, the codomain basis is ``s U``: both bases and their
    inverses stay in the double range at any scale of ``f``.  Non-finite
    input raises NonFiniteError.
    """
    f = _map_matrix(f_natural, domain_space, codomain_space)
    scaled, scale = policy.unit_scaled(f)
    u, s, vh = np.linalg.svd(scaled)
    r = policy.singular_rank(s)
    stretch = np.ones(domain_space.dim)
    stretch[:r] = 1.0 / s[:r]
    return (
        Basis(domain_space, vh.conj().T @ np.diag(stretch)),
        Basis(codomain_space, u * scale),
        r,
    )
