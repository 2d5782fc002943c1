"""Exception hierarchy for kreinalg.

All domain errors derive from ``KreinAlgError`` so callers (and the CLI)
can distinguish bad mathematical input from programming errors.
"""

__all__ = [
    "KreinAlgError",
    "ShapeError",
    "FieldError",
    "SpaceError",
    "VarianceError",
    "SingularBasisError",
    "DependentSetError",
    "SymmetryError",
    "NonFiniteError",
    "ConvergenceError",
    "DegenerateFormError",
    "CompatibilityError",
    "ParseError",
    "SchemaError",
]


class KreinAlgError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(KreinAlgError):
    """Matrix or tensor dimensions are incompatible with the operation."""


class FieldError(KreinAlgError):
    """Operands live over different scalar fields, or complex data meets a real space."""


class SpaceError(KreinAlgError):
    """Operands belong to different vector spaces."""


class VarianceError(KreinAlgError):
    """Tensor slot variance (up/down) does not match the operation."""


class SingularBasisError(KreinAlgError):
    """A matrix that must be invertible is singular or nearly so."""


class DependentSetError(KreinAlgError):
    """Orthonormalization broke down on a linearly dependent vector set."""


class SymmetryError(KreinAlgError):
    """Input lacks the required (self-)adjointness."""


class NonFiniteError(KreinAlgError):
    """A matrix that must be finite has NaN or infinite entries."""


class ConvergenceError(KreinAlgError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateFormError(KreinAlgError):
    """A sesquilinear form required to be non-degenerate has (near-)zero eigenvalues."""


class CompatibilityError(KreinAlgError):
    """A metric operator fails the involution condition h@h = identity."""


class ParseError(KreinAlgError):
    """Input document is not valid JSON."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(KreinAlgError):
    """Input document is valid JSON but violates the matrix-document schema."""
