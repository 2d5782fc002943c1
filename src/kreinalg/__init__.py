"""Finite-dimensional linear algebra over definite and indefinite inner products.

The package is layered bottom-up:

* :mod:`kreinalg.policy` - every tolerance and the rules that apply it;
* :mod:`kreinalg.matrices` - dense matrices, conjugation, determinants,
  Kronecker products, classification predicates;
* :mod:`kreinalg.spaces` - bases, dual bases, and matrix representations;
* :mod:`kreinalg.tensors` - variance-tagged tensors, contractions, and
  the flattening isomorphism onto Kronecker form;
* :mod:`kreinalg.eigen` / :mod:`kreinalg.unitary` - the Hermitian
  eigensolver (LAPACK ``eigh`` behind one seam, cyclic Jacobi kept as the
  reference oracle), inner products, Riesz maps, adjoints, and spectral
  decompositions;
* :mod:`kreinalg.indefinite` - H-forms, metric operators, signatures,
  Dirac conjugation, and pseudo-unitary membership;
* :mod:`kreinalg.lemmas` / :mod:`kreinalg.cli` - the seeded theorem
  verification suite and the JSON command line front end.
"""

from .errors import (
    CompatibilityError,
    ConvergenceError,
    DegenerateFormError,
    DependentSetError,
    FieldError,
    KreinAlgError,
    ParseError,
    SchemaError,
    ShapeError,
    SingularBasisError,
    SpaceError,
    SymmetryError,
    VarianceError,
)
from .matrices import (
    COMPLEX,
    REAL,
    classify,
    determinant,
    determinant_permutation_sum,
    elementary_projector,
    hermitian_conjugate,
    identity,
    kronecker_product,
    matmul,
    natural_bra,
    natural_ket,
)
from .spaces import (
    Basis,
    CovectorInBasis,
    LinearMapRep,
    VectorInBasis,
    VectorSpace,
    canonical_form_bases,
    change_of_basis,
    conjugate_representation,
    dual_basis,
    kernel_dimension,
    natural_basis,
    operator_determinant,
    rank,
    rep_covector,
    rep_vector,
    represent_map,
)
from .tensors import (
    DOWN,
    UP,
    Tensor,
    contract,
    full_trace,
    kron_flatten,
    kron_unflatten,
    scalar_tensor,
    sort_slots,
    tensor_from_bra,
    tensor_from_ket,
    tensor_from_operator,
    tensor_product,
    transform_tensor,
)
from .eigen import (
    SpectralDecomposition,
    charpoly_eigenvalues,
    eigen_hermitian,
    jacobi_hermitian,
)
from .unitary import (
    InnerProduct,
    adjoint,
    inner_product,
    is_selfadjoint,
    is_unitary_wrt,
    norm,
    orthonormalize,
    riesz_inverse,
    riesz_map,
    spectral_representation,
    standard_inner_product,
)
from .indefinite import (
    DiracSpectralDecomposition,
    HForm,
    HOrthonormalBasis,
    MetricStructure,
    canonical_projectors,
    compatible_structure_from_hform,
    dirac_adjoint_covector,
    dirac_adjoint_operator,
    dirac_adjoint_vector,
    dirac_spectral,
    h_orthonormal_basis,
    hform_value,
    is_dirac_selfadjoint,
    is_orthogonal,
    is_pseudo_orthogonal,
    is_pseudo_unitary,
    metric_structure_from,
    minkowski_structure,
    raise_lower_index,
)
from .lemmas import LemmaReport, run_lemma_suite

__version__ = "0.1.0"
