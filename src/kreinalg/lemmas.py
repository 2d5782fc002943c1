"""Seeded numerical verification of the package's theorem inventory.

Every registered lemma draws random instances from a deterministic
sub-stream and reports the worst residual it saw, together with the
tolerance it must stay under.  Sub-seeds are derived by hashing
``(seed, lemma_id, dim, instance)`` with SHA-256 and feeding 64 bits to
``numpy.random.default_rng`` (PCG64), so the suite is reproducible
instance by instance, in any order.  :func:`run_lemma_suite` splits these
units over the CPUs the process may use: it runs one share itself and
forks a child for each other share.  With one CPU, or without
``os.fork``, the run is serial; the output bytes do not depend on the CPU
count.  Each forked share costs a few milliseconds, which tiny suites
pay.

A check is ``check(rng, n, field)``: it draws one instance over one field
and returns its residual, or a short sequence of residuals, without
reducing them.  The runner alone loops over the fields (real first, then
complex, on the same generator) and takes the worst case with
NaN-sticky ``np.max`` / ``np.maximum`` from 0.0, so a NaN residual fails
its lemma and a negative margin counts as 0.  A ``KreinAlgError`` raised
in either field scores the instance ``inf``.

Residual conventions: residuals named "relative" are scaled by the
magnitude of the quantity checked; structural counts (rank, signature)
use a tolerance of zero, as do identities that hold exactly in floating
point for the dyadic-rational instances generated for them.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import generators as gen
from . import policy
from .errors import KreinAlgError
from .eigen import charpoly_eigenvalues, eigen_hermitian, jacobi_hermitian
from .indefinite import (
    MetricStructure,
    _structure_on,
    canonical_projectors,
    compatible_structure_from_hform,
    dirac_adjoint_operator,
    dirac_spectral,
    h_orthonormal_basis,
    hform_value,
    raise_lower_index,
)
from .matrices import (
    COMPLEX,
    REAL,
    determinant,
    determinant_permutation_sum,
    hermitian_conjugate,
    kronecker_product,
    matmul,
)
from .spaces import (
    VectorSpace,
    change_of_basis,
    conjugate_representation,
    dual_basis,
    kernel_dimension,
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
    kron_flatten,
    kron_unflatten,
    tensor_from_ket,
    tensor_product,
    transform_tensor,
)
from .unitary import (
    InnerProduct,
    adjoint,
    g_selfadjoint_eigen,
    inner_product,
    norm,
    orthonormalize,
    riesz_inverse,
    riesz_map,
    spectral_representation,
)

__all__ = ["Lemma", "LemmaReport", "REGISTRY", "DEFAULT_DIMS", "run_lemma_suite"]

DEFAULT_DIMS = (1, 2, 3, 4, 5, 6)
# No lemma runs above this dimension.
_MAX_DIM = 12

_FIELDS = (REAL, COMPLEX)

_LARGEST_DOUBLE = 1.7976931348623157e308


def _subseed(seed: int, lemma_id: str, dim: int, instance: int) -> int:
    digest = hashlib.sha256(f"{seed}:{lemma_id}:{dim}:{instance}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Lemma:
    lemma_id: str
    tolerance: float
    check: callable
    min_dim: int = 1
    max_dim: int = _MAX_DIM
    description: str = ""


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    instances: int
    max_error: float
    tolerance: float
    status: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "instances": self.instances,
            # JSON has no infinity or NaN; a check that blew up reports
            # the largest finite double instead.
            "max_error": self.max_error if self.max_error <= _LARGEST_DOUBLE else _LARGEST_DOUBLE,
            "tolerance": self.tolerance,
            "status": self.status,
            "seed": self.seed,
        }


def _random_structure(rng, n, field) -> MetricStructure:
    """Alternate between a synthesized-G structure and a generic (G, K) pair."""
    if rng.integers(0, 2):
        return compatible_structure_from_hform(gen.random_nondegenerate_hform(rng, n, field))
    space = VectorSpace(n, field, "V")
    g = gen.random_positive_definite(rng, n, field)
    ip = InnerProduct(space, g)
    n_plus = int(rng.integers(0, n + 1))
    signs = np.concatenate([np.ones(n_plus), -np.ones(n - n_plus)])
    u = gen.random_unitary(rng, n, field)
    involution = u @ np.diag(signs).astype(u.dtype) @ hermitian_conjugate(u)
    k = hermitian_conjugate(ip.frame_inv) @ involution @ ip.frame_inv
    # The structure is built on ip itself: metric_structure_from(ip.gram, K)
    # would rebuild the same inner product, bit for bit.
    return _structure_on(ip, (k + hermitian_conjugate(k)) / 2.0)


def _random_ip(rng, n, field) -> InnerProduct:
    space = VectorSpace(n, field, "V")
    return InnerProduct(space, gen.random_positive_definite(rng, n, field))


# --------------------------------------------------------------------------
# matrix checks


def _check_det_product(rng, n, field):
    a = gen.random_invertible(rng, n, field)
    b = gen.random_invertible(rng, n, field)
    rhs = determinant(a) * determinant(b)
    return abs(determinant(a @ b) - rhs) / abs(rhs)


def _check_det_oracle(rng, n, field):
    a = gen.random_invertible(rng, n, field)
    perm = determinant_permutation_sum(a)
    return abs(determinant(a) - perm) / max(1.0, abs(perm))


def _dyadic(rng, rows, cols, field):
    m = rng.integers(-8, 9, size=(rows, cols)) / 8.0
    if field == COMPLEX:
        m = m + 1j * (rng.integers(-8, 9, size=(rows, cols)) / 8.0)
    return m


def _check_conjugation_rules(rng, n, field):
    a = _dyadic(rng, n, n, field)
    b = _dyadic(rng, n, n, field)
    alpha = complex(*(rng.integers(-8, 9, size=2) / 8.0)) if field == COMPLEX else float(rng.integers(-8, 9) / 8.0)
    return (
        np.max(np.abs(hermitian_conjugate(a + b) - (hermitian_conjugate(a) + hermitian_conjugate(b)))),
        np.max(np.abs(hermitian_conjugate(alpha * a) - np.conj(alpha) * hermitian_conjugate(a))),
        np.max(np.abs(hermitian_conjugate(a @ b) - hermitian_conjugate(b) @ hermitian_conjugate(a))),
    )


def _check_kron_mixed_product(rng, n, field):
    m = max(1, n - 1)
    a = gen.random_matrix(rng, n, m, field)
    c = gen.random_matrix(rng, m, n, field)
    b = gen.random_matrix(rng, m, n, field)
    d = gen.random_matrix(rng, n, m, field)
    rhs = kronecker_product(a @ c, b @ d)
    return policy.norm(kronecker_product(a, b) @ kronecker_product(c, d) - rhs) / max(1.0, policy.norm(rhs))


def _check_det_conjugate(rng, n, field):
    a = gen.random_matrix(rng, n, n, field)
    return abs(determinant(hermitian_conjugate(a)) - np.conj(determinant(a))) / max(1.0, abs(determinant(a)))


# --------------------------------------------------------------------------
# duality checks


def _check_dual_basis(rng, n, field):
    basis = gen.random_basis(rng, VectorSpace(n, field, "V"))
    return policy.norm(matmul(dual_basis(basis), basis.matrix) - np.eye(n))


def _check_pairing_invariance(rng, n, field):
    basis = gen.random_basis(rng, VectorSpace(n, field, "V"))
    x = gen.random_ket(rng, n, field)
    y = gen.random_bra(rng, n, field)
    return abs((y @ x)[0, 0] - rep_covector(y, basis).pair(rep_vector(x, basis)))


def _check_composition_functorial(rng, n, field):
    basis = gen.random_basis(rng, VectorSpace(n, field, "V"))
    f = gen.random_matrix(rng, n, n, field)
    g = gen.random_matrix(rng, n, n, field)
    lhs = represent_map(matmul(f, g), basis, basis).matrix
    rhs = matmul(represent_map(f, basis, basis).matrix, represent_map(g, basis, basis).matrix)
    return policy.norm(lhs - rhs) / max(1.0, policy.norm(rhs))


def _check_inverse_functorial(rng, n, field):
    basis = gen.random_basis(rng, VectorSpace(n, field, "V"))
    f = gen.random_invertible(rng, n, field)
    lhs = represent_map(np.linalg.inv(f), basis, basis).matrix
    rhs = np.linalg.inv(represent_map(f, basis, basis).matrix)
    return policy.norm(lhs - rhs) / max(1.0, policy.norm(rhs))


def _check_rank_nullity(rng, n, field):
    r = int(rng.integers(0, n + 1))
    u = gen.random_invertible(rng, n, field)
    v = gen.random_invertible(rng, n, field)
    f = u[:, :r] @ v[:r, :] if r else np.zeros((n, n), dtype=u.dtype)
    found = rank(f)
    return abs(found - r) + abs(found + kernel_dimension(f) - n)


def _check_det_invariant(rng, n, field):
    space = VectorSpace(n, field, "V")
    basis = gen.random_basis(rng, space)
    new = gen.random_basis(rng, space)
    rep = represent_map(gen.random_matrix(rng, n, n, field), basis, basis)
    moved = conjugate_representation(rep, new)
    d0 = operator_determinant(rep)
    trace = np.trace(rep.matrix)
    return (
        abs(operator_determinant(moved) - d0) / max(1.0, abs(d0)),
        abs(np.trace(moved.matrix) - trace) / max(1.0, abs(trace)),
    )


# --------------------------------------------------------------------------
# tensor checks


def _check_multilinearity(rng, n, field):
    space = VectorSpace(n, field, "V")
    x = gen.random_tensor(rng, space, (UP,))
    x2 = gen.random_tensor(rng, space, (UP,))
    y = gen.random_tensor(rng, space, (DOWN, UP))
    alpha, beta = rng.uniform(-1, 1, size=2)
    combo = Tensor(space, (UP,), alpha * x.components + beta * x2.components)
    lhs = tensor_product(combo, y).components
    rhs = alpha * tensor_product(x, y).components + beta * tensor_product(x2, y).components
    return np.max(np.abs(lhs - rhs))


def _int_tensor(rng, space, variance):
    """Integer (Gaussian-integer when complex) components, so products are exact."""
    shape = (space.dim,) * len(variance)
    comp = rng.integers(-4, 5, size=shape).astype(np.float64)
    if space.field == COMPLEX:
        comp = comp + 1j * rng.integers(-4, 5, size=shape)
    return Tensor(space, tuple(variance), comp)


def _check_associativity(rng, n, field):
    space = VectorSpace(n, field, "V")
    t1 = _int_tensor(rng, space, (UP,))
    t2 = _int_tensor(rng, space, (DOWN,))
    t3 = _int_tensor(rng, space, (UP,))
    lhs = tensor_product(tensor_product(t1, t2), t3)
    rhs = tensor_product(t1, tensor_product(t2, t3))
    if lhs.variance != rhs.variance:
        return 1.0
    return np.max(np.abs(lhs.components - rhs.components))


def _check_dimension_count(rng, n, field):
    space = VectorSpace(n, field, "V")
    rank_total = int(rng.integers(0, 4))
    variance = tuple(UP if rng.integers(0, 2) else DOWN for _ in range(rank_total))
    t = gen.random_tensor(rng, space, variance)
    return abs(t.components.size - n**rank_total)


def _check_contract_transform(rng, n, field):
    space = VectorSpace(n, field, "V")
    t = gen.random_tensor(rng, space, (UP, UP, DOWN))
    m = gen.random_invertible(rng, n, field)
    lhs = contract(transform_tensor(t, m), 1, 3)
    rhs = transform_tensor(contract(t, 1, 3), m)
    return np.max(np.abs(lhs.components - rhs.components))


def _check_kron_flatten(rng, n, field):
    space = VectorSpace(n, field, "V")
    t = gen.random_tensor(rng, space, (UP, UP, UP))
    back = kron_unflatten(kron_flatten(t), space, t.variance)
    x = gen.random_ket(rng, n, field)
    y = gen.random_ket(rng, n, field)
    flat = kron_flatten(tensor_product(tensor_from_ket(space, x), tensor_from_ket(space, y)))
    return (
        0.0 if np.array_equal(back.components, t.components) else 1.0,
        np.max(np.abs(flat - kronecker_product(x, y))),
    )


# --------------------------------------------------------------------------
# inner product / spectral checks


def _check_cauchy_schwarz(rng, n, field):
    # A negative margin is a pass; the runner's reduction floors it at 0.
    ip = _random_ip(rng, n, field)
    x = gen.random_ket(rng, n, field)
    y = gen.random_ket(rng, n, field)
    return abs(inner_product(x, y, ip)) - norm(x, ip) * norm(y, ip)


def _check_riesz_pairing(rng, n, field):
    ip = _random_ip(rng, n, field)
    x = gen.random_ket(rng, n, field)
    y = gen.random_ket(rng, n, field)
    return abs((riesz_map(x, ip) @ y)[0, 0] - inner_product(x, y, ip))


def _check_orthonormal_transition(rng, n, field):
    ip = _random_ip(rng, n, field)
    vs1 = [gen.random_ket(rng, n, field) for _ in range(n)]
    vs2 = [gen.random_ket(rng, n, field) for _ in range(n)]
    m = change_of_basis(orthonormalize(vs1, ip), orthonormalize(vs2, ip))
    return policy.norm(hermitian_conjugate(m) @ m - np.eye(n))


def _check_real_eigenvalues(rng, n, field):
    diag, _, _ = jacobi_hermitian(gen.random_hermitian(rng, n, field))
    return np.max(np.abs(diag.imag))


def _check_eigenspace_orthogonality(rng, n, field):
    ip = _random_ip(rng, n, field)
    _, columns = g_selfadjoint_eigen(gen.random_g_selfadjoint(rng, ip), ip)
    return np.max(np.abs(hermitian_conjugate(columns) @ ip.gram @ columns - np.eye(n)))


def _check_projector_system(rng, n, field):
    ip = _random_ip(rng, n, field)
    projectors = spectral_representation(gen.random_g_selfadjoint(rng, ip), ip).projectors
    residuals = [policy.norm(p @ q - (p if i == j else 0.0))
                 for i, p in enumerate(projectors) for j, q in enumerate(projectors)]
    return residuals + [policy.norm(sum(projectors) - np.eye(n))]


def _check_spectral_reconstruction(rng, n, field):
    ip = _random_ip(rng, n, field)
    f = gen.random_g_selfadjoint(rng, ip)
    dec = spectral_representation(f, ip)
    return policy.norm(f - dec.reconstruct()) / max(1.0, policy.norm(f))


def _check_spectral_basis_independence(rng, n, field):
    space = VectorSpace(n, field, "V")
    ip = _random_ip(rng, n, field)
    f = gen.random_g_selfadjoint(rng, ip)
    dec = spectral_representation(f, ip)
    b = gen.random_invertible(rng, n, field)
    new_ip = InnerProduct(space, hermitian_conjugate(b) @ ip.gram @ b)
    b_inv = np.linalg.inv(b)
    moved = spectral_representation(b_inv @ f @ b, new_ip)
    if moved.multiplicities != dec.multiplicities:
        return 1.0
    return [abs(value - moved_value) / max(1.0, abs(value))
            for value, moved_value in zip(dec.eigenvalues, moved.eigenvalues)] + [
        policy.norm(q - b_inv @ p @ b) / max(1.0, policy.norm(p))
        for p, q in zip(dec.projectors, moved.projectors)]


def _check_charpoly_oracle(rng, n, field):
    a = gen.random_hermitian(rng, n, field)
    dec = eigen_hermitian(a)
    mine = np.repeat(dec.eigenvalues, dec.multiplicities)
    return np.max(np.abs(mine - np.sort(charpoly_eigenvalues(a).real)[::-1]))


def _check_isometry_injective(rng, n, field):
    ip = _random_ip(rng, n, field)
    return abs(rank(ip.frame @ gen.random_unitary(rng, n, field) @ ip.frame_inv) - n)


# --------------------------------------------------------------------------
# indefinite checks


def _check_metric_selfadjoint(rng, n, field):
    ms = _random_structure(rng, n, field)
    return policy.norm(adjoint(ms.h, ms.ip) - ms.h) / max(1.0, policy.norm(ms.h))


def _check_compatibility(rng, n, field):
    ms = _random_structure(rng, n, field)
    return policy.norm(ms.h @ ms.h - np.eye(n))


def _check_dual_covector_action(rng, n, field):
    ms = _random_structure(rng, n, field)
    y = gen.random_bra(rng, n, field)
    return np.max(np.abs(riesz_map(ms.h @ riesz_inverse(y, ms.ip), ms.ip) - y @ ms.h))


def _check_dirac_involution(rng, n, field):
    ms = _random_structure(rng, n, field)
    f = gen.random_matrix(rng, n, n, field)
    twice = dirac_adjoint_operator(dirac_adjoint_operator(f, ms), ms)
    alpha = complex(*rng.uniform(-1, 1, size=2)) if field == COMPLEX else float(rng.uniform(-1, 1))
    rhs = np.conj(alpha) * dirac_adjoint_operator(f, ms)
    return (
        policy.norm(twice - f) / max(1.0, policy.norm(f)),
        policy.norm(dirac_adjoint_operator(alpha * f, ms) - rhs) / max(1.0, policy.norm(rhs)),
    )


def _check_dirac_product_reversal(rng, n, field):
    ms = _random_structure(rng, n, field)
    f = gen.random_matrix(rng, n, n, field)
    g = gen.random_matrix(rng, n, n, field)
    rhs = dirac_adjoint_operator(g, ms) @ dirac_adjoint_operator(f, ms)
    return policy.norm(dirac_adjoint_operator(f @ g, ms) - rhs) / max(1.0, policy.norm(rhs))


def _pseudo_unitary_in_frame(rng, ms):
    basis = h_orthonormal_basis(ms).basis
    n_plus, n_minus = ms.signature
    canonical = gen.random_pseudo_unitary(rng, n_plus, n_minus, ms.space.field)
    return basis.matrix @ canonical @ basis.inverse


def _check_hform_invariance(rng, n, field):
    ms = _random_structure(rng, n, field)
    f = _pseudo_unitary_in_frame(rng, ms)
    x = gen.random_ket(rng, n, field)
    y = gen.random_ket(rng, n, field)
    return abs(hform_value(f @ x, f @ y, ms) - hform_value(x, y, ms))


def _canonical_gram_error(ms, frame, eta_diag):
    """|| frame^+ K frame - diag(eta_diag) || for the form K of ``ms``."""
    gram = hermitian_conjugate(frame) @ ms.hform.matrix @ frame
    return policy.norm(gram - np.diag(np.asarray(eta_diag, dtype=float)))


def _check_preserves_h_orthonormality(rng, n, field):
    ms = _random_structure(rng, n, field)
    hb = h_orthonormal_basis(ms)
    f = _pseudo_unitary_in_frame(rng, ms)
    return _canonical_gram_error(ms, f @ hb.basis.matrix, hb.eta_diag)


def _check_sylvester(rng, n, field):
    k = gen.random_nondegenerate_hform(rng, n, field)
    before = compatible_structure_from_hform(k).signature
    b = gen.random_invertible(rng, n, field)
    after = compatible_structure_from_hform(hermitian_conjugate(b) @ k @ b).signature
    return abs(before[0] - after[0]) + abs(before[1] - after[1])


def _check_hbasis_canonical(rng, n, field):
    ms = _random_structure(rng, n, field)
    hb = h_orthonormal_basis(ms)
    return _canonical_gram_error(ms, hb.basis.matrix, hb.eta_diag)


def _check_hform_bracket(rng, n, field):
    ms = _random_structure(rng, n, field)
    hb = h_orthonormal_basis(ms)
    x = gen.random_ket(rng, n, field)
    y = gen.random_ket(rng, n, field)
    xc = hb.basis.inverse @ x
    yc = hb.basis.inverse @ y
    eta = np.diag(np.asarray(hb.eta_diag, dtype=float))
    bracket = (hermitian_conjugate(xc) @ eta.astype(xc.dtype) @ yc)[0, 0]
    return abs(hform_value(x, y, ms) - bracket)


def _check_projector_representation(rng, n, field):
    ms = _random_structure(rng, n, field)
    hb = h_orthonormal_basis(ms)
    p_plus, p_minus = canonical_projectors(ms)
    n_plus, _ = ms.signature
    rep_plus = hb.basis.inverse @ p_plus @ hb.basis.matrix
    rep_minus = hb.basis.inverse @ p_minus @ hb.basis.matrix
    rep_h = hb.basis.inverse @ ms.h @ hb.basis.matrix
    return (
        np.max(np.abs(rep_plus - np.diag([1.0] * n_plus + [0.0] * (n - n_plus)))),
        np.max(np.abs(rep_h - (rep_plus - rep_minus))),
    )


def _check_projector_split(rng, n, field):
    ms = _random_structure(rng, n, field)
    p_plus, p_minus = canonical_projectors(ms)
    x = gen.random_ket(rng, n, field)
    y = gen.random_ket(rng, n, field)
    split = inner_product(x, p_plus @ y, ms.ip) - inner_product(x, p_minus @ y, ms.ip)
    return abs(hform_value(x, y, ms) - split)


def _check_dirac_canonical_matrix(rng, n, field):
    ms = _random_structure(rng, n, field)
    hb = h_orthonormal_basis(ms)
    f = gen.random_matrix(rng, n, n, field)
    eta = np.diag(np.asarray(hb.eta_diag, dtype=float))
    rep_f = hb.basis.inverse @ f @ hb.basis.matrix
    rep_conj = hb.basis.inverse @ dirac_adjoint_operator(f, ms) @ hb.basis.matrix
    expected = eta.astype(rep_f.dtype) @ hermitian_conjugate(rep_f) @ eta.astype(rep_f.dtype)
    return policy.norm(rep_conj - expected) / max(1.0, policy.norm(rep_f))


def _check_dirac_spectral_reconstruction(rng, n, field):
    ms = _random_structure(rng, n, field)
    f = gen.random_dirac_selfadjoint(rng, ms)
    return policy.norm(f - dirac_spectral(f, ms).reconstruct()) / max(1.0, policy.norm(f))


def _check_signature_sum(rng, n, field):
    ms = _random_structure(rng, n, field)
    return abs(ms.signature[0] + ms.signature[1] - n)


def _check_index_roundtrip(rng, n, field):
    ms = _random_structure(rng, n, field)
    t = gen.random_tensor(rng, ms.space, (UP, DOWN, UP))
    slot = int(rng.integers(1, t.rank + 1))
    lowered = raise_lower_index(t, slot, ms)
    if lowered.slot(slot) == t.slot(slot):
        return 1.0
    back = raise_lower_index(lowered, slot, ms)
    if back.variance != t.variance:
        return 1.0
    # Entrywise: flipping one up slot applies the +-1 pattern along it.
    eta = ms.eta.reshape([n if i == slot - 1 else 1 for i in range(t.rank)])
    return (
        np.max(np.abs(back.components - t.components)),
        np.max(np.abs(lowered.components - eta * t.components)),
    )


REGISTRY = (
    Lemma("matrix.det-product", 1e-9, _check_det_product,
          description="det(AB) = det(A) det(B)"),
    Lemma("matrix.det-oracle", 1e-10, _check_det_oracle, max_dim=6,
          description="LU determinant matches the permutation-sum oracle"),
    Lemma("matrix.conjugation-rules", 0.0, _check_conjugation_rules,
          description="conjugate-transpose is additive, antilinear, product-reversing"),
    Lemma("matrix.kron-mixed-product", 1e-10, _check_kron_mixed_product,
          description="(A kron B)(C kron D) = (AC) kron (BD)"),
    Lemma("matrix.det-conjugate", 1e-10, _check_det_conjugate,
          description="det of the conjugate transpose is the conjugate determinant"),
    Lemma("duality.dual-basis", 1e-10, _check_dual_basis,
          description="dual covectors times basis columns give the identity"),
    Lemma("duality.pairing-invariance", 1e-10, _check_pairing_invariance,
          description="the dual pairing is representation independent"),
    Lemma("duality.composition-functorial", 1e-10, _check_composition_functorial,
          description="representation of a composition is the matrix product"),
    Lemma("duality.inverse-functorial", 1e-9, _check_inverse_functorial,
          description="representation of the inverse is the inverse matrix"),
    Lemma("duality.rank-nullity", 0.0, _check_rank_nullity,
          description="a product of rank r has rank r, and rank plus kernel dimension is n"),
    Lemma("duality.determinant-invariant", 1e-9, _check_det_invariant,
          description="determinant and trace survive a change of basis"),
    Lemma("tensor.multilinearity", 1e-12, _check_multilinearity,
          description="the tensor product is linear in each factor"),
    Lemma("tensor.associativity", 0.0, _check_associativity,
          description="the tensor product is associative"),
    Lemma("tensor.dimension-count", 0.0, _check_dimension_count,
          description="component count is dim to the number of slots"),
    Lemma("tensor.contract-transform", 1e-10, _check_contract_transform,
          description="contraction commutes with component transformations"),
    Lemma("tensor.kron-flatten", 0.0, _check_kron_flatten,
          description="flattening is a bijection matching the Kronecker product"),
    Lemma("inner.cauchy-schwarz", 1e-12, _check_cauchy_schwarz,
          description="|(x,y)| <= ||x|| ||y||"),
    Lemma("inner.riesz-pairing", 1e-12, _check_riesz_pairing,
          description="the Riesz covector pairs as the inner product"),
    Lemma("inner.orthonormal-transition-unitary", 1e-9, _check_orthonormal_transition,
          description="transitions between orthonormal bases are unitary"),
    Lemma("inner.isometry-injective", 0.0, _check_isometry_injective,
          description="inner-product preserving maps have full rank"),
    Lemma("spectral.real-eigenvalues", 1e-10, _check_real_eigenvalues,
          description="selfadjoint spectra are real"),
    Lemma("spectral.eigenspace-orthogonality", 1e-9, _check_eigenspace_orthogonality,
          description="eigenvector columns are orthonormal in the metric"),
    Lemma("spectral.projector-system", 1e-9, _check_projector_system,
          description="spectral projectors are orthogonal and complete"),
    Lemma("spectral.reconstruction", 1e-9, _check_spectral_reconstruction,
          description="eigenvalue-weighted projectors rebuild the operator"),
    Lemma("spectral.basis-independence", 1e-9, _check_spectral_basis_independence,
          description="the spectral data transforms covariantly with the basis"),
    Lemma("spectral.charpoly-oracle", 1e-8, _check_charpoly_oracle, max_dim=6,
          description="eigenvalues match the characteristic-polynomial roots"),
    Lemma("metric.selfadjoint", 1e-10, _check_metric_selfadjoint,
          description="the metric operator is selfadjoint for the inner product"),
    Lemma("metric.compatibility", 1e-9, _check_compatibility,
          description="the metric operator squares to the identity"),
    Lemma("metric.dual-covector-action", 1e-10, _check_dual_covector_action,
          description="the induced covector metric acts by right multiplication"),
    Lemma("metric.sylvester-invariance", 0.0, _check_sylvester, min_dim=2, max_dim=8,
          description="the signature survives invertible congruences"),
    Lemma("metric.hbasis-canonical", 1e-9, _check_hbasis_canonical,
          description="the canonical basis diagonalizes the form to +-1 entries"),
    Lemma("metric.hform-bracket", 1e-12, _check_hform_bracket,
          description="the form equals the signed bracket of canonical components"),
    Lemma("metric.projector-representation", 1e-12, _check_projector_representation,
          description="canonical projector matrices are exact 0/1 diagonals"),
    Lemma("metric.projector-split", 1e-10, _check_projector_split,
          description="the form splits into projector inner products"),
    Lemma("metric.signature-sum", 0.0, _check_signature_sum,
          description="signature counts sum to the dimension"),
    Lemma("dirac.involution", 1e-12, _check_dirac_involution,
          description="the Dirac adjoint is an antilinear involution"),
    Lemma("dirac.product-reversal", 1e-10, _check_dirac_product_reversal,
          description="the Dirac adjoint reverses compositions"),
    Lemma("dirac.hform-invariance", 1e-10, _check_hform_invariance,
          description="pseudo-unitary maps preserve the indefinite form"),
    Lemma("dirac.preserves-canonical-basis", 1e-9, _check_preserves_h_orthonormality,
          description="pseudo-unitary images of canonical bases stay canonical"),
    Lemma("dirac.canonical-matrix", 1e-10, _check_dirac_canonical_matrix,
          description="the Dirac adjoint matrix is the eta-sandwiched conjugate"),
    Lemma("dirac.spectral-reconstruction", 1e-9, _check_dirac_spectral_reconstruction,
          description="Dirac-selfadjoint operators rebuild from projectors and metric"),
    Lemma("metric.index-roundtrip", 0.0, _check_index_roundtrip,
          description="raising after lowering restores a tensor exactly"),
)


def run_lemma_suite(seed: int, dims=None, instances: int = 5):
    """Evaluate every registered lemma on seeded random instances.

    ``dims`` must be a subset of 1 to ``_MAX_DIM``.  Each (lemma, dim, instance)
    unit draws from its own derived sub-stream, so the result is
    independent of evaluation order; both fields of an instance share it.

    The units are split over the CPUs this process may use: with k of
    them, share j is ``units[j::k]``.  This process runs share 0 and one
    forked child runs each other share, returning its worst residual per
    lemma through a pipe; the shares merge with the NaN-sticky
    ``np.maximum``, so the reports do not depend on the CPU count, byte for
    byte.  With one CPU, or without ``os.fork``, the run is serial.  Each
    forked share costs a few milliseconds, which a tiny suite pays.  An
    exception other than a ``KreinAlgError`` propagates from the earliest
    unit that raised, as in a serial run; a child that ends without
    reporting raises RuntimeError.  No child outlives the call.
    """
    dims = tuple(dims) if dims is not None else DEFAULT_DIMS
    if not dims or any(d < 1 or d > _MAX_DIM for d in dims):
        raise ValueError(f"dims must be a non-empty subset of 1..{_MAX_DIM}")
    if instances < 1:
        raise ValueError("instances must be >= 1")
    usable = [[d for d in dims if lemma.min_dim <= d <= lemma.max_dim] for lemma in REGISTRY]
    units = [(index, dim, instance)
             for index, ds in enumerate(usable) for dim in ds for instance in range(instances)]
    shares = _run_shares(seed, units, _share_count(len(units)))
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    reports = []
    for index, lemma in enumerate(REGISTRY):
        worst = 0.0
        for share, _ in shares:
            worst = np.maximum(worst, share.get(index, 0.0))
        worst = float(worst)
        reports.append(
            LemmaReport(
                lemma_id=lemma.lemma_id,
                instances=len(usable[index]) * instances,
                max_error=worst,
                tolerance=lemma.tolerance,
                status="pass" if worst <= lemma.tolerance else "fail",
                seed=seed,
            )
        )
    return reports


def _share_count(units: int) -> int:
    """Shares for ``units`` units: the usable CPUs, at most ``units``; 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, units))


def _run_share(seed: int, units, first: int, step: int):
    """``({lemma index: worst residual}, failure)`` over ``units[first::step]``.

    A ``KreinAlgError`` scores its instance ``inf``.  Any other exception
    ends the share: ``failure`` is then ``(position in units, exception)``,
    and None otherwise.
    """
    worst = {}
    for position in range(first, len(units), step):
        index, dim, instance = units[position]
        lemma = REGISTRY[index]
        rng = np.random.default_rng(_subseed(seed, lemma.lemma_id, dim, instance))
        residual = worst.get(index, 0.0)
        try:
            for field in _FIELDS:
                residual = np.maximum(residual, np.max(lemma.check(rng, dim, field), initial=0.0))
        except KreinAlgError:
            # A domain error while checking counts as a failed
            # instance, never as a crashed run.
            residual = np.maximum(residual, np.inf)
        except Exception as exc:
            return worst, (position, exc)
        worst[index] = residual
    return worst, None


def _run_shares(seed: int, units, count: int) -> list:
    """:func:`_run_share` of each of ``count`` shares, share 0 in this process.

    Every other share runs in a forked child and comes back as a pickle
    through a pipe.  Each child is reaped here; if this process's share or
    the reading raises (KeyboardInterrupt included), the children left are
    killed first.
    """
    children = {}  # pid -> read end of its pipe, for each child not yet reaped
    try:
        for share in range(1, count):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _report_share(write, seed, units, share, count)
            os.close(write)
            children[pid] = read
        results = [_run_share(seed, units, 0, count)]
        for share, pid in enumerate(list(children), 1):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status:
                raise RuntimeError(
                    f"lemma suite share {share} of {count} ended with exit status {status} "
                    "before reporting"
                )
            results.append(pickle.loads(data))
        return results
    finally:
        if children:
            import signal  # only on this path: ``python -m kreinalg.cli`` does not load it

            for pid, read in children.items():
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _report_share(write: int, seed: int, units, share: int, count: int) -> None:
    """In a forked child: write the pickled result of one share, then end the process.

    ``os._exit`` never returns into the caller, runs no ``atexit`` hook
    and flushes no inherited buffer; it exits 1 unless the whole pickle
    was written.
    """
    status = 1
    try:
        data = memoryview(pickle.dumps(_run_share(seed, units, share, count)))
        while data:
            data = data[os.write(write, data):]
        status = 0
    finally:
        os._exit(status)
