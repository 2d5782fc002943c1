"""Independent numpy oracles for every checked step and request.

Each check returns True when the program's answer holds to ``RTOL``
relative error, never comparing against golden bytes.
"""

from __future__ import annotations

import numpy as np

from inputs import document_matrix

# Relative bound for every matrix identity: |got - want|_F <= RTOL * max(1, |want|_F).
RTOL = 1e-8


def close(got, want, rtol: float = RTOL) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    return (
        got.shape == want.shape
        and bool(np.all(np.isfinite(got)))
        and float(np.linalg.norm(got - want)) <= rtol * max(1.0, float(np.linalg.norm(want)))
    )


def _dagger(a):
    return np.conj(a).T


def _distinct(values):
    """Distinct values (descending) and multiplicities, merging near ties."""
    values = np.sort(np.asarray(values, dtype=float))[::-1]
    tol = RTOL * max(1.0, float(np.max(np.abs(values))))
    distinct, mults = [], []
    for v in values:
        if distinct and distinct[-1] - v <= tol:
            mults[-1] += 1
        else:
            distinct.append(float(v))
            mults.append(1)
    return distinct, mults


def spectrum_matches(eigenvalues, multiplicities, expected) -> bool:
    distinct, mults = _distinct(expected)
    return list(multiplicities) == mults and close(list(eigenvalues), distinct)


# --------------------------------------------------------------------------
# structures: one check per step, on the program's returned objects


def check_structure(inst, ms) -> bool:
    return tuple(ms.signature) == inst.signature and close(ms.h, inst.h)


def check_dirac(inst, dec) -> bool:
    return spectrum_matches(dec.eigenvalues, dec.multiplicities, inst.lam) and close(
        dec.reconstruct(), inst.f
    )


def check_spectral(inst, dec) -> bool:
    return spectrum_matches(dec.eigenvalues, dec.multiplicities, inst.mu) and close(
        dec.reconstruct(), inst.a
    )


def check_h_basis(inst, hb) -> bool:
    b = hb.basis.matrix
    return (
        tuple(hb.eta_diag) == inst.eta
        and close(_dagger(b) @ inst.k @ b, np.diag(np.array(inst.eta, dtype=float)))
        and close(_dagger(b) @ inst.g @ b, np.eye(inst.n))
    )


def check_pseudo_unitary(inst, result) -> bool:
    return result is True


# --------------------------------------------------------------------------
# cli: checks on the parsed JSON result of one request


def _hform_parts(k):
    """Synthesized inner product |K| and metric operator sign(K) of a bare H-form."""
    w, v = np.linalg.eigh(k)
    return v @ np.diag(np.abs(w)) @ _dagger(v), v @ np.diag(np.sign(w)) @ _dagger(v), w


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _decomposition(result, op, expected, metric=None) -> bool:
    projectors = [document_matrix(p) for p in result["projectors"]]
    n = op.shape[0]
    rebuilt = sum(v * (p if metric is None else p @ metric)
                  for v, p in zip(result["eigenvalues"], projectors))
    return (
        spectrum_matches(result["eigenvalues"], result["multiplicities"], expected)
        and close(sum(projectors), np.eye(n))
        and close(rebuilt, op)
    )


def cli_det(docs, result, a) -> bool:
    return close(result["det"], _pair(np.linalg.det(docs[a])))


def cli_eig(docs, result, a) -> bool:
    return _decomposition(result, docs[a], np.linalg.eigvalsh(docs[a]))


def cli_spectral_gram(docs, result, f, gram) -> bool:
    return _decomposition(result, docs[f], np.linalg.eigvals(docs[f]).real)


def cli_spectral_dirac(docs, result, f, hform) -> bool:
    _, h, _ = _hform_parts(docs[hform])
    partner = docs[f] @ h
    return _decomposition(result, docs[f], np.linalg.eigvals(partner).real, metric=h) and close(
        document_matrix(result["metric"]), h
    )


def cli_adjoint(docs, result, a, gram=None) -> bool:
    g = docs[gram] if gram else np.eye(docs[a].shape[0])
    return close(document_matrix(result["matrix"]), np.linalg.inv(g) @ _dagger(docs[a]) @ g)


def cli_dirac_adjoint_ket(docs, result, x, hform) -> bool:
    return close(document_matrix(result["bra"]), _dagger(docs[x]) @ docs[hform])


def cli_dirac_adjoint_op(docs, result, a, hform) -> bool:
    g, h, _ = _hform_parts(docs[hform])
    want = h @ np.linalg.inv(g) @ _dagger(docs[a]) @ g @ h
    return close(document_matrix(result["matrix"]), want)


def cli_signature(docs, result, hform) -> bool:
    w = np.linalg.eigvalsh(docs[hform])
    return [result["n_plus"], result["n_minus"]] == [int(np.sum(w > 0)), int(np.sum(w < 0))]


def cli_canonical_basis(docs, result, hform) -> bool:
    k = docs[hform]
    g, _, w = _hform_parts(k)
    b = document_matrix(result["basis"])
    eta = [1] * int(np.sum(w > 0)) + [-1] * int(np.sum(w < 0))
    return (
        result["eta"] == eta
        and close(_dagger(b) @ k @ b, np.diag(np.array(eta, dtype=float)))
        and close(_dagger(b) @ g @ b, np.eye(k.shape[0]))
    )


def cli_projectors(docs, result, hform) -> bool:
    _, h, _ = _hform_parts(docs[hform])
    eye = np.eye(h.shape[0])
    return close(document_matrix(result["p_plus"]), (eye + h) / 2) and close(
        document_matrix(result["p_minus"]), (eye - h) / 2
    )


def cli_tensor_product(docs, result, x, y) -> bool:
    return result["signature"] == ["up", "up"] and close(
        document_matrix(result["result"]), np.kron(docs[x], docs[y])
    )


def cli_contract(docs, result, a) -> bool:
    return close(result["result"], _pair(np.trace(docs[a])))


def cli_kron(docs, result, a, b) -> bool:
    return close(document_matrix(result["matrix"]), np.kron(docs[a], docs[b]))


def cli_change_basis(docs, result, old, new, f) -> bool:
    m = np.linalg.solve(docs[new], docs[old])
    return close(document_matrix(result["matrix"]), m) and close(
        document_matrix(result["operator"]), m @ docs[f] @ np.linalg.inv(m)
    )


def cli_check_pseudo_orthogonal(docs, result, f, hform) -> bool:
    a, k = docs[f], docs[hform]
    return result["result"] is close(a.T @ k @ a, k) and close(
        result["det"], _pair(np.linalg.det(a))
    )


def cli_check_hermitian(docs, result, a) -> bool:
    return result["result"] is close(docs[a], _dagger(docs[a]))
