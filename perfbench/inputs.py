"""Seeded benchmark inputs, built with numpy alone.

Nothing here calls kreinalg, so a change to the program cannot change what
it is asked to do.  Every indefinite instance is built from a known
canonical frame ``B`` with ``B^+ G B = 1`` and ``B^+ K B = diag(eta)``, which
is also what the oracles compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

REAL, COMPLEX = "real", "complex"


def random_matrix(rng, rows: int, cols: int, field: str) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, size=(rows, cols))
    if field == COMPLEX:
        a = a + 1j * rng.uniform(-1.0, 1.0, size=(rows, cols))
    return a


def random_unitary(rng, n: int, field: str) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, n, n, field))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _frame(rng, n: int, field: str) -> np.ndarray:
    """Invertible matrix with singular values in [0.5, 2] (condition <= 4)."""
    s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=n))
    return random_unitary(rng, n, field) @ np.diag(s) @ random_unitary(rng, n, field)


def _spectrum(rng, n: int) -> np.ndarray:
    """n distinct eigenvalues in [-2, 2], descending, at least half a grid step apart."""
    if n == 1:
        return rng.uniform(-2.0, 2.0, size=1)
    step = 4.0 / (n - 1)
    values = np.linspace(-2.0, 2.0, n) + rng.uniform(-step / 4, step / 4, size=n)
    return np.sort(values)[::-1]


def _block_unitary(rng, n_plus: int, n_minus: int, field: str) -> np.ndarray:
    out = np.zeros((n_plus + n_minus,) * 2, dtype=np.complex128 if field == COMPLEX else float)
    if n_plus:
        out[:n_plus, :n_plus] = random_unitary(rng, n_plus, field)
    if n_minus:
        out[n_plus:, n_plus:] = random_unitary(rng, n_minus, field)
    return out


def canonical_pseudo_unitary(rng, n_plus: int, n_minus: int, field: str) -> np.ndarray:
    """Member of U(n_plus, n_minus): block unitary, boost across the blocks, block unitary."""
    m = _block_unitary(rng, n_plus, n_minus, field)
    if n_plus and n_minus:
        i = int(rng.integers(0, n_plus))
        j = int(rng.integers(n_plus, n_plus + n_minus))
        t = rng.uniform(-0.3, 0.3)
        boost = np.eye(n_plus + n_minus)
        boost[i, i] = boost[j, j] = np.cosh(t)
        boost[i, j] = boost[j, i] = np.sinh(t)
        m = m @ boost
    return m @ _block_unitary(rng, n_plus, n_minus, field)


@dataclass(frozen=True)
class StructureInstance:
    """One indefinite-structure request and everything its oracles need."""

    n: int
    field: str
    kind: str  # "hform": compatible_structure_from_hform(K); "pair": metric_structure_from(G, K)
    k: np.ndarray
    g: np.ndarray  # the inner product the structure should carry
    h: np.ndarray  # G^-1 K
    eta: tuple  # +1 entries first
    f: np.ndarray  # Dirac-selfadjoint, f h has spectrum lam
    lam: np.ndarray
    a: np.ndarray  # G-selfadjoint, spectrum mu
    mu: np.ndarray
    u: np.ndarray  # pseudo-unitary, built in the canonical frame and conjugated back

    @property
    def signature(self) -> tuple:
        n_plus = sum(1 for e in self.eta if e > 0)
        return n_plus, self.n - n_plus


def structure_instance(rng, n: int, field: str, kind: str) -> StructureInstance:
    n_plus = int(rng.integers(0, n + 1))
    eta = (1,) * n_plus + (-1,) * (n - n_plus)
    b = _frame(rng, n, field)
    b_inv = np.linalg.inv(b)
    k = _dagger(b_inv) @ np.diag(np.array(eta, dtype=float)) @ b_inv
    k = (k + _dagger(k)) / 2.0
    if kind == "pair":
        g = np.linalg.inv(b @ _dagger(b))
        frame = b
    else:
        # The synthesized inner product is |K|; its canonical frame comes
        # from the eigenvectors of K, positive eigenvalues first.
        w, v = np.linalg.eigh(k)
        order = np.argsort(-np.sign(w), kind="stable")
        w, v = w[order], v[:, order]
        g = v @ np.diag(np.abs(w)) @ _dagger(v)
        frame = v @ np.diag(1.0 / np.sqrt(np.abs(w)))
    g = (g + _dagger(g)) / 2.0
    frame_inv = np.linalg.inv(frame)
    h = frame @ np.diag(np.array(eta, dtype=float)) @ frame_inv

    def g_selfadjoint(spectrum):
        # W = B Q is G-orthonormal, so W^-1 = W^+ G.
        w = frame @ random_unitary(rng, n, field)
        return w @ np.diag(spectrum) @ _dagger(w) @ g

    lam = _spectrum(rng, n)
    f = g_selfadjoint(lam) @ h
    mu = _spectrum(rng, n)
    a = g_selfadjoint(mu)
    u = frame @ canonical_pseudo_unitary(rng, n_plus, n - n_plus, field) @ frame_inv
    if field == REAL:
        k, g, h, f, a, u = (m.real for m in (k, g, h, f, a, u))
    return StructureInstance(n, field, kind, k, g, h, eta, f, lam, a, mu, u)


# --------------------------------------------------------------------------
# cli documents


def matrix_document(m: np.ndarray) -> dict:
    """The kreinalg JSON matrix document of a 2-D array (floats print round-trip exact)."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        field = COMPLEX
    else:
        data = [[float(x) for x in row] for row in m]
        field = REAL
    return {"field": field, "rows": m.shape[0], "cols": m.shape[1], "data": data}


def document_matrix(doc: dict) -> np.ndarray:
    """Inverse of matrix_document; raises ValueError on a malformed document."""
    data = np.array(doc["data"], dtype=float)
    if doc["field"] == COMPLEX:
        data = data[..., 0] + 1j * data[..., 1]
    if data.shape != (doc["rows"], doc["cols"]):
        raise ValueError(f"document shape {data.shape} does not match its header")
    return data


# The inputs of the golden cli cases, copied so that the benchmark owns them.
TINY_DOCUMENTS = {
    "a22": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "b_new": np.array([[2.0, 0.0], [0.0, 4.0]]),
    "boost": np.array([[1.1276259652063807, 0.5210953054937474],
                       [0.5210953054937474, 1.1276259652063807]]),
    "eta2": np.diag([1.0, -1.0]),
    "eye2": np.eye(2),
    "fdiag": np.diag([3.0, -1.0]),
    "fdirac": np.diag([2.0, 3.0]),
    "gram2": np.diag([2.0, 1.0]),
    "herm3": np.diag([2.0, 2.0, -1.0]),
    "ket2": np.array([[1.0], [2.0]]),
    "mink4": np.diag([1.0, -1.0, -1.0, -1.0]),
    "pauli_y": np.array([[0.0, -1j], [1j, 0.0]]),
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
}


def large_documents(rng) -> dict:
    """Seeded documents of the large cli class (none needs a real eigensolve)."""
    return {
        "det64": random_matrix(rng, 64, 64, REAL),
        "kron16a": random_matrix(rng, 16, 16, COMPLEX),
        "kron16b": random_matrix(rng, 16, 16, COMPLEX),
        "ket64a": random_matrix(rng, 64, 1, REAL),
        "ket64b": random_matrix(rng, 64, 1, REAL),
        "op64": random_matrix(rng, 64, 64, REAL),
        "adj64": random_matrix(rng, 64, 64, COMPLEX),
        "basis64a": random_unitary(rng, 64, REAL),
        "basis64b": random_unitary(rng, 64, REAL),
    }


def write_documents(directory, documents: dict) -> None:
    for name, m in documents.items():
        (directory / f"{name}.json").write_text(json.dumps(matrix_document(m)))
