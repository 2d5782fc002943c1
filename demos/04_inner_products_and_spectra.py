#!/usr/bin/env python3
"""Inner products, Riesz covectors, orthonormalization, and spectral theory.

Run directly: python3 demos/04_inner_products_and_spectra.py
"""

import numpy as np

from kreinalg import (
    InnerProduct,
    VectorSpace,
    adjoint,
    eigen_hermitian,
    hermitian_conjugate,
    inner_product,
    is_unitary_wrt,
    norm,
    orthonormalize,
    riesz_map,
    spectral_representation,
)
from kreinalg.generators import random_g_selfadjoint, random_ket, random_positive_definite

rng = np.random.default_rng(13)
space = VectorSpace(3, "complex", "V")

# Any positive-definite Hermitian Gram matrix defines an inner product.
ip = InnerProduct(space, random_positive_definite(rng, 3, "complex"))
x = random_ket(rng, 3, "complex")
y = random_ket(rng, 3, "complex")
print("(x, y)          :", inner_product(x, y, ip))
print("conjugate flip  :", np.conj(inner_product(y, x, ip)))
print("Cauchy-Schwarz  :", abs(inner_product(x, y, ip)), "<=", norm(x, ip) * norm(y, ip))

# The Riesz covector of x pairs with any y exactly as the inner product.
print("Riesz pairing residual:",
      abs((riesz_map(x, ip) @ y)[0, 0] - inner_product(x, y, ip)))

# Gram-Schmidt with a reorthogonalization pass produces a basis whose
# Gram matrix is the identity.
basis = orthonormalize([random_ket(rng, 3, "complex") for _ in range(3)], ip)
gram = hermitian_conjugate(basis.matrix) @ ip.gram @ basis.matrix
print("orthonormalized Gram residual:", np.max(np.abs(gram - np.eye(3))))

# Adjoints satisfy (adjoint(f) x, y) = (x, f y); with the identity Gram
# matrix the adjoint is just the conjugate transpose.
f = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
fa = adjoint(f, ip)
lhs = inner_product(fa @ x, y, ip)
rhs = inner_product(x, f @ y, ip)
print("adjoint identity residual:", abs(lhs - rhs))

# Hermitian matrices decompose into real eigenvalues and a complete
# system of orthogonal projectors.
h = (f + hermitian_conjugate(f)) / 2
dec = eigen_hermitian(h)
print("eigenvalues:", np.round(dec.eigenvalues, 6))
print("reconstruction residual:", np.linalg.norm(dec.reconstruct() - h))

# The same machinery runs relative to any Gram matrix: selfadjoint
# operators for that inner product get G-orthogonal projector systems.
g_sa = random_g_selfadjoint(rng, ip)
dec_g = spectral_representation(g_sa, ip)
p0 = dec_g.projectors[0]
print("projector is G-selfadjoint:", np.allclose(adjoint(p0, ip), p0))
print("projectors complete:",
      np.allclose(sum(dec_g.projectors), np.eye(3)))

# Operators preserving the inner product form the unitary group.
q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
u = ip.frame @ q @ ip.frame_inv
print("is unitary w.r.t. ip:", is_unitary_wrt(u, ip))
