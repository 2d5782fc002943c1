#!/usr/bin/env python3
"""Indefinite forms, signatures, Dirac conjugation, and pseudo-unitary groups.

Run directly: python3 demos/05_indefinite_metrics_and_dirac.py
"""

import numpy as np

from kreinalg import (
    canonical_projectors,
    compatible_structure_from_hform,
    dirac_adjoint_operator,
    dirac_adjoint_vector,
    dirac_spectral,
    h_orthonormal_basis,
    hform_value,
    inner_product,
    is_dirac_selfadjoint,
    is_pseudo_orthogonal,
    is_pseudo_unitary,
    minkowski_structure,
)
from kreinalg.generators import (
    lorentz_boost,
    random_dirac_selfadjoint,
    random_ket,
    random_nondegenerate_hform,
    random_pseudo_unitary,
)

rng = np.random.default_rng(17)

# A non-degenerate Hermitian form need not be definite.  Splitting its
# eigenvalues into magnitudes and signs synthesizes a compatible inner
# product and a metric operator squaring to the identity.
k = random_nondegenerate_hform(rng, 4, "complex", n_plus=2)
ms = compatible_structure_from_hform(k)
print("signature:", ms.signature)
print("h@h residual:", np.linalg.norm(ms.h @ ms.h - np.eye(4)))

x = random_ket(rng, 4, "complex")
y = random_ket(rng, 4, "complex")
print("H(x,y) vs (x, h y):", abs(hform_value(x, y, ms) - inner_product(x, ms.h @ y, ms.ip)))

# The metric splits the space into two orthogonal subspaces.
p_plus, p_minus = canonical_projectors(ms)
split = hform_value(x, p_plus @ y, ms) - hform_value(x, p_minus @ y, ms)
print("(x,y) = H(x,p+y) - H(x,p-y) residual:", abs(inner_product(x, y, ms.ip) - split))

# In an h-orthonormal basis the form becomes diag(+1.., -1..).
hb = h_orthonormal_basis(ms)
b = hb.basis.matrix
print("canonical diagonal:\n",
      np.round(np.conj(b.T) @ ms.hform.matrix @ b, 9).real)

# The Dirac adjoint of a vector pairs as the indefinite form; for the
# identity metric it collapses to the ordinary conjugate row.
print("Dirac pairing residual:", abs((dirac_adjoint_vector(x, ms) @ y)[0, 0] - hform_value(x, y, ms)))

# Dirac-selfadjoint operators have a spectral form f = sum of l * p * h.
f = random_dirac_selfadjoint(rng, ms)
print("Dirac selfadjoint:", is_dirac_selfadjoint(f, ms))
dec = dirac_spectral(f, ms)
print("spectrum of the selfadjoint partner:", np.round(dec.eigenvalues, 6))
print("reconstruction residual:", np.linalg.norm(dec.reconstruct() - f))

# Operators preserving the form make up the pseudo-unitary group; their
# real cousins for the Minkowski metric are the Lorentz transformations.
mink = minkowski_structure(1, 3)
boost = lorentz_boost(0.9, dim=4)
print("boost pseudo-orthogonal:", is_pseudo_orthogonal(boost, mink))
u = random_pseudo_unitary(rng, 2, 2, "complex")
ms22 = minkowski_structure(2, 2, field="complex")
print("random member pseudo-unitary:", is_pseudo_unitary(u, ms22))
fbar = dirac_adjoint_operator(u, ms22)
print("Dirac adjoint inverts it:", np.linalg.norm(fbar @ u - np.eye(4)) < 1e-10)
