"""Elliptic Cauchy matrices and their closed-form determinants.

The matrix F(lam)_{ij} = sigma(lam + q_i - r_j) / (sigma(lam) sigma(q_i - r_j))
has a product-form determinant (the elliptic generalization of the Cauchy
determinant).  This script compares the closed form against LU, checks the
minor formula, and demonstrates the det-ratio route to F(z)^{-1} F(z + u).
"""

import numpy as np

from rslax import elliptic
from rslax.cauchy import (
    CauchyMatrixSpec,
    build_elliptic_cauchy,
    frobenius_determinant,
    minor_determinant,
    shifted_inverse_product,
)

rng = np.random.default_rng(0)
lat = elliptic.lattice_from_periods(1.0, 0.3 + 2.1j)
n = 4
qs = np.arange(n) * 0.45 + 0.1j * rng.normal(size=n)
rs = qs + 0.13 + 0.06j
spec = CauchyMatrixSpec(tuple(qs), tuple(rs), lat)
lam = 0.21 + 0.17j

F = build_elliptic_cauchy(spec, lam).entries
closed = frobenius_determinant(spec, lam)
print(f"det via LU:          {np.linalg.det(F)}")
print(f"det via closed form: {closed}")

# Every (k, l) minor also has a product form.
k, l = 2, 3
rows = [i for i in range(n) if i != k - 1]
cols = [j for j in range(n) if j != l - 1]
brute = np.linalg.det(F[np.ix_(rows, cols)])
print(f"minor ({k},{l}) closed vs brute: |diff| = {abs(minor_determinant(spec, lam, k, l) - brute):.2e}")

# F(z)^{-1} F(z+u) entrywise as a ratio of two determinants, no inversion.
def F_of(z):
    return build_elliptic_cauchy(spec, z).entries

z, u = 0.31 + 0.22j, 0.05 - 0.02j
direct = shifted_inverse_product(F_of, z, u, method="solve").entries
ratio = shifted_inverse_product(F_of, z, u, method="det_ratio").entries
print(f"shifted inverse-product, solve vs det-ratio: max |diff| = {np.max(np.abs(direct - ratio)):.2e}")
