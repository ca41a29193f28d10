"""Building the Ruijsenaars-Schneider Lax matrices three ways.

hasegawa_lax evaluates the entrywise sigma-quotient formula directly;
composition_lax builds the same matrix from a factorization through two
elliptic Cauchy matrices.  They agree entrywise, collapse to diag(e^P) at
zero coupling, and the Ruijsenaars variant is related by an eigenvalue
correspondence.  The spin variant generalizes the framing vectors, and
cm_lax gives the Calogero-Moser matrix.
"""

import numpy as np

from rslax import elliptic, lax

lat = elliptic.lattice_from_periods(1.0, 0.3 + 2.2j)
z = 0.19 + 0.27j
q = [0.12 + 0.02j, 0.47 - 0.03j, 0.81 + 0.01j]
P = [0.2, -0.1, 0.05]
conf = lax.rs_config(q, P, 0.11 + 0.04j, lat)

A = lax.hasegawa_lax(conf, z).entries
B = lax.composition_lax(conf, z).entries
print(f"entrywise formula vs Cauchy factorization: max |diff| = {np.max(np.abs(A - B)):.2e}")

conf0 = lax.rs_config(q, P, 0.0, lat)
L0 = lax.hasegawa_lax(conf0, z).entries
print(f"zero coupling collapse to diag(e^P): max |diff| = {np.max(np.abs(L0 - np.diag(np.exp(P)))):.2e}")

# Ruijsenaars matrix: same spectrum as the geometric matrix up to the
# scalar sigma(z + hbar)/sigma(z), evaluated at lam = z + hbar.
mom = lax.ruijsenaars_equivalent_momenta(conf)
conf_r = lax.rs_config(q, mom, conf.hbar, lat, mu=conf.hbar)
Lr = lax.ruijsenaars_lax(conf_r, z + conf.hbar).entries
scale = elliptic.sigma(z + conf.hbar, lat) / elliptic.sigma(z, lat)
evA = np.sort_complex(np.linalg.eigvals(A))
evR = np.sort_complex(scale * np.linalg.eigvals(Lr))
print(f"Ruijsenaars eigenvalue correspondence: max |diff| = {np.max(np.abs(evA - evR)):.2e}")

# Spin generalization: unit rank-one framing reproduces the spinless matrix.
n = conf.n
ones = np.ones((n, 1))
confP0 = lax.rs_config(q, [0.0] * n, conf.hbar, lat)
Ls = lax.spin_lax(confP0, lax.SpinFraming(1, ones, ones.T, ones, ones.T), z).entries
print(f"spin k=1 unit framing vs spinless: max |diff| = {np.max(np.abs(Ls - lax.hasegawa_lax(confP0, z).entries)):.2e}")

# Calogero-Moser Lax matrix, rational kind, with and without the spectral
# parameter.
cmc = lax.cm_config([0.0, 1.0, 2.5], [0.3, -0.2, 0.1], 0.7, elliptic.rational_lattice())
print("rational CM Lax (spectral-free):")
print(np.array_str(lax.cm_lax(cmc, None).entries, precision=4))
