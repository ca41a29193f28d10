"""Tour of the special-function layer.

The Weierstrass sigma function is the basic building block of every matrix
in this package.  This script checks its defining quasi-periodicity on a
random lattice, the Legendre relation between the half-period constants,
and the reduction of sigma to sin(z) and z in the trigonometric and
rational degenerations.
"""

import numpy as np

from rslax import elliptic

lat = elliptic.lattice_from_periods(1.0, 0.3 + 2.1j)
print(f"lattice: omega1 = {lat.omega1}, omega2 = {lat.omega2}, tau = {lat.tau}")

# sigma(z + 2*omega) = -exp(2*eta*(z + omega)) * sigma(z): the function is
# quasi-periodic, picking up an exponential factor across each period.
z = 0.23 + 0.11j
for name, om, eta in (("omega1", lat.omega1, lat.eta1), ("omega2", lat.omega2, lat.eta2)):
    lhs = elliptic.sigma(z + om, lat)
    rhs = -np.exp(2 * eta * (z + om / 2)) * elliptic.sigma(z, lat)
    print(f"quasi-periodicity across {name}: |lhs - rhs| = {abs(lhs - rhs):.2e}")

# The two quasi-period constants are tied together by the Legendre relation
# eta1*omega2 - eta2*omega1 = i*pi (for half-periods omega1, omega2).
print(f"Legendre relation residual: {elliptic.legendre_residual(lat):.2e}")

# wp = -(log sigma)'' is the Weierstrass elliptic function; verify by a
# central finite difference of log sigma.
h = 1e-4
logs = [np.log(elliptic.sigma(z + dz, lat)) for dz in (-h, 0.0, h)]
fd = -(logs[2] - 2 * logs[1] + logs[0]) / h**2
print(f"wp(z) vs -(log sigma)'': |diff| = {abs(elliptic.wp(z, lat) - fd):.2e}")

# Trigonometric and rational kinds: sigma collapses to sin(z) and z.
print(f"trig sigma(0.7) - sin(0.7) = {elliptic.sigma(0.7, elliptic.trig_lattice()) - np.sin(0.7):.2e}")
print(f"rational sigma(0.7) - 0.7  = {elliptic.sigma(0.7, elliptic.rational_lattice()) - 0.7:.2e}")

# Any entire function with the same quasi-periodicity factors is a theta
# function with characteristics up to a Gaussian prefactor, here in closed form.
fit = elliptic.fit_trivial_theta(elliptic.ThetaCharacteristic(0.0, 0.0), lat)
print(f"sigma as a dressed theta[1/2;1/2]: gauge exponents A = {fit.A:.3e}, B = {fit.B:.6f}")
