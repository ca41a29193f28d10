"""Controlled degenerations: elliptic -> trigonometric and RS -> CM.

As Im tau -> infinity the elliptic Lax matrix converges, after an explicit
scalar gauge factor, to its trigonometric counterpart at exponential rate
in the nome.  As the coupling hbar -> 0 with momenta scaled by hbar, the RS
matrix converges to I + hbar * L_CM at first order.  Both sweeps report the
residual curve and a fitted convergence order.
"""

import numpy as np

from rslax import elliptic, lax, limits

lat = elliptic.lattice_from_periods(1.0, 2.5j)
q = [0.12 + 0.02j, 0.47 - 0.03j]
conf = lax.rs_config(q, [0.2, -0.1], 0.09 + 0.02j, lat)

sweep = limits.degeneration_sweep(conf, [3.0, 5.0, 8.0, 12.0, 20.0])
print("elliptic -> trigonometric degeneration (parameter = Im tau):")
for t, err in zip(sweep.values, sweep.errors):
    print(f"  Im tau = {t:5.1f}   gauge-matched residual = {err:.3e}")
print(f"fitted order in the small parameter exp(-2*pi*Im tau): {sweep.fitted_order:.3f}")

# RS -> CM: scale momenta with hbar and watch (L - I)/hbar approach the CM
# Lax matrix linearly.
cmc = lax.cm_config(q, [0.3, -0.2], 1.0, lat)
sweep2 = limits.cm_limit_sweep(cmc, [1e-2, 5e-3, 2.5e-3, 1.25e-3])
print("\nRS -> CM limit (parameter = hbar):")
for h, err in zip(sweep2.values, sweep2.errors):
    print(f"  hbar = {h:.2e}   |(L - I)/hbar - L_CM| / |L_CM| = {err:.3e}")
print(f"fitted convergence order: {sweep2.fitted_order:.3f}")

# The geometric framing constraint q_zero = q_inf + n*hbar survives the
# limit: its violation is measured modulo the lattice.
print(f"\nframing constraint residual: {limits.framing_constraint_check(conf):.2e}")
