"""Independent numerical oracles used to certify the library's special
functions and determinant identities.  Every oracle here computes the target
quantity by a route disjoint from the library implementation: truncated
lattice products, mpmath theta series, brute-force LU determinants, and
finite-difference Hamiltonian vector fields and coupling derivatives.  The
exceptions are theta_series_reference, the library's former unreduced theta
series, and sigma_argument_moments_reference and jsonify_reference, frozen
copies of library code that its rewrites must reproduce.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def sigma_lattice_product(z, omega1, omega2, radius=40):
    """Weierstrass sigma via its truncated Hadamard product

        sigma(z) = z * prod_{w in Lambda*} (1 - z/w) exp(z/w + z^2/(2 w^2))

    over lattice points with max(|m|,|n|) <= radius.  Converges slowly but
    is implementation-independent; accuracy improves with radius.
    """
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    total = mp.mpc(z)
    logsum = mp.mpc(0)
    zm = mp.mpc(z)
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            if m == 0 and n == 0:
                continue
            w = m * mp.mpc(omega1) + n * mp.mpc(omega2)
            r = zm / w
            logsum += mp.log(1 - r) + r + r * r / 2
    return complex(total * mp.exp(logsum))


def theta1_mpmath(z, tau, order=0):
    """d^order/dz^order of theta[1/2;1/2](z|tau) through mpmath's jtheta:
    theta[1/2;1/2](z|tau) = -jtheta(1, pi z, q) with q = exp(i pi tau)."""
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex(-(mp.pi**order) * mp.jtheta(1, mp.pi * mp.mpc(z), q, derivative=order))


def weierstrass_mpmath(z, omega1, omega2, dps=50):
    """(sigma, zeta, wp, wp') at z on the lattice of the periods (omega1,
    omega2), in the given basis, through mpmath's jtheta at dps digits:

        sigma = omega1 exp(eta_hat x^2) theta1(x)/theta1'(0),  x = z/omega1,
        eta_hat = -theta1^(3)(0)/(6 theta1'(0)),
        zeta = (2 eta_hat x + theta1'(x)/theta1(x))/omega1,
        wp = (-2 eta_hat - (log theta1)^(2)(x))/omega1^2,
        wp' = -(log theta1)^(3)(x)/omega1^3.

    sigma is an mpmath number, which may lie outside the range of a double;
    the others are complex."""
    with mp.workdps(dps):
        o1, o2, x = mp.mpc(omega1), mp.mpc(omega2), mp.mpc(z) / mp.mpc(omega1)
        q = mp.exp(1j * mp.pi * o2 / o1)

        def theta1(u, order):
            return mp.pi**order * mp.jtheta(1, mp.pi * u, q, derivative=order)

        eta_hat = -theta1(0, 3) / (6 * theta1(0, 1))
        t0, t1, t2, t3 = (theta1(x, o) for o in range(4))
        s = o1 * mp.exp(eta_hat * x * x) * t0 / theta1(0, 1)
        ze = (2 * eta_hat * x + t1 / t0) / o1
        wpv = (-2 * eta_hat - (t2 * t0 - t1**2) / t0**2) / o1**2
        dwp = -(t3 / t0 - 3 * t1 * t2 / t0**2 + 2 * (t1 / t0) ** 3) / o1**3
        return +s, complex(ze), complex(wpv), complex(dwp)


def hasegawa_mpmath(q, P, hbar, z, omega1, omega2):
    """The Hasegawa RS Lax matrix from weierstrass_mpmath's sigma:
    L_kk' = exp(P_k) sigma(z + hbar + q_k - q_k')/sigma(z)
            * prod_{l != k} sigma(hbar + q_l - q_k')/sigma(q_l - q_k)."""

    def sig(v):
        return weierstrass_mpmath(v, omega1, omega2)[0]

    n = len(q)
    L = np.empty((n, n), dtype=complex)
    for k in range(n):
        for kp in range(n):
            v = mp.exp(P[k]) * sig(z + hbar + q[k] - q[kp]) / sig(z)
            for l in range(n):
                if l != k:
                    v *= sig(hbar + q[l] - q[kp]) / sig(q[l] - q[k])
            L[k, kp] = complex(v)
    return L


def theta_series_mpmath(a, b, z, tau, dps=60):
    """theta[a;b](z|tau) by direct summation in mpmath at dps digits of

        sum_k exp(i pi tau (k+a)^2 + 2 pi i (k+a)(z+b))

    over the indices k around the largest term, whose position also
    accounts for a complex characteristic a, out to where the terms fall
    below 10^-dps of it.  For small Im tau the terms cancel to about
    exp(-pi/(4 Im tau)) of the largest, 1e-34 at Im tau = 0.01, within the
    default 60 digits."""
    with mp.workdps(dps):
        a, b, z, tau = (mp.mpc(v) for v in (a, b, z, tau))
        center = -a.real - (mp.im(z + b) + tau.real * a.imag) / tau.imag
        k0 = int(mp.nint(center))
        terms = int(mp.ceil(mp.sqrt(dps * mp.log(10) / (mp.pi * tau.imag)))) + 2
        return complex(
            mp.fsum(
                mp.exp(1j * mp.pi * tau * (k + a) ** 2 + 2j * mp.pi * (k + a) * (z + b))
                for k in range(k0 - terms, k0 + terms + 1)
            )
        )


def theta_series_reference(a, b, z, tau, order=0):
    """rslax.elliptic._theta_series as it was when it summed the unreduced
    series over a widening index window, kept as an oracle of theta_char
    where Im tau is moderate; ValueError where it needs more than 200
    terms.  Non-finite arguments are outside its domain.
    """
    tau = complex(tau)
    a = complex(a)
    b = complex(b)
    zarr = np.asarray(z, dtype=complex)
    zb = zarr.reshape(1, -1) + b
    centers = -a.real - zb.imag / tau.imag
    base_width = math.ceil(math.sqrt(40.0 / (math.pi * tau.imag))) + 2
    kmin = math.floor(centers.min()) - base_width
    kmax = math.ceil(centers.max()) + base_width
    powers = np.atleast_1d(order)[:, None]
    while True:
        if kmax - kmin + 1 > 200:
            raise ValueError("theta series needs more than 200 terms")
        ks = np.arange(kmin, kmax + 1, dtype=float)[:, None] + a
        gauss = 1j * np.pi * tau * ks**2
        w = 2j * np.pi * ks
        absw = np.abs(w).T
        base = np.exp(gauss + w * zb)
        mags = np.abs(base).max(axis=1) * absw**powers
        if (np.maximum(mags[:, 0], mags[:, -1]) <= 1e-16 * mags.max(axis=1)).all():
            break
        kmin -= 4
        kmax += 4

    def total(o):
        t = (base * w**o if o else base).sum(axis=0)
        return complex(t[0]) if zarr.ndim == 0 else t.reshape(zarr.shape)

    return total(order) if isinstance(order, int) else tuple(map(total, order))


def theta1_prime0_mpmath(tau):
    """d/dz theta[1/2;1/2](z|tau) at z = 0 via mpmath (chain rule in pi z)."""
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex(-mp.pi * mp.jtheta(1, mp.mpf(0), q, derivative=1))


def wp_mpmath(z, omega1, omega2):
    """Weierstrass p-function by central differences of -log sigma, using
    the lattice-product sigma (slow; small radius acceptable for 1e-5)."""
    h = 1e-4
    vals = {}
    for dz in (-h, 0.0, h):
        vals[dz] = mp.log(mp.mpc(sigma_lattice_product(z + dz, omega1, omega2, radius=30)))
    return complex(-(vals[h] - 2 * vals[0.0] + vals[-h]) / (h * h))


def brute_determinant(M):
    """LU determinant through numpy; the 'direct' side of closed-form
    determinant identities."""
    return complex(np.linalg.det(np.asarray(M, dtype=complex)))


def brute_minor(M, k, l):
    """Determinant of M with 1-based row k and column l removed."""
    M = np.asarray(M, dtype=complex)
    rows = [i for i in range(M.shape[0]) if i != k - 1]
    cols = [j for j in range(M.shape[1]) if j != l - 1]
    return complex(np.linalg.det(M[np.ix_(rows, cols)]))


H_FD = 2e-4


def fd_vector_field(spec, point, conf, h=H_FD):
    """Hamilton's equations (dH/dp, -dH/dq) by the 5-point stencil
    (f(-2h) - 8 f(-h) + 8 f(h) - f(2h))/(12 h) of rslax.dynamics.hamiltonian
    along the real axis (the Hamiltonians are holomorphic)."""
    from rslax import dynamics, lax

    weights = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}
    q = np.asarray(point.q, dtype=complex)
    p = np.asarray(point.p, dtype=complex)

    def H(qv, pv):
        conf_v = lax.rs_config(
            qv, pv, conf.hbar, conf.lat, mu=conf.mu, q_inf=conf.q_inf, q_zero=conf.q_zero
        )
        return dynamics.hamiltonian(spec, conf_v)

    def partial(i, along_p):
        total = 0.0
        for k, w in weights.items():
            e = np.zeros(q.size)
            e[i] = k * h
            total += w * (H(q, p + e) if along_p else H(q + e, p))
        return total / h

    dq = np.array([partial(i, True) for i in range(q.size)], dtype=complex)
    dp = np.array([-partial(i, False) for i in range(q.size)], dtype=complex)
    return dq, dp


def flow_drift_reference(build, z, conf, points):
    """Spectral drift of each of a flow's points from the first, point by
    point: the public Lax builder build(conf', z) at each point (conf with
    the point's q and P), np.linalg.eigvals of each matrix, and the largest
    deviation over the optimal pairing of each spectrum with the first
    (scipy's linear_sum_assignment)."""
    from scipy.optimize import linear_sum_assignment

    from rslax import lax

    spectra = []
    for pt in points:
        conf_v = lax.rs_config(
            pt.q, pt.p, conf.hbar, conf.lat, mu=conf.mu, q_inf=conf.q_inf, q_zero=conf.q_zero
        )
        spectra.append(np.linalg.eigvals(build(conf_v, z).entries))
    drifts = []
    for ev in spectra:
        d = spectra[0][:, None] - ev[None, :]
        cost = np.hypot(d.real, d.imag)
        rows, cols = linear_sum_assignment(cost)
        drifts.append(float(cost[rows, cols].max()))
    return drifts


def rational_trace_flow(q0, P0, hbar, z, t):
    """Positions at time t of the flow of H = Tr L, L the rational Hasegawa
    matrix at the spectral point z, from (q0, P0), by the projection method:
    the eigenvalues of diag(q0) + t (z + hbar)/z L0, with

        L0_kk' = exp(P_k) prod_{l != k} (hbar + q_l - q_k')/(q_l - q_k),

    the Hasegawa matrix without its factor (z + hbar + q_k - q_k')/z
    (Ruijsenaars, CMP 115 (1988))."""
    q0 = np.asarray(q0, dtype=complex)
    n = q0.size
    L0 = np.empty((n, n), dtype=complex)
    for k in range(n):
        for kk in range(n):
            others = [l for l in range(n) if l != k]
            L0[k, kk] = np.exp(P0[k]) * np.prod(
                [(hbar + q0[l] - q0[kk]) / (q0[l] - q0[k]) for l in others]
            )
    return np.linalg.eigvals(np.diag(q0) + t * (z + hbar) / z * L0)


def fd_coupling_derivative(conf, z, h=1e-3):
    """d/dhbar at hbar = 0 of the momentum-free RS transport matrix
    rslax.lax.composition_lax (P = 0) at the positions and lattice of the CM
    configuration conf, by the 4th-order stencil (f(-2h) - 8 f(-h) + 8 f(h)
    - f(2h))/(12 h).  It is the factorized CM matrix less diag(p)."""
    from rslax import lax

    weights = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}
    zeros = [0.0] * conf.n
    total = 0.0
    for k, w in weights.items():
        total = total + w * lax.composition_lax(lax.rs_config(conf.q, zeros, k * h, conf.lat), z).entries
    return total / h


def sigma_argument_moments_reference(q, hbar, z):
    """The per-entry moment loop rslax.limits used before its closed form:
    Delta1 = sum(num args) - sum(den args) and Delta2 of their squares, for
    the sigma arguments of the RS Lax entry

        L_{kk'} = sigma(z+h+q_k-q_k') prod_{l!=k} sigma(h+q_l-q_k')
                  / ( sigma(z) prod_{l!=k} sigma(q_l-q_k) ).
    """
    q = np.asarray(q, dtype=complex)
    n = q.size
    delta1 = np.zeros((n, n), dtype=complex)
    delta2 = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for kp in range(n):
            num = [z + hbar + q[k] - q[kp]] + [
                hbar + q[l] - q[kp] for l in range(n) if l != k
            ]
            den = [z] + [q[l] - q[k] for l in range(n) if l != k]
            delta1[k, kp] = sum(num) - sum(den)
            delta2[k, kp] = sum(w * w for w in num) - sum(w * w for w in den)
    return delta1, delta2


def jsonify_reference(obj):
    """rslax.cli's payload conversion from before its JSON writer became one
    serializer: complex numbers as {"re", "im"}, numpy scalars through
    .item(), ndarrays through .tolist(), tuples as lists.  Kept as the
    reference of that writer, whose bytes must equal
    json.dumps(jsonify_reference(obj), sort_keys=True, indent=2,
    allow_nan=False) + "\n" in UTF-8."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonify_reference(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: jsonify_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify_reference(x) for x in obj]
    return obj
