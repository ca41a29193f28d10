"""Independent numerical oracles used to certify the library's special
functions and determinant identities.  Every oracle here computes the target
quantity by a route disjoint from the library implementation: truncated
lattice products, mpmath theta series, brute-force LU determinants, and
finite-difference Hamiltonian vector fields and coupling derivatives.  The
exceptions are theta_series_reference, the library's former unreduced theta
series, and sigma_argument_moments_reference, jsonify_reference and the
*_reference special functions, Lax builders, limit sweeps and
reductions, and report_json_reference, frozen copies of library code that
its rewrites must reproduce.
"""

from __future__ import annotations

import dataclasses
import json
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
        s, ze, wpv, dwp = _weierstrass_mp(z, omega1, omega2)
        return +s, complex(ze), complex(wpv), complex(dwp)


def _weierstrass_mp(z, omega1, omega2):
    """weierstrass_mpmath's four values as mpmath numbers at the working
    precision."""
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
    return s, ze, wpv, dwp


def sigma_quotient_mpmath(num, den, lat, dps=50):
    """(log, size): the log of prod sigma(num) / prod sigma(den) on the
    rslax Lattice lat at dps digits (weierstrass_mpmath, sin or z), an
    mpmath number on any branch, and the sum of |log sigma| over those
    factors, a float.  size is inf, and log None, where an elliptic argument
    lies more than 1000 reduced periods out: |log sigma| there exceeds 1e6,
    and mpmath sums theta there slowly."""
    if lat.kind == "elliptic" and max(map(abs, (*num, *den))) > 1e3 * abs(lat.red_omega1):
        return None, math.inf
    sigma = {
        "elliptic": lambda v: _weierstrass_mp(v, lat.omega1, lat.omega2)[0],
        "trigonometric": mp.sin,
        "rational": mp.mpc,
    }[lat.kind]
    with mp.workdps(dps):
        logs = [mp.log(sigma(mp.mpc(v))) for v in (*num, *den)]
        return mp.fsum(logs[: len(num)]) - mp.fsum(logs[len(num) :]), float(mp.fsum(map(abs, logs)))


def ruijsenaars_equivalent_momenta_mpmath(conf, dps=50):
    """(theta, size): the exponents of rslax.lax.ruijsenaars_equivalent_momenta
    at dps digits, principal, with each log f^2 principal before halving
    (sigma_quotient_mpmath), and per exponent |P_k| plus the sum of |log
    sigma| over its factors, halved for those of f^2."""
    q, h, n = conf.q, conf.hbar, conf.n
    theta, sizes = [], []
    with mp.workdps(dps):
        for k in range(n):
            others = [l for l in range(n) if l != k]
            num = [h + q[l] - q[k] for l in range(n)]
            den = [q[l] - q[k] for l in others] + [h]
            log, size = sigma_quotient_mpmath(num, den, conf.lat, dps)
            for l in others:
                d = q[k] - q[l]
                log_f2, f2_size = sigma_quotient_mpmath([d + h, d - h], [d, d], conf.lat, dps)
                log -= mp.log(mp.exp(log_f2)) / 2
                size += f2_size / 2
            theta.append(complex(mp.log(mp.exp(conf.P[k] + log))))
            sizes.append(size + abs(conf.P[k]))
    return np.array(theta), np.array(sizes)


def frobenius_factors(qs, rs, lam):
    """(num, den): the arguments of the sigma factors of the Frobenius
    determinant of the elliptic Cauchy matrix of (qs, rs) at lam."""
    q, r = np.asarray(qs, dtype=complex), np.asarray(rs, dtype=complex)
    iu = np.triu_indices(q.size, k=1)
    num = [lam + np.sum(q - r), *(q[:, None] - q)[iu], *(r - r[:, None])[iu]]
    return num, [lam, *(q[:, None] - r).ravel()]


def assert_log_form(got, log, size):
    """got, a complex, is exp(log) within 4 eps size, relative: the rounding
    bound of a sigma quotient summed in log form, for (log, size) of
    sigma_quotient_mpmath; log must lie in the range of the doubles."""
    want = complex(mp.exp(log))
    assert want != 0 and np.isfinite(want)
    assert abs(got - want) <= 4 * np.finfo(float).eps * size * abs(want)


def ruijsenaars_mpmath(q, P, mu, lam, periods=None, kind="elliptic", dps=50):
    """The Ruijsenaars RS Lax matrix

        L'_ij = exp(P_i) prod_{l != i} f(q_i - q_l)
                * sigma(q_i - q_j + lam) sigma(mu) / (sigma(lam) sigma(q_i - q_j + mu))

    and its f(q_i - q_l)^2 = sigma(mu)^2 (wp(mu) - wp(q_i - q_l)) over
    i != l (row-major), at dps digits, with the principal square root of f^2
    taken factor by factor.  sigma and wp are those of weierstrass_mpmath on
    the lattice of periods, or the closed forms sin(z), 1/sin(z)^2 of the
    trigonometric kind and z, 1/z^2 of the rational kind."""
    with mp.workdps(dps):
        if kind == "elliptic":
            def sw(z):
                return _weierstrass_mp(z, *periods)[::2]
        elif kind == "trig":
            def sw(z):
                return mp.sin(mp.mpc(z)), 1 / mp.sin(mp.mpc(z)) ** 2
        else:
            def sw(z):
                return mp.mpc(z), 1 / mp.mpc(z) ** 2
        n = len(q)
        s_mu, wp_mu = sw(mu)
        f2 = [s_mu**2 * (wp_mu - sw(q[i] - q[l])[1]) for i in range(n) for l in range(n) if l != i]
        L = np.empty((n, n), dtype=complex)
        for i in range(n):
            row = mp.exp(P[i]) * mp.fprod(mp.sqrt(v) for v in f2[i * (n - 1) : (i + 1) * (n - 1)])
            for j in range(n):
                d = q[i] - q[j]
                L[i, j] = complex(row * sw(d + lam)[0] * s_mu / (sw(lam)[0] * sw(d + mu)[0]))
        return L, np.array([complex(v) for v in f2])


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


def report_json_reference(report):
    """The bytes of report.json as rslax.cli.main wrote them before the
    report became a plain dict: the JSON of dataclasses.asdict(report)."""
    return (json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# The Lax builders and limit sweeps as they were when each special-function
# value came from its own public sigma, zeta or lattice_distance call: the
# references of their one-pass rewrites, for values and for the order in
# which their checks raise.


def build_elliptic_cauchy_reference(spec, lam):
    """rslax.cauchy.build_elliptic_cauchy, one public call per value."""
    from rslax import elliptic
    from rslax.cauchy import SpectralMatrix
    from rslax.errors import DegenerateConfiguration, PoleAtLattice

    lat = spec.lat
    diffs = np.asarray(spec.qs, dtype=complex)[:, None] - np.asarray(spec.rs, dtype=complex)[None, :]
    if np.min(elliptic.lattice_distance(diffs, lat)) < elliptic.POLE_TOL:
        raise DegenerateConfiguration(
            "some q_i - r_j is within the distinctness threshold of the lattice"
        )
    lam = complex(lam)
    if elliptic.lattice_distance(lam, lat) < elliptic.POLE_TOL:
        raise PoleAtLattice("spectral parameter lam is on the lattice")
    entries = elliptic.sigma(lam + diffs, lat) / (
        elliptic.sigma(lam, lat) * elliptic.sigma(diffs, lat)
    )
    return SpectralMatrix(spec.n, entries, lam)


def _transport_diagonals_reference(conf):
    from rslax import cauchy, elliptic, lax

    D = cauchy._pairwise_diffs(conf.q, conf.q)
    S3 = np.atleast_2d(elliptic.sigma(D, conf.lat))
    prod_den = np.diag(lax._exclusive_products(S3))
    col = np.prod(np.atleast_2d(elliptic.sigma(conf.hbar + D, conf.lat)), axis=0)
    return prod_den, col


def composition_lax_reference(conf, z):
    """rslax.lax.composition_lax, one public call per value: the Cauchy
    matrix of (q + hbar, q) scaled by its row and column diagonals."""
    from rslax import elliptic
    from rslax.cauchy import CauchyMatrixSpec, SpectralMatrix

    lat, hbar, n = conf.lat, conf.hbar, conf.n
    if elliptic.lattice_distance(hbar, lat) < elliptic.POLE_TOL:
        return SpectralMatrix(n, np.diag(np.exp(np.asarray(conf.P, dtype=complex))), complex(z))
    qs = tuple(qq + hbar for qq in conf.q)
    C = build_elliptic_cauchy_reference(CauchyMatrixSpec(qs, conf.q, lat), z)
    prod_den, col = _transport_diagonals_reference(conf)
    expP = np.exp(np.asarray(conf.P, dtype=complex))
    entries = (expP / prod_den)[:, None] * C.entries * col[None, :]
    return SpectralMatrix(n, entries, complex(z))


def _off_lattice_reference(lat, **points):
    from rslax import elliptic
    from rslax.errors import PoleAtLattice

    for what, val in points.items():
        if np.min(elliptic.lattice_distance(val, lat)) < elliptic.POLE_TOL:
            raise PoleAtLattice(f"{what} is on the lattice")


def krichever_lax_reference(conf, z, lam):
    """rslax.lax.krichever_lax, one public call per value."""
    from rslax import cauchy, elliptic, lax
    from rslax.cauchy import SpectralMatrix
    from rslax.errors import ZeroMu

    lat, mu = conf.lat, conf.mu
    z, lam = complex(z), complex(lam)
    if abs(mu) < 1e-12:
        raise ZeroMu("krichever matrix requires mu != 0")
    D = cauchy._pairwise_diffs(conf.q, conf.q)
    _off_lattice_reference(
        lat, **{"lam + mu": lam + mu, "z - mu": z - mu, "z + mu": z + mu, "q_i - q_j - mu": D - mu}
    )
    ratio = elliptic.sigma(z - mu, lat) / elliptic.sigma(z + mu, lat)
    power = np.exp((D - mu) / (2.0 * mu) * np.log(ratio))
    entries = (
        elliptic.sigma(lam + D, lat)
        / (elliptic.sigma(lam + mu, lat) * elliptic.sigma(D - mu, lat))
        * power
    )
    return SpectralMatrix(conf.n, np.atleast_2d(entries), lam)


def factorized_cm_lax_reference(conf, z):
    """rslax.lax.factorized_cm_lax, one public call per value."""
    from rslax import cauchy, elliptic, lax
    from rslax.cauchy import SpectralMatrix
    from rslax.errors import DegenerateConfiguration

    lat = conf.lat
    if lat.kind != elliptic.KIND_ELLIPTIC:
        raise DegenerateConfiguration("factorized CM matrix requires an elliptic lattice")
    z = complex(z)
    n = conf.n
    D = cauchy._pairwise_diffs(conf.q, conf.q)
    zetas = elliptic.zeta(np.append(z, D.T[~np.eye(n, dtype=bool)]), lat)
    S, A = elliptic.sigma(np.stack([D, z + D]), lat)
    np.fill_diagonal(S, 1.0)
    c = S.prod(axis=0)
    T = A / (elliptic.sigma(z, lat) * S) * c / c[:, None]
    np.fill_diagonal(T, zetas[0] + zetas[1:].reshape(n, n - 1).sum(axis=1))
    return SpectralMatrix(n, np.diag(np.asarray(conf.p, dtype=complex)) + T, z)


def cm_lax_reference(conf, lam):
    """rslax.lax.cm_lax on an elliptic or trigonometric lattice with a
    spectral parameter, one public call per value."""
    from rslax import cauchy, elliptic, lax
    from rslax.cauchy import SpectralMatrix

    lat, n = conf.lat, conf.n
    lam = complex(lam)
    _off_lattice_reference(lat, lam=lam)
    off = ~np.eye(n, dtype=bool)
    entries = np.diag(np.asarray(conf.p, dtype=complex))
    if n > 1:
        D = cauchy._pairwise_diffs(conf.q, conf.q)
        entries[off] += (
            conf.g
            * elliptic.sigma(lam - D[off], lat)
            / (elliptic.sigma(D[off], lat) * elliptic.sigma(lam, lat))
        )
    return SpectralMatrix(n, entries, lam)


def ruijsenaars_equivalent_momenta_reference(conf):
    """rslax.lax.ruijsenaars_equivalent_momenta, one public call per value."""
    from rslax import cauchy, elliptic, lax

    n, lat, hbar = conf.n, conf.lat, conf.hbar
    prod_den, col = _transport_diagonals_reference(conf)
    d_row = np.exp(np.asarray(conf.P, dtype=complex)) / prod_den
    sig_h = elliptic.sigma(hbar, lat)
    D = cauchy._pairwise_diffs(conf.q, conf.q)
    _off_lattice_reference(lat, **{"hbar + q_l - q_k": hbar + D})
    d = D.reshape(-1)[lax._pairs(n)[2]]
    plus, minus, zero = (elliptic.sigma(v, lat) for v in (d + hbar, d - hbar, d))
    return np.log(d_row * col / (sig_h * lax._row_f(plus, minus, zero, n)[1]))


def degeneration_sweep_reference(conf, im_tau_values, z=0.17 + 0.23j):
    """rslax.limits.degeneration_sweep with each lattice's configuration
    rebuilt, and so validated, by dataclasses.replace."""
    import dataclasses

    from rslax import elliptic, lax, limits

    values = limits._positive(im_tau_values, "Im(tau)")
    z = complex(z)
    pi = np.pi
    conf_trig = lax.rs_config(
        [pi * v for v in conf.q], conf.P, pi * conf.hbar, elliptic.trig_lattice(),
        mu=pi * conf.mu, q_inf=pi * conf.q_inf, q_zero=pi * conf.q_zero,
    )
    L_trig = lax.hasegawa_lax(conf_trig, pi * z).entries
    delta2 = limits._sigma_argument_second_moment(conf.q, conf.hbar, z)
    errors = []
    for t in values:
        lat_t = elliptic.lattice_from_periods(1.0, 1j * t)
        L_ell = lax.hasegawa_lax(dataclasses.replace(conf, lat=lat_t), z).entries
        pred = np.exp(lat_t.eta1 / lat_t.omega1 * delta2) * L_trig
        errors.append(float(np.linalg.norm(L_ell - pred) / np.linalg.norm(pred)))
    small = [np.exp(-2.0 * pi * t) for t in values]
    return limits.LimitSweep(
        limits.PARAM_IM_TAU, values, tuple(errors), limits._fit_order(small, errors)
    )


def cm_limit_sweep_reference(conf, cmconf, hbar_values, z=0.17 + 0.23j):
    """rslax.limits.cm_limit_sweep with one RS configuration and one
    composition_lax_reference build per hbar."""
    from rslax import lax, limits
    from rslax.errors import DegenerateConfiguration

    values = limits._positive(hbar_values, "hbar")
    if tuple(conf.q) != tuple(cmconf.q):
        raise DegenerateConfiguration("RS and CM configurations must share positions")
    z = complex(z)
    F = factorized_cm_lax_reference(cmconf, z).entries
    normF = np.linalg.norm(F)
    p = np.asarray(cmconf.p, dtype=complex)
    errors = []
    for h in values:
        conf_h = lax.rs_config(conf.q, tuple(h * p), h, conf.lat, q_inf=conf.q_inf)
        L = composition_lax_reference(conf_h, z).entries
        errors.append(float(np.linalg.norm((L - np.eye(conf.n)) / h - F) / normF))
    return limits.LimitSweep(
        limits.PARAM_HBAR, values, tuple(errors), limits._fit_order(values, errors)
    )


# ---------------------------------------------------------------------------
# The public special functions, section_phi and frobenius_determinant as
# they were when each call reduced and checked its own arguments, before
# they read through elliptic._Batch: the references of the batch route, for
# values, Python types, shapes and errors.


def _entry_reference(z, lat):
    from rslax import elliptic
    from rslax.errors import NonConvergent

    zarr = np.asarray(z, dtype=complex)
    if not np.isfinite(zarr).all():
        raise NonConvergent("special function argument is not finite")
    return elliptic._reduce(zarr.reshape(-1), lat)


def _shaped_reference(out, z):
    return out[0].item() if np.ndim(z) == 0 else out.reshape(np.shape(z))


def lattice_distance_reference(z, lat):
    """rslax.elliptic.lattice_distance, reduced per call."""
    from rslax import elliptic

    return _shaped_reference(elliptic._distance(_entry_reference(z, lat), lat), z)


def sigma_reference(z, lat):
    """rslax.elliptic.sigma, reduced and evaluated per call."""
    from rslax import elliptic
    from rslax.errors import ValueOverflow

    args = _entry_reference(z, lat)
    out = np.empty(args.x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        elliptic._sigma_orders(args, lat, out)
    if not np.isfinite(out).all():
        raise ValueOverflow("sigma is too large for a double")
    return _shaped_reference(out, z)


def _pole_free_reference(z, lat, what, fn):
    from rslax import elliptic
    from rslax.errors import PoleAtLattice

    args = _entry_reference(z, lat)
    if elliptic._distance(args, lat).min() < elliptic.POLE_TOL:
        raise PoleAtLattice(f"{what} argument within {elliptic.POLE_TOL} of a lattice point")
    return _shaped_reference(fn(args, lat), z)


def zeta_reference(z, lat):
    """rslax.elliptic.zeta, reduced and checked per call."""
    from rslax import elliptic

    return _pole_free_reference(z, lat, "zeta", elliptic._zeta)


def wp_reference(z, lat):
    """rslax.elliptic.wp, reduced and checked per call."""
    from rslax import elliptic

    return _pole_free_reference(z, lat, "wp", elliptic._wp)


def section_phi_reference(q, z, lat):
    """rslax.elliptic.section_phi, one per-call reference per value."""
    from rslax import elliptic
    from rslax.errors import PoleAtLattice, ValueOverflow

    if np.min(lattice_distance_reference(z, lat)) < elliptic.POLE_TOL:
        raise PoleAtLattice("section_phi evaluated at a lattice pole")
    num, den = sigma_reference(np.asarray(z) - q, lat), sigma_reference(z, lat)
    if np.any(den == 0):
        raise ValueOverflow("1/sigma(z) in section_phi is too large for a double")
    return num / den


def frobenius_determinant_reference(spec, lam):
    """rslax.cauchy.frobenius_determinant, one per-call reference per value."""
    from rslax.cauchy import DISTINCT_TOL
    from rslax.errors import DegenerateConfiguration

    lam = complex(lam)
    lat = spec.lat
    q = np.asarray(spec.qs, dtype=complex)
    r = np.asarray(spec.rs, dtype=complex)
    n = spec.n
    qr = q[:, None] - r[None, :]
    if np.min(lattice_distance_reference(qr, lat)) < DISTINCT_TOL:
        raise DegenerateConfiguration("q_i - r_j hits the lattice: formula pole")
    qq = q[:, None] - q[None, :]
    rr = r[:, None] - r[None, :]
    iu = np.triu_indices(n, k=1)
    if n > 1 and (
        np.min(lattice_distance_reference(qq[iu], lat)) < DISTINCT_TOL
        or np.min(lattice_distance_reference(rr[iu], lat)) < DISTINCT_TOL
    ):
        return 0.0 + 0.0j
    head = sigma_reference(lam + np.sum(q - r), lat) / sigma_reference(lam, lat)
    num = 1.0 + 0.0j
    if n > 1:
        num = np.prod(sigma_reference(qq[iu], lat)) * np.prod(sigma_reference(-rr[iu], lat))
    den = np.prod(sigma_reference(qr, lat))
    return complex(head * num / den)


def outcome(fn, *args, **kwargs):
    """What fn(*args, **kwargs) gives: the entries of a SpectralMatrix, the
    errors and fitted order of a LimitSweep, any other value as it is, or
    the type and message of the RslaxError it raises; numpy's warnings
    silenced, as the *_reference builders may warn."""
    from rslax.errors import RslaxError

    try:
        with np.errstate(all="ignore"):
            out = fn(*args, **kwargs)
    except RslaxError as exc:
        return type(exc), str(exc)
    if hasattr(out, "entries"):
        return out.entries
    if hasattr(out, "fitted_order"):
        return np.array([*out.errors, np.nan if out.fitted_order is None else out.fitted_order])
    return out


def assert_same_outcome(got, want, rel=1e-15):
    """got and want (outcome) are the same error, or values within rel of
    want's largest finite magnitude, and equal where want is not finite."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert type(got) is type(want) and got == want
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    ok = np.isfinite(want)
    assert np.array_equal(got[~ok], want[~ok], equal_nan=True)
    assert np.all(np.abs(got[ok] - want[ok]) <= rel * np.abs(want[ok]).max(initial=0.0))


# ---------------------------------------------------------------------------
# The moment-map solvers, moment_residual, _canonical_eig and dualize as they
# were when they built their matrices entry by entry: the references of the
# array forms, for bytes, exception types and messages, at n >= 1 and with
# inputs of matching lengths.


def _require_distinct_reference(vals, what):
    from rslax.errors import DegenerateConfiguration

    vals = np.asarray(vals, dtype=complex)
    n = vals.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) < 1e-10:
                raise DegenerateConfiguration(f"{what} are not pairwise distinct")


def solve_rational_cm_reference(q, p, orbit):
    """rslax.reductions.solve_rational_cm, entry by entry."""
    from rslax.reductions import KIND_RATIONAL_CM, ReductionPair

    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    _require_distinct_reference(q, "positions")
    n = q.size
    Y = np.diag(p).astype(complex)
    off = ~np.eye(n, dtype=bool)
    if n > 1:
        D = q[:, None] - q[None, :]
        Y[off] = orbit.g / D[off]
    return ReductionPair(np.diag(q), Y, KIND_RATIONAL_CM)


def solve_rational_rs_reference(theta, orbit, diag_free):
    """rslax.reductions.solve_rational_rs, entry by entry."""
    from rslax.errors import DegenerateConfiguration
    from rslax.reductions import KIND_RATIONAL_RS, ReductionPair

    theta = np.asarray(theta, dtype=complex)
    n = theta.size
    x = np.exp(theta)
    _require_distinct_reference(x, "exp(theta) values")
    rho = np.exp(theta[:, None] - theta[None, :])
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.min(np.abs(rho[off] - 1.0)) < 1e-8:
        raise DegenerateConfiguration("exp(theta_i - theta_j) too close to 1")
    Y = np.diag(np.asarray(diag_free, dtype=complex)).astype(complex)
    if n > 1:
        O = orbit.o_matrix(n)
        Y[off] = O[off] / (rho[off] - 1.0)
    return ReductionPair(np.diag(x), Y, KIND_RATIONAL_RS)


def solve_trig_cm_reference(q, orbit, gauge):
    """rslax.reductions.solve_trig_cm, column by column."""
    from rslax.errors import NoSolution
    from rslax.reductions import KIND_TRIG_CM, ReductionPair

    q = np.asarray(q, dtype=complex)
    gauge = np.asarray(gauge, dtype=complex)
    _require_distinct_reference(q, "positions")
    n = q.size
    g = complex(orbit.g)
    Y = np.diag(q)
    if abs(g) < 1e-14:
        return ReductionPair(np.diag(gauge).astype(complex), Y, KIND_TRIG_CM)
    res_tol = 1e-10
    denom = q[None, :] + g - q[:, None]
    resonant = np.abs(denom) < res_tol
    alpha = np.where(resonant.any(axis=1), 0.0, 1.0).astype(complex)
    X = np.zeros((n, n), dtype=complex)
    for j in range(n):
        col = np.zeros(n, dtype=complex)
        col[~resonant[:, j]] = alpha[~resonant[:, j]] / denom[~resonant[:, j], j]
        col[resonant[:, j]] = 1.0
        if abs(col[j]) > res_tol * np.max(np.abs(col)):
            col = col / col[j] * gauge[j]
        else:
            k = int(np.argmax(np.abs(col)))
            col = col / col[k] * gauge[j]
        X[:, j] = col
    if np.linalg.cond(X) > 1e12:
        raise NoSolution("constructed X is singular for this configuration")
    s = np.empty(n, dtype=complex)
    for j in range(n):
        rows = [i for i in range(n) if alpha[i] != 0 and not resonant[i, j]]
        if not rows:
            raise NoSolution("no usable row to close the rank-one factor")
        i = rows[0]
        s[j] = -(q[i] - g - q[j]) * X[i, j] / alpha[i]
    beta = np.linalg.solve(X.T, s)
    M = np.outer(alpha, beta) - g * np.eye(n)
    residual = np.linalg.norm(X @ Y - (Y + M) @ X) / max(1.0, float(np.max(np.abs(X))))
    if residual > 1e-8:
        raise NoSolution("constructed X fails the moment-map equation")
    return ReductionPair(X, Y, KIND_TRIG_CM)


def solve_trig_rs_reference(theta, orbit, diag_free):
    """rslax.reductions.solve_trig_rs, column by column."""
    from rslax.cauchy import _singular
    from rslax.errors import DegenerateConfiguration, NoSolution, SingularY
    from rslax.reductions import KIND_TRIG_RS, ReductionPair

    theta = np.asarray(theta, dtype=complex)
    u = np.asarray(orbit.u, dtype=complex)
    v = np.asarray(orbit.v, dtype=complex)
    d = np.asarray(diag_free, dtype=complex)
    n = theta.size
    if u.size != n or v.size != n or d.size != n:
        raise ValueError("u, v, diag_free must all have length n")
    if abs(1.0 + np.dot(v, u)) < 1e-12:
        raise DegenerateConfiguration("1 + v^T u = 0: orbit matrix is singular")
    x = np.exp(theta)
    _require_distinct_reference(x, "exp(theta) values")
    rho = np.exp(theta[:, None] - theta[None, :])
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.min(np.abs(rho[off] - 1.0)) < 1e-8:
        raise DegenerateConfiguration("exp(theta_i - theta_j) too close to 1")
    w = np.empty(n, dtype=complex)
    for j in range(n):
        s = sum(v[i] * u[i] / (rho[i, j] - 1.0) for i in range(n) if i != j)
        coef = 1.0 - s
        if abs(coef) < 1e-12:
            if abs(v[j] * d[j]) < 1e-12:
                w[j] = 0.0
            else:
                raise NoSolution("column closure for w is inconsistent")
        else:
            w[j] = v[j] * d[j] / coef
    if np.max(np.abs(u * w)) > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
        raise NoSolution(
            "diagonal consistency u_i (v^T Y)_i = 0 fails; no Y exists on this "
            "gauge slice (note: a diagonal X forces v^T u = 0)"
        )
    Y = np.diag(d).astype(complex)
    if n > 1:
        W = np.outer(u, w)
        Y[off] = W[off] / (rho[off] - 1.0)
    if _singular(Y):
        raise SingularY("solved Y is singular; multiplicative residual undefined")
    return ReductionPair(np.diag(x), Y, KIND_TRIG_RS)


def moment_residual_reference(pair, orbit):
    """rslax.reductions.moment_residual with its orbit test in each branch."""
    from rslax import reductions as red
    from rslax.errors import SingularMatrix

    def inv(name):
        try:
            return np.linalg.inv(getattr(pair, name))
        except np.linalg.LinAlgError:
            raise SingularMatrix(
                f"{name} of the {pair.kind} pair is singular; its moment residual is undefined"
            ) from None

    X, Y = pair.X, pair.Y
    n = X.shape[0]
    if pair.kind == red.KIND_RATIONAL_CM:
        R = X @ Y - Y @ X - orbit.o_matrix(n)
        entrywise = float(np.linalg.norm(R) / max(1.0, float(np.max(np.abs(X @ Y)))))
        if entrywise < 1e-8 or n == 1:
            return entrywise
        C = X @ Y - Y @ X
        scale = max(1.0, float(np.max(np.abs(C))))
        best = entrywise
        for sign in (1.0, -1.0):
            s = np.linalg.svd(C + sign * orbit.g * np.eye(n), compute_uv=False)
            best = min(best, float((s[1] + abs(np.trace(C))) / scale))
        return best
    elif pair.kind == red.KIND_RATIONAL_RS:
        R = X @ Y @ inv("X") - Y - orbit.o_matrix(n)
    elif pair.kind == red.KIND_TRIG_CM:
        M = X @ Y @ inv("X") - Y
        s = np.linalg.svd(M + orbit.g * np.eye(n), compute_uv=False)
        rank_defect = s[1] if n > 1 else 0.0
        return float((rank_defect + abs(np.trace(M))) / max(1.0, float(np.max(np.abs(M)))))
    elif pair.kind == red.KIND_TRIG_RS:
        R = X @ Y @ inv("X") @ inv("Y") - orbit.o_prime()
    else:
        raise ValueError(f"unknown reduction kind {pair.kind!r}")
    scale = max(1.0, float(np.max(np.abs(X @ Y))))
    return float(np.linalg.norm(R) / scale)


def canonical_eig_reference(M):
    """rslax.reductions._canonical_eig, pair by pair and column by column."""
    from rslax.errors import NonDiagonalizable, RepeatedEigenvalues

    vals, vecs = np.linalg.eig(M)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(vals.size):
        for j in range(i + 1, vals.size):
            if abs(vals[i] - vals[j]) < 1e-8:
                raise RepeatedEigenvalues("eigenvalues are not pairwise distinct")
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > 1e10:
        raise NonDiagonalizable("eigenbasis is numerically defective")
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        vecs[:, j] = vecs[:, j] / vecs[k, j]
    return vals, vecs


def dualize_reference(pair):
    """rslax.reductions.dualize with its three branches."""
    from rslax.reductions import ReductionPair

    X, Y = pair.X, pair.Y

    def is_diag(M):
        return np.all(np.abs(M - np.diag(np.diag(M))) < 1e-12 * max(1.0, np.max(np.abs(M))))

    if is_diag(X):
        diag_member, full_member = X, Y
    elif is_diag(Y):
        diag_member, full_member = Y, X
    else:
        diag_member, full_member = X, Y
    vals, S = canonical_eig_reference(full_member)
    Sinv = np.linalg.inv(S)
    return ReductionPair(np.diag(vals), Sinv @ diag_member @ S, pair.kind)
