"""Numerical oracles that certify rslax: truncated lattice products, mpmath
theta series and Weierstrass functions at 50 digits, brute-force LU
determinants, finite-difference vector fields and coupling derivatives, and
the helpers that apply them.  Each function is declared at the end of the
module: INDEPENDENT names those that compute their quantity by a route
disjoint from the library's, and FROZEN maps each copy of earlier library
code to the reason it is kept.  tests/test_oracles.py checks that every
function is declared once.
"""

from __future__ import annotations

import dataclasses
import functools
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


@functools.lru_cache(maxsize=4096)
def _sigma_mp(z, omega1, omega2, dps):
    """weierstrass_mpmath's sigma at dps digits, kept per argument: the
    entries of a matrix share most of their sigma factors."""
    with mp.workdps(dps):
        return +_weierstrass_mp(z, omega1, omega2)[0]


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
        "elliptic": lambda v: _sigma_mp(complex(v), lat.omega1, lat.omega2, dps),
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


def hasegawa_mpmath(q, P, hbar, z, omega1=None, omega2=None, kind="elliptic", dps=50):
    """The Hasegawa RS Lax matrix at dps digits,
    L_kk' = exp(P_k) sigma(z + hbar + q_k - q_k')/sigma(z)
            * prod_{l != k} sigma(hbar + q_l - q_k')/sigma(q_l - q_k),
    with weierstrass_mpmath's sigma on the lattice of the periods, or sin(z)
    and z for the kinds "trigonometric" and "rational" (rslax's names)."""

    def sig(v):
        if kind == "elliptic":
            return _sigma_mp(complex(v), omega1, omega2, dps)
        return mp.sin(mp.mpc(v)) if kind == "trigonometric" else mp.mpc(v)

    n = len(q)
    L = np.empty((n, n), dtype=complex)
    with mp.workdps(dps):
        for k in range(n):
            for kp in range(n):
                v = mp.exp(P[k]) * sig(z + hbar + q[k] - q[kp]) / sig(z)
                for l in range(n):
                    if l != k:
                        v *= sig(hbar + q[l] - q[kp]) / sig(q[l] - q[k])
                L[k, kp] = complex(v)
    return L


def factorized_cm_mpmath(q, p, z, omega1, omega2, dps=50):
    """The factorized CM Lax matrix at dps digits from weierstrass_mpmath's
    sigma and zeta: diag(p) plus

        T_kk' = c_k'/c_k sigma(z + q_k - q_k')/(sigma(z) sigma(q_k - q_k')),
        T_kk = zeta(z) + sum_{l != k} zeta(q_l - q_k),

    c_k = prod_{l != k} sigma(q_l - q_k)."""
    n = len(q)
    T = np.empty((n, n), dtype=complex)
    with mp.workdps(dps):
        def sig(v):
            return _weierstrass_mp(v, omega1, omega2)[0]

        def zeta(v):
            return _weierstrass_mp(v, omega1, omega2)[1]

        c = [mp.fprod(sig(q[l] - q[k]) for l in range(n) if l != k) for k in range(n)]
        for k in range(n):
            for kp in range(n):
                if k == kp:
                    v = p[k] + zeta(z) + mp.fsum(zeta(q[l] - q[k]) for l in range(n) if l != k)
                else:
                    d = q[k] - q[kp]
                    v = c[kp] / c[k] * sig(z + d) / (sig(z) * sig(d))
                T[k, kp] = complex(v)
    return T


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


def outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the type and message of the RslaxError it
    raises."""
    from rslax.errors import RslaxError

    try:
        return fn(*args, **kwargs)
    except RslaxError as exc:
        return type(exc), str(exc)


# Independent oracles, and the helpers that apply them: each computes its
# quantity by a route disjoint from the library's (mpmath, lattice products,
# LU, finite differences, a definition summed term by term) or calls only
# the library's public functions.
INDEPENDENT = frozenset(
    {
        "sigma_lattice_product",
        "theta1_mpmath",
        "weierstrass_mpmath",
        "_weierstrass_mp",
        "_sigma_mp",
        "sigma_quotient_mpmath",
        "ruijsenaars_equivalent_momenta_mpmath",
        "frobenius_factors",
        "assert_log_form",
        "ruijsenaars_mpmath",
        "hasegawa_mpmath",
        "factorized_cm_mpmath",
        "theta_series_mpmath",
        "brute_determinant",
        "brute_minor",
        "fd_vector_field",
        "flow_drift_reference",
        "rational_trace_flow",
        "fd_coupling_derivative",
        "outcome",
    }
)

# Copies of earlier library code, each with the reason no independent oracle
# replaces it.
FROZEN = {
    "theta_series_reference": (
        "rslax's former unreduced theta series, a second oracle of theta_char over 1500 "
        "drawn characteristics at moderate Im tau, where mpmath would take minutes"
    ),
    "sigma_argument_moments_reference": (
        "rslax.limits' former per-entry loop over each Lax entry's sigma arguments, the "
        "definition that the closed-form second moment must equal"
    ),
    "jsonify_reference": (
        "rslax.cli's former payload conversion: artifact bytes are history by design, "
        "so the JSON writer must reproduce the former writer's bytes"
    ),
    "report_json_reference": (
        "the bytes report.json had when it was the JSON of a dataclass, which the plain "
        "dict report must keep"
    ),
}
