"""Lax matrices for the Ruijsenaars-Schneider (RS) and Calogero-Moser (CM)
systems: the matrix of intertwining vectors, the Hasegawa-form RS matrix, the
geometric composition that reproduces it through Cauchy-matrix factorization,
the Ruijsenaars and Krichever matrices, the spin RS matrix, the CM matrix with
spectral parameter, and the factorized CM matrix obtained as the coupling
derivative of the momentum-free transport matrix.

Index convention: all particle indices in this module are 0-based.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import elliptic
from .cauchy import CauchyMatrixSpec, SpectralMatrix, build_elliptic_cauchy
from .errors import (
    BranchCutWarning,
    DegenerateConfiguration,
    PoleAtLattice,
    SingularMatrix,
    ZeroLambda,
    ZeroMu,
)

DISTINCT_TOL = 1e-6


@dataclass(frozen=True)
class RSConfig:
    """Phase-space point of the n-particle RS system.

    q are positions on the curve, P are momentum exponents (rapidities are
    theta_i = exp(P_i)), hbar is the coupling, mu the Ruijsenaars parameter
    (identified with hbar by default), and q_zero/q_inf are the two framing
    points, constrained by q_zero = q_inf + n*hbar for geometric configs.
    """

    n: int
    q: tuple
    P: tuple
    hbar: complex
    mu: complex
    lat: elliptic.Lattice
    q_inf: complex = 0.0
    q_zero: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))
        object.__setattr__(self, "P", tuple(complex(v) for v in self.P))
        if len(self.q) != self.n or len(self.P) != self.n:
            raise DegenerateConfiguration("q and P must both have length n")
        _separation(self.q, self.lat)


def rs_config(q, P, hbar, lat, mu=None, q_inf=0.0, q_zero=None) -> RSConfig:
    """Convenience constructor enforcing the framing relation by default."""
    q = tuple(complex(v) for v in q)
    n = len(q)
    hbar = complex(hbar)
    if q_zero is None:
        q_zero = complex(q_inf) + n * hbar
    return RSConfig(
        n=n,
        q=q,
        P=tuple(complex(v) for v in P),
        hbar=hbar,
        mu=hbar if mu is None else complex(mu),
        lat=lat,
        q_inf=complex(q_inf),
        q_zero=complex(q_zero),
    )


@dataclass(frozen=True)
class SpinFraming:
    """Rank-k framing data (u0, v0, u_inf, v_inf) of the spin RS system."""

    k: int
    U0: np.ndarray
    V0: np.ndarray
    Uinf: np.ndarray
    Vinf: np.ndarray

    def __post_init__(self):
        for name in ("U0", "V0", "Uinf", "Vinf"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.U0.shape[0]
        if (
            self.U0.shape != (n, self.k)
            or self.V0.shape != (self.k, n)
            or self.Uinf.shape != (n, self.k)
            or self.Vinf.shape != (self.k, n)
        ):
            raise ValueError("framing matrix dimensions are inconsistent")


@dataclass(frozen=True)
class CMConfig:
    """Phase-space point of the n-particle CM system with coupling g."""

    n: int
    q: tuple
    p: tuple
    g: complex
    lat: elliptic.Lattice

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        if len(self.q) != self.n or len(self.p) != self.n:
            raise DegenerateConfiguration("q and p must both have length n")
        _separation(self.q, self.lat)


def cm_config(q, p, g, lat) -> CMConfig:
    q = tuple(complex(v) for v in q)
    return CMConfig(len(q), q, tuple(complex(v) for v in p), complex(g), lat)


def _diff_matrix(q):
    arr = np.asarray(q, dtype=complex)
    return arr[:, None] - arr[None, :]


def _separation(q, lat):
    """DegenerateConfiguration if two of the positions q are closer than
    DISTINCT_TOL modulo the lattice."""
    n = len(q)
    if n < 2:
        return
    d = _diff_matrix(q)[np.triu_indices(n, k=1)]
    if np.min(elliptic.lattice_distance(d, lat)) < DISTINCT_TOL:
        raise DegenerateConfiguration(
            "positions are not pairwise distinct modulo the lattice"
        )


def _exclusive_products(S):
    """out[k] = prod_{l != k} S[l] along the first axis of S.

    Prefix times suffix products, with no division, so zero entries are
    allowed.
    """
    out = np.ones_like(S)
    np.cumprod(S[:-1], axis=0, out=out[1:])
    out[:-1] *= np.cumprod(S[:0:-1], axis=0)[::-1]
    return out


def intertwining_vector(lam_vec, j, k, z, lat: elliptic.Lattice) -> complex:
    """Theta-value entry of the intertwining construction.

    Returns theta[1/(2n) - j/n^2; 0](zz | tau) with
    zz = (z - n*<lam, ebar_k>)/omega1 + tau/2, where ebar_k is the k-th basis
    vector projected orthogonal to the diagonal, so <lam, ebar_k> =
    lam_k - mean(lam).  j is taken modulo n; k is 0-based.
    """
    if lat.kind != elliptic.KIND_ELLIPTIC:
        raise DegenerateConfiguration("intertwining vectors require an elliptic lattice")
    lam_vec = np.asarray(lam_vec, dtype=complex)
    n = lam_vec.size
    j = int(j) % n
    pairing = lam_vec[k] - lam_vec.mean()
    ch = elliptic.ThetaCharacteristic(1.0 / (2 * n) - j / n**2, 0.0)
    zz = (complex(z) - n * pairing) / lat.omega1 + lat.tau / 2.0
    return elliptic.theta_char(ch, zz, lat.tau)


def xi_matrix(conf: RSConfig, z) -> SpectralMatrix:
    """Matrix of intertwining vectors Xi(z)_{i,j} with <lam, ebar_i> built
    from the particle positions (lam_i = q_i)."""
    n = conf.n
    entries = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            entries[i, j] = intertwining_vector(conf.q, j, i, z, conf.lat)
    return SpectralMatrix(n, entries, complex(z))


def _off_diagonal(vals, diag, off):
    """n x n array with vals on the off-diagonal mask off and diag on the rest."""
    out = np.full(off.shape, diag, dtype=complex)
    out[off] = vals
    return out


def _off_lattice(lat, **points):
    """PoleAtLattice naming the first named value (scalar or array) on the lattice."""
    for what, val in points.items():
        if np.min(elliptic.lattice_distance(val, lat)) < elliptic.POLE_TOL:
            raise PoleAtLattice(f"{what} is on the lattice")


def _hasegawa_kernel(conf: RSConfig, q, z: complex, jacobian=False):
    """The sigma-product part shared by the Hasegawa and spin matrices,

        K_{kk'} = sigma(z + hbar + q_k - q_{k'}) / sigma(z)
                  * prod_{l != k} sigma(hbar + q_l - q_{k'}) / sigma(q_l - q_k),

    with conf's coupling and lattice at positions q, from one sigma
    evaluation over all its arguments (z checked by the caller).  jacobian
    also returns
    the factors of K = E_k A_{kk'} N_{kk'} and sigma' at the same arguments:
    E_k = 1/(sigma(z) prod_{l != k} sigma(q_l - q_k)), A = sigma(z + hbar +
    q_k - q_{k'}), B[l, k'] = sigma(hbar + q_l - q_{k'}) (diagonal sigma(hbar)),
    N_{kk'} = prod_{l != k} B[l, k'], dA and dB their sigma', and Z[l, k] =
    zeta(q_l - q_k) (diagonal 0, where sigma(0) never enters K).
    """
    hbar = conf.hbar
    D = _diff_matrix(q)
    n = D.shape[0]
    off = ~np.eye(n, dtype=bool)
    args = np.concatenate([(z + hbar + D).ravel(), hbar + D[off], D[off], [hbar, z]])
    vals = elliptic._sigma_orders(args, conf.lat, (0, 1) if jacobian else (0,))
    m, o = n * n, n * n - n

    def split(v, diag3):
        return (
            v[:m].reshape(n, n),
            _off_diagonal(v[m : m + o], v[-2], off),
            _off_diagonal(v[m + o : m + 2 * o], diag3, off),
        )

    A, B, S3 = split(vals[0], 1.0)  # S3[l, k] = sigma(q_l - q_k)
    E = 1.0 / (vals[0][-1] * np.prod(S3, axis=0))
    N = _exclusive_products(B)
    K = E[:, None] * A * N
    if not jacobian:
        return K
    dA, dB, dS3 = split(vals[1], 0.0)
    Z = dS3 / S3
    return K, (E, A, B, N, dA, dB, Z)


def hasegawa_lax(conf: RSConfig, z) -> SpectralMatrix:
    """RS Lax matrix in Hasegawa form,

        L_{kk'} = exp(P_k) * sigma(z + hbar + q_k - q_{k'}) / sigma(z)
                  * prod_{l != k} sigma(hbar + q_l - q_{k'}) / sigma(q_l - q_k)

    evaluated for any lattice kind through the sigma dispatch.
    """
    _off_lattice(conf.lat, z=z)
    expP = np.exp(np.asarray(conf.P, dtype=complex))
    z = complex(z)
    return SpectralMatrix(conf.n, expP[:, None] * _hasegawa_kernel(conf, conf.q, z), z)


def _hasegawa_jacobian(conf: RSConfig, z):
    """Check z and return the map (q, P) -> (L, grad_q) at positions q and
    exponents P (arrays): L is hasegawa_lax's entries there, grad_q maps R -> g

        g_j = sum_{k,k'} R_{kk'} dL_{kk'}/dq_j

    (dL_{kk'}/dP_j = delta_{jk} L_{kk'}), from one sigma and sigma' evaluation.
    Every factor of L_{kk'} is sigma at a difference of positions, so the
    weights M_{ab} of the factors at q_a - q_b give g = rowsum(M) - colsum(M),
    and diagonal weights cancel (Ruijsenaars, CMP 110 (1987); Hasegawa, CMP
    187 (1997)).  The numerator factors sigma(z + hbar + q_k - q_{k'}) and
    sigma(hbar + q_l - q_{k'}) vanish where positions are spaced by hbar or
    by z + hbar, so each is differentiated as sigma' times the product of
    the other factors, never as L times zeta (0 * inf there).  Only the
    denominator sigma(q_l - q_k), kept off zero by the collision guard,
    enters through zeta.
    """
    _off_lattice(conf.lat, z=z)
    z = complex(z)

    def at(q, P):
        K, (E, A, B, N, dA, dB, Z) = _hasegawa_kernel(conf, q, z, jacobian=True)
        n = K.shape[0]
        expP = np.exp(P)
        L = expP[:, None] * K
        E = expP * E
        # X[l, k, k'] = prod_{m not in {k, l}} B[m, k'], zero at l = k, where
        # B[l, k'] is not a factor of L_{kk'}.
        idx = np.arange(n)
        X = np.broadcast_to(B[:, None, :], (n, n, n)).copy()
        X[idx, idx] = 1.0
        X = _exclusive_products(X)
        X[idx, idx] = 0.0

        def grad_q(R):
            V = R * E[:, None]
            M = (
                V * dA * N
                + dB * np.einsum("kj,lkj->lj", V * A, X)
                - (R * L).sum(axis=1)[None, :] * Z
            )
            return M.sum(axis=1) - M.sum(axis=0)

        return L, grad_q

    return at


def _transport_diagonals(conf: RSConfig):
    """The diagonals prod_{l != k} sigma(q_l - q_k) and prod_l sigma(hbar +
    q_l - q_k) that scale the rows and columns of the transport matrix."""
    D = _diff_matrix(conf.q)
    S3 = np.atleast_2d(elliptic.sigma(D, conf.lat))
    prod_den = np.diag(_exclusive_products(S3))
    col = np.prod(np.atleast_2d(elliptic.sigma(conf.hbar + D, conf.lat)), axis=0)
    return prod_den, col


def _zero_coupling(conf: RSConfig) -> bool:
    return elliptic.lattice_distance(conf.hbar, conf.lat) < elliptic.POLE_TOL


def composition_lax(conf: RSConfig, z) -> SpectralMatrix:
    """RS Lax matrix built as the geometric transport composition.

    The matrix factorizes exactly through an elliptic Cauchy matrix: with
    C(z)_{kk'} = sigma(z + hbar + q_k - q_{k'}) / (sigma(z) sigma(hbar + q_k - q_{k'}))
    the composition equals D_row * C(z) * D_col where
    D_row = diag(exp(P_k) / prod_{l != k} sigma(q_l - q_k)) and
    D_col = diag(prod_l sigma(hbar + q_l - q_{k'})).  This is an independent
    arithmetic route from hasegawa_lax: the Cauchy kernel divides by
    sigma(hbar + q_k - q_{k'}) entrywise and the column scaling restores it.
    """
    lat = conf.lat
    hbar = conf.hbar
    n = conf.n
    if _zero_coupling(conf):
        # Zero coupling: the transport is trivial and only momenta remain.
        return SpectralMatrix(
            n, np.diag(np.exp(np.asarray(conf.P, dtype=complex))), complex(z)
        )
    qs = tuple(qq + hbar for qq in conf.q)
    C = build_elliptic_cauchy(CauchyMatrixSpec(qs, conf.q, lat), z)
    prod_den, col = _transport_diagonals(conf)
    expP = np.exp(np.asarray(conf.P, dtype=complex))
    entries = (expP / prod_den)[:, None] * C.entries * col[None, :]
    return SpectralMatrix(n, entries, complex(z))


def _composition_jacobian(conf: RSConfig, z):
    """The map of _hasegawa_jacobian for composition_lax, which is the Hasegawa
    matrix except at zero coupling, where it is diag(exp(P)) and does not
    depend on q."""
    if _zero_coupling(conf):
        return lambda q, P: (np.diag(np.exp(P)), lambda R: np.zeros(len(q), dtype=complex))
    return _hasegawa_jacobian(conf, z)


def _f_squared(D, mu, lat):
    """sigma(mu)^2 * (wp(mu) - wp(D_il)) off the diagonal of D = _diff_matrix(q)."""
    n = D.shape[0]
    off = ~np.eye(n, dtype=bool)
    vals = np.ones((n, n), dtype=complex)
    if n > 1:
        wp_mu = elliptic.wp(mu, lat)
        wp_q = elliptic.wp(D[off], lat)
        vals[off] = elliptic.sigma(mu, lat) ** 2 * (wp_mu - wp_q)
    return vals


def ruijsenaars_lax(conf: RSConfig, lam) -> SpectralMatrix:
    """Ruijsenaars form of the RS Lax matrix,

        L'_{ij} = exp(theta_i) * prod_{l != i} f(q_i - q_l)
                  * sigma(q_i - q_j + lam) * sigma(mu)
                  / (sigma(lam) * sigma(q_i - q_j + mu))

    with f(q)^2 = sigma(mu)^2 * (wp(mu) - wp(q)) and the principal square
    root taken factor by factor.
    """
    _off_lattice(conf.lat, lam=lam, mu=conf.mu)
    lam = complex(lam)
    return SpectralMatrix(conf.n, _ruijsenaars(conf, conf.q, conf.P, lam), lam)


def _ruijsenaars_jacobian(conf: RSConfig, lam):
    """Check lam and mu and return the map (q, P) -> (L', grad_q) of
    ruijsenaars_lax, g_j = sum_{i,k} R_{ik} dL'_{ik}/dq_j, in the form of
    _hasegawa_jacobian.

    The factor sigma(q_i - q_k + lam) vanishes where positions are spaced by
    -lam, so it is differentiated as sigma' times the other factors.  The
    other factors are kept off zero by the pole checks and enter through
    their log-derivatives: -zeta(q + mu) for 1/sigma(q + mu) and, for f,
    since wp(mu) - wp(q) = -sigma(mu + q) sigma(mu - q)/(sigma(mu)^2
    sigma(q)^2) gives f(q)^2 = sigma(q + mu) sigma(q - mu)/sigma(q)^2, on any
    square-root branch

        d(log f)/dq = -wp'(q)/(2 (wp(mu) - wp(q)))
                    = (zeta(q + mu) + zeta(q - mu))/2 - zeta(q).
    """
    _off_lattice(conf.lat, lam=lam, mu=conf.mu)
    lam = complex(lam)
    return lambda q, P: _ruijsenaars(conf, q, P, lam, jacobian=True)


def _ruijsenaars(conf: RSConfig, q, P, lam: complex, jacobian=False):
    """Entries of ruijsenaars_lax at positions q and exponents P (lam and mu
    checked by the caller), and with jacobian also its q-gradient map."""
    lat = conf.lat
    mu = conf.mu
    D = _diff_matrix(q)
    n = D.shape[0]
    _off_lattice(lat, **{"some q_i - q_j + mu": D + mu})

    f2 = _f_squared(D, mu, lat)
    off = ~np.eye(n, dtype=bool)
    near_cut = (f2[off].real < 0) & (
        np.abs(f2[off].imag) < 1e-9 * np.abs(f2[off])
    )
    if np.any(near_cut):
        warnings.warn(
            "f^2 value near the negative real axis: principal square root "
            "may be discontinuous",
            BranchCutWarning,
        )
    row_f = np.prod(np.where(off, np.sqrt(f2), 1.0), axis=1)

    args = [(D + lam).ravel(), (D + mu).ravel(), [lam, mu]]
    if jacobian:
        args += [D[off] - mu, D[off]]
    vals = elliptic._sigma_orders(np.concatenate(args), lat, (0, 1) if jacobian else (0,))
    s = vals[0]
    m = n * n
    theta = np.exp(np.asarray(P, dtype=complex))
    # L' without its factor sigma(q_i - q_j + lam).
    Lhat = (theta * row_f)[:, None] * s[2 * m + 1] / (s[2 * m] * s[m : 2 * m].reshape(n, n))
    L = Lhat * s[:m].reshape(n, n)
    if not jacobian:
        return L
    ds = vals[1]
    dS_lam = ds[:m].reshape(n, n)
    Z_mu = (ds[m : 2 * m] / s[m : 2 * m]).reshape(n, n)
    Z_minus, Z_0 = (ds[2 * m + 2 :] / s[2 * m + 2 :]).reshape(2, -1)
    F = _off_diagonal(0.5 * (Z_mu[off] + Z_minus) - Z_0, 0.0, off)  # d(log f) at q_il

    def grad_q(R):
        M = R * (Lhat * dS_lam - L * Z_mu) + (R * L).sum(axis=1)[:, None] * F
        return M.sum(axis=1) - M.sum(axis=0)

    return L, grad_q


def ruijsenaars_equivalent_momenta(conf: RSConfig):
    """Momentum exponents theta for which ruijsenaars_lax(mu=hbar) is related
    to hasegawa_lax by a diagonal conjugation and the overall scalar
    sigma(z + hbar)/sigma(z).

    Concretely, with theta from this function, the eigenvalue multisets obey

        eig(hasegawa_lax(conf, z))
            = (sigma(z + hbar)/sigma(z)) * eig(ruijsenaars_lax(conf', z + hbar))

    where conf' replaces P by the returned exponents.  The formula matches
    the diagonal factors of the two matrices row by row, absorbing the square
    root branch choices into the momentum normalization.
    """
    prod_den, col = _transport_diagonals(conf)
    d_row = np.exp(np.asarray(conf.P, dtype=complex)) / prod_den
    off = ~np.eye(conf.n, dtype=bool)
    f2 = _f_squared(_diff_matrix(conf.q), conf.hbar, conf.lat)
    row_f = np.prod(np.where(off, np.sqrt(f2), 1.0), axis=1)
    sig_h = elliptic.sigma(conf.hbar, conf.lat)
    return np.log(d_row * col / (sig_h * row_f))


def krichever_lax(conf: RSConfig, z, lam) -> SpectralMatrix:
    """Krichever form of the RS Lax matrix,

        L''_{ij} = sigma(lam + q_i - q_j) / (sigma(lam + mu) * sigma(q_i - q_j - mu))
                   * [sigma(z - mu)/sigma(z + mu)]^{(q_i - q_j - mu)/(2 mu)}

    with the principal branch of the complex power.
    """
    lat = conf.lat
    mu = conf.mu
    z = complex(z)
    lam = complex(lam)
    if abs(mu) < 1e-12:
        raise ZeroMu("krichever matrix requires mu != 0")
    D = _diff_matrix(conf.q)
    _off_lattice(
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


def spin_lax(conf: RSConfig, spin: SpinFraming, z) -> SpectralMatrix:
    """Spin RS Lax matrix with rank-k framing,

        L_{kk'} = f_{kk'} * sigma(z + u/n + q_k - q_{k'}) / sigma(z)
                  * prod_{l != k} sigma(u/n + q_l - q_{k'}) / sigma(q_l - q_k)

    with u = n*hbar and f_{kk'} = (U0 V0)_{kk'} * (Uinf Vinf)_{k'k}.
    """
    F0 = spin.U0 @ spin.V0
    Finf = spin.Uinf @ spin.Vinf
    _off_lattice(conf.lat, z=z)
    z = complex(z)
    return SpectralMatrix(conf.n, F0 * Finf.T * _hasegawa_kernel(conf, conf.q, z), z)


def cm_lax(conf: CMConfig, lam) -> SpectralMatrix:
    """CM Lax matrix with spectral parameter,

        L_{ij} = delta_{ij} p_i + g * (1 - delta_{ij}) * (1/(q_i - q_j) - 1/lam)

    in the rational kind; the trigonometric and elliptic kinds use the
    sigma-quotient section g * sigma(lam - q_ij)/(sigma(q_ij) * sigma(lam)),
    which reduces to the displayed rational entries when sigma(z) = z.
    lam may be None (or inf) in the rational kind to drop the spectral term.
    """
    lat = conf.lat
    n = conf.n
    spectral_free = lam is None or (np.isreal(lam) and np.isinf(np.real(lam)))
    if spectral_free:
        if lat.kind != elliptic.KIND_RATIONAL:
            raise ZeroLambda(
                "dropping the spectral term is defined for the rational kind only"
            )
    else:
        lam = complex(lam)
        if lat.kind == elliptic.KIND_RATIONAL:
            if abs(lam) < 1e-12:
                raise ZeroLambda("cm_lax requires lam != 0")
        else:
            _off_lattice(lat, lam=lam)

    off = ~np.eye(n, dtype=bool)
    entries = np.diag(np.asarray(conf.p, dtype=complex))
    if n > 1:
        D = _diff_matrix(conf.q)
        if spectral_free:
            entries[off] += conf.g / D[off]
        elif lat.kind == elliptic.KIND_RATIONAL:
            entries[off] += conf.g * (1.0 / D[off] - 1.0 / lam)
        else:
            entries[off] += (
                conf.g
                * elliptic.sigma(lam - D[off], lat)
                / (elliptic.sigma(D[off], lat) * elliptic.sigma(lam, lat))
            )
    return SpectralMatrix(n, entries, 0.0 + 0.0j if spectral_free else lam)


def factorized_cm_lax(conf: CMConfig, z, step: float = 1e-6) -> SpectralMatrix:
    """Factorized CM Lax matrix diag(p) + T'(z) where T' is the central
    finite-difference derivative (step 1e-6) of the momentum-free RS
    transport matrix with respect to the coupling at zero coupling.

    For n = 1 this reduces to sigma'(z)/sigma(z).  It is the matrix the
    rescaled RS Lax matrix (L(hbar) - I)/hbar converges to at first order as
    hbar -> 0 with momenta scaled as P = hbar*p.
    """
    if conf.lat.kind != elliptic.KIND_ELLIPTIC:
        raise DegenerateConfiguration("factorized CM matrix requires an elliptic lattice")
    zeros = tuple(0.0 for _ in range(conf.n))
    plus = composition_lax(
        rs_config(conf.q, zeros, step, conf.lat), z
    ).entries
    minus = composition_lax(
        rs_config(conf.q, zeros, -step, conf.lat), z
    ).entries
    deriv = (plus - minus) / (2.0 * step)
    entries = np.diag(np.asarray(conf.p, dtype=complex)) + deriv
    return SpectralMatrix(conf.n, entries, complex(z))
