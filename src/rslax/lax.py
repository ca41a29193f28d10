"""Lax matrices for the Ruijsenaars-Schneider (RS) and Calogero-Moser (CM)
systems: the matrix of intertwining vectors, the Hasegawa-form RS matrix, the
geometric composition that reproduces it through Cauchy-matrix factorization,
the Ruijsenaars and Krichever matrices, the spin RS matrix, the CM matrix with
spectral parameter, and the factorized CM matrix obtained as the coupling
derivative of the momentum-free transport matrix.

Index convention: all particle indices in this module are 0-based.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import cauchy, elliptic
from .cauchy import CauchyMatrixSpec, SpectralMatrix
from .elliptic import DISTINCT_TOL
from .errors import (
    BranchCutWarning,
    DegenerateConfiguration,
    NonFiniteEntries,
    PoleAtLattice,
    ValueOverflow,
    ZeroLambda,
    ZeroMu,
)

# exp(P) overflows a double above this real part.
_LOG_MAX = float(np.log(np.finfo(float).max))


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
    n = len(q)
    hbar = complex(hbar)
    if q_zero is None:
        q_zero = complex(q_inf) + n * hbar
    return RSConfig(
        n=n,
        q=q,
        P=P,
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
    return CMConfig(len(q), q, p, complex(g), lat)


def _separation(q, lat):
    """DegenerateConfiguration, naming the closest pair, if two of the
    positions q are closer than DISTINCT_TOL modulo the lattice."""
    n = len(q)
    if n < 2:
        return
    # Each pair in both orders: the distance of -d is that of d.
    off = _pairs(n)[2]
    dist = elliptic.lattice_distance(cauchy._pairwise_diffs(q, q).reshape(-1)[off], lat)
    if dist.min() < DISTINCT_TOL:
        k = int(dist.argmin())
        i, j = _off_pair(n, k)
        raise DegenerateConfiguration(
            "positions are not pairwise distinct modulo the lattice: positions "
            f"{i} and {j} are {dist[k]:.3e} apart, below the tolerance {DISTINCT_TOL:.1e}"
        )


def _sizes_agree(what, size, conf):
    """DegenerateConfiguration, naming both sizes, unless what has conf.n particles."""
    if size != conf.n:
        raise DegenerateConfiguration(
            f"{what} has {size} particles but the configuration has {conf.n}"
        )


def _exclusive_products(S):
    """out[k] = prod_{l != k} S[l] along the first axis of S.

    Prefix times suffix products, with no division, so zero entries are
    allowed.
    """
    out = np.empty_like(S)
    out[:1] = 1.0
    S[:-1].cumprod(axis=0, out=out[1:])
    out[:-1] *= S[:0:-1].cumprod(axis=0)[::-1]
    return out


def intertwining_vector(lam_vec, j, k, z, lat: elliptic.Lattice):
    """Theta-value entry of the intertwining construction.

    Returns theta[1/(2n) - j/n^2; 0](zz | tau) with
    zz = (z - n*<lam, ebar_k>)/omega1 + tau/2, where ebar_k is the k-th basis
    vector projected orthogonal to the diagonal, so <lam, ebar_k> =
    lam_k - mean(lam).  j is taken modulo n; k is 0-based, an index (a
    complex result) or an index array (an array of the entries at each k).
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
    n, rows = conf.n, np.arange(conf.n)
    columns = [intertwining_vector(conf.q, j, rows, z, conf.lat) for j in range(n)]
    return SpectralMatrix(n, np.stack(columns, axis=1), complex(z))


def _exp_overflow(P):
    """': exp(P_k) overflows (Re P_k = ...)' for the first k whose exp(P_k)
    overflows a double, or ''."""
    big = np.flatnonzero(np.real(P) > _LOG_MAX)
    if not big.size:
        return ""
    k = big[0]
    return f": exp(P_{k}) overflows (Re P_{k} = {np.real(P[k]):g})"


def _lax_matrix(entries, lam, P):
    """The SpectralMatrix of Lax entries with the momentum factors exp(P);
    NonFiniteEntries naming the first exp(P_k) that overflows."""
    try:
        return SpectralMatrix(entries.shape[0], entries, lam)
    except NonFiniteEntries as exc:
        raise NonFiniteEntries(f"{exc}{_exp_overflow(P)}") from None


@functools.lru_cache(maxsize=32)
def _pairs(n):
    """Read-only (rows, cols) of the n*n ordered index pairs, row-major, and
    the flat positions off of the n*(n-1) pairs with row != col."""
    rows, cols = np.divmod(np.arange(n * n), n)
    off = np.flatnonzero(rows != cols)
    for arr in (rows, cols, off):
        arr.setflags(write=False)
    return rows, cols, off


def _off_pair(n, k):
    """(i, j) of the k-th of the n*(n-1) pairs with i != j, row-major."""
    return divmod(int(_pairs(n)[2][k]), n)


@functools.lru_cache(maxsize=32)
def _hasegawa_layout(n):
    """Index maps of _HasegawaPlan for n particles.

    I, J: the argument vector is q[I] - q[J] + c over the blocks B and S
    (the pairs (l, k) with l != k), then A (all pairs (k, k')), so the
    factors of the diagonal of L are its first 2n(n - 1) arguments.  layout
    (3, n, n) gathers the matrices A, B, S from the sigma values extended by
    [the diagonal of B, the diagonal of S]; xlayout (n, n, n) gathers
    X[l, k, k'] = B[l, k'], and 1 (the diagonal of S) at l = k.  From the
    flat buffer of those values followed by their sigma' (the plan's flat),
    jlayout (6, n, n) gathers A, B, S and their sigma', and tlayout (4, n,
    n) B with a unit diagonal, S and their sigma', each in one gather.
    """
    rows, cols, off = _pairs(n)
    m, o = n * n, off.size
    I = np.concatenate([rows[off], rows[off], rows])
    J = np.concatenate([cols[off], cols[off], cols])
    pos = np.full(m, m + 2 * o)  # the diagonal of B
    pos[off] = np.arange(o)
    layout = np.stack([2 * o + np.arange(m), pos, pos + o]).reshape(3, n, n)
    layout[2].flat[:: n + 1] = m + 2 * o + 1  # the diagonal of S
    xlayout = np.where(np.eye(n, dtype=bool)[:, :, None], m + 2 * o + 1, layout[1][:, None, :])
    tlayout = layout[1:].copy()
    tlayout[0].flat[:: n + 1] = m + 2 * o + 1
    size = m + 2 * o + 2
    jlayout = np.concatenate([layout, layout + size])
    tlayout = np.concatenate([tlayout, tlayout + size])
    for arr in (I, J, layout, xlayout, jlayout, tlayout):
        arr.setflags(write=False)
    return I, J, layout, xlayout, jlayout, tlayout


class _Plan:
    """A Lax form laid out once for a flow's constants.  Every
    position-dependent sigma argument is q[I] - q[J] + c, and those at diffs
    are the differences q_a - q_b over a != b, row-major.  A stage reduces
    its arguments once (reduce), for both its collision distances and its
    sigma pass (jacobian, or trace), which writes sigma and sigma' into the
    plan's one buffer flat = (s, ds) with the lattice's sigma constants."""

    def _keep(self, lat, I, J, c, size, factors=None):
        """Keep what every stage reads: lat and its sigma constants, the
        argument index (I, J, c) and its first factors entries (all with
        None), which a diagonal stage reads, and the buffer flat of sigma
        and then sigma' at size points each."""
        self.lat = lat
        self.constants = elliptic._sigma_constants(lat)
        self.I, self.J, self.c = I, J, c
        self.factor_index = (I[:factors], J[:factors], c[:factors])
        self.flat = np.empty(2 * size, dtype=complex)
        self.s, self.ds = self.flat.reshape(2, size)

    def reduce(self, q, diagonal):
        """(args, dist): the reduced arguments of a stage at the positions q
        (only those of the factors of diag L where diagonal, for trace), and
        the distances of the differences from the lattice."""
        I, J, c = self.factor_index if diagonal else (self.I, self.J, self.c)
        args = elliptic._reduce(q[I] - q[J] + c, self.lat)
        return args, elliptic._distance(args, self.lat, self.diffs)


class _HasegawaPlan(_Plan):
    """The sigma-product kernel shared by the Hasegawa and spin matrices,

        K_{kk'} = sigma(z + hbar + q_k - q_{k'}) / sigma(z)
                  * prod_{l != k} sigma(hbar + q_l - q_{k'}) / sigma(q_l - q_k),

    laid out for conf's n, coupling and lattice and the spectral point z
    (checked here); sigma and sigma' at hbar, z and z + hbar are evaluated
    here, once.  K = E_k A_{kk'} N_{kk'} with E_k = 1/(sigma(z) prod_{l != k}
    S[l, k]), A = sigma(z + hbar + q_k - q_{k'}), S[l, k] = sigma(q_l - q_k)
    (diagonal 1), B[l, k'] = sigma(hbar + q_l - q_{k'}) (diagonal
    sigma(hbar)) and N_{kk'} = prod_{l != k} B[l, k'].  The entries are
    exp(P_k) K_{kk'}.  conf's positions were checked when conf was made
    (RSConfig).
    """

    def __init__(self, conf: RSConfig, z):
        z = complex(z)
        hbar = conf.hbar
        n = conf.n
        I, J, self.layout, self.xlayout, self.jlayout, self.tlayout = _hasegawa_layout(n)
        m, o = n * n, n * n - n
        c = np.array([hbar, 0.0, z + hbar]).repeat([o, o, m])
        self.diffs = slice(o, 2 * o)
        # The factors of diag L are the arguments of B and S.  The buffer's
        # tails hold the diagonals of B and S, for sigma and for sigma'.
        self._keep(conf.lat, I, J, c, m + 2 * o + 2, factors=2 * o)
        batch = elliptic._Batch(self.lat)
        batch.add([hbar, z, z + hbar])  # the constants, at 0, 1 and 2
        batch.off_lattice(z=1)
        s, ds = np.empty((2, 3), dtype=complex)
        # A constant that is not a double makes the entries of L not finite.
        with np.errstate(all="ignore"):
            elliptic._sigma_orders(batch.args, self.lat, s, ds, self.constants)
        self.s[-2], self.sigma_z, self.sigma_zh = s
        self.ds[-2] = ds[0]
        self.s[-1], self.ds[-1] = 1.0, 0.0

    def matrix(self, q, P):
        """L at the positions and exponents (q, P) of shape (n, ...): (n, n,
        ...), any trailing axes a batch of points."""
        x = q[self.I] - q[self.J] + self.c.reshape((-1,) + (1,) * (q.ndim - 1))
        s = np.empty((x.shape[0] + 2, *x.shape[1:]), dtype=complex)
        s[-2], s[-1] = self.s[-2], self.s[-1]
        args = elliptic._reduce(x.reshape(-1), self.lat)
        elliptic._sigma_orders(args, self.lat, s[:-2].reshape(-1), constants=self.constants)
        return self._entries(s, P)

    def _entries(self, s, P):
        """L from the sigma values s, laid out as the buffer s with any
        trailing axes, and the exponents P (n, ...)."""
        A, B, S = s[self.layout]
        E = 1.0 / (self.sigma_z * S.prod(axis=0))
        return np.exp(P)[:, None] * (E[:, None] * A * _exclusive_products(B))

    def trace(self, args, P):
        """diag L and -d(Tr L)/dq at the arguments args of positions q and
        exponents P.

        L_kk = c_k N_kk with c_k = exp(P_k) sigma(z + hbar) E_k, so Tr L
        reads sigma only at the 2n(n - 1) arguments of B and S.  The
        exclusive products U down the columns of B with a unit diagonal give
        U[k, k] = N_kk and U[l, k] = prod_{m not in {k, l}} B[m, k] for
        l != k, without division, so a vanishing B stays exact.  The factors
        of Tr L at q_l - q_k weigh M[l, k] = c_k sigma'(B[l, k]) U[l, k] -
        L_kk zeta(S[l, k]), and d(Tr L)/dq = rowsum(M) - colsum(M) (see
        jacobian, with R = I), returned negated as the flow's dp/dt.
        """
        k = args.x.size
        elliptic._sigma_orders(args, self.lat, self.s[:k], self.ds[:k], self.constants)
        B, S, dB, dS = self.flat[self.tlayout]
        U = _exclusive_products(B)
        c = np.exp(P) * (self.sigma_zh / (self.sigma_z * S.prod(axis=0)))
        d = c * U.diagonal()
        M = c * dB * U - d * (dS / S)
        return d, M.sum(axis=0) - M.sum(axis=1)

    def jacobian(self, args, P):
        """L at the arguments args of positions q and exponents P, and the
        map (R, h) -> g, h = (R * L).sum(axis=1),

            g_j = sum_{k,k'} R_{kk'} dL_{kk'}/dq_j

        (dL_{kk'}/dP_j = delta_{jk} L_{kk'}).  Every factor of L_{kk'} is
        sigma at a difference of positions, so the weights M_{ab} of the
        factors at q_a - q_b give g = rowsum(M) - colsum(M), and diagonal
        weights cancel (Ruijsenaars, CMP 110 (1987); Hasegawa, CMP 187
        (1997)).  The numerator factors A and B vanish where positions are
        spaced by hbar or by z + hbar, so each is differentiated as sigma'
        times the product of the other factors, never as L times zeta (0 *
        inf there).  Only the denominator S, kept off zero by the collision
        guard, enters through zeta.
        """
        s = self.s
        k = args.x.size
        elliptic._sigma_orders(args, self.lat, s[:k], self.ds[:k], self.constants)
        A, B, S, dA, dB, dS = self.flat[self.jlayout]
        E = 1.0 / (self.sigma_z * S.prod(axis=0))
        # X[l, k, k'] = prod_{m not in {k, l}} B[m, k'] for l != k, and
        # N[k, k'] at l = k, zeroed: B[k, k'] is not a factor of L_{kk'}.
        X = _exclusive_products(s[self.xlayout])
        n = X.shape[0]
        diagonal = X.reshape(n * n, n)[:: n + 1]
        N = diagonal.copy()
        diagonal[...] = 0.0
        expP = np.exp(P)
        L = expP[:, None] * (E[:, None] * A * N)
        Z = dS / S  # zeta(q_l - q_k), 0 on the diagonal
        E = expP * E

        def grad_q(R, h):
            V = R * E[:, None]
            M = V * dA * N + dB * np.einsum("kj,lkj->lj", V * A, X) - h[None, :] * Z
            return M.sum(axis=1) - M.sum(axis=0)

        return L, grad_q


def hasegawa_lax(conf: RSConfig, z) -> SpectralMatrix:
    """RS Lax matrix in Hasegawa form,

        L_{kk'} = exp(P_k) * sigma(z + hbar + q_k - q_{k'}) / sigma(z)
                  * prod_{l != k} sigma(hbar + q_l - q_{k'}) / sigma(q_l - q_k)

    evaluated for any lattice kind through the sigma dispatch.
    """
    P = np.asarray(conf.P, dtype=complex)
    with np.errstate(all="ignore"):
        L = _HasegawaPlan(conf, z).matrix(np.asarray(conf.q, dtype=complex), P)
    return _lax_matrix(L, complex(z), P)


def _transport_diagonals(batch, D, hD):
    """The diagonals prod_{l != k} sigma(q_l - q_k) and prod_l sigma(hbar +
    q_l - q_k) that scale the rows and columns of the transport matrix,
    from the batch's arguments D = q_l - q_k and hD = hbar + D."""
    return np.diag(_exclusive_products(batch.sigma(D))), batch.sigma(hD).prod(axis=0)


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
    q = np.asarray(conf.q, dtype=complex)
    P = np.asarray(conf.P, dtype=complex)
    return _composition(q, P, conf.hbar, conf.lat, complex(z))


def _composition(q, P, hbar, lat, z):
    """composition_lax at the position and exponent arrays (q, P), the
    coupling hbar and the spectral point z on lat, from one sigma pass
    (elliptic._Batch); the positions are checked where their configuration
    was made."""
    batch = elliptic._Batch(lat)
    D = cauchy._pairwise_diffs(q, q)
    D_idx, hbar_idx = batch.add(D), batch.add(hbar)
    cauchy_args = cauchy._cauchy_args(batch, q + hbar, q, z)
    hD = batch.add(hbar + D)
    with np.errstate(all="ignore"):
        if batch.distance(hbar_idx) < elliptic.POLE_TOL:
            # Zero coupling: the transport is trivial and only momenta remain.
            return _lax_matrix(np.diag(np.exp(P)), z, P)
        if not P.size:
            CauchyMatrixSpec((), (), lat)  # raises: the Cauchy matrix needs n >= 1
        C = cauchy._cauchy_matrix(batch, cauchy_args, z)
        prod_den, col = _transport_diagonals(batch, D_idx, hD)
        entries = (np.exp(P) / prod_den)[:, None] * C.entries * col[None, :]
    return _lax_matrix(entries, z, P)


def _row_f(plus, minus, zero, n):
    """(f^2, prod_{l != i} f(q_i - q_l) per row i) from sigma at q_i - q_l +
    mu (plus), q_i - q_l - mu (minus) and q_i - q_l (zero) over i != l
    (row-major), which the caller keeps off the lattice, with

        f(q)^2 = sigma(mu)^2 (wp(mu) - wp(q)) = sigma(q + mu) sigma(q - mu) / sigma(q)^2

    formed as two quotients, so that no sigma(q)^2 overflows, and the
    principal square root taken factor by factor."""
    f2 = plus / zero * (minus / zero)
    return f2, np.sqrt(f2).reshape(n, n - 1).prod(axis=1)


def ruijsenaars_lax(conf: RSConfig, lam) -> SpectralMatrix:
    """Ruijsenaars form of the RS Lax matrix,

        L'_{ij} = exp(theta_i) * prod_{l != i} f(q_i - q_l)
                  * sigma(q_i - q_j + lam) * sigma(mu)
                  / (sigma(lam) * sigma(q_i - q_j + mu))

    with f(q)^2 = sigma(mu)^2 (wp(mu) - wp(q)) = sigma(q + mu) sigma(q - mu)
    / sigma(q)^2, read from sigma alone, and the principal square root taken
    factor by factor.
    """
    P = np.asarray(conf.P, dtype=complex)
    with np.errstate(all="ignore"):
        L = _RuijsenaarsPlan(conf, lam).matrix(np.asarray(conf.q, dtype=complex), P)
    return _lax_matrix(L, complex(lam), P)


class _RuijsenaarsPlan(_Plan):
    """ruijsenaars_lax laid out once for conf's n, mu and lattice and the
    spectral point lam (lam and mu checked here): the sigma arguments are
    the blocks q_i - q_k + lam and q_i - q_k + mu (all pairs), q_i - q_k -
    mu and q_i - q_k (i != k), all read in one sigma pass; sigma(lam) and
    sigma(mu) are evaluated here, from one reduction of lam and mu.  The
    q-gradient map is R -> g, g_j = sum_{i,k} R_{ik} dL'_{ik}/dq_j.

    By the addition theorem wp(mu) - wp(q) = sigma(q + mu) sigma(q - mu) /
    (sigma(mu)^2 sigma(q)^2), so f(q)^2 = sigma(mu)^2 (wp(mu) - wp(q)) =
    sigma(q + mu) sigma(q - mu) / sigma(q)^2 is read from the last three
    blocks (_row_f).  The factor sigma(q_i - q_k + lam) vanishes where
    positions are spaced by -lam, so it is differentiated as sigma' times
    the other factors.  The other factors are kept off zero by the pole
    checks and enter through their log-derivatives: -zeta(q + mu) for
    1/sigma(q + mu) and, for f, on any square-root branch

        d(log f)/dq = (zeta(q + mu) + zeta(q - mu))/2 - zeta(q).
    """

    def __init__(self, conf: RSConfig, lam):
        lam = complex(lam)
        mu = conf.mu
        self.n = n = conf.n
        batch = elliptic._Batch(conf.lat)
        idx = batch.add([lam, mu])
        batch.off_lattice(lam=idx[0], mu=idx[1])
        self.sigma_lam, self.sigma_mu = batch.sigma(idx)
        rows, cols, self.off = _pairs(n)
        m, o = n * n, self.off.size
        I = np.concatenate([rows, rows, rows[self.off], rows[self.off]])
        J = np.concatenate([cols, cols, cols[self.off], cols[self.off]])
        c = np.array([lam, mu, -mu, 0.0]).repeat([m, m, o, o])
        self._keep(conf.lat, I, J, c, 2 * m + 2 * o)
        self.diffs = slice(2 * m + o, None)
        # The off-diagonal q_i - q_k + mu; the diagonal is mu, checked above.
        self.mu_off = m + self.off

    def matrix(self, q, P):
        """The entries at the position and exponent arrays (q, P)."""
        return self._evaluate(self.reduce(q, False)[0], P)

    def jacobian(self, args, P):
        """L' and its q-gradient map (see _evaluate)."""
        return self._evaluate(args, P, True)

    def _evaluate(self, args, P, jacobian=False):
        """L' at the arguments args of positions q and exponents P, and with
        jacobian also its q-gradient map (R, h) -> g, h = (R * L').sum(axis=1)."""
        n, lat, s, ds = self.n, self.lat, self.s, self.ds
        m = n * n
        if (elliptic._distance(args, lat, self.mu_off) < elliptic.POLE_TOL).any():
            raise PoleAtLattice("some q_i - q_j + mu is on the lattice")
        elliptic._sigma_orders(args, lat, s, ds if jacobian else None, self.constants)
        # The differences are kept off the lattice by the collision guard,
        # or, in matrix(), by RSConfig's distinctness check.
        minus, zero = s[2 * m :].reshape(2, -1)
        f2, row_f = _row_f(s[self.mu_off], minus, zero, n)
        if np.any((f2.real < 0) & (np.abs(f2.imag) < 1e-9 * np.abs(f2))):
            warnings.warn(
                "f^2 value near the negative real axis: principal square root "
                "may be discontinuous",
                BranchCutWarning,
            )
        S_mu = s[m : 2 * m].reshape(n, n)
        theta = np.exp(P)
        # L' without its factor sigma(q_i - q_k + lam).
        Lhat = (theta * row_f)[:, None] * self.sigma_mu / (self.sigma_lam * S_mu)
        L = Lhat * s[:m].reshape(n, n)
        if not jacobian:
            return L
        Z_mu = ds[m : 2 * m] / s[m : 2 * m]
        Z_minus, Z_0 = (ds[2 * m :] / s[2 * m :]).reshape(2, -1)
        F = np.zeros(m, dtype=complex)  # d(log f) at q_i - q_l
        F[self.off] = 0.5 * (Z_mu[self.off] + Z_minus) - Z_0
        F = F.reshape(n, n)
        W = Lhat * ds[:m].reshape(n, n) - L * Z_mu.reshape(n, n)

        def grad_q(R, h):
            M = R * W + h[:, None] * F
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
    root branch choices into the momentum normalization.  Its sigma values
    come from one pass (elliptic._Batch); ValueOverflow where an exp(P_k) or
    an exp(theta_k) is not a double (elliptic._Batch.quotient, whose log
    form reduces each log f^2 to the principal branch before halving).
    """
    n, lat = conf.n, conf.lat
    D = cauchy._pairwise_diffs(conf.q, conf.q)
    off = _pairs(n)[2]
    batch = elliptic._Batch(lat)
    D_idx, hD, hbar = batch.add(D), batch.add(conf.hbar + D), batch.add(conf.hbar)
    # q_i - q_l + hbar, q_i - q_l - hbar and q_i - q_l over i != l, for f.
    f_idx = np.stack([hD.flat[off], batch.add(D.flat[off] - conf.hbar), D_idx.flat[off]])
    with np.errstate(all="ignore"):  # products that are not doubles go to the log form
        prod_den, col = _transport_diagonals(batch, D_idx, hD)
    sig_h = batch.sigma(hbar)
    # There col and f vanish, and their quotient is not defined.
    batch.off_lattice(**{"hbar + q_l - q_k": hD})
    P = np.asarray(conf.P, dtype=complex)
    if np.any(P.real > _LOG_MAX):
        raise ValueOverflow(f"ruijsenaars_equivalent_momenta{_exp_overflow(P)}")

    def direct():
        x = np.exp(P) / prod_den * col / (sig_h * _row_f(*batch.sigma(f_idx), n)[1])
        return np.where(x == 0, np.nan, x)  # exp(theta) = 0 has no log

    def log_form():
        plus, minus, zero = f_idx.reshape(3, n, n - 1)
        log_f2, f2_size = batch.log_quotient([plus, minus], [zero, zero])
        below = D_idx.T[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # q_l - q_k, l != k
        log, size = batch.log_quotient(hD, [*below.T, hbar])
        return P + log - 0.5 * elliptic._principal(log_f2).sum(axis=1), size + f2_size.sum(axis=1)

    return np.log(batch.quotient(direct, log_form, "ruijsenaars_equivalent_momenta: exp(theta)"))


def krichever_lax(conf: RSConfig, z, lam) -> SpectralMatrix:
    """Krichever form of the RS Lax matrix,

        L''_{ij} = sigma(lam + q_i - q_j) / (sigma(lam + mu) * sigma(q_i - q_j - mu))
                   * [sigma(z - mu)/sigma(z + mu)]^{(q_i - q_j - mu)/(2 mu)}

    with the principal branch of the complex power, from one sigma pass;
    ValueOverflow where an entry is not a double (elliptic._Batch.quotient,
    whose log form takes the power's principal branch too).
    """
    mu = conf.mu
    z = complex(z)
    lam = complex(lam)
    if abs(mu) < 1e-12:
        raise ZeroMu("krichever matrix requires mu != 0")
    D = cauchy._pairwise_diffs(conf.q, conf.q)
    batch = elliptic._Batch(conf.lat)
    lam_mu, z_minus, z_plus, D_mu, lam_D = map(
        batch.add, (lam + mu, z - mu, z + mu, D - mu, lam + D)
    )
    batch.off_lattice(
        **{"lam + mu": lam_mu, "z - mu": z_minus, "z + mu": z_plus, "q_i - q_j - mu": D_mu}
    )
    with np.errstate(all="ignore"):
        c = (D - mu) / (2.0 * mu)

    def direct():
        power = np.exp(c * np.log(batch.sigma(z_minus) / batch.sigma(z_plus)))
        return batch.sigma(lam_D) / (batch.sigma(lam_mu) * batch.sigma(D_mu)) * power

    def log_form():
        log, size = batch.log_quotient([lam_D], [lam_mu, D_mu])
        log_ratio, ratio_size = batch.log_quotient([z_minus], [z_plus])
        return log + c * elliptic._principal(log_ratio), size + abs(c) * ratio_size

    return SpectralMatrix(conf.n, batch.quotient(direct, log_form, "krichever_lax: an entry"), lam)


def spin_lax(conf: RSConfig, spin: SpinFraming, z) -> SpectralMatrix:
    """Spin RS Lax matrix with rank-k framing,

        L_{kk'} = f_{kk'} * sigma(z + u/n + q_k - q_{k'}) / sigma(z)
                  * prod_{l != k} sigma(u/n + q_l - q_{k'}) / sigma(q_l - q_k)

    with u = n*hbar and f_{kk'} = (U0 V0)_{kk'} * (Uinf Vinf)_{k'k}.
    """
    _sizes_agree("the spin framing", spin.U0.shape[0], conf)
    F0 = spin.U0 @ spin.V0
    Finf = spin.Uinf @ spin.Vinf
    # exp(P) = 1 leaves the kernel K itself.
    K = _HasegawaPlan(conf, z).matrix(np.asarray(conf.q, dtype=complex), np.zeros(conf.n))
    return SpectralMatrix(conf.n, F0 * Finf.T * K, complex(z))


def cm_lax(conf: CMConfig, lam) -> SpectralMatrix:
    """CM Lax matrix with spectral parameter,

        L_{ij} = delta_{ij} p_i + g * (1 - delta_{ij}) * (1/(q_i - q_j) - 1/lam)

    in the rational kind; the trigonometric and elliptic kinds use the
    sigma-quotient section g * sigma(lam - q_ij)/(sigma(q_ij) * sigma(lam)),
    which reduces to the displayed rational entries when sigma(z) = z.
    lam may be None (or inf) in the rational kind to drop the spectral term.
    ValueOverflow where a sigma quotient is not a double
    (elliptic._Batch.quotient).
    """
    lat, n = conf.lat, conf.n
    off = ~np.eye(n, dtype=bool)
    D = cauchy._pairwise_diffs(conf.q, conf.q)[off]
    entries = np.diag(np.asarray(conf.p, dtype=complex))
    if lam is None or (np.isreal(lam) and np.isinf(np.real(lam))):
        if lat.kind != elliptic.KIND_RATIONAL:
            raise ZeroLambda("dropping the spectral term is defined for the rational kind only")
        entries[off] += conf.g / D
        return SpectralMatrix(n, entries, 0.0 + 0.0j)
    lam = complex(lam)
    if lat.kind == elliptic.KIND_RATIONAL:
        if abs(lam) < 1e-12:
            raise ZeroLambda("cm_lax requires lam != 0")
        entries[off] += conf.g * (1.0 / D - 1.0 / lam)
        return SpectralMatrix(n, entries, lam)
    batch = elliptic._Batch(lat)
    lam_idx, num, den = batch.add(lam), batch.add(lam - D), batch.add(D)
    batch.off_lattice(lam=lam_idx)

    def log_form():
        log, size = batch.log_quotient([num], [den, lam_idx])
        return log + np.log(conf.g), size + abs(np.log(conf.g))

    if n > 1:
        entries[off] += batch.quotient(
            lambda: conf.g * batch.sigma(num) / (batch.sigma(den) * batch.sigma(lam_idx)),
            log_form,
            "cm_lax: an entry",
        )
    return SpectralMatrix(n, entries, lam)


def factorized_cm_lax(conf: CMConfig, z) -> SpectralMatrix:
    """Factorized CM Lax matrix diag(p) + T'(z), where T' is the coupling
    derivative at zero coupling of the momentum-free RS transport matrix
    (composition_lax with P = 0).  There, an off-diagonal entry has one
    vanishing factor, sigma(hbar), with sigma'(0) = 1, and a diagonal entry
    is 1, so its derivative is its log-derivative:

        T'_{kk'} = c_{k'}/c_k * sigma(z + q_k - q_{k'}) / (sigma(z) sigma(q_k - q_{k'}))
        T'_{kk} = zeta(z) + sum_{l != k} zeta(q_l - q_k)

    with c_k = prod_{l != k} sigma(q_l - q_k).  For n = 1 this is p + zeta(z).
    (L(hbar) - I)/hbar converges to it at first order as hbar -> 0 with P = hbar*p.
    Its sigma and zeta values come from one reduction (elliptic._Batch).
    """
    z = complex(z)
    if conf.lat.kind != elliptic.KIND_ELLIPTIC:
        raise DegenerateConfiguration("factorized CM matrix requires an elliptic lattice")
    n = conf.n
    D = cauchy._pairwise_diffs(conf.q, conf.q)
    batch = elliptic._Batch(conf.lat)
    z_idx, D_idx, zD = batch.add(z), batch.add(D), batch.add(z + D)
    with np.errstate(all="ignore"):
        # zeta(z), then zeta(q_l - q_k) over l != k for each k in turn; zeta
        # raises PoleAtLattice if z is on the lattice.
        zetas = batch.zeta(np.append(z_idx, D_idx.T[~np.eye(n, dtype=bool)]))
        S, A = batch.sigma(np.stack([D_idx, zD]))
        np.fill_diagonal(S, 1.0)
        c = S.prod(axis=0)
        T = A / (batch.sigma(z_idx) * S) * c / c[:, None]
        np.fill_diagonal(T, zetas[0] + zetas[1:].reshape(n, n - 1).sum(axis=1))
    entries = np.diag(np.asarray(conf.p, dtype=complex)) + T
    return SpectralMatrix(n, entries, z)
