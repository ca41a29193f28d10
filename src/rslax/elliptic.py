"""Weierstrass sigma, zeta and wp functions, theta functions with characteristics,
their trigonometric/rational degenerations, and the non-vanishing gauge factor
C*exp(A*z + B*z**2) relating the sigma and theta bases.

Conventions
-----------
* A lattice is spanned by two periods omega1, omega2 with Im(omega2/omega1) > 0.
* sigma is computed through the odd theta function theta[1/2;1/2] with the
  exponential gauge fixed so that sigma(z) ~ z near 0 and sigma has simple
  zeros exactly on the lattice.  It is evaluated in an SL2(Z)-reduced basis
  of the lattice, at arguments reduced into its fundamental parallelogram,
  over a fixed window of theta terms.  The slowly converging lattice product
  is used only as an independent test oracle.
* Quasi-periodicity: sigma(z + omega_i) = -exp(2*eta_i*(z + omega_i/2))*sigma(z),
  and the quasi-period constants satisfy eta1*omega2 - eta2*omega1 = i*pi.
* Degenerate kinds are normalized exactly: sigma_trig(z) = sin(z) and
  sigma_rat(z) = z.  The degeneration sweep compares elliptic and degenerate
  formulas through sigma's exact gauge factor exp(eta1/omega1 * z**2).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FitDegenerate, NonConvergent, PoleAtLattice, ValueOverflow

POLE_TOL = 1e-8
_SERIES_RELTOL = 1e-16
_SERIES_MAX_TERMS = 200
# Theta series index windows kept (a few per lattice and characteristic).
_WINDOW_CACHE_SIZE = 128

KIND_ELLIPTIC = "elliptic"
KIND_TRIG = "trigonometric"
KIND_RATIONAL = "rational"


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Characteristics (a, b) of the theta series theta[a;b](z|tau)."""

    a: complex
    b: complex


@dataclass(frozen=True)
class TrivialTheta:
    """Non-vanishing doubly quasi-periodic gauge factor C*exp(A*z + B*z**2)."""

    A: complex
    B: complex
    C: complex

    def __call__(self, z):
        return self.C * np.exp(self.A * z + self.B * np.asarray(z) ** 2)


@dataclass(frozen=True)
class Lattice:
    """Period lattice of an elliptic curve, or a degenerate stand-in.

    For kind "elliptic" the fields hold the generators omega1, omega2 with
    tau = omega2/omega1 (Im tau > 0) and the quasi-period constants eta1,
    eta2 of the sigma function.  For the degenerate kinds the period data is
    unused: "trigonometric" means sigma(z) = sin(z) with zero set pi*Z, and
    "rational" means sigma(z) = z with zero set {0}.

    An elliptic lattice also holds its reduced basis (red_omega1, red_tau =
    red_omega2/red_omega1; see lattice_from_periods), in which sigma, zeta,
    wp and lattice_distance are evaluated.
    """

    omega1: complex
    omega2: complex
    tau: complex
    eta1: complex
    eta2: complex
    kind: str = KIND_ELLIPTIC
    red_omega1: complex = 0.0
    red_tau: complex = 0.0


def _theta_series(a, b, z, tau, order=0):
    """d^order/dz^order of theta[a;b](z|tau), vectorized over z.

    theta[a;b](z|tau) = sum_k exp(i*pi*tau*(k+a)^2 + 2*pi*i*(k+a)*(z+b)).
    Terms are summed over an index window centered on the dominant term and
    widened until the boundary terms of every requested order (0 to 3) fall
    below _SERIES_RELTOL of that order's largest term; more than
    _SERIES_MAX_TERMS terms, or a non-finite argument, raise NonConvergent.
    order may be a tuple of orders, for which the tuple of derivatives is
    returned from one series pass.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise NonConvergent(f"theta series requires Im(tau) > 0, got tau={tau}")
    a = complex(a)
    zarr = np.asarray(z, dtype=complex)
    zb = zarr.reshape(1, -1) + complex(b)

    # The series' dominant indices -a.real - Im(z + b)/Im(tau) span [lo, hi].
    lo = -a.real - zb.imag.max() / tau.imag
    hi = -a.real - zb.imag.min() / tau.imag
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonConvergent("theta series argument is not finite")
    base_width = math.ceil(math.sqrt(40.0 / (math.pi * tau.imag))) + 2
    kmin = math.floor(lo) - base_width
    kmax = math.ceil(hi) + base_width
    orders = (order,) if isinstance(order, int) else order

    while True:
        if kmax - kmin + 1 > _SERIES_MAX_TERMS:
            raise NonConvergent(
                "theta series needs more than "
                f"{_SERIES_MAX_TERMS} terms for tau={tau}"
            )
        gauss, wpow, abspow = _theta_window(tau, a, kmin, kmax)
        base = np.exp(gauss + wpow[1] * zb)
        # |d^o term/dz^o| = |term| * |2*pi*(k+a)|^o: per order o, the largest
        # term magnitude in each row k, then the bound and boundary values
        # as floats.  A NaN fails every comparison and widens the window.
        mags = np.abs(base).max(axis=1) * abspow
        tols = (_SERIES_RELTOL * mags.max(axis=1)).tolist()
        ends = mags[:, :: kmax - kmin].tolist()
        if all(ends[o][0] <= tols[o] and ends[o][1] <= tols[o] for o in orders):
            break
        if not np.isfinite(zb).all():
            raise NonConvergent("theta series argument is not finite")
        kmin -= 4
        kmax += 4

    def total(o):
        t = (base * wpow[o] if o else base).sum(axis=0)
        return complex(t[0]) if zarr.ndim == 0 else t.reshape(zarr.shape)

    return total(order) if isinstance(order, int) else tuple(map(total, order))


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _theta_window(tau, a, kmin, kmax):
    """Read-only arrays over k = kmin..kmax: the theta series exponent
    i*pi*tau*(k+a)^2 as a column, the columns w^o of w = 2*pi*i*(k+a) and
    the rows |w|^o, for o = 0..3.

    The exponent, not its exponential, is cached: each term is one exp of
    the summed exponent, which stays finite where the two factors taken
    apart would overflow and underflow.
    """
    ks = np.arange(kmin, kmax + 1, dtype=float)[:, None] + a
    gauss = 1j * np.pi * tau * ks**2
    w = 2j * np.pi * ks
    wpow = np.stack([w**o for o in range(4)])
    abspow = np.abs(w).T ** np.arange(4)[:, None]
    for arr in (gauss, wpow, abspow):
        arr.setflags(write=False)
    return gauss, wpow, abspow


def theta_char(ch: ThetaCharacteristic, z, tau) -> complex:
    """Theta function with characteristics theta[a;b](z|tau);
    ValueOverflow where its series does not sum to a finite double."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _theta_series(ch.a, ch.b, z, tau)
    if not np.isfinite(out).all():
        raise ValueOverflow("theta is too large for a double")
    return out


_UNIT_CACHE: dict[complex, tuple[complex, complex]] = {}


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _theta1_window(tau):
    """The fixed window of theta1(x) = theta[1/2;1/2](x|tau) for a reduced
    tau (Im tau >= sqrt(3)/2) and |Im x| <= Im(tau)/2: the exponents
    i*pi*tau*k*(k+1) + i*pi*(k+1/2) as a column and the rows w^o of
    w = 2*pi*i*(k+1/2), o = 0..3, over k = -N..N-1, read-only.

    These are the series' exponents less i*pi*tau/4, a constant factor
    that cancels from sigma = omega1 exp(eta1_hat x^2) theta1(x)/theta1'(0).
    The largest term is at k = 0 or -1, and the terms at k = N-1 and -N are
    at most exp(-pi Im(tau) (N-1)^2) of it, which N keeps below 1e-17 also
    after a factor |w|^3.
    """
    N = 1 + math.ceil(math.sqrt(48.0 / (math.pi * tau.imag)))
    k = np.arange(-N, N, dtype=float)
    gauss = (1j * np.pi * (tau * k * (k + 1) + k + 0.5))[:, None]
    w = 2j * np.pi * (k + 0.5)
    wpow = np.stack([w**o for o in range(4)])
    for arr in (gauss, wpow):
        arr.setflags(write=False)
    return gauss, wpow


def _theta1_sums(xr, tau, count, g=None):
    """Rows o = 0..count-1 of sum_k w_k^o exp(g + gauss_k + w_k xr) over the
    window of the reduced tau (_theta1_window), for |Im xr| <= Im(tau)/2:
    the derivatives of theta1 at xr, up to a constant factor, times exp(g).

    Each term is one exp of its summed exponent, which stays finite where
    the factors taken apart would overflow and underflow.
    """
    gauss, wpow = _theta1_window(tau)
    e = wpow[1][:, None] * xr
    e += gauss
    if g is not None:
        e += g
    return wpow[:count] @ np.exp(e)


def _unit_constants(tau):
    """(theta1'(0), eta1_hat) for the lattice Z + tau*Z, tau reduced, with
    theta1'(0) in _theta1_window's scale.

    eta1_hat = -theta1'''(0)/(6*theta1'(0)) is the quasi-period constant of
    sigma on that lattice.
    """
    cached = _UNIT_CACHE.get(tau)
    if cached is None:
        gauss, wpow = _theta1_window(tau)
        t1, t3 = (wpow[1::2] @ np.exp(gauss))[:, 0]
        cached = (complex(t1), complex(-t3 / (6.0 * t1)))
        _UNIT_CACHE[tau] = cached
    return cached


def lattice_from_periods(omega1, omega2) -> Lattice:
    """Build an elliptic Lattice from its two periods.

    Requires Im(omega2/omega1) > 0 (swap the arguments otherwise) so that a
    single orientation convention holds for all stored lattices.

    The reduced basis (red_omega2, red_omega1) = (a*omega2 + b*omega1,
    c*omega2 + d*omega1), ad - bc = 1, has |Re red_tau| <= 1/2 and
    |red_tau| >= 1, so Im red_tau >= sqrt(3)/2 (Gauss reduction: shift tau
    by an integer, and invert it while |tau| < 1).  sigma depends only on
    the lattice, so evaluating it in that basis is exact.  The reduced eta
    come from theta1 at red_tau, and eta1, eta2 of the given basis from
    them by the inverse integer matrix, as eta is additive in the period.
    """
    omega1 = complex(omega1)
    omega2 = complex(omega2)
    tau = omega2 / omega1
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(
            "lattice orientation must satisfy Im(omega2/omega1) > 0; "
            "swap the period arguments"
        )
    a, b, c, d = 1, 0, 0, 1
    while True:
        k = round(((a * tau + b) / (c * tau + d)).real)
        a, b = a - k * c, b - k * d
        # The tolerance ends the loop where rounding would swap tau and
        # -1/tau on the unit circle forever.
        if abs((a * tau + b) / (c * tau + d)) > 1 - 1e-12:
            break
        a, b, c, d = -c, -d, a, b
    if c == 0:  # a shift of tau by the integer b
        w1, red_tau = omega1, tau + b
    else:
        # Rounded once from their exact values, as integers over one power
        # of two (int / int rounds correctly): sigma far from the origin
        # depends on the lattice to the last bit.
        parts = [u.as_integer_ratio() for w in (omega1, omega2) for u in (w.real, w.imag)]
        den = max(q for _, q in parts)
        o1r, o1i, o2r, o2i = (p * (den // q) for p, q in parts)
        w1r, w1i = c * o2r + d * o1r, c * o2i + d * o1i
        w2r, w2i = a * o2r + b * o1r, a * o2i + b * o1i
        norm = w1r * w1r + w1i * w1i
        w1 = complex(w1r / den, w1i / den)
        red_tau = complex((w2r * w1r + w2i * w1i) / norm, (w2i * w1r - w2r * w1i) / norm)
    _, eta_hat = _unit_constants(red_tau)
    eta1 = eta_hat / w1
    eta2 = (eta_hat * red_tau - 1j * np.pi) / w1
    return Lattice(
        omega1, omega2, tau, a * eta1 - c * eta2, d * eta2 - b * eta1, KIND_ELLIPTIC, w1, red_tau
    )


def trig_lattice() -> Lattice:
    """Degenerate lattice for which sigma(z) = sin(z)."""
    return Lattice(np.pi, 0.0, 0.0, 0.0, 0.0, KIND_TRIG)


def rational_lattice() -> Lattice:
    """Degenerate lattice for which sigma(z) = z."""
    return Lattice(0.0, 0.0, 0.0, 0.0, 0.0, KIND_RATIONAL)


class _Args(NamedTuple):
    """Arguments z in the coordinates of sigma, zeta, wp and lattice_distance.

    On an elliptic lattice x = z/red_omega1 = xr + m + n*red_tau with
    n = rint(Im x/Im red_tau), then m = rint(Re(x - n*red_tau)), so
    |Im xr| <= Im(red_tau)/2 and |Re xr| <= 1/2.  On the degenerate kinds
    x = z, and xr, n and m are None.
    """

    x: np.ndarray
    xr: np.ndarray | None = None
    n: np.ndarray | None = None
    m: np.ndarray | None = None

    def part(self, sel):
        """The arguments at the index sel."""
        return _Args(*(None if a is None else a[sel] for a in self))


def _reduce(z, lat: Lattice) -> _Args:
    """The one coordinate transform of the special functions (see _Args),
    for a 1-d array z."""
    if lat.kind != KIND_ELLIPTIC:
        return _Args(z)
    tau = lat.red_tau
    x = z / lat.red_omega1
    n = np.rint(x.imag / tau.imag)
    xr = x - n * tau
    m = np.rint(xr.real)
    return _Args(x, xr - m, n, m)


def _distance(args: _Args, lat: Lattice, sel=slice(None)):
    """lattice_distance at args[sel].  On an elliptic lattice it is the
    distance to the point x was rounded to, |xr| |red_omega1|: exact below
    sqrt(3)/4 of the shortest period, and never below the true distance."""
    if lat.kind == KIND_ELLIPTIC:
        return np.abs(args.xr[sel]) * abs(lat.red_omega1)
    x = args.x[sel]
    if lat.kind == KIND_TRIG:
        return np.abs(x - np.pi * np.rint(x.real / np.pi))
    return np.abs(x)


def _entry(z, lat: Lattice) -> _Args:
    """The reduced flattened public argument z; NonConvergent if it is not
    finite."""
    zarr = np.asarray(z, dtype=complex)
    if not np.isfinite(zarr).all():
        raise NonConvergent("special function argument is not finite")
    return _reduce(zarr.reshape(-1), lat)


def _shaped(out, z):
    return out[0].item() if np.ndim(z) == 0 else out.reshape(np.shape(z))


def lattice_distance(z, lat: Lattice):
    """Distance from z to the zero set of sigma for the given lattice."""
    return _shaped(_distance(_entry(z, lat), lat), z)


def sigma(z, lat: Lattice):
    """Weierstrass sigma function (sin(z) / z for the degenerate kinds);
    ValueOverflow where it is too large for a double."""
    args = _entry(z, lat)
    out = np.empty(args.x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        _sigma_orders(args, lat, out)
    if not np.isfinite(out).all():
        raise ValueOverflow("sigma is too large for a double")
    return _shaped(out, z)


def _sigma_orders(args: _Args, lat: Lattice, s, ds=None):
    """Write sigma into s and, given ds, sigma' into ds at args.

    On an elliptic lattice, with theta1(x) = (-1)^(m+n) exp(-i pi n (n tau
    + 2 xr)) theta1(xr) (tau = red_tau),

        sigma = red_omega1 exp(eta1_hat x^2) theta1(x) / theta1'(0)
              = sum_k exp(g + gauss_k + w_k xr),
        g = log(red_omega1/theta1'(0)) + eta1_hat x^2
            - i pi (n (n tau + 2 xr) + m + n),
        sigma' = ((2 eta1_hat x - 2 pi i n) sigma + sum_k w_k exp(...)) / red_omega1,

    from one pass over the window (_theta1_sums), finite wherever sigma is
    a double.  sigma' is finite everywhere, also at the zeros of sigma,
    where sigma'/sigma is not.
    """
    if lat.kind == KIND_RATIONAL:
        s[...] = args.x
        if ds is not None:
            ds[...] = 1.0
        return
    if lat.kind == KIND_TRIG:
        # sin(a + ib) = sin(a) cosh(b) + i cos(a) sinh(b) and cos(a + ib) =
        # cos(a) cosh(b) - i sin(a) sinh(b): four real passes, where complex
        # sin and cos take eight.
        a, b = args.x.real, args.x.imag
        sin, cos, sinh, cosh = np.sin(a), np.cos(a), np.sinh(b), np.cosh(b)
        s.real, s.imag = sin * cosh, cos * sinh
        if ds is not None:
            ds.real, ds.imag = cos * cosh, -sin * sinh
        return
    x, xr, n, m = args
    w, tau = lat.red_omega1, lat.red_tau
    t1, eta = _unit_constants(tau)
    g = eta * x * x - 1j * np.pi * (n * (n * tau + 2.0 * xr) + m + n) + cmath.log(w / t1)
    sums = _theta1_sums(xr, tau, 1 if ds is None else 2, g)
    s[...] = sums[0]
    if ds is not None:
        ds[...] = ((2.0 * eta * x - 2j * np.pi * n) * sums[0] + sums[1]) / w


def _off_lattice(args: _Args, lat: Lattice, what):
    if np.min(_distance(args, lat)) < POLE_TOL:
        raise PoleAtLattice(f"{what} argument within {POLE_TOL} of a lattice point")


def zeta(z, lat: Lattice):
    """Weierstrass zeta = sigma'/sigma; cot(z) / 1/z for the degenerate kinds.

    Quasi-periodicity: zeta(z + omega_i) = zeta(z) + 2*eta_i.
    """
    args = _entry(z, lat)
    _off_lattice(args, lat, "zeta")
    if lat.kind != KIND_ELLIPTIC:
        s, ds = np.empty((2, args.x.size), dtype=complex)
        _sigma_orders(args, lat, s, ds)
        return _shaped(ds / s, z)
    x, xr, n, _ = args
    _, eta = _unit_constants(lat.red_tau)
    # sigma'/sigma of _sigma_orders, whose terms' common factor exp(g) cancels.
    t0, t1 = _theta1_sums(xr, lat.red_tau, 2)
    return _shaped((2.0 * eta * x - 2j * np.pi * n + t1 / t0) / lat.red_omega1, z)


def wp(z, lat: Lattice):
    """Weierstrass wp function; 1/sin(z)**2 / 1/z**2 for degenerate kinds."""
    args = _entry(z, lat)
    _off_lattice(args, lat, "wp")
    return _shaped(_wp(args, lat), z)


def _wp(args: _Args, lat: Lattice):
    """wp at args, which the caller keeps off the lattice."""
    if lat.kind == KIND_TRIG:
        return 1.0 / np.sin(args.x) ** 2
    if lat.kind == KIND_RATIONAL:
        return 1.0 / args.x**2
    _, eta = _unit_constants(lat.red_tau)
    t0, t1, t2 = _theta1_sums(args.xr, lat.red_tau, 3)
    # wp = -(log sigma)'' = (-2 eta1_hat - (log theta1)'')/red_omega1^2, and
    # log theta1(x) - log theta1(xr) is linear in x.
    return (-2.0 * eta - (t2 * t0 - t1**2) / t0**2) / lat.red_omega1**2


def section_phi(q, z, lat: Lattice):
    """Section value sigma(z - q)/sigma(z); zero at z = q, pole at z = 0."""
    if np.min(lattice_distance(z, lat)) < POLE_TOL:
        raise PoleAtLattice("section_phi evaluated at a lattice pole")
    return sigma(np.asarray(z) - q, lat) / sigma(z, lat)


def legendre_residual(lat: Lattice) -> float:
    """|eta1*omega2 - eta2*omega1 - i*pi| for an elliptic lattice."""
    return abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1 - 1j * np.pi)


def fit_trivial_theta(ch: ThetaCharacteristic, lat: Lattice) -> TrivialTheta:
    """Fit the gauge (A, B, C) in

        sigma(z + a*omega2 + b*omega1) = C * exp(A*z + B*z**2)
                                         * theta[1/2 + a; 1/2 + b](z/omega1 | tau)

    by log-ratios at 3 fitting points, validated at 5 further points.  Both
    sides vanish on the lattice translate -(a*omega2 + b*omega1), so the
    ratio is a non-vanishing gauge factor of the stated form.
    """
    if lat.kind != KIND_ELLIPTIC:
        raise FitDegenerate("trivial-theta fit requires an elliptic lattice")
    a, b = complex(ch.a), complex(ch.b)
    w1 = complex(lat.omega1)
    shift = a * lat.omega2 + b * lat.omega1
    tch = ThetaCharacteristic(0.5 + a, 0.5 + b)

    def ratio(zz):
        th = theta_char(tch, zz / w1, lat.tau)
        sg = sigma(zz + shift, lat)
        if abs(th) < 1e-12 or abs(sg) < 1e-12:
            raise FitDegenerate("fit sample point too close to a zero")
        return sg / th

    for base in (0.1234 + 0.0567j, 0.3141 + 0.1618j, 0.0789 + 0.2113j):
        z0 = base * w1
        for dscale in (0.05, 0.02, 0.008, 0.003, 0.001):
            d = dscale * w1
            try:
                r0, r1, r2 = ratio(z0), ratio(z0 + d), ratio(z0 + 2 * d)
            except FitDegenerate:
                break
            # log(ratio) = log C + A z + B z^2; second difference isolates B,
            # first difference then isolates A.  The differenced exponents
            # scale with d, so shrinking d until validation passes keeps
            # every principal log on its branch.
            B = np.log(r0 * r2 / r1**2) / (2.0 * d**2)
            A = (np.log(r1 / r0) - B * (2.0 * z0 * d + d**2)) / d
            C = r0 * np.exp(-A * z0 - B * z0**2)
            fit = TrivialTheta(A, B, C)

            checks = [z0 + (0.17 + 0.11j) * w1 * k for k in range(1, 6)]
            ok = True
            for zz in checks:
                lhs = sigma(zz + shift, lat)
                rhs = fit(zz) * theta_char(tch, zz / w1, lat.tau)
                scale = max(abs(lhs), abs(rhs), 1e-30)
                if abs(lhs - rhs) > 1e-8 * scale:
                    ok = False
                    break
            if ok:
                return fit
    raise FitDegenerate("trivial-theta gauge fit failed validation")
