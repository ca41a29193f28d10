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
* _Batch is the one checked entry: it reduces a caller's arguments once and
  raises NonConvergent, ValueOverflow and PoleAtLattice for the ones read.
  sigma, zeta, wp and lattice_distance are one-group batches.
* theta_char and the gauge between sigma and theta[1/2+a;1/2+b]
  (fit_trivial_theta) are closed forms on sigma's window: theta[a;b] at tau
  is theta1 = theta[1/2;1/2] at red_tau, at a shifted argument, times exponentials.
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
# Positions (lax) and Cauchy parameters (cauchy) closer than this modulo the
# lattice are not distinct.
DISTINCT_TOL = 1e-6
# Theta windows kept, one per reduced tau.
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


# Keeps its old name: bench/tracer.py counts the calls to elliptic._theta_series.
def _theta_series(a, b, z, tau):
    """theta[a;b](z|tau) = sum_k exp(i pi tau (k+a)^2 + 2 pi i (k+a)(z+b)),
    vectorized over a, b and z, which broadcast against each other: one
    pass for all entries.  With al = a - 1/2, y = z + al*tau + b - 1/2 and
    x = y/red_omega1 = xr + m + n*red_tau on the lattice (1, tau) (_reduce),

        theta[a;b](z|tau) = exp(i pi tau al^2 + 2 pi i al (z + b)) theta1(y|tau),
        theta1(y|tau) = r red_omega1 exp(-i pi c y x) theta1(x|red_tau),

    red_omega1 = c*tau + d, r = theta1'(0|tau)/theta1'(0|red_tau), as sigma
    = w exp(eta(w) y^2/w) theta1(y/w)/theta1'(0) for the bases w = 1 and
    w = red_omega1, and eta(red_omega1) = eta(1) red_omega1 - i pi c.  All
    factors go into the exponent of the window's terms, as in _sigma_orders.
    """
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise NonConvergent(f"theta requires a finite tau with Im(tau) > 0, got tau={tau}")
    a, b, z = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (a, b, z)))
    al, b, zarr = a.reshape(-1) - 0.5, b.reshape(-1), z.reshape(-1)
    lat = _unit_lattice(tau)
    y = zarr + (al * tau + b - 0.5)
    batch = _Batch(lat)
    x, xr, n, m = batch._reduced(batch.add(y))
    c, log_scale = _modular_factor(lat, y)
    w, red = lat.red_omega1, lat.red_tau
    g = 1j * np.pi * (
        tau * al * al + 2.0 * al * (zarr + b) - c * y * x - n * (n * red + 2.0 * xr) - m - n
    ) + (log_scale + cmath.log(w))
    return _item(_theta1_sums(xr, red, 2, g)[0].reshape(z.shape))


def theta_char(ch: ThetaCharacteristic, z, tau) -> complex:
    """Theta function with characteristics theta[a;b](z|tau) (_theta_series),
    ch.a, ch.b and z broadcast against each other; ValueOverflow where it
    is too large for a double, NonConvergent where z is not finite or
    doubles cannot sum it to 1e-11 (_modular_factor)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _theta_series(ch.a, ch.b, z, tau)
    if not np.isfinite(out).all():
        raise ValueOverflow(f"theta is too large for a double at tau={complex(tau)}")
    return out


_UNIT_CACHE: dict[complex, tuple[complex, complex]] = {}


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _unit_lattice(tau):
    """lattice_from_periods(1, tau), kept per tau: the entries of
    lax.intertwining_vector call theta_char at one tau."""
    return lattice_from_periods(1.0, tau)


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _theta1_window(tau):
    """The fixed window of theta1(x) = theta[1/2;1/2](x|tau) for a reduced
    tau (Im tau >= sqrt(3)/2) and |Im x| <= Im(tau)/2: the exponents
    i*pi*tau*k*(k+1) + i*pi*(k+1/2) as a column and the rows w^o of
    w = 2*pi*i*(k+1/2), o = 0..3, over k = -N..N-1, read-only.

    These are the series' exponents less i*pi*tau/4, a constant factor that
    cancels from sigma = omega1 exp(eta1_hat x^2) theta1(x)/theta1'(0) and
    that _modular_factor puts back for theta_char.
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
    """Rows o = 0..count-1 (count >= 2) of sum_k w_k^o exp(g + gauss_k +
    w_k xr) over the window of the reduced tau (_theta1_window), for
    |Im xr| <= Im(tau)/2: the derivatives of theta1 at xr, up to a constant
    factor, times exp(g).

    Each term is one exp of its summed exponent, which stays finite where
    the factors taken apart would overflow and underflow.  Where a term
    overflows although the sum is a double (sigma within a few times of the
    largest double), that argument's terms are summed again scaled by 2^-p,
    p from its largest exponent, and the sum is scaled back exactly.
    """
    gauss, wpow = _theta1_window(tau)
    e = wpow[1][:, None] * xr
    e += gauss
    if g is not None:
        e += g
    out = _weighted_exp_sums(wpow[:count], e)
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out).all(axis=0)
        # Clipped, so that the cast cannot wrap around: beyond 2^4096 the
        # sum is not a double either way, and ldexp makes it inf.
        p = np.clip(np.rint(e[:, bad].real.max(axis=0) / math.log(2.0)), -4096, 4096)
        scaled = _weighted_exp_sums(wpow[:count], e[:, bad] - p * math.log(2.0))
        with np.errstate(over="ignore", invalid="ignore"):
            scaled.real = np.ldexp(scaled.real, p.astype(int))
            scaled.imag = np.ldexp(scaled.imag, p.astype(int))
        out[:, bad] = scaled
    return out


def _weighted_exp_sums(w, e):
    """w @ exp(e).  A matrix-vector product (one row, or one column of e)
    would round a column's sum by its place in e and the number of columns,
    so a single column is summed twice."""
    if e.shape[1] == 1:
        return (w @ np.exp(np.repeat(e, 2, axis=1)))[:, :1]
    return w @ np.exp(e)


def _unit_constants(tau):
    """(theta1'(0), eta1_hat) for the lattice Z + tau*Z, tau reduced, with
    theta1'(0) in _theta1_window's scale.

    eta1_hat = -theta1'''(0)/(6*theta1'(0)) is the quasi-period constant of
    sigma on that lattice.
    """
    cached = _UNIT_CACHE.get(tau)
    if cached is None:
        # Where Im tau is near the largest doubles the window overflows,
        # and lattice_from_periods rejects the eta that are not finite.
        with np.errstate(all="ignore"):
            gauss, wpow = _theta1_window(tau)
            t1, t3 = (wpow[1::2] @ np.exp(gauss))[:, 0]
        cached = (complex(t1), complex(-t3 / (6.0 * t1)))
        _UNIT_CACHE[tau] = cached
    return cached


def _gauss_reduction(tau):
    """(a, b, c, d, log_r): red_tau = (a*tau + b)/(c*tau + d), ad - bc = 1, has
    |Re red_tau| <= 1/2 and |red_tau| >= 1, so Im red_tau >= sqrt(3)/2
    (Gauss reduction: shift tau by an integer, and invert it while
    |tau| < 1), and log_r = log(theta1'(0|tau)/theta1'(0|red_tau)), by
    theta1'(0|t+k) = exp(i pi k/4) theta1'(0|t) and theta1'(0|-1/t) =
    (-i t)^(3/2) theta1'(0|t), principal branch (DLMF 20.7.26, 20.7.30).
    """
    a, b, c, d, log_r = 1, 0, 0, 1, 0j
    while True:
        k = round(((a * tau + b) / (c * tau + d)).real)
        a, b = a - k * c, b - k * d
        log_r += 1j * math.pi * (k % 8) / 4
        t = (a * tau + b) / (c * tau + d)
        # The tolerance ends the loop where rounding would swap tau and
        # -1/tau on the unit circle forever.
        if abs(t) > 1 - 1e-12:
            return a, b, c, d, log_r
        log_r -= 1.5 * cmath.log(-1j * t)
        a, b, c, d = -c, -d, a, b


def _modular_factor(lat: Lattice, y):
    """(c, log(theta1'(0|tau)/t1)) of an elliptic lat's basis, with c of
    _gauss_reduction and t1 = theta1'(0|red_tau) in _theta1_window's scale,
    which leaves out a factor exp(i pi red_tau/4).

    The exponents summed for theta1(y|tau) in closed form (_theta_series)
    grow like pi (|y|^2/Im(tau) + Im(red_tau)/4), and their rounding with
    them: NonConvergent where that exceeds 1e-11 relative.
    """
    size = np.max(np.abs(y), initial=0.0) ** 2 / lat.tau.imag + lat.red_tau.imag / 4
    if np.pi * size * np.finfo(float).eps > 1e-11:
        raise NonConvergent(f"theta at tau={lat.tau} cannot be summed to 1e-11 in doubles")
    _, _, c, _, log_r = _gauss_reduction(lat.tau)
    return c, log_r + 1j * np.pi * lat.red_tau / 4


def lattice_from_periods(omega1, omega2) -> Lattice:
    """Build an elliptic Lattice from its two periods.

    Requires Im(omega2/omega1) > 0 (swap the arguments otherwise) so that a
    single orientation convention holds for all stored lattices.

    The reduced basis (red_omega2, red_omega1) = (a*omega2 + b*omega1,
    c*omega2 + d*omega1) is that of _gauss_reduction.  sigma depends only
    on the lattice, so evaluating it in that basis is exact.  The reduced
    eta come from theta1 at red_tau, and eta1, eta2 of the given basis from
    them by the inverse integer matrix, as eta is additive in the period.

    NonConvergent naming tau where the reduced basis or the eta are not
    finite doubles: below Im tau of about 1e-154 (omega1 = 1), or at
    periods near the smallest doubles; or where rounding leaves tau
    unreduced (Im tau below about 1e-17 at a generic Re tau).
    """
    omega1 = complex(omega1)
    omega2 = complex(omega2)
    tau = omega2 / omega1
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(
            "lattice orientation must satisfy Im(omega2/omega1) > 0; "
            "swap the period arguments"
        )
    try:
        # -1/tau overflows where Im tau is near the smallest doubles.
        a, b, c, d, _ = _gauss_reduction(tau)
        if c == 0:  # a shift of tau by the integer b
            w1, red_tau = omega1, tau + b
        else:
            # Rounded once from their exact values, as integers over one
            # power of two (int / int rounds correctly): sigma far from the
            # origin depends on the lattice to the last bit.
            parts = [u.as_integer_ratio() for w in (omega1, omega2) for u in (w.real, w.imag)]
            den = max(q for _, q in parts)
            o1r, o1i, o2r, o2i = (p * (den // q) for p, q in parts)
            w1r, w1i = c * o2r + d * o1r, c * o2i + d * o1i
            w2r, w2i = a * o2r + b * o1r, a * o2i + b * o1i
            norm = w1r * w1r + w1i * w1i
            w1 = complex(w1r / den, w1i / den)
            red_tau = complex((w2r * w1r + w2i * w1i) / norm, (w2i * w1r - w2r * w1i) / norm)
        if not red_tau.imag > 0.85:
            # A reduced tau has Im >= sqrt(3)/2; doubles lost this one's
            # basis, and theta's window would grow like 1/sqrt(Im red_tau).
            raise NonConvergent(f"the basis at tau={tau} cannot be reduced in doubles")
        _, eta_hat = _unit_constants(red_tau)
        eta1 = eta_hat / w1
        eta2 = (eta_hat * red_tau - 1j * np.pi) / w1
        eta1, eta2 = a * eta1 - c * eta2, d * eta2 - b * eta1
    except (OverflowError, ZeroDivisionError):
        w1 = red_tau = eta1 = eta2 = complex("nan")
    if not all(map(cmath.isfinite, (w1, red_tau, eta1, eta2))):
        raise NonConvergent(
            f"the lattice constants at tau={tau} (omega1={omega1}) are not finite doubles"
        )
    return Lattice(
        omega1, omega2, tau, eta1, eta2, KIND_ELLIPTIC, w1, red_tau
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


def lattice_distance(z, lat: Lattice):
    """Distance from z to the zero set of sigma for the given lattice."""
    batch = _Batch(lat)
    return batch.distance(batch.add(z))


def sigma(z, lat: Lattice):
    """Weierstrass sigma function (sin(z) / z for the degenerate kinds);
    ValueOverflow where it is too large for a double."""
    batch = _Batch(lat)
    return batch.sigma(batch.add(z))


def _sigma_constants(lat: Lattice):
    """(eta1_hat, log(red_omega1/theta1'(0))), the constants _sigma_orders
    reads on an elliptic lat (see there), or None on the degenerate kinds:
    a caller that evaluates sigma on one lattice many times keeps them."""
    if lat.kind != KIND_ELLIPTIC:
        return None
    t1, eta = _unit_constants(lat.red_tau)
    return eta, cmath.log(lat.red_omega1 / t1)


def _sigma_orders(args: _Args, lat: Lattice, s, ds=None, constants=None):
    """Write sigma into s and, given ds, sigma' into ds at args, with
    constants = _sigma_constants(lat) (looked up when None).

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
    x, xr, n, _ = args
    w, tau = lat.red_omega1, lat.red_tau
    constants = constants or _sigma_constants(lat)
    sums = _theta1_sums(xr, tau, 2, _sigma_exponent(args, lat, constants))
    s[...] = sums[0]
    if ds is not None:
        ds[...] = ((2.0 * constants[0] * x - 2j * np.pi * n) * sums[0] + sums[1]) / w


def _sigma_exponent(args: _Args, lat: Lattice, constants=None):
    """g of _sigma_orders at args on an elliptic lat."""
    x, xr, n, m = args
    eta, log_scale = constants or _sigma_constants(lat)
    return eta * x * x - 1j * np.pi * (n * (n * lat.red_tau + 2.0 * xr) + m + n) + log_scale


def _peak(args: _Args, lat: Lattice):
    """A common exponent g of the theta1 terms at args that keeps the
    largest, exp(pi |Im xr|) at k = 0 or -1, at most exp(300), so that its
    square is a double too (on elongated lattices |Im xr| reaches
    Im(red_tau)/2).  It cancels from the ratios zeta and wp read; None
    where it would be 0, at |Im xr| <= 300/pi.  NonConvergent where the
    rounding of the exponents, about pi |Im xr| eps, exceeds 1e-11
    relative, as theta's (_modular_factor)."""
    y = np.abs(args.xr.imag)
    top = y.max(initial=0.0)
    if np.pi * top * np.finfo(float).eps > 1e-11:
        raise NonConvergent(f"zeta and wp at tau={lat.tau} cannot be summed to 1e-11 in doubles")
    return -np.maximum(np.pi * y - 300.0, 0.0) if np.pi * top > 300.0 else None


def _trig_far(x):
    """(far, s, u) at the trigonometric arguments x: far where |Im x| > 300,
    beyond which sin(x)^2 soon overflows, and there s = sign(Im x) and u =
    exp(2i s x), |u| < exp(-600), with cot x = -i s (1 + u)/(1 - u) and
    1/sin(x)^2 = -4u/(1 - u)^2."""
    far = np.abs(x.imag) > 300.0
    s = np.sign(x.imag[far])
    return far, s, np.exp(2j * s * x[far])


def zeta(z, lat: Lattice):
    """Weierstrass zeta = sigma'/sigma; cot(z) / 1/z for the degenerate kinds.

    Quasi-periodicity: zeta(z + omega_i) = zeta(z) + 2*eta_i.
    """
    batch = _Batch(lat)
    return batch.zeta(batch.add(z))


def _zeta(args: _Args, lat: Lattice):
    """zeta at args, which the caller keeps off the lattice."""
    if lat.kind != KIND_ELLIPTIC:
        s, ds = np.empty((2, args.x.size), dtype=complex)
        with np.errstate(all="ignore"):  # sin overflows where far
            _sigma_orders(args, lat, s, ds)
            out = ds / s
        if lat.kind == KIND_TRIG:
            far, sign, u = _trig_far(args.x)
            out[far] = -1j * sign * (1.0 + u) / (1.0 - u)
        return out
    x, xr, n, _ = args
    _, eta = _unit_constants(lat.red_tau)
    # sigma'/sigma of _sigma_orders without the terms' common factor exp(g),
    # whose rounding (about |g| eps) would not cancel; only _peak's.
    t0, t1 = _theta1_sums(xr, lat.red_tau, 2, _peak(args, lat))
    return (2.0 * eta * x - 2j * np.pi * n + t1 / t0) / lat.red_omega1


def wp(z, lat: Lattice):
    """Weierstrass wp function; 1/sin(z)**2 / 1/z**2 for degenerate kinds."""
    batch = _Batch(lat)
    return batch.wp(batch.add(z))


def _wp(args: _Args, lat: Lattice):
    """wp at args, which the caller keeps off the lattice."""
    if lat.kind != KIND_ELLIPTIC:
        x = args.x
        with np.errstate(all="ignore"):  # the square overflows where far
            if lat.kind == KIND_RATIONAL:
                out = 1.0 / x**2
                far = np.abs(x) > 1e150
                out[far] = (1.0 / x[far]) ** 2
                return out
            out = 1.0 / np.sin(x) ** 2
        far, _, u = _trig_far(x)
        out[far] = -4.0 * u / (1.0 - u) ** 2
        return out
    _, eta = _unit_constants(lat.red_tau)
    t0, t1, t2 = _theta1_sums(args.xr, lat.red_tau, 3, _peak(args, lat))
    # wp = -(log sigma)'' = (-2 eta1_hat - (log theta1)'')/red_omega1^2, and
    # log theta1(x) - log theta1(xr) is linear in x.  red_omega1^2 overflows
    # a double beyond |red_omega1| ~ 1.3e154, so it divides twice.
    return (-2.0 * eta - (t2 * t0 - t1**2) / t0**2) / lat.red_omega1 / lat.red_omega1


class _Batch:
    """The one checked entry into the special functions: the arguments of
    one caller on one lattice, in one pass.  add() takes a group of
    arguments and gives back its index array; the first read reduces all of
    them once (_reduce), and the first sigma read evaluates sigma at all of
    them in one _sigma_orders call, so every add() comes before the first
    read.  zeta and wp take their own theta pass over the arguments read,
    on the same reduction.  A read checks only the arguments it reads, so a
    caller's errors are raised in the order of its reads.  A read is shaped
    like its index, and a Python scalar where that is 0-d, as numpy's
    scalars round complex division otherwise.  sigma, zeta, wp and
    lattice_distance are each a one-group batch.  quotient is the one rule
    for sigma quotients that leave the doubles."""

    def __init__(self, lat: Lattice):
        self.lat = lat
        self._parts = []
        self._size = 0
        self.args = self.s = None

    def add(self, z):
        """The index array, shaped like z, of the arguments z."""
        z = np.asarray(z, dtype=complex)
        start = self._size
        self._size += z.size
        self._parts.append(z.reshape(-1))
        return np.arange(start, self._size).reshape(z.shape)

    def _reduced(self, idx):
        """The reduced arguments; NonConvergent if those at idx are not
        finite, or are finite but too large to reduce: the reduced
        coordinate overflows (beyond about 1.8e308 |red_omega1|), or the
        doubles lost its reduction, |Im xr| > Im(red_tau)."""
        if self.args is None:
            with np.errstate(all="ignore"):
                self.args = _reduce(np.concatenate(self._parts), self.lat)
            xr = self.args.xr
            if xr is None:
                finite = np.isfinite(self.args.x)
            else:
                finite = np.isfinite(xr) & (np.abs(xr.imag) <= self.lat.red_tau.imag)
            self.finite = None if finite.all() else finite
        if self.finite is not None and not self.finite[idx].all():
            if np.isfinite(np.concatenate(self._parts)[idx]).all():
                raise NonConvergent("special function argument is too large to reduce")
            raise NonConvergent("special function argument is not finite")
        return self.args

    def distance(self, idx):
        """lattice_distance at idx."""
        return _item(_distance(self._reduced(idx), self.lat, idx))

    def sigma(self, idx):
        """sigma at idx; ValueOverflow where it is too large for a double."""
        args = self._reduced(idx)
        if self.s is None:
            self.s = np.empty(self._size, dtype=complex)
            with np.errstate(all="ignore"):
                _sigma_orders(args, self.lat, self.s)
            self.s_finite = np.isfinite(self.s).all()
        out = self.s[idx]
        if not (self.s_finite or np.isfinite(out).all()):
            if args.xr is not None:
                # 0 at exact lattice points, where exp(g) overflows against theta1(0) = 0.
                out = np.where(np.isfinite(out) | (args.xr[idx] != 0), out, 0.0)
            if not np.isfinite(out).all():
                raise ValueOverflow("sigma is too large for a double")
        return _item(out)

    def log_sigma(self, idx):
        """log sigma at idx, on any branch, finite where sigma is not a
        double: g + t + log sum_k exp(gauss_k + w_k xr - t) with
        _sigma_orders' g, and t = pi |Im xr| the real part of the largest
        term's exponent, at k = 0 or -1."""
        args = self._reduced(idx).part(np.ravel(idx))
        with np.errstate(all="ignore"):
            if args.xr is None:  # sigma is sin or z
                return np.log(self.sigma(idx))
            t = np.pi * np.abs(args.xr.imag)
            sums = _theta1_sums(args.xr, self.lat.red_tau, 2, -t)
            out = _sigma_exponent(args, self.lat) + t + np.log(sums[0])
        return _item(out.reshape(np.shape(idx)))

    def log_quotient(self, num, dens):
        """(log of prod sigma(num) / prod sigma(dens), on any branch, sum of
        |log sigma| over those factors) for lists of index arrays."""
        logs = [self.log_sigma(i) for i in (*num, *dens)]
        return sum(logs[: len(num)]) - sum(logs[len(num) :]), sum(map(np.abs, logs))

    def quotient(self, direct, log_form, what):
        """The quotient of sigma products that direct() forms, where that is
        a finite non-zero double (NaN for a Python scalar divided by 0).
        Elsewhere exp(log), (log, size) = log_form(), where that is a finite
        non-zero double and trusted: its rounding, about eps*size relative,
        within 1e-11, as _peak's.  Elsewhere direct() stands; ValueOverflow
        naming what where the outcome is not finite."""
        with np.errstate(all="ignore"):
            try:
                direct = direct()
            except ZeroDivisionError:
                direct = complex("nan")
            bad = ~np.isfinite(direct) | (direct == 0)
            if not bad.any():
                return direct
            log, size = log_form()
            via = np.exp(log)
        trusted = np.finfo(float).eps * size <= 1e-11
        out = np.where(bad & trusted & np.isfinite(via) & (via != 0), via, direct)
        if not np.isfinite(out).all():
            raise ValueOverflow(f"{what} is not a double")
        return _item(out)

    def off_lattice(self, **points):
        """PoleAtLattice naming the first named group of arguments (its
        index array) within POLE_TOL of the lattice."""
        for what, idx in points.items():
            d = self.distance(idx)
            if (d.min() if np.ndim(d) else d) < POLE_TOL:
                raise PoleAtLattice(f"{what} is on the lattice")

    def zeta(self, idx):
        """zeta at idx."""
        return self._pole_free(idx, "zeta", _zeta)

    def wp(self, idx):
        """wp at idx."""
        return self._pole_free(idx, "wp", _wp)

    def _pole_free(self, idx, what, fn):
        """fn at idx; PoleAtLattice where one is within POLE_TOL of the lattice."""
        args = self._reduced(idx).part(np.ravel(idx))
        if _distance(args, self.lat).min() < POLE_TOL:
            raise PoleAtLattice(f"{what} argument within {POLE_TOL} of a lattice point")
        return _item(fn(args, self.lat).reshape(np.shape(idx)))


def _item(out):
    """out, or its Python scalar where it is 0-d."""
    return out.item() if out.ndim == 0 else out


def _principal(log):
    """log with its imaginary part reduced to [-pi, pi], the principal log."""
    return log - 2j * np.pi * np.round(log.imag / (2 * np.pi))


def section_phi(q, z, lat: Lattice):
    """Section value sigma(z - q)/sigma(z); zero at z = q, pole at z = 0;
    ValueOverflow where it is not a double (_Batch.quotient)."""
    batch = _Batch(lat)
    z_idx, zq = batch.add(z), batch.add(np.asarray(z) - q)
    if np.min(batch.distance(z_idx)) < POLE_TOL:
        raise PoleAtLattice("section_phi evaluated at a lattice pole")
    return batch.quotient(
        lambda: batch.sigma(zq) / batch.sigma(z_idx),
        lambda: batch.log_quotient([zq], [z_idx]),
        "section_phi: sigma(z - q)/sigma(z)",
    )


def legendre_residual(lat: Lattice) -> float:
    """|eta1*omega2 - eta2*omega1 - i*pi| for an elliptic lattice."""
    return abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1 - 1j * np.pi)


def fit_trivial_theta(ch: ThetaCharacteristic, lat: Lattice) -> TrivialTheta:
    """The gauge (A, B, C), in closed form (nothing is fitted), in

        sigma(z + s) = C exp(A z + B z^2) theta[1/2 + a; 1/2 + b](z/omega1 | tau),
        s = a omega2 + b omega1,  B = eta1/omega1,  A = (2 eta1 s - 2 pi i a)/omega1,
        C = omega1/theta1'(0|tau) exp(eta1 s^2/omega1 - i pi tau a^2 - 2 pi i a (1/2 + b)),

    by sigma(u) = omega1 exp(eta1 u^2/omega1) theta1(u/omega1|tau)/theta1'(0|tau)
    and _theta_series; FitDegenerate on a degenerate lattice, NonConvergent as
    theta_char, ValueOverflow where C is not a non-zero double.
    """
    if lat.kind != KIND_ELLIPTIC:
        raise FitDegenerate("trivial-theta gauge requires an elliptic lattice")
    a, b = complex(ch.a), complex(ch.b)
    w1, eta1, tau = lat.omega1, lat.eta1, lat.tau
    s = a * lat.omega2 + b * w1
    _, log_scale = _modular_factor(lat, s / w1)
    t1, _ = _unit_constants(lat.red_tau)
    log_c = cmath.log(w1 / t1) - log_scale + eta1 * s * s / w1
    with np.errstate(over="ignore"):
        C = complex(np.exp(log_c - 1j * np.pi * (tau * a * a + 2.0 * a * (0.5 + b))))
    if C == 0 or not cmath.isfinite(C):
        raise ValueOverflow(f"trivial-theta constant C is not a non-zero double at tau={tau}")
    return TrivialTheta((2.0 * eta1 * s - 2j * np.pi * a) / w1, eta1 / w1, C)
