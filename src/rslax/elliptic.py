"""Weierstrass sigma, zeta and wp functions, theta functions with characteristics,
their trigonometric/rational degenerations, and the non-vanishing gauge factor
C*exp(A*z + B*z**2) relating the sigma and theta bases.

Conventions
-----------
* A lattice is spanned by two periods omega1, omega2 with Im(omega2/omega1) > 0.
* sigma is computed through the odd theta function theta[1/2;1/2] with the
  exponential gauge fixed so that sigma(z) ~ z near 0 and sigma has simple
  zeros exactly on the lattice.  The slowly converging lattice product is used
  only as an independent test oracle.
* Quasi-periodicity: sigma(z + omega_i) = -exp(2*eta_i*(z + omega_i/2))*sigma(z),
  and the quasi-period constants satisfy eta1*omega2 - eta2*omega1 = i*pi.
* Degenerate kinds are normalized exactly: sigma_trig(z) = sin(z) and
  sigma_rat(z) = z.  The degeneration sweep compares elliptic and degenerate
  formulas through sigma's exact gauge factor exp(eta1/omega1 * z**2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerate, NonConvergent, PoleAtLattice

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
    """

    omega1: complex
    omega2: complex
    tau: complex
    eta1: complex
    eta2: complex
    kind: str = KIND_ELLIPTIC


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
    """Theta function with characteristics theta[a;b](z|tau)."""
    return _theta_series(ch.a, ch.b, z, tau)


_UNIT_CACHE: dict[complex, tuple[complex, complex]] = {}


def _unit_constants(tau):
    """(theta1_prime_0, eta1_hat) for the unit lattice Z + tau*Z.

    theta1(z) := theta[1/2;1/2](z|tau); eta1_hat = -theta1'''(0)/(6*theta1'(0))
    is the quasi-period constant of sigma on the unit lattice.
    """
    tau = complex(tau)
    cached = _UNIT_CACHE.get(tau)
    if cached is None:
        t1, t3 = _theta_series(0.5, 0.5, 0.0, tau, order=(1, 3))
        cached = (t1, -t3 / (6.0 * t1))
        _UNIT_CACHE[tau] = cached
    return cached


def lattice_from_periods(omega1, omega2) -> Lattice:
    """Build an elliptic Lattice from its two periods.

    Requires Im(omega2/omega1) > 0 (swap the arguments otherwise) so that a
    single orientation convention holds for all stored lattices.
    """
    omega1 = complex(omega1)
    omega2 = complex(omega2)
    tau = omega2 / omega1
    if tau.imag <= 0:
        raise ValueError(
            "lattice orientation must satisfy Im(omega2/omega1) > 0; "
            "swap the period arguments"
        )
    _, eta1_hat = _unit_constants(tau)
    eta1 = eta1_hat / omega1
    eta2 = (eta1_hat * tau - 1j * np.pi) / omega1
    return Lattice(omega1, omega2, tau, eta1, eta2, KIND_ELLIPTIC)


def trig_lattice() -> Lattice:
    """Degenerate lattice for which sigma(z) = sin(z)."""
    return Lattice(np.pi, 0.0, 0.0, 0.0, 0.0, KIND_TRIG)


def rational_lattice() -> Lattice:
    """Degenerate lattice for which sigma(z) = z."""
    return Lattice(0.0, 0.0, 0.0, 0.0, 0.0, KIND_RATIONAL)


def _unit(zarr, lat: Lattice):
    """The sigma pass's coordinate: z/omega1 on an elliptic lattice, else z."""
    return zarr / complex(lat.omega1) if lat.kind == KIND_ELLIPTIC else zarr


def _distance(x, lat: Lattice):
    """lattice_distance at the _unit coordinates x.  On an elliptic lattice
    the Im-coordinate in the basis (1, tau) is rounded, then the real part."""
    if lat.kind == KIND_RATIONAL:
        return np.abs(x)
    if lat.kind == KIND_TRIG:
        return np.abs(x - np.pi * np.rint(x.real / np.pi))
    tau = complex(lat.tau)
    x = x - np.rint(x.imag / tau.imag) * tau
    return np.abs((x - np.rint(x.real)) * complex(lat.omega1))


def lattice_distance(z, lat: Lattice):
    """Distance from z to the zero set of sigma for the given lattice."""
    out = _distance(_unit(np.asarray(z, dtype=complex), lat), lat)
    return float(out) if np.ndim(z) == 0 else out


def sigma(z, lat: Lattice):
    """Weierstrass sigma function (sin(z) / z for the degenerate kinds)."""
    out = np.empty(np.shape(z), dtype=complex)
    _sigma_orders(_unit(np.asarray(z, dtype=complex), lat), lat, out)
    return complex(out) if np.ndim(z) == 0 else out


def _sigma_orders(x, lat: Lattice, s, ds=None):
    """Write sigma into s and, given ds, sigma' into ds, at the arguments
    whose _unit coordinate is x.

    Both orders come from one theta series pass.  sigma' is finite
    everywhere, also at the zeros of sigma, where sigma'/sigma is not.
    """
    if lat.kind != KIND_ELLIPTIC:
        trig = lat.kind == KIND_TRIG
        s[...] = np.sin(x) if trig else x
        if ds is not None:
            ds[...] = np.cos(x) if trig else 1.0
        return
    w = complex(lat.omega1)
    t1, eta1_hat = _unit_constants(lat.tau)
    th = _theta_series(0.5, 0.5, x, lat.tau, order=(0,) if ds is None else (0, 1))
    gauge = np.exp(eta1_hat * x**2) / t1
    # sigma = w * gauge * theta1(x); d/dz = (1/w) d/dx.
    s[...] = w * gauge * th[0]
    if ds is not None:
        ds[...] = gauge * (2.0 * eta1_hat * x * th[0] + th[1])


def zeta(z, lat: Lattice):
    """Weierstrass zeta = sigma'/sigma; cot(z) / 1/z for the degenerate kinds.

    Quasi-periodicity: zeta(z + omega_i) = zeta(z) + 2*eta_i.
    """
    x = _unit(np.asarray(z, dtype=complex), lat)
    if np.min(_distance(x, lat)) < POLE_TOL:
        raise PoleAtLattice(f"zeta argument within {POLE_TOL} of a lattice point")
    s, ds = np.empty_like(x), np.empty_like(x)
    _sigma_orders(x, lat, s, ds)
    out = ds / s
    return complex(out) if np.ndim(z) == 0 else out


def wp(z, lat: Lattice):
    """Weierstrass wp function; 1/sin(z)**2 / 1/z**2 for degenerate kinds."""
    x = _unit(np.asarray(z, dtype=complex), lat)
    if np.min(_distance(x, lat)) < POLE_TOL:
        raise PoleAtLattice(f"wp argument within {POLE_TOL} of a lattice point")
    out = _wp(x, lat)
    return complex(out) if np.ndim(z) == 0 else out


def _wp(x, lat: Lattice):
    """wp at the arguments whose _unit coordinate is x, which the caller
    keeps off the lattice."""
    if lat.kind == KIND_TRIG:
        return 1.0 / np.sin(x) ** 2
    if lat.kind == KIND_RATIONAL:
        return 1.0 / x**2
    s = complex(lat.omega1)
    _, eta1_hat = _unit_constants(lat.tau)
    t0, td1, td2 = _theta_series(0.5, 0.5, x, lat.tau, order=(0, 1, 2))
    # wp = -(log sigma)'' on the unit lattice, rescaled by homogeneity.
    return (-2.0 * eta1_hat - (td2 * t0 - td1**2) / t0**2) / s**2


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
