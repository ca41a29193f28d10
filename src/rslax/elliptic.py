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
  sigma_rat(z) = z.  All comparison constants between elliptic and degenerate
  formulas are absorbed into fitted gauge factors elsewhere.
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
    widened until the boundary terms of every requested order fall below
    _SERIES_RELTOL of that order's largest term, with a hard cap of
    _SERIES_MAX_TERMS terms.  order may be a tuple of orders, for which the
    tuple of derivatives is returned from one series pass.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise NonConvergent(f"theta series requires Im(tau) > 0, got tau={tau}")
    a = complex(a)
    b = complex(b)
    zarr = np.asarray(z, dtype=complex)
    zb = zarr.reshape(1, -1) + b

    # Dominant index of the Gaussian-weighted series for each argument.
    centers = -a.real - zb.imag / tau.imag
    base_width = math.ceil(math.sqrt(40.0 / (math.pi * tau.imag))) + 2
    kmin = math.floor(centers.min()) - base_width
    kmax = math.ceil(centers.max()) + base_width
    powers = np.atleast_1d(order)[:, None]

    while True:
        if kmax - kmin + 1 > _SERIES_MAX_TERMS:
            raise NonConvergent(
                "theta series needs more than "
                f"{_SERIES_MAX_TERMS} terms for tau={tau}"
            )
        gauss, w, absw = _theta_window(tau, a, kmin, kmax)
        base = np.exp(gauss + w * zb)
        # |d^o term/dz^o| = |term| * |2*pi*(k+a)|^o: per order, the largest
        # term magnitude in each row k.  Written so that NaN widens the window.
        mags = np.abs(base).max(axis=1) * absw**powers
        if (np.maximum(mags[:, 0], mags[:, -1]) <= _SERIES_RELTOL * mags.max(axis=1)).all():
            break
        kmin -= 4
        kmax += 4

    def total(o):
        t = (base * w**o if o else base).sum(axis=0)
        return complex(t[0]) if zarr.ndim == 0 else t.reshape(zarr.shape)

    return total(order) if isinstance(order, int) else tuple(map(total, order))


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _theta_window(tau, a, kmin, kmax):
    """Read-only columns over k = kmin..kmax of the theta series exponent
    i*pi*tau*(k+a)^2 and of 2*pi*i*(k+a), and |2*pi*(k+a)| as a row.

    The exponent, not its exponential, is cached: each term is one exp of
    the summed exponent, which stays finite where the two factors taken
    apart would overflow and underflow.
    """
    ks = np.arange(kmin, kmax + 1, dtype=float)[:, None] + a
    gauss = 1j * np.pi * tau * ks**2
    w = 2j * np.pi * ks
    absw = np.abs(w).T
    for arr in (gauss, w, absw):
        arr.setflags(write=False)
    return gauss, w, absw


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


def lattice_distance(z, lat: Lattice):
    """Distance from z to the zero set of sigma for the given lattice."""
    zarr = np.asarray(z, dtype=complex)
    if lat.kind == KIND_RATIONAL:
        out = np.abs(zarr)
    elif lat.kind == KIND_TRIG:
        out = np.abs(zarr - np.pi * np.round(zarr.real / np.pi))
    else:
        # Real coordinates of z in the (omega1, omega2) basis.
        w1, w2 = complex(lat.omega1), complex(lat.omega2)
        det = w1.real * w2.imag - w1.imag * w2.real
        acoef = (zarr.real * w2.imag - zarr.imag * w2.real) / det
        bcoef = (zarr.imag * w1.real - zarr.real * w1.imag) / det
        out = np.abs(zarr - np.round(acoef) * w1 - np.round(bcoef) * w2)
    return float(out) if np.ndim(z) == 0 else out


def sigma(z, lat: Lattice):
    """Weierstrass sigma function (sin(z) / z for the degenerate kinds)."""
    out = _sigma_orders(np.asarray(z, dtype=complex), lat, (0,))[0]
    return complex(out) if np.ndim(z) == 0 else out


def _sigma_orders(zarr, lat: Lattice, orders):
    """[d^o sigma/dz^o at zarr for o in orders], orders drawn from {0, 1}.

    Both orders come from one theta series pass.  sigma' is finite
    everywhere, also at the zeros of sigma, where sigma'/sigma is not.
    """
    if lat.kind == KIND_TRIG:
        return [np.cos(zarr) if o else np.sin(zarr) for o in orders]
    if lat.kind == KIND_RATIONAL:
        return [np.ones_like(zarr) if o else zarr for o in orders]
    w = complex(lat.omega1)
    t1, eta1_hat = _unit_constants(lat.tau)
    x = zarr / w
    th = _theta_series(0.5, 0.5, x, lat.tau, order=(0, 1) if 1 in orders else (0,))
    gauge = np.exp(eta1_hat * x**2) / t1
    # sigma = w * gauge * theta1(x); d/dz = (1/w) d/dx.
    return [
        gauge * (2.0 * eta1_hat * x * th[0] + th[1]) if o else w * gauge * th[0]
        for o in orders
    ]


def zeta(z, lat: Lattice):
    """Weierstrass zeta = sigma'/sigma; cot(z) / 1/z for the degenerate kinds.

    Quasi-periodicity: zeta(z + omega_i) = zeta(z) + 2*eta_i.
    """
    if np.min(lattice_distance(z, lat)) < POLE_TOL:
        raise PoleAtLattice(f"zeta argument within {POLE_TOL} of a lattice point")
    s, ds = _sigma_orders(np.asarray(z, dtype=complex), lat, (0, 1))
    out = ds / s
    return complex(out) if np.ndim(z) == 0 else out


def wp(z, lat: Lattice):
    """Weierstrass wp function; 1/sin(z)**2 / 1/z**2 for degenerate kinds."""
    if np.min(lattice_distance(z, lat)) < POLE_TOL:
        raise PoleAtLattice(f"wp argument within {POLE_TOL} of a lattice point")
    zarr = np.asarray(z, dtype=complex)
    if lat.kind == KIND_TRIG:
        out = 1.0 / np.sin(zarr) ** 2
    elif lat.kind == KIND_RATIONAL:
        out = 1.0 / zarr**2
    else:
        s = complex(lat.omega1)
        _, eta1_hat = _unit_constants(lat.tau)
        x = zarr / s
        t0, td1, td2 = _theta_series(0.5, 0.5, x, lat.tau, order=(0, 1, 2))
        # wp = -(log sigma)'' on the unit lattice, rescaled by homogeneity.
        out = (-2.0 * eta1_hat - (td2 * t0 - td1**2) / t0**2) / s**2
    return complex(out) if np.ndim(z) == 0 else out


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
