"""Degeneration and limit sweeps: the elliptic-to-trigonometric degeneration
of the RS Lax matrix as Im(tau) grows, the non-relativistic (hbar -> 0) limit
of RS onto the factorized CM matrix, and the framing-constraint diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import elliptic, lax
from .errors import DegenerateConfiguration, NonFiniteEntries
from .lax import CMConfig, RSConfig, hasegawa_lax

PARAM_IM_TAU = "ImTau"
PARAM_HBAR = "Hbar"

# Residuals at or below this level are double-precision noise; they are
# reported but excluded from the convergence-order fit.
_MACHINE_FLOOR = 1e-14

_DEFAULT_Z = 0.17 + 0.23j


@dataclass(frozen=True)
class LimitSweep:
    """Result of a one-parameter limit sweep.

    parameter is "ImTau" or "Hbar"; values is the swept parameter list,
    errors the per-point residuals, fitted_order the log-log slope of the
    residual against the natural small parameter (exp(-2*pi*t) for the
    degeneration sweep, hbar itself for the CM limit).  fitted_order is None
    when fewer than two points rise above double-precision noise.
    """

    parameter: str
    values: tuple
    errors: tuple
    fitted_order: float | None

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        errs = tuple(float(e) for e in self.errors)
        if len(vals) != len(errs):
            raise ValueError("values and errors must have equal length")
        if len(vals) >= 2:
            d = np.diff(vals)
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("sweep values must be strictly monotone")
        for v, e in zip(vals, errs):
            if not np.isfinite(e):
                raise NonFiniteEntries(f"the {self.parameter} residual at {v!r} is not finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "errors", errs)


def _fit_order(small, errors):
    """Log-log slope of errors against the small parameter, ignoring points
    at double-precision noise level and those that are not finite (which
    LimitSweep rejects)."""
    small = np.asarray(small, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = (errors > _MACHINE_FLOOR) & np.isfinite(errors)
    if np.count_nonzero(keep) < 2:
        return None
    slope, _ = np.polyfit(np.log(small[keep]), np.log(errors[keep]), 1)
    return float(slope)


def _positive(values, name):
    """The sweep values as floats; DegenerateConfiguration naming the first
    that is not positive (or is NaN)."""
    values = tuple(float(v) for v in values)
    for v in values:
        if not v > 0:
            raise DegenerateConfiguration(f"{name} sweep value {v!r} is not positive")
    return values


def _sigma_argument_second_moment(q, hbar, z):
    """Delta2 = sum(w^2 over numerator args w) - sum(w^2 over denominator
    args w) per entry of the RS Lax matrix (see hasegawa_lax; momentum
    factors carry no sigma).  With d = hbar + q_k - q_k', each sum over
    l != k is a sum over all l less the l = k term; the sums of q^2 cancel,
    leaving Delta2 = d * (2 z + 2 sum(q) + n (hbar - q_k - q_k')).  The
    first moment, n d, does not enter sigma's gauge (A = 0).
    """
    q = np.asarray(q, dtype=complex)
    qk, qkp = q[:, None], q[None, :]
    return (hbar + qk - qkp) * (2 * z + 2 * q.sum() + q.size * (hbar - qk - qkp))


def degeneration_sweep(conf: RSConfig, im_tau_values, z=_DEFAULT_Z) -> LimitSweep:
    """Residuals of the elliptic RS Lax matrix against its trigonometric
    degeneration over a sweep of Im(tau).

    For each t in im_tau_values the configuration is placed on the lattice
    with periods (1, i*t), and the entrywise prediction

        L_elliptic = exp(B*Delta2) * L_trig(pi-scaled data)

    is tested, with Delta2 from _sigma_argument_second_moment.  sigma(z) is
    the trivial-theta gauge C*exp(A*z + B*z^2), A = 0 and B = eta1/omega1,
    times theta1(z/omega1) (elliptic._sigma_orders), which tends to a
    constant times sin(pi z/omega1); the counts of sigma factors balance, so
    C cancels.  The residual is the relative Frobenius distance.  conf is
    moved to each lattice as a new RSConfig, whose check of the positions
    is the one check on that lattice.
    """
    values = _positive(im_tau_values, "Im(tau)")
    z = complex(z)
    pi = np.pi
    # No Hasegawa formula reads mu, q_inf or q_zero.
    conf_trig = lax.rs_config(
        [pi * v for v in conf.q], conf.P, pi * conf.hbar, elliptic.trig_lattice()
    )
    L_trig = hasegawa_lax(conf_trig, pi * z).entries
    # A residual that is not finite raises in LimitSweep.
    with np.errstate(all="ignore"):
        delta2 = _sigma_argument_second_moment(conf.q, conf.hbar, z)
        errors = []
        for t in values:
            lat_t = elliptic.lattice_from_periods(1.0, 1j * t)
            L_ell = hasegawa_lax(replace(conf, lat=lat_t), z).entries
            pred = np.exp(lat_t.eta1 / lat_t.omega1 * delta2) * L_trig
            err = np.linalg.norm(L_ell - pred) / np.linalg.norm(pred)
            errors.append(float(err))

    small = [np.exp(-2.0 * pi * t) for t in values]
    return LimitSweep(PARAM_IM_TAU, values, tuple(errors), _fit_order(small, errors))


def cm_limit_sweep(cmconf: CMConfig, hbar_values, z=_DEFAULT_Z) -> LimitSweep:
    """Residuals of the rescaled RS transport matrix against the factorized
    CM matrix over a sweep of hbar -> 0.

    Per hbar the RS matrix lax.composition_lax is taken at cmconf's
    positions and lattice with coupling hbar and momenta P = hbar * p (hbar
    playing the role of the inverse light speed), and the residual is
    ||(L(hbar) - I)/hbar - L_CM|| / ||L_CM|| at the spectral point z, with
    L_CM = lax.factorized_cm_lax(cmconf, z).  First-order convergence gives
    fitted_order near 1.  The positions, checked with cmconf, are not
    checked again per hbar.
    """
    # The residual divides by hbar, and the order is fitted to log(hbar).
    values = _positive(hbar_values, "hbar")
    z = complex(z)
    q = np.asarray(cmconf.q, dtype=complex)
    p = np.asarray(cmconf.p, dtype=complex)
    F = lax.factorized_cm_lax(cmconf, z).entries
    normF = np.linalg.norm(F)

    errors = []
    for h in values:
        L = lax._composition(q, h * p, h, cmconf.lat, z).entries
        resc = (L - np.eye(cmconf.n)) / h
        errors.append(float(np.linalg.norm(resc - F) / normF))

    return LimitSweep(PARAM_HBAR, values, tuple(errors), _fit_order(values, errors))


def framing_constraint_check(conf: RSConfig) -> float:
    """Distance of q_zero - q_inf - n*hbar from the period lattice; valid
    geometric configurations return < 1e-10."""
    return float(
        elliptic.lattice_distance(
            conf.q_zero - conf.q_inf - conf.n * conf.hbar, conf.lat
        )
    )
