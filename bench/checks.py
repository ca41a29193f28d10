"""Output checkers for the benchmark.

Each checker reads the artifacts one `rslax` command wrote and recomputes
what they should hold by a route apart from rslax: Lax matrices from their
defining sigma-product formulas with mpmath's `jtheta` for the elliptic
kind and `cmath.sin` for the trigonometric kind, moment maps with plain
numpy linear algebra, eigenvalue matching with scipy.  A checker raises
CheckFailed when an artifact disagrees beyond the acceptance tolerance of
README criteria 4, 6, 8, 9 and 10.
"""

from __future__ import annotations

import cmath
import csv
import json
import os

import mpmath as mp
import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import EVAL_Z

mp.mp.dps = 25

LAX_RTOL = 1e-7
SPECTRUM_TOL = 1e-6
ENERGY_TOL = 1e-8
MOMENT_TOL = 1e-10
DEGENERATION_TOL = 1e-8
CM_ORDER_RANGE = (0.85, 1.15)
# Defaults `rslax lax` applies when a config leaves z or lam out.
DEFAULT_Z = 0.31 + 0.43j
DEFAULT_LAM = 0.23 + 0.11j


class CheckFailed(Exception):
    """An artifact disagrees with its independent recomputation."""


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _cx(v):
    if isinstance(v, dict):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return complex(v)


# ---------------------------------------------------------------------------
# Curves: sigma and wp evaluated apart from rslax


class MpCurve:
    """Weierstrass sigma and wp of the lattice omega1*Z + omega2*Z through
    mpmath's jtheta(1, ., q), q = exp(i pi tau):

        sigma(z) = omega1 exp(eta x^2) J(pi x) / (pi J'(0)),   x = z/omega1,
        eta = -pi^2 J'''(0) / (6 J'(0)),
        wp(z) = -(2 eta + pi^2 (J J'' - J'^2)(pi x) / J(pi x)^2) / omega1^2.
    """

    exp = staticmethod(mp.exp)
    log = staticmethod(mp.log)
    sqrt = staticmethod(mp.sqrt)

    def __init__(self, omega1, omega2):
        self.w1 = mp.mpc(omega1)
        self.q = mp.exp(1j * mp.pi * mp.mpc(omega2) / self.w1)
        j1 = mp.jtheta(1, 0, self.q, 1)
        self.eta = -(mp.pi**2) * mp.jtheta(1, 0, self.q, 3) / (6 * j1)
        self.norm = mp.pi * j1
        self._sigma = {}

    def sigma(self, z):
        z = complex(z)
        if z not in self._sigma:
            x = mp.mpc(z) / self.w1
            self._sigma[z] = (
                self.w1 * mp.exp(self.eta * x * x) * mp.jtheta(1, mp.pi * x, self.q) / self.norm
            )
        return self._sigma[z]

    def wp(self, z):
        a = mp.pi * mp.mpc(z) / self.w1
        j0, j1, j2 = (mp.jtheta(1, a, self.q, d) for d in (0, 1, 2))
        return -(2 * self.eta + mp.pi**2 * (j0 * j2 - j1 * j1) / (j0 * j0)) / self.w1**2


class TrigCurve:
    """sigma(z) = sin(z), wp(z) = 1/sin(z)^2."""

    exp = staticmethod(cmath.exp)
    log = staticmethod(cmath.log)
    sqrt = staticmethod(cmath.sqrt)

    @staticmethod
    def sigma(z):
        return cmath.sin(z)

    @staticmethod
    def wp(z):
        return 1.0 / cmath.sin(z) ** 2


def curve_from_params(lattice):
    kind = lattice.get("kind", "elliptic")
    if kind == "trig":
        return TrigCurve()
    _expect(kind == "elliptic", f"no independent curve for lattice kind {kind!r}")
    return MpCurve(_cx(lattice.get("omega1", 1.0)), _cx(lattice.get("omega2", 2j)))


# ---------------------------------------------------------------------------
# Lax matrices from their defining formulas


def _prod(vals):
    out = 1
    for v in vals:
        out = out * v
    return out


def hasegawa(curve, q, P, hbar, z):
    """L_kk' = e^{P_k} s(z+h+q_k-q_k')/s(z) prod_{l!=k} s(h+q_l-q_k')/s(q_l-q_k)."""
    s, n = curve.sigma, len(q)
    L = np.empty((n, n), dtype=complex)
    for k in range(n):
        den = _prod(s(q[l] - q[k]) for l in range(n) if l != k)
        for kp in range(n):
            num = _prod(s(hbar + q[l] - q[kp]) for l in range(n) if l != k)
            L[k, kp] = complex(curve.exp(P[k]) * s(z + hbar + q[k] - q[kp]) / s(z) * num / den)
    return L


def ruijsenaars(curve, q, P, mu, lam):
    """L'_ij = e^{P_i} prod_{l!=i} f(q_i-q_l) s(q_i-q_j+lam) s(mu)
    / (s(lam) s(q_i-q_j+mu)), f = principal sqrt of s(mu)^2 (wp(mu) - wp(q))."""
    s, n = curve.sigma, len(q)
    wp_mu = curve.wp(mu)
    L = np.empty((n, n), dtype=complex)
    for i in range(n):
        row = curve.exp(P[i]) * _prod(
            curve.sqrt(s(mu) ** 2 * (wp_mu - curve.wp(q[i] - q[l]))) for l in range(n) if l != i
        )
        for j in range(n):
            d = q[i] - q[j]
            L[i, j] = complex(row * s(d + lam) * s(mu) / (s(lam) * s(d + mu)))
    return L


def krichever(curve, q, mu, z, lam):
    """L''_ij = s(lam+q_i-q_j) / (s(lam+mu) s(q_i-q_j-mu))
    * exp((q_i-q_j-mu)/(2 mu) * log(s(z-mu)/s(z+mu))), principal log."""
    s, n = curve.sigma, len(q)
    log_ratio = curve.log(s(z - mu) / s(z + mu))
    L = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            d = q[i] - q[j]
            L[i, j] = complex(
                s(lam + d) / (s(lam + mu) * s(d - mu)) * curve.exp((d - mu) / (2 * mu) * log_ratio)
            )
    return L


def _rel_err(A, B):
    return float(np.max(np.abs(A - B)) / np.max(np.abs(B)))


# ---------------------------------------------------------------------------
# Artifact readers


def _read_report(outdir):
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    for c in report["checks"]:
        _expect(c["status"] == "pass" and c["residual"] < c["tolerance"],
                f"report check {c['name']} did not pass: {c}")
    return report


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def read_matrix(path):
    """A (row, col, re, im) CSV as a complex matrix."""
    _, rows = _read_csv(path)
    n = int(round(max(r[0] for r in rows))) + 1
    M = np.full((n, n), np.nan, dtype=complex)
    for i, j, re, im in rows:
        M[int(i), int(j)] = complex(re, im)
    _expect(not np.isnan(M).any(), f"{path} does not cover every entry")
    return M


# ---------------------------------------------------------------------------
# Checkers, one per command


def check_lax(params, outdir):
    """Criterion 4: every family's entries equal its formula to relative 1e-7
    (composition_lax is a second route to the Hasegawa matrix)."""
    _read_report(outdir)
    M = read_matrix(os.path.join(outdir, "lax.csv"))
    curve = curve_from_params(params["lattice"])
    q = [_cx(v) for v in params["q"]]
    P = [_cx(v) for v in params["P"]]
    hbar = _cx(params["hbar"])
    mu = _cx(params.get("mu", hbar))
    z = _cx(params.get("z", DEFAULT_Z))
    family = params.get("family", "hasegawa")
    if family in ("hasegawa", "composition"):
        ref = hasegawa(curve, q, P, hbar, z)
    elif family == "ruijsenaars":
        ref = ruijsenaars(curve, q, P, mu, z)
    elif family == "krichever":
        ref = krichever(curve, q, mu, z, _cx(params.get("lam", DEFAULT_LAM)))
    else:
        raise CheckFailed(f"no independent formula for family {family!r}")
    err = _rel_err(M, ref)
    _expect(err < LAX_RTOL, f"{family} lax entries off by relative {err:.3e}")


def _match_spectra(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_evolve(params, outdir):
    """Criterion 6: the Lax matrices rebuilt at the first and last trajectory
    rows have spectra within 1e-6 and traces within 1e-8."""
    _read_report(outdir)
    header, rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    n = (len(header) - 2) // 4
    steps = int(round(params["t_end"] / params["dt"]))
    _expect(len(rows) == steps + 1, f"trajectory has {len(rows)} rows, expected {steps + 1}")

    def point(row):
        vals = np.asarray(row[1 : 1 + 4 * n]).reshape(2 * n, 2)
        z = vals[:, 0] + 1j * vals[:, 1]
        return list(z[:n]), list(z[n:])

    q0, p0 = point(rows[0])
    _expect(q0 == [_cx(v) for v in params["q"]] and p0 == [_cx(v) for v in params["P"]],
            "first trajectory row is not the configured start")
    curve = curve_from_params(params["lattice"])
    hbar = _cx(params["hbar"])
    L0 = hasegawa(curve, q0, p0, hbar, EVAL_Z)
    L1 = hasegawa(curve, *point(rows[-1]), hbar, EVAL_Z)
    drift = _match_spectra(np.linalg.eigvals(L0), np.linalg.eigvals(L1))
    _expect(drift < SPECTRUM_TOL, f"spectral drift {drift:.3e}")
    energy = abs(np.trace(L1) - np.trace(L0))
    _expect(energy < ENERGY_TOL, f"Tr L drift {energy:.3e}")


def moment_residual(kind, X, Y, params):
    """Size-normalized residual of the kind's moment-map equation."""
    n = X.shape[0]
    g = _cx(params.get("g", 1.0))
    O = g * (np.ones((n, n)) - np.eye(n))
    XYXi = X @ Y @ np.linalg.inv(X)
    scale = max(1.0, float(np.max(np.abs(X @ Y))))
    if kind == "rational_cm":
        R = X @ Y - Y @ X - O
    elif kind == "rational_rs":
        R = XYXi - Y - O
    elif kind == "trig_rs":
        u = np.array([_cx(v) for v in params["u"]])
        v = np.array([_cx(v) for v in params["v"]])
        R = XYXi @ np.linalg.inv(Y) - np.eye(n) - np.outer(u, v)
    elif kind == "trig_cm":
        # Orbit of O: M = X Y X^-1 - Y has trace 0 and M + g I rank one.
        M = XYXi - Y
        sv = np.linalg.svd(M + g * np.eye(n), compute_uv=False)
        return float((sv[1] + abs(np.trace(M))) / max(1.0, float(np.max(np.abs(M)))))
    else:
        raise CheckFailed(f"unknown reduction kind {kind!r}")
    return float(np.linalg.norm(R) / scale)


def check_reduce(params, outdir):
    """Criterion 10: the moment-map residual recomputed from X.csv and Y.csv
    is below 1e-10, and the diagonal member is the configured one."""
    _read_report(outdir)
    X = read_matrix(os.path.join(outdir, "X.csv"))
    Y = read_matrix(os.path.join(outdir, "Y.csv"))
    kind = params["kind"]
    if kind in ("rational_cm", "trig_cm"):
        diag, given = (X if kind == "rational_cm" else Y), [_cx(v) for v in params["q"]]
    else:
        diag, given = X, [cmath.exp(_cx(v)) for v in params["theta"]]
    dev = np.max(np.abs(diag - np.diag(given)))
    _expect(dev <= 1e-14 * np.max(np.abs(given)), f"{kind}: diagonal member is not diag(input)")
    res = moment_residual(kind, X, Y, params)
    _expect(res < MOMENT_TOL, f"{kind} moment residual {res:.3e}")


def check_limit(params, outdir):
    """Criteria 8 and 9 from sweep.csv: the degeneration residual is below
    1e-8 at the end and monotone from Im tau = 5; the log-log slope of the CM
    residual against hbar lies in [0.85, 1.15]."""
    _read_report(outdir)
    _, rows = _read_csv(os.path.join(outdir, "sweep.csv"))
    values = np.array([r[0] for r in rows])
    errors = np.array([r[1] for r in rows])
    if params["sweep"] == "degeneration":
        _expect(list(values) == params["im_tau_values"], "sweep.csv values differ from config")
        _expect(errors[-1] < DEGENERATION_TOL, f"final degeneration residual {errors[-1]:.3e}")
        tail = errors[values >= 5.0]
        _expect(np.all(np.diff(tail) <= 1e-12), f"degeneration residuals not monotone: {tail}")
    else:
        _expect(list(values) == params["hbar_values"], "sweep.csv values differ from config")
        keep = errors > 1e-14
        order = np.polyfit(np.log(values[keep]), np.log(errors[keep]), 1)[0]
        lo, hi = CM_ORDER_RANGE
        _expect(lo <= order <= hi, f"CM limit order {order:.3f}")


CHECKERS = {
    "lax": check_lax,
    "evolve": check_evolve,
    "reduce": check_reduce,
    "limit": check_limit,
}
