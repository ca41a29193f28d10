"""Hamiltonians generated from Lax matrices, their analytic Hamiltonian
vector fields, fixed-step RK4 integration of the flows, and Poisson brackets.

Coordinates are the canonical pair (q_i, p_i) with rapidities theta_i =
exp(p_i); the symplectic form is sum_i dp_i ^ dq_i = sum_i (dtheta_i/theta_i)
^ dq_i.  Every Hamiltonian here is a trace function of a Lax matrix whose
entries are exp(p_k) times products of sigma values, so its gradient is a
closed-form sum of sigma' and zeta values at the same arguments; finite
differences serve only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lax
from .errors import CollisionImminent, DegenerateConfiguration, SingularMatrix

# Smallest pairwise position distance (modulo the lattice) a flow may reach.
COLLISION_MARGIN = 1e-4
_LAX_FAMILIES = ("hasegawa", "composition", "ruijsenaars")
_FAMILIES = ("trace_power", "rs_cosh", "hitchin")


@dataclass(frozen=True)
class PhasePoint:
    """Canonical phase-space point (q, p)."""

    q: tuple
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        if len(self.q) != len(self.p):
            raise ValueError("q and p must have equal length")

    @property
    def n(self) -> int:
        return len(self.q)


@dataclass
class Trajectory:
    """Sampled flow: times, phase points, and per-step spectral drift."""

    times: list = field(default_factory=list)
    points: list = field(default_factory=list)
    spectral_drift: list = field(default_factory=list)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A conserved quantity built from a Lax matrix.

    family "trace_power" with index i gives Tr L^i; "hitchin" with index i
    gives Tr(L^{i+1})/(i+1) evaluated through the geometric composition;
    "rs_cosh" gives Tr(L' + L'^{-1}) of the Ruijsenaars matrix.
    """

    family: str
    index: int = 1
    lax_family: str = "hasegawa"
    eval_z: complex = 0.31 + 0.43j

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown Hamiltonian family {self.family!r}")
        if self.lax_family not in _LAX_FAMILIES:
            raise ValueError(f"unknown lax family {self.lax_family!r}")
        if self.index < 1:
            raise ValueError("index must be >= 1")


def _lax_form(spec: HamiltonianSpec):
    """(build, jacobian) of the Lax form spec's Hamiltonian is a trace function of.

    build(conf, z) is a SpectralMatrix; jacobian(conf, z) gives its entries
    and the map R -> (sum_{kk'} R_{kk'} dL_{kk'}/dq_j)_j.
    """
    if spec.family == "hitchin" or spec.lax_family == "composition":
        return lax.composition_lax, lax._composition_jacobian
    if spec.family == "rs_cosh" or spec.lax_family == "ruijsenaars":
        return lax.ruijsenaars_lax, lax._ruijsenaars_jacobian
    return lax.hasegawa_lax, lax._hasegawa_jacobian


def _build_lax(spec: HamiltonianSpec, conf: lax.RSConfig):
    return _lax_form(spec)[0](conf, spec.eval_z).entries


def _inverse(L):
    det = np.linalg.det(L)
    if abs(det) < 1e-12 * float(np.max(np.abs(L))) ** L.shape[0]:
        raise SingularMatrix("Ruijsenaars matrix is singular; L^{-1} undefined")
    return np.linalg.inv(L)


def hamiltonian(spec: HamiltonianSpec, conf: lax.RSConfig) -> complex:
    """Evaluate the conserved quantity described by spec at conf."""
    L = _build_lax(spec, conf)
    if spec.family == "trace_power":
        return complex(np.trace(np.linalg.matrix_power(L, spec.index)))
    if spec.family == "hitchin":
        return complex(np.trace(np.linalg.matrix_power(L, spec.index + 1))) / (
            spec.index + 1
        )
    # rs_cosh
    return complex(np.trace(L) + np.trace(_inverse(L)))


def _check_collision(conf: lax.RSConfig):
    margin = conf.min_separation
    if margin < COLLISION_MARGIN:
        raise CollisionImminent(
            f"pairwise position margin {margin:.3e} below {COLLISION_MARGIN:.1e}"
        )


def _conf_at(conf: lax.RSConfig, q, p) -> lax.RSConfig:
    """conf moved to the phase point (q, p), validated once: positions
    closer than COLLISION_MARGIN modulo the lattice raise CollisionImminent."""
    try:
        moved = lax.rs_config(
            q, p, conf.hbar, conf.lat, mu=conf.mu, q_inf=conf.q_inf, q_zero=conf.q_zero
        )
    except DegenerateConfiguration as exc:
        raise CollisionImminent(str(exc)) from None
    _check_collision(moved)
    return moved


def hamiltonian_vector_field(
    spec: HamiltonianSpec, point: PhasePoint, conf: lax.RSConfig
):
    """Hamilton's equations dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i.

    Each family has dH = Tr(G dL) with G = i L^{i-1} (trace_power), L^i
    (hitchin) or I - L^{-2} (rs_cosh).  With R = G^T, dH = sum_{kk'} R_{kk'}
    dL_{kk'}: dH/dp_k is the k-th row sum of R * L (entrywise), and dH/dq is
    the Lax form's Jacobian map applied to R.  That costs one Lax build plus
    sigma' values at the same arguments.
    """
    L, grad_q = _lax_form(spec)[1](_conf_at(conf, point.q, point.p), spec.eval_z)
    if spec.family == "trace_power":
        G = spec.index * np.linalg.matrix_power(L, spec.index - 1)
    elif spec.family == "hitchin":
        G = np.linalg.matrix_power(L, spec.index)
    else:  # rs_cosh
        Linv = _inverse(L)
        G = np.eye(L.shape[0]) - Linv @ Linv
    R = G.T
    return (R * L).sum(axis=1), -grad_q(R)


def _match_drift(ev0, ev):
    """Largest |ev0_i - ev_j| over the pairing of the two spectra with the
    least summed deviation."""
    # Importing scipy.optimize takes most of a second; only a flow pays it.
    from scipy.optimize import linear_sum_assignment

    d = np.asarray(ev0)[:, None] - np.asarray(ev)[None, :]
    # hypot rounds as abs() of one complex number does; np.abs of a complex
    # array can differ in the last bit.
    cost = np.hypot(d.real, d.imag)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def integrate(
    spec: HamiltonianSpec,
    start: PhasePoint,
    conf: lax.RSConfig,
    t_end: float,
    dt: float,
    coordinates: str = "p",
) -> Trajectory:
    """Integrate the flow of spec with classic fixed-step RK4.

    coordinates "p" evolves the canonical pair (q, p); coordinates "theta"
    evolves (q, theta = exp(p)) with dtheta/dt = theta * dp/dt, recording p =
    log theta on a branch continuous along the trajectory.  Both yield the
    same trajectory up to integrator roundoff.

    On a near-collision the partial trajectory is attached to the raised
    CollisionImminent exception.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if coordinates not in ("p", "theta"):
        raise ValueError("coordinates must be 'p' or 'theta'")

    traj = Trajectory([0.0], [start], [0.0])
    q = np.asarray(start.q, dtype=complex)
    p = np.asarray(start.p, dtype=complex)

    def field_p(qv, pv):
        dq, dp = hamiltonian_vector_field(
            spec, PhasePoint(tuple(qv), tuple(pv)), conf
        )
        return dq, dp

    nsteps = int(round(t_end / dt))
    theta = np.exp(p)
    try:
        ev0 = np.linalg.eigvals(_build_lax(spec, _conf_at(conf, q, p)))
        for step in range(1, nsteps + 1):
            if coordinates == "p":
                state = (q, p)

                def rhs(s):
                    return field_p(s[0], s[1])

            else:
                state = (q, theta)

                def rhs(s):
                    qv, thv = s
                    pv = np.log(thv)
                    # Keep the momentum branch continuous with the current p.
                    pv = pv + 2j * np.pi * np.round((p - pv).imag / (2 * np.pi))
                    dq, dp = field_p(qv, pv)
                    return dq, thv * dp

            k1 = rhs(state)
            k2 = rhs((state[0] + dt / 2 * k1[0], state[1] + dt / 2 * k1[1]))
            k3 = rhs((state[0] + dt / 2 * k2[0], state[1] + dt / 2 * k2[1]))
            k4 = rhs((state[0] + dt * k3[0], state[1] + dt * k3[1]))
            new0 = state[0] + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            new1 = state[1] + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            q = new0
            if coordinates == "p":
                p = new1
                theta = np.exp(p)
            else:
                theta = new1
                pv = np.log(theta)
                p = pv + 2j * np.pi * np.round((p - pv).imag / (2 * np.pi))
            ev = np.linalg.eigvals(_build_lax(spec, _conf_at(conf, q, p)))
            traj.times.append(step * dt)
            traj.points.append(PhasePoint(tuple(q), tuple(p)))
            traj.spectral_drift.append(_match_drift(ev0, ev))
    except CollisionImminent as exc:
        raise CollisionImminent(str(exc), trajectory=traj) from None
    return traj


def poisson_bracket(
    specA: HamiltonianSpec,
    specB: HamiltonianSpec,
    point: PhasePoint,
    conf: lax.RSConfig,
) -> complex:
    """{A, B} = sum_i (dA/dq_i dB/dp_i - dA/dp_i dB/dq_i) from the analytic fields."""
    dqA, dpA = hamiltonian_vector_field(specA, point, conf)
    dqB, dpB = hamiltonian_vector_field(specB, point, conf)
    # field = (dH/dp, -dH/dq), so dH/dq = -dp_field and dH/dp = dq_field.
    return complex(np.sum((-dpA) * dqB - dqA * (-dpB)))
