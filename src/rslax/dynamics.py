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
from .errors import CollisionImminent, SingularMatrix, StepTooLarge, ValueOverflow

# Smallest pairwise position distance (modulo the lattice) a flow may reach.
COLLISION_MARGIN = 1e-4
_LAX_FAMILIES = ("hasegawa", "composition", "ruijsenaars")
# The trace families: index i -> (scale, power) for H = scale *
# Tr(L^(power+1))/(power+1), whose differential is scale * Tr(L^power dL).
_TRACE_FAMILIES = {"trace_power": lambda i: (i, i - 1), "hitchin": lambda i: (1, i)}
_FAMILIES = (*_TRACE_FAMILIES, "rs_cosh")
_COORDINATES = ("p", "theta")
# A flow takes the spectra of its accepted points in blocks of as many
# points as one Lax build of this many sigma arguments holds, and at least
# one.
_BLOCK_ARGS = 8192


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
    gives Tr(L^{i+1})/(i+1) of the geometric composition (equal to the
    Hasegawa matrix, through which it is evaluated);
    "rs_cosh" gives Tr(L' + L'^{-1}) of the Ruijsenaars matrix.
    """

    family: str
    index: int = 1
    lax_family: str = "hasegawa"
    eval_z: complex = 0.31 + 0.43j
    # (scale, power) of a trace family (see _TRACE_FAMILIES), None for rs_cosh.
    scale_power: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown Hamiltonian family {self.family!r}")
        if self.lax_family not in _LAX_FAMILIES:
            raise ValueError(f"unknown lax family {self.lax_family!r}")
        if self.index < 1:
            raise ValueError("index must be >= 1")
        trace = _TRACE_FAMILIES.get(self.family)
        object.__setattr__(self, "scale_power", trace(self.index) if trace else None)


def _lax_form(spec: HamiltonianSpec):
    """(build, plan, diagonal) of the Lax form spec's Hamiltonian is a trace
    function of.

    build(conf, z) is a SpectralMatrix.  plan(conf, z) checks the points
    fixed along a flow (z, and lam and mu for the Ruijsenaars form) and
    evaluates its constants once; a stage is plan.reduce, then plan.jacobian
    (the entries and (R, h) -> (sum_{kk'} R_{kk'} dL_{kk'}/dq_j)_j, where h
    = (R * L).sum(axis=1)) or, where diagonal (H is scale * Tr L of the
    Hasegawa form), plan.trace (diag L and d(Tr L)/dq).  plan.matrix builds
    L at a batch of points, for a flow's spectra.
    """
    if spec.family == "rs_cosh" or (
        spec.family != "hitchin" and spec.lax_family == "ruijsenaars"
    ):
        return lax.ruijsenaars_lax, lax._RuijsenaarsPlan, False
    # The composition equals the Hasegawa matrix, and its Cauchy
    # factorization divides by sigma(hbar + q_k - q_k'), which vanishes
    # where positions are spaced by hbar.
    return lax.hasegawa_lax, lax._HasegawaPlan, spec.scale_power[1] == 0


def _inverse(L, P):
    """L^{-1}; SingularMatrix where K = diag(exp(-P)) L is numerically
    singular or not finite: a test of det L would depend on the row scaling
    exp(P_k) of the Ruijsenaars matrix.  K is scaled by its largest entry,
    whose n-th power may overflow a double."""
    with np.errstate(all="ignore"):  # exp(-P) overflows where rows of L vanish
        K = np.exp(-P)[:, None] * L
        if not abs(np.linalg.det(K / np.max(np.abs(K)))) >= 1e-12:
            raise SingularMatrix("Ruijsenaars matrix is singular; L^{-1} undefined")
    return np.linalg.inv(L)


def hamiltonian(spec: HamiltonianSpec, conf: lax.RSConfig) -> complex:
    """Evaluate the conserved quantity described by spec at conf;
    ValueOverflow where its value is not finite."""
    L = _lax_form(spec)[0](conf, spec.eval_z).entries
    with np.errstate(all="ignore"):  # a non-finite value raises below
        if spec.scale_power is None:  # rs_cosh
            H = complex(np.trace(L) + np.trace(_inverse(L, np.asarray(conf.P, dtype=complex))))
        else:
            scale, k = spec.scale_power
            H = scale * complex(np.trace(np.linalg.matrix_power(L, k + 1))) / (k + 1)
    if not np.isfinite(H):
        raise ValueOverflow(_not_finite(conf.P, what="the Hamiltonian"))
    return H


def _not_finite(p, step=None, what="the Lax matrix"):
    """The message of a Lax matrix (or what) that is not finite at the
    exponents p (at a flow's step), naming the first exp(p_k) that overflows
    a double."""
    where = "" if step is None else f" at step {step}"
    return f"{what} is not finite" + where + lax._exp_overflow(p)


def _checked_args(plan, diagonal, q, p):
    """(args, separation): plan.reduce's arguments at positions q and the
    smallest distance of two positions modulo the lattice; CollisionImminent
    if q or p is not finite or two positions are closer than
    COLLISION_MARGIN modulo the lattice."""
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise CollisionImminent("positions or momenta are not finite")
    args, dist = plan.reduce(q, diagonal)
    separation = np.inf
    if dist.size:
        k = int(dist.argmin())
        separation = float(dist[k])
        # Written so that a NaN distance fails too.
        if not separation >= COLLISION_MARGIN:
            i, j = lax._off_pair(q.size, k)
            raise CollisionImminent(
                f"positions {i} and {j} are {dist[k]:.3e} apart modulo the "
                f"lattice, below the collision margin {COLLISION_MARGIN:.1e}"
            )
    return args, separation


def _field(spec: HamiltonianSpec, plan, diagonal, q, p, step=None):
    """(L, dq/dt, dp/dt, the smallest distance of two positions modulo the
    lattice) at positions q and exponents p (complex arrays), for the plan
    and diagonal of _lax_form(spec); CollisionImminent where _checked_args
    fails, or where the entries the field reads or, on the routes that build
    L, the rates are not finite (named with the flow's step, if given).

    Each family has dH = Tr(G dL) with G = scale * L^power for the trace
    families (spec.scale_power) and G = I - L^{-2} for rs_cosh.  With
    R = G^T, dH = sum_{kk'} R_{kk'} dL_{kk'}: dH/dp_k is the k-th row sum
    of R * L (entrywise), and dH/dq is the Lax form's Jacobian map applied
    to R.  That costs one Lax build plus sigma' values at the same
    arguments.  Where G = scale * I on the Hasegawa form (diagonal), dH =
    scale * Tr(dL) reads only the diagonal of L: plan.trace evaluates it
    from sigma at the 2n(n - 1) arguments of its factors, and L is None.
    """
    args, separation = _checked_args(plan, diagonal, q, p)
    if diagonal:
        d, grad = plan.trace(args, p)
        if not np.isfinite(d).all():
            raise CollisionImminent(_not_finite(p, step))
        scale = spec.scale_power[0]
        return None, scale * d, -scale * grad, separation
    L, grad_q = plan.jacobian(args, p)
    if not np.isfinite(L).all():
        raise CollisionImminent(_not_finite(p, step))
    if spec.scale_power is None:  # rs_cosh
        Linv = _inverse(L, p)
        G = np.eye(L.shape[0]) - Linv @ Linv
    else:
        scale, k = spec.scale_power
        G = scale * np.linalg.matrix_power(L, k)
    R = G.T
    dP = (R * L).sum(axis=1)
    grad = grad_q(R, dP)
    if not (np.isfinite(dP).all() and np.isfinite(grad).all()):
        raise CollisionImminent(_not_finite(p, step, "the Hamiltonian vector field"))
    return L, dP, -grad, separation


def hamiltonian_vector_field(
    spec: HamiltonianSpec, point: PhasePoint, conf: lax.RSConfig
):
    """Hamilton's equations dq_i/dt = dH/dp_i, dp_i/dt = -dH/dq_i at point,
    with conf's coupling, mu and lattice (see _field)."""
    lax._sizes_agree("the phase point", point.n, conf)
    _, plan, diagonal = _lax_form(spec)
    q = np.asarray(point.q, dtype=complex)
    p = np.asarray(point.p, dtype=complex)
    plan = plan(conf, spec.eval_z)
    # A non-finite value ends in CollisionImminent, so numpy need not warn.
    with np.errstate(all="ignore"):
        return _field(spec, plan, diagonal, q, p)[1:3]


def _match_drift(ev0, ev):
    """Largest |ev0_i - ev_j| over the pairing of the spectrum ev0 with ev
    that has the least summed deviation, for ev of shape (n,) or for each
    row of ev (..., n)."""
    ev0 = np.asarray(ev0, dtype=complex)
    ev = np.asarray(ev)
    d = ev0[:, None] - ev.reshape(-1, 1, ev0.size)
    # hypot rounds as abs() of one complex number does; np.abs of a complex
    # array can differ in the last bit.
    cost = np.hypot(d.real, d.imag)
    drift = cost.min(axis=2).max(axis=1)
    gaps = np.abs(ev0[:, None] - ev0)
    np.fill_diagonal(gaps, np.inf)
    # Within half the smallest gap of ev0, no two ev0_i share a nearest ev_j,
    # and any other pairing moves some ev0_i further than that: the
    # nearest-neighbour pairing is then the unique optimal one.
    slow = np.flatnonzero(~(drift < gaps.min() / 2))
    if slow.size:
        # Importing scipy.optimize takes most of a second; only this case
        # pays it.
        from scipy.optimize import linear_sum_assignment

        for i in slow:
            rows, cols = linear_sum_assignment(cost[i])
            drift[i] = cost[i][rows, cols].max()
    return drift.reshape(ev.shape[:-1])


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

    A step evaluates the field four times: its first stage is the field at
    the accepted point before it.  No step reads the rates of the last
    point, so there only _checked_args runs, and plan.matrix builds L where
    the stages build it.  A stage that fails _field's checks raises
    CollisionImminent with the partial trajectory; one that moves a position
    by more than half the stage's smallest separation, dt |dq/dt| >
    separation / 2, raises its subclass StepTooLarge.

    The spectra of the accepted points are taken apart from the stages, a
    block of up to _BLOCK_ARGS sigma arguments at a time: one stack of L
    (built by the plan where the field reads only diag L, else the stages'
    own), one eigvals call and one pairing of the stack with the start's
    spectrum.  The first accepted point whose L is not finite ends the flow
    as CollisionImminent, before any later error of the stages, with the
    trajectory before that point ([start] if it is the start).
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if coordinates not in _COORDINATES:
        raise ValueError("coordinates must be 'p' or 'theta'")
    lax._sizes_agree("the start", start.n, conf)
    _, plan, diagonal = _lax_form(spec)
    plan = plan(conf, spec.eval_z)
    theta = coordinates == "theta"
    steps = int(round(t_end / dt))
    block = max(1, _BLOCK_ARGS // plan.c.size)

    def momenta(y):
        if not theta:
            return y
        pv = np.log(y)
        # Keep the momentum branch continuous with the current p.
        return pv + 2j * np.pi * np.round((p - pv).imag / (2 * np.pi))

    def stage(qs, ys):
        """(L, (dq/dt, dy/dt), the smallest separation) at the stage (qs,
        ys) of the step, y = p or theta; L is None on the diagonal route."""
        L, dq, dp, separation = _field(spec, plan, diagonal, qs, momenta(ys), step)
        return L, (dq, ys * dp if theta else dp), separation

    def checked(k, separation):
        """k, the rates of a stage of the step with that separation."""
        move = dt * float(np.abs(k[0]).max())
        if not move <= separation / 2:
            raise StepTooLarge(
                f"step {step}: dt = {dt:g} moves a position by {move:.3e}, "
                f"more than half the smallest separation {separation:.3e} of "
                "its stage"
            )
        return k

    traj, pending, ev0 = Trajectory(), [], None

    def spectra():
        """Move the pending points, with their spectral drift from the
        start, into traj; CollisionImminent at the first whose L is not
        finite."""
        nonlocal ev0
        qs, ps, Ls = zip(*pending)
        pending.clear()
        if diagonal:
            L = np.moveaxis(plan.matrix(np.array(qs).T, np.array(ps).T), -1, 0)
        else:
            L = np.array(Ls)
        finite = np.isfinite(L).all(axis=(1, 2))
        good = len(qs) if finite.all() else int(finite.argmin())
        first = len(traj.times)
        if good:
            ev = np.linalg.eigvals(L[:good])
            if not first:
                ev0 = ev[0]
            traj.times.extend((first + i) * dt for i in range(good))
            traj.points.extend(PhasePoint(tuple(q), tuple(p)) for q, p in zip(qs, ps[:good]))
            traj.spectral_drift.extend(_match_drift(ev0, ev).tolist())
        if good < len(qs):
            raise CollisionImminent(_not_finite(ps[good], first + good))

    q = np.asarray(start.q, dtype=complex)
    p = np.asarray(start.p, dtype=complex)
    y = np.exp(p) if theta else p
    try:
        # A non-finite value ends the flow as CollisionImminent at the next
        # _field check or in spectra(), so numpy need not warn about it.
        with np.errstate(all="ignore"):
            try:
                for step in range(steps + 1):
                    if step:
                        checked(k1, separation)
                        k2 = checked(*stage(q + dt / 2 * k1[0], y + dt / 2 * k1[1])[1:])
                        k3 = checked(*stage(q + dt / 2 * k2[0], y + dt / 2 * k2[1])[1:])
                        k4 = checked(*stage(q + dt * k3[0], y + dt * k3[1])[1:])
                        q = q + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
                        y = y + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
                        p = momenta(y)
                    if step < steps:
                        L, k1, separation = stage(q, y)
                    else:
                        ps = momenta(y)
                        _checked_args(plan, diagonal, q, ps)
                        L = None if diagonal else plan.matrix(q, ps)
                    pending.append((q, p, L))
                    if len(pending) == block:
                        spectra()
            finally:
                # A point whose L is not finite ends the flow ahead of any
                # later error of the loop.
                if pending:
                    spectra()
    except CollisionImminent as exc:
        if not traj.times:
            traj = Trajectory([0.0], [start], [0.0])
        raise type(exc)(str(exc), trajectory=traj) from None
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
