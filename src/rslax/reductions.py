"""Moment-map reductions on explicit gauge slices and the duality map.

The four solved equations, each on a diagonal gauge slice, are

* rational CM:  [X, Y] = O            with X = diag(q)
* trig CM:      X Y X^{-1} - Y = O'   with Y = diag(q), O' in the orbit of O
* rational RS:  X Y X^{-1} - Y = O    with X = diag(exp(theta))
* trig RS:      X Y X^{-1} Y^{-1} = I + u v^T  with X = diag(exp(theta))

where O = g * (ones - I).  The duality map conjugates a pair so the other
member becomes diagonal, swapping the roles of positions and constants of
motion; it is an involution on position multisets.

Notes on solvability:

* Trig CM: with X forced diagonal-gauge-free, the literal equation with O
  itself is consistent only for resonant position sets (q_i = q_j + g
  patterns).  For generic positions the solver picks the orbit representative
  O' = c 1^T - g I (rank(O' + gI) = 1, trace 0, hence GL_n-conjugate to O)
  whose vector c is fixed by requiring diag(q) + O' to have spectrum {q_i};
  X is then the matrix of eigenvectors, gauge-normalized on the diagonal.
* Trig RS: a diagonal X forces det(X Y X^{-1} Y^{-1}) = 1 exactly, so
  solutions exist only on the stratum v^T u = 0 (det O' = 1 + v^T u = 1) and
  the componentwise consistency condition u_i * (v^T Y)_i = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import _singular
from .errors import (
    DegenerateConfiguration,
    NonDiagonalizable,
    NoSolution,
    RepeatedEigenvalues,
    SingularY,
)

KIND_RATIONAL_CM = "rational_cm"
KIND_TRIG_CM = "trig_cm"
KIND_RATIONAL_RS = "rational_rs"
KIND_TRIG_RS = "trig_rs"

_DISTINCT_TOL = 1e-10


@dataclass(frozen=True)
class OrbitSpec:
    """Orbit data: coupling g for O = g*(ones - I), and the rank-one vectors
    u, v for O' = I + u v^T (trig RS only)."""

    g: complex = 0.0
    u: tuple = ()
    v: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))
        object.__setattr__(self, "v", tuple(complex(x) for x in self.v))

    def o_matrix(self, n: int) -> np.ndarray:
        return self.g * (np.ones((n, n), dtype=complex) - np.eye(n))

    def o_prime(self) -> np.ndarray:
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        return np.eye(u.size) + np.outer(u, v)


@dataclass(frozen=True)
class ReductionPair:
    """A matrix pair (X, Y) solving one of the moment-map equations."""

    X: np.ndarray
    Y: np.ndarray
    kind: str

    def __post_init__(self):
        for name in ("X", "Y"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _require_distinct(vals, what):
    vals = np.asarray(vals, dtype=complex)
    n = vals.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) < _DISTINCT_TOL:
                raise DegenerateConfiguration(f"{what} are not pairwise distinct")


def solve_rational_cm(q, p, orbit: OrbitSpec) -> ReductionPair:
    """Solve [X, Y] = O with X = diag(q); the off-diagonal entries of Y are
    forced to g/(q_i - q_j) and the diagonal carries the momenta."""
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    _require_distinct(q, "positions")
    n = q.size
    Y = np.diag(p).astype(complex)
    off = ~np.eye(n, dtype=bool)
    if n > 1:
        D = q[:, None] - q[None, :]
        Y[off] = orbit.g / D[off]
    return ReductionPair(np.diag(q), Y, KIND_RATIONAL_CM)


def solve_rational_rs(theta, orbit: OrbitSpec, diag_free) -> ReductionPair:
    """Solve X Y X^{-1} - Y = O with X = diag(exp(theta)); off-diagonal Y is
    forced to O_ij/(exp(theta_i - theta_j) - 1), the diagonal is free."""
    theta = np.asarray(theta, dtype=complex)
    n = theta.size
    x = np.exp(theta)
    _require_distinct(x, "exp(theta) values")
    rho = np.exp(theta[:, None] - theta[None, :])
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.min(np.abs(rho[off] - 1.0)) < 1e-8:
        raise DegenerateConfiguration("exp(theta_i - theta_j) too close to 1")
    Y = np.diag(np.asarray(diag_free, dtype=complex)).astype(complex)
    if n > 1:
        O = orbit.o_matrix(n)
        Y[off] = O[off] / (rho[off] - 1.0)
    return ReductionPair(np.diag(x), Y, KIND_RATIONAL_RS)


def solve_trig_cm(q, orbit: OrbitSpec, gauge) -> ReductionPair:
    """Solve X Y X^{-1} - Y in the orbit of O with Y = diag(q).

    The orbit condition is equivalent to M + gI being rank one (M has trace
    zero automatically), so M = alpha beta^T - gI for some vectors alpha,
    beta.  Each column of X then solves the linear eigen-structure relation

        (q_i - g - q_j) X_ij = -alpha_i * (beta^T x_j),

    i.e. X_ij is proportional to alpha_i / (q_j + g - q_i), a Cauchy-type
    column, and beta is recovered from a linear solve against the built X.
    Resonant pairs q_i = q_j + g are handled by setting alpha_i = 0, which
    frees the (i, j) entry; in that case the affected diagonal entries of X
    vanish and the column is normalized on its largest entry instead of the
    diagonal.  The construction satisfies the moment-map equation exactly.
    """
    q = np.asarray(q, dtype=complex)
    gauge = np.asarray(gauge, dtype=complex)
    _require_distinct(q, "positions")
    n = q.size
    g = complex(orbit.g)
    Y = np.diag(q)
    if abs(g) < 1e-14:
        return ReductionPair(np.diag(gauge).astype(complex), Y, KIND_TRIG_CM)

    res_tol = 1e-10
    denom = q[None, :] + g - q[:, None]  # [i, j] = q_j + g - q_i
    resonant = np.abs(denom) < res_tol
    alpha = np.where(resonant.any(axis=1), 0.0, 1.0).astype(complex)

    X = np.zeros((n, n), dtype=complex)
    for j in range(n):
        col = np.zeros(n, dtype=complex)
        col[~resonant[:, j]] = alpha[~resonant[:, j]] / denom[~resonant[:, j], j]
        # Entries killed by both a resonance and alpha_i = 0 are free; pick 1
        # to keep the column nonzero and X generically invertible.
        col[resonant[:, j]] = 1.0
        if abs(col[j]) > res_tol * np.max(np.abs(col)):
            col = col / col[j] * gauge[j]
        else:
            k = int(np.argmax(np.abs(col)))
            col = col / col[k] * gauge[j]
        X[:, j] = col

    # The condition number does not depend on the scale of the columns, which
    # the gauge sets; |det X| does.
    if np.linalg.cond(X) > 1e12:
        raise NoSolution("constructed X is singular for this configuration")

    # beta from beta^T x_j = s_j, where s_j is fixed by any non-resonant row
    # with alpha_i != 0:  s_j = -(q_i - g - q_j) X_ij / alpha_i.
    s = np.empty(n, dtype=complex)
    for j in range(n):
        rows = [i for i in range(n) if alpha[i] != 0 and not resonant[i, j]]
        if not rows:
            raise NoSolution("no usable row to close the rank-one factor")
        i = rows[0]
        s[j] = -(q[i] - g - q[j]) * X[i, j] / alpha[i]
    beta = np.linalg.solve(X.T, s)
    M = np.outer(alpha, beta) - g * np.eye(n)

    # Exactness check of the construction (defensive; should hold to roundoff).
    residual = np.linalg.norm(X @ Y - (Y + M) @ X) / max(1.0, float(np.max(np.abs(X))))
    if residual > 1e-8:
        raise NoSolution("constructed X fails the moment-map equation")
    return ReductionPair(X, Y, KIND_TRIG_CM)


def solve_trig_rs(theta, orbit: OrbitSpec, diag_free) -> ReductionPair:
    """Solve X Y X^{-1} Y^{-1} = I + u v^T with X = diag(exp(theta)).

    The rank-one structure gives (rho_ij - 1) Y_ij = u_i w_j with w = v^T Y;
    w is determined by a scalar closure per column and the solution exists
    iff u_i w_i = 0 for every i.
    """
    theta = np.asarray(theta, dtype=complex)
    u = np.asarray(orbit.u, dtype=complex)
    v = np.asarray(orbit.v, dtype=complex)
    d = np.asarray(diag_free, dtype=complex)
    n = theta.size
    if u.size != n or v.size != n or d.size != n:
        raise ValueError("u, v, diag_free must all have length n")
    if abs(1.0 + np.dot(v, u)) < 1e-12:
        raise DegenerateConfiguration("1 + v^T u = 0: orbit matrix is singular")
    x = np.exp(theta)
    _require_distinct(x, "exp(theta) values")
    rho = np.exp(theta[:, None] - theta[None, :])
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.min(np.abs(rho[off] - 1.0)) < 1e-8:
        raise DegenerateConfiguration("exp(theta_i - theta_j) too close to 1")

    # Column closure: w_j * (1 - sum_{i != j} v_i u_i/(rho_ij - 1)) = v_j d_j.
    w = np.empty(n, dtype=complex)
    for j in range(n):
        s = sum(v[i] * u[i] / (rho[i, j] - 1.0) for i in range(n) if i != j)
        coef = 1.0 - s
        if abs(coef) < 1e-12:
            if abs(v[j] * d[j]) < 1e-12:
                w[j] = 0.0
            else:
                raise NoSolution("column closure for w is inconsistent")
        else:
            w[j] = v[j] * d[j] / coef

    if np.max(np.abs(u * w)) > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
        raise NoSolution(
            "diagonal consistency u_i (v^T Y)_i = 0 fails; no Y exists on this "
            "gauge slice (note: a diagonal X forces v^T u = 0)"
        )

    Y = np.diag(d).astype(complex)
    if n > 1:
        W = np.outer(u, w)
        Y[off] = W[off] / (rho[off] - 1.0)
    if _singular(Y):
        raise SingularY("solved Y is singular; multiplicative residual undefined")
    return ReductionPair(np.diag(x), Y, KIND_TRIG_RS)


def moment_residual(pair: ReductionPair, orbit: OrbitSpec) -> float:
    """Size-normalized Frobenius residual of the pair's moment-map equation.

    For the trig CM kind the residual is against the orbit condition itself:
    M = X Y X^{-1} - Y must have trace 0 and M + gI rank one.  For the
    rational CM kind, pairs produced by dualize have a commutator that is
    conjugate to the orbit matrix rather than equal to it (the role swap
    reverses the commutator's sign), so when the entrywise residual fails the
    orbit-membership test (trace zero, [X,Y] -+ gI rank one) is used.
    """
    X, Y = pair.X, pair.Y
    n = X.shape[0]
    if pair.kind == KIND_RATIONAL_CM:
        R = X @ Y - Y @ X - orbit.o_matrix(n)
        entrywise = float(np.linalg.norm(R) / max(1.0, float(np.max(np.abs(X @ Y)))))
        if entrywise < 1e-8 or n == 1:
            return entrywise
        C = X @ Y - Y @ X
        scale = max(1.0, float(np.max(np.abs(C))))
        best = entrywise
        for sign in (1.0, -1.0):
            s = np.linalg.svd(C + sign * orbit.g * np.eye(n), compute_uv=False)
            best = min(best, float((s[1] + abs(np.trace(C))) / scale))
        return best
    elif pair.kind == KIND_RATIONAL_RS:
        R = X @ Y @ np.linalg.inv(X) - Y - orbit.o_matrix(n)
    elif pair.kind == KIND_TRIG_CM:
        M = X @ Y @ np.linalg.inv(X) - Y
        s = np.linalg.svd(M + orbit.g * np.eye(n), compute_uv=False)
        rank_defect = s[1] if n > 1 else 0.0
        return float(
            (rank_defect + abs(np.trace(M))) / max(1.0, float(np.max(np.abs(M))))
        )
    elif pair.kind == KIND_TRIG_RS:
        R = X @ Y @ np.linalg.inv(X) @ np.linalg.inv(Y) - orbit.o_prime()
    else:
        raise ValueError(f"unknown reduction kind {pair.kind!r}")
    scale = max(1.0, float(np.max(np.abs(X @ Y))))
    return float(np.linalg.norm(R) / scale)


def _canonical_eig(M):
    """Eigen-decomposition with (Re, Im)-lexicographically sorted eigenvalues."""
    vals, vecs = np.linalg.eig(M)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(vals.size):
        for j in range(i + 1, vals.size):
            if abs(vals[i] - vals[j]) < 1e-8:
                raise RepeatedEigenvalues("eigenvalues are not pairwise distinct")
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > 1e10:
        raise NonDiagonalizable("eigenbasis is numerically defective")
    # Deterministic column scaling: largest component of each vector = 1.
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        vecs[:, j] = vecs[:, j] / vecs[k, j]
    return vals, vecs


def dualize(pair: ReductionPair) -> ReductionPair:
    """Conjugate the pair so the non-diagonal member becomes diagonal,
    swapping the roles of positions and constants of motion.

    The returned pair has X diagonal (the sorted spectrum of the previously
    non-diagonal member) and Y = S^{-1} (old diagonal) S.  Applying dualize
    twice recovers the original position multiset.
    """
    X, Y = pair.X, pair.Y
    n = X.shape[0]

    def is_diag(M):
        return np.all(np.abs(M - np.diag(np.diag(M))) < 1e-12 * max(1.0, np.max(np.abs(M))))

    if is_diag(X):
        diag_member, full_member = X, Y
    elif is_diag(Y):
        diag_member, full_member = Y, X
    else:
        # Diagonalize Y by convention when neither member is diagonal.
        diag_member, full_member = X, Y
    vals, S = _canonical_eig(full_member)
    Sinv = np.linalg.inv(S)
    new_X = np.diag(vals)
    new_Y = Sinv @ diag_member @ S
    return ReductionPair(new_X, new_Y, pair.kind)
