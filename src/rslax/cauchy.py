"""Elliptic Cauchy matrices with a spectral parameter and their closed-form
determinant, minor, and shifted-inverse-product identities.

The matrix is H(lam)_{ij} = sigma(lam + q_i - r_j) / (sigma(lam) * sigma(q_i - r_j)),
and its determinant has the Frobenius closed form

    det H = sigma(lam + sum_i (q_i - r_i)) / sigma(lam)
            * prod_{i<j} sigma(q_i - q_j) * sigma(r_j - r_i)
            / prod_{i,j} sigma(q_i - r_j),

which brute-force LU determinants certify to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elliptic
from .elliptic import DISTINCT_TOL
from .errors import DegenerateConfiguration, NonFiniteEntries, SingularMatrix


@dataclass(frozen=True)
class CauchyMatrixSpec:
    """Parameters (q_i, r_j, lattice) of an elliptic Cauchy matrix."""

    qs: tuple
    rs: tuple
    lat: elliptic.Lattice

    def __post_init__(self):
        object.__setattr__(self, "qs", tuple(complex(q) for q in self.qs))
        object.__setattr__(self, "rs", tuple(complex(r) for r in self.rs))
        if len(self.qs) != len(self.rs) or len(self.qs) < 1:
            raise DegenerateConfiguration(
                "qs and rs must have equal length n >= 1"
            )

    @property
    def n(self) -> int:
        return len(self.qs)


@dataclass(frozen=True)
class SpectralMatrix:
    """An evaluated n x n complex matrix tagged with its spectral parameter."""

    n: int
    entries: np.ndarray
    lam: complex

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}")
        if not np.isfinite(arr).all():
            raise NonFiniteEntries("entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def _pairwise_diffs(qs, rs):
    q = np.asarray(qs, dtype=complex)
    r = np.asarray(rs, dtype=complex)
    return q[:, None] - r[None, :]


def build_elliptic_cauchy(spec: CauchyMatrixSpec, lam) -> SpectralMatrix:
    """Evaluate the elliptic Cauchy matrix at spectral parameter lam, from
    one sigma pass (elliptic._Batch)."""
    lam = complex(lam)
    batch = elliptic._Batch(spec.lat)
    return _cauchy_matrix(batch, _cauchy_args(batch, spec.qs, spec.rs, lam), lam)


def _cauchy_args(batch, qs, rs, lam):
    """Add the arguments of the Cauchy matrix of (qs, rs) at lam, q_i - r_j,
    lam and lam + q_i - r_j, to the batch."""
    diffs = _pairwise_diffs(qs, rs)
    return batch.add(diffs), batch.add(lam), batch.add(lam + diffs)


def _cauchy_matrix(batch, args, lam):
    """The Cauchy matrix from the batch's values at args (_cauchy_args)."""
    diffs, lam_idx, lam_diffs = args
    # Entry evaluation only needs pole safety; the tighter distinctness
    # threshold applies to the closed-form determinants, which divide by
    # sigma of every difference.
    if batch.distance(diffs).min() < elliptic.POLE_TOL:
        raise DegenerateConfiguration(
            "some q_i - r_j is within the distinctness threshold of the lattice"
        )
    batch.off_lattice(**{"spectral parameter lam": lam_idx})
    with np.errstate(all="ignore"):
        entries = batch.sigma(lam_diffs) / (batch.sigma(lam_idx) * batch.sigma(diffs))
    return SpectralMatrix(diffs.shape[0], entries, lam)


def frobenius_determinant(spec: CauchyMatrixSpec, lam) -> complex:
    """Closed-form determinant of the elliptic Cauchy matrix, from one sigma
    pass (elliptic._Batch); ValueOverflow where it is not a double
    (elliptic._Batch.quotient)."""
    lam = complex(lam)
    q = np.asarray(spec.qs, dtype=complex)
    r = np.asarray(spec.rs, dtype=complex)
    n = spec.n
    iu = np.triu_indices(n, k=1)
    batch = elliptic._Batch(spec.lat)
    qr = batch.add(_pairwise_diffs(q, r))
    # The numerator's factors sigma(q_i - q_j) and sigma(r_j - r_i), i < j.
    qq = batch.add(_pairwise_diffs(q, q)[iu])
    rr = batch.add(-_pairwise_diffs(r, r)[iu])
    head, lam_idx = batch.add(lam + np.sum(q - r)), batch.add(lam)
    if batch.distance(qr).min() < DISTINCT_TOL:
        raise DegenerateConfiguration("q_i - r_j hits the lattice: formula pole")
    if n > 1 and (
        batch.distance(qq).min() < DISTINCT_TOL or batch.distance(rr).min() < DISTINCT_TOL
    ):
        # A coincident pair makes a numerator factor an exact zero.
        return 0.0 + 0.0j

    def direct():
        head_lam = batch.sigma(head) / batch.sigma(lam_idx)
        num = np.prod(batch.sigma(qq)) * np.prod(batch.sigma(rr))
        return complex(head_lam * num / np.prod(batch.sigma(qr)))

    return batch.quotient(
        direct,
        lambda: batch.log_quotient([head, *qq, *rr], [lam_idx, *qr.flat]),
        "frobenius_determinant: the sigma quotient",
    )


def minor_determinant(spec: CauchyMatrixSpec, lam, k: int, l: int) -> complex:
    """Closed-form determinant of the minor deleting row k and column l.

    Indices are 1-based.  Deleting row k removes q_k and deleting column l
    removes r_l, leaving an (n-1) x (n-1) Cauchy matrix of the same form, so
    the closed form is the Frobenius formula on the reduced index sets.
    """
    n = spec.n
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError("minor indices out of range")
    if n == 1:
        return 1.0 + 0.0j
    qs = tuple(q for i, q in enumerate(spec.qs, start=1) if i != k)
    rs = tuple(r for j, r in enumerate(spec.rs, start=1) if j != l)
    reduced = CauchyMatrixSpec(qs, rs, spec.lat)
    return frobenius_determinant(reduced, lam)


def _singular(M) -> bool:
    """Whether the square matrix M, each row divided by its largest
    magnitude and then each column by its, is numerically singular or not
    finite.  A test of det M itself would depend on the scale of M's rows
    and columns, so also on a diagonal conjugation of M."""
    with np.errstate(all="ignore"):  # a zero row or column divides by 0
        K = M / np.abs(M).max(axis=1, keepdims=True)
        K /= np.abs(K).max(axis=0, keepdims=True)
        return not abs(np.linalg.det(K)) >= 1e-12


def shifted_inverse_product(F, z, u, method: str = "solve") -> SpectralMatrix:
    """F(z)^{-1} * F(z+u) for a matrix-valued function F.

    method "solve" uses a direct linear solve; method "det_ratio" evaluates
    each entry as a ratio of determinants, replacing column i of F(z) by
    column j of F(z+u):

        (F^{-1}(z) F(z+u))_{ij} = det(F(z) <- col i := F(z+u)[:, j]) / det F(z)

    which is the closed form the identities below are certified against.
    """
    Fz = np.asarray(F(z), dtype=complex)
    n = Fz.shape[0]
    if _singular(Fz):
        raise SingularMatrix("F(z) is numerically singular")
    Fu = np.asarray(F(z + u), dtype=complex)
    if method == "solve":
        entries = np.linalg.solve(Fz, Fu)
    elif method == "det_ratio":
        detF = np.linalg.det(Fz)
        entries = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                M = Fz.copy()
                M[:, i] = Fu[:, j]
                entries[i, j] = np.linalg.det(M) / detF
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectralMatrix(n, entries, complex(z))
