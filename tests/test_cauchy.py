"""Tests for elliptic Cauchy matrices: closed-form Frobenius determinants
against LU oracles, minor determinants, and the shifted inverse-product
identity, including hypothesis property tests over random parameter draws.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rslax import elliptic
from rslax.cauchy import (
    CauchyMatrixSpec,
    build_elliptic_cauchy,
    frobenius_determinant,
    minor_determinant,
    shifted_inverse_product,
)
from rslax.errors import DegenerateConfiguration, PoleAtLattice, SingularMatrix

LAT = elliptic.lattice_from_periods(1.0, 0.4 + 1.9j)
LAM = 0.21 + 0.17j


def make_spec(rng, n, lat=LAT):
    qs = 0.22 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * 0.45
    rs = qs + 0.11 + 0.06j + 0.04 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return CauchyMatrixSpec(tuple(qs), tuple(rs), lat)


class TestBuild:
    def test_entries_are_sigma_quotients(self):
        rng = np.random.default_rng(0)
        spec = make_spec(rng, 3)
        F = build_elliptic_cauchy(spec, LAM).entries
        for i in range(3):
            for j in range(3):
                expected = elliptic.sigma(LAM + spec.qs[i] - spec.rs[j], LAT) / (
                    elliptic.sigma(LAM, LAT)
                    * elliptic.sigma(spec.qs[i] - spec.rs[j], LAT)
                )
                assert abs(F[i, j] - expected) < 1e-13 * abs(expected)

    def test_lambda_on_lattice_rejected(self):
        rng = np.random.default_rng(1)
        spec = make_spec(rng, 2)
        with pytest.raises(PoleAtLattice):
            build_elliptic_cauchy(spec, 0.0)

    def test_coincident_q_r_rejected(self):
        qs = (0.1, 0.5)
        with pytest.raises(DegenerateConfiguration):
            build_elliptic_cauchy(CauchyMatrixSpec(qs, qs, LAT), LAM)


class TestOnePassBuild:
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        r_on_lattice=st.booleans(),
        lam=st.sampled_from(["cell", "node", "nan"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_call_build(self, n, seed, r_on_lattice, lam):
        # Values, and the first error where a q_i - r_j or lam (or both)
        # sits on the lattice, as the former route of one public call per
        # value.
        rng = np.random.default_rng(seed)
        spec = make_spec(rng, n)
        node = int(rng.integers(-1, 2)) * LAT.omega1 + int(rng.integers(-1, 2)) * LAT.omega2
        if r_on_lattice:
            rs = np.array(spec.rs)
            rs[int(rng.integers(n))] = spec.qs[int(rng.integers(n))] - node
            spec = CauchyMatrixSpec(spec.qs, tuple(rs), LAT)
        lam = {"cell": LAM, "node": node, "nan": complex("nan")}[lam]
        oracles.assert_same_outcome(
            oracles.outcome(build_elliptic_cauchy, spec, lam),
            oracles.outcome(oracles.build_elliptic_cauchy_reference, spec, lam),
        )


class TestFrobeniusDeterminant:
    @given(n=st.integers(1, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_lu_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        spec = make_spec(rng, n)
        closed = frobenius_determinant(spec, LAM)
        lu = oracles.brute_determinant(build_elliptic_cauchy(spec, LAM).entries)
        assert abs(closed - lu) < 1e-9 * max(abs(lu), 1e-30)

    def test_n1_scalar(self):
        spec = CauchyMatrixSpec((0.3,), (0.05,), LAT)
        closed = frobenius_determinant(spec, LAM)
        direct = build_elliptic_cauchy(spec, LAM).entries[0, 0]
        assert abs(closed - direct) < 1e-13 * abs(direct)

    def test_translation_invariance(self):
        # Shifting all q and r by the same constant leaves every entry, and
        # hence the determinant, unchanged.
        rng = np.random.default_rng(5)
        spec = make_spec(rng, 3)
        c = 0.17 - 0.23j
        shifted = CauchyMatrixSpec(
            tuple(q + c for q in spec.qs), tuple(r + c for r in spec.rs), LAT
        )
        d1 = frobenius_determinant(spec, LAM)
        d2 = frobenius_determinant(shifted, LAM)
        assert abs(d1 - d2) < 1e-10 * abs(d1)

    @pytest.mark.parametrize(
        "qs, rs, lam",
        [
            # sigma(71i) underflows to 0: a bare ZeroDivisionError once, then
            # a ValueOverflow.
            ((0.15 + 1.05j,), (0.0,), 71j),
            # The numerator and denominator products both underflow to 0:
            # nan+nanj with a RuntimeWarning once, then a ValueOverflow, where
            # the LU determinant of the Cauchy matrix is 5.33 - 5.37i.
            ((0.15 + 60j, 0.4), (0.0, 0.1), 0.3),
        ],
    )
    def test_quotient_beyond_the_products_matches_mpmath(self, qs, rs, lam):
        spec = CauchyMatrixSpec(qs, rs, elliptic.lattice_from_periods(1.0, 0.3 + 2.1j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det = frobenius_determinant(spec, lam)
        factors = oracles.frobenius_factors(qs, rs, lam)
        oracles.assert_log_form(det, *oracles.sigma_quotient_mpmath(*factors, spec.lat))


class TestMinors:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_all_minors_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        spec = make_spec(rng, n)
        F = build_elliptic_cauchy(spec, LAM).entries
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                closed = minor_determinant(spec, LAM, k, l)
                brute = oracles.brute_minor(F, k, l)
                assert abs(closed - brute) < 1e-9 * max(abs(brute), 1e-30)

    def test_n1_minor_is_one(self):
        spec = CauchyMatrixSpec((0.3,), (0.05,), LAT)
        assert minor_determinant(spec, LAM, 1, 1) == 1.0

    def test_index_range_checked(self):
        spec = CauchyMatrixSpec((0.3, 0.8), (0.05, 0.55), LAT)
        with pytest.raises(ValueError):
            minor_determinant(spec, LAM, 0, 1)


class TestShiftedInverseProduct:
    def test_det_ratio_equals_solve(self):
        rng = np.random.default_rng(9)
        tau = 1.8j

        def F(z):
            # Random fixed combination of theta values: smooth invertible
            # matrix family in z.
            base = rng_mat + z * dir_mat
            th = np.array(
                [
                    [
                        elliptic.theta_char(
                            elliptic.ThetaCharacteristic(0.5, 0.5), base[i, j], tau
                        )
                        for j in range(3)
                    ]
                    for i in range(3)
                ]
            )
            return th

        rng_mat = 0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) + 0.3
        dir_mat = np.full((3, 3), 1.0)
        z, u = 0.12 + 0.31j, 0.07 - 0.02j
        A = shifted_inverse_product(F, z, u, method="solve").entries
        B = shifted_inverse_product(F, z, u, method="det_ratio").entries
        assert np.max(np.abs(A - B)) < 1e-9 * np.max(np.abs(A))

    def test_u_zero_gives_identity(self):
        F = lambda z: np.array([[1.0 + z, 0.2], [0.1, 2.0 - z]], dtype=complex)
        out = shifted_inverse_product(F, 0.3, 0.0).entries
        assert np.max(np.abs(out - np.eye(2))) < 1e-12

    def test_singularity_test_ignores_the_row_scale(self):
        # The row scale of F cancels in F(z)^{-1} F(z + u); a test of det
        # F(z) itself called this F(z) singular.
        B = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=complex)
        F = lambda z: np.diag([1e-5, 1e-5, 1e5]) @ (B + z * np.eye(3))
        out = shifted_inverse_product(F, 0.1, 0.2).entries
        expected = np.linalg.solve(B + 0.1 * np.eye(3), B + 0.3 * np.eye(3))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_singular_base_point_rejected(self):
        F = lambda z: np.array([[z, z], [z, z]], dtype=complex)
        with pytest.raises(SingularMatrix):
            shifted_inverse_product(F, 0.3, 0.1)
