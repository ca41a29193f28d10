"""Tests for the Lax-matrix layer: agreement of the direct and
geometric-composition RS matrices, the coupling-to-zero collapse, the
Ruijsenaars eigenvalue correspondence, the Krichever matrix, spin framing,
the CM matrix, and the factorized CM matrix against a coupling-derivative
oracle.
"""

import numpy as np
import pytest

import oracles
from rslax import elliptic, lax
from rslax.errors import (
    DegenerateConfiguration,
    PoleAtLattice,
    ZeroLambda,
    ZeroMu,
)

LAT = elliptic.lattice_from_periods(1.0, 0.2 + 2.2j)
Z = 0.19 + 0.27j


def make_conf(rng, n, lat=LAT, hbar=0.11 + 0.04j):
    q = 0.12 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * 0.3
    P = 0.25 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return lax.rs_config(q, P, hbar, lat)


class TestConfig:
    def test_framing_relation_enforced_by_constructor(self):
        conf = make_conf(np.random.default_rng(0), 3)
        assert abs(conf.q_zero - conf.q_inf - conf.n * conf.hbar) < 1e-14

    def test_coincident_positions_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            lax.rs_config([0.1, 0.1], [0.0, 0.0], 0.1, LAT)


class TestHasegawaComposition:
    def test_agreement_across_kinds(self):
        rng = np.random.default_rng(1)
        for lat in (LAT, elliptic.trig_lattice(), elliptic.rational_lattice()):
            for n in (2, 3):
                conf = make_conf(rng, n, lat=lat)
                A = lax.hasegawa_lax(conf, Z).entries
                B = lax.composition_lax(conf, Z).entries
                assert np.max(np.abs(A - B)) < 1e-10 * np.max(np.abs(A))

    def test_hbar_zero_collapse(self):
        rng = np.random.default_rng(2)
        q = [0.1 + 0.02j, 0.45 - 0.03j, 0.8]
        P = [0.2, -0.1, 0.05]
        conf = lax.rs_config(q, P, 0.0, LAT)
        for fn in (lax.hasegawa_lax, lax.composition_lax):
            L = fn(conf, Z).entries
            assert np.max(np.abs(L - np.diag(np.exp(P)))) < 1e-12

    def test_entrywise_formula_even_n(self):
        # Pins the sign convention of the denominator product
        # prod_{l != k} sigma(q_l - q_k), which flips the global sign for
        # even n if mis-oriented.
        q = [0.1, 0.45]
        P = [0.2, -0.1]
        h = 0.07 + 0.01j
        conf = lax.rs_config(q, P, h, LAT)
        L = lax.hasegawa_lax(conf, Z).entries
        for k in range(2):
            for kp in range(2):
                num = elliptic.sigma(Z + h + q[k] - q[kp], LAT)
                prod = 1.0
                for l in range(2):
                    if l != k:
                        prod *= elliptic.sigma(h + q[l] - q[kp], LAT) / elliptic.sigma(
                            q[l] - q[k], LAT
                        )
                expected = np.exp(P[k]) * num / elliptic.sigma(Z, LAT) * prod
                assert abs(L[k, kp] - expected) < 1e-13 * max(1.0, abs(expected))

    def test_pole_at_lattice_z(self):
        conf = make_conf(np.random.default_rng(3), 2)
        with pytest.raises(PoleAtLattice):
            lax.hasegawa_lax(conf, 0.0)

    def test_n1_scalar_value(self):
        conf = lax.rs_config([0.2], [0.3], 0.07, LAT)
        L = lax.hasegawa_lax(conf, Z).entries[0, 0]
        expected = (
            np.exp(0.3)
            * elliptic.sigma(Z + 0.07, LAT)
            / elliptic.sigma(Z, LAT)
        )
        assert abs(L - expected) < 1e-13 * abs(expected)


    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_equals_batched_plan_bit_for_bit(self, kind, n):
        # A flow's spectra come from the plan's batched build; hasegawa_lax
        # at the same point gives the same bits, wherever the point sits in
        # the batch and however large the batch is.
        lat = {
            "elliptic": LAT,
            "trig": elliptic.trig_lattice(),
            "rational": elliptic.rational_lattice(),
        }[kind]
        rng = np.random.default_rng(n)
        conf = make_conf(rng, n, lat)
        L = lax.hasegawa_lax(conf, Z).entries
        plan = lax._HasegawaPlan(conf, Z)
        q, P = np.array(conf.q), np.array(conf.P)
        for size in (2, 7, 390):
            qs = q[:, None] + 0.01 * rng.normal(size=(n, size))
            ps = P[:, None] + 0.1 * rng.normal(size=(n, size))
            for pos in (0, size // 2, size - 1):
                qs[:, pos], ps[:, pos] = q, P
                assert plan.matrix(qs, ps)[..., pos].tobytes() == L.tobytes()


class TestRuijsenaars:
    def test_eigenvalue_correspondence_with_hasegawa(self):
        # With momenta chosen by ruijsenaars_equivalent_momenta, the
        # Ruijsenaars matrix at lam = z + hbar has the same spectrum as
        # hasegawa_lax(z) up to the scalar sigma(z + hbar)/sigma(z).
        rng = np.random.default_rng(4)
        conf = make_conf(rng, 3)
        theta = lax.ruijsenaars_equivalent_momenta(conf)
        conf_r = lax.RSConfig(
            n=conf.n, q=conf.q, P=tuple(theta), hbar=conf.hbar, mu=conf.hbar,
            lat=conf.lat, q_inf=conf.q_inf, q_zero=conf.q_zero,
        )
        Lh = lax.hasegawa_lax(conf, Z).entries
        Lr = lax.ruijsenaars_lax(conf_r, Z + conf.hbar).entries
        scale = elliptic.sigma(Z + conf.hbar, LAT) / elliptic.sigma(Z, LAT)
        ev_h = np.sort_complex(np.linalg.eigvals(Lh))
        ev_r = np.sort_complex(scale * np.linalg.eigvals(Lr))
        assert np.max(np.abs(ev_h - ev_r)) < 1e-9 * np.max(np.abs(ev_h))

    def test_zero_mu_rejected(self):
        conf = lax.rs_config([0.1, 0.5], [0.0, 0.0], 0.1, LAT, mu=0.0)
        # sigma(mu) = 0 at mu = 0: the Ruijsenaars form reports the lattice
        # pole; the Krichever form reports the zero-mu division.
        with pytest.raises(PoleAtLattice):
            lax.ruijsenaars_lax(conf, 0.3 + 0.2j)
        with pytest.raises(ZeroMu):
            lax.krichever_lax(conf, Z, 0.23 + 0.11j)


class TestKrichever:
    def test_finite_and_diagonal_structure(self):
        conf = make_conf(np.random.default_rng(5), 3)
        L = lax.krichever_lax(conf, Z, 0.23 + 0.11j).entries
        assert np.all(np.isfinite(L))
        # Diagonal entries carry no position difference: all equal.
        d = np.diag(L)
        assert np.max(np.abs(d - d[0])) < 1e-10 * abs(d[0])


class TestSpin:
    def test_unit_framing_reproduces_spinless(self):
        rng = np.random.default_rng(6)
        conf = make_conf(rng, 3)
        n = conf.n
        ones = np.ones((n, 1))
        spin = lax.SpinFraming(1, ones, ones.T, ones, ones.T)
        conf0 = lax.RSConfig(
            n=n, q=conf.q, P=tuple(0.0 for _ in range(n)), hbar=conf.hbar,
            mu=conf.mu, lat=conf.lat, q_inf=conf.q_inf, q_zero=conf.q_zero,
        )
        Ls = lax.spin_lax(conf0, spin, Z).entries
        L0 = lax.hasegawa_lax(conf0, Z).entries
        assert np.array_equal(Ls, L0) or np.max(np.abs(Ls - L0)) < 1e-15

    def test_bilinearity_in_framing(self):
        # f_{kk'} is bilinear in (U0, Uinf): scaling U0 by s scales L by s.
        rng = np.random.default_rng(7)
        conf = make_conf(rng, 2)
        k = 2
        U0 = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
        V0 = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
        Ui = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
        Vi = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
        s = 1.7 - 0.4j
        L1 = lax.spin_lax(conf, lax.SpinFraming(k, U0, V0, Ui, Vi), Z).entries
        L2 = lax.spin_lax(conf, lax.SpinFraming(k, s * U0, V0, Ui, Vi), Z).entries
        assert np.max(np.abs(L2 - s * L1)) < 1e-12 * np.max(np.abs(L1))


class TestXiMatrix:
    def test_invertible_and_column_quasi_periodicity(self):
        conf = make_conf(np.random.default_rng(8), 3)
        n = conf.n
        Xi = lax.xi_matrix(conf, Z).entries
        assert abs(np.linalg.det(Xi)) > 1e-12
        # Column j picks up e^{2 pi i (1/(2n) - j/n^2)} under z -> z + omega1.
        Xi2 = lax.xi_matrix(conf, Z + conf.lat.omega1).entries
        for j in range(n):
            phase = np.exp(2j * np.pi * (1.0 / (2 * n) - j / n**2))
            assert np.max(np.abs(Xi2[:, j] - phase * Xi[:, j])) < 1e-10 * np.max(
                np.abs(Xi[:, j])
            )


class TestCMLax:
    def test_rational_entries(self):
        q = [0.0, 1.0, 2.5]
        p = [0.3, -0.2, 0.1]
        g = 0.7
        conf = lax.cm_config(q, p, g, elliptic.rational_lattice())
        L = lax.cm_lax(conf, None).entries
        for i in range(3):
            for j in range(3):
                expected = p[i] if i == j else g / (q[i] - q[j])
                assert abs(L[i, j] - expected) < 1e-13

    def test_spectral_term_reduces_to_rational(self):
        # With sigma(z) = z the sigma-quotient entry equals 1/q_ij - 1/lam.
        q = [0.0, 1.0]
        conf = lax.cm_config(q, [0.0, 0.0], 1.0, elliptic.rational_lattice())
        lam = 0.8
        L = lax.cm_lax(conf, lam).entries
        expected = 1.0 / (q[0] - q[1]) - 1.0 / lam
        assert abs(L[0, 1] - expected) < 1e-12

    def test_zero_lambda_rejected_outside_rational(self):
        conf = lax.cm_config([0.1, 0.5], [0.0, 0.0], 1.0, LAT)
        with pytest.raises(ZeroLambda):
            lax.cm_lax(conf, None)


class TestFactorizedCM:
    def test_scalar_oracle_n1(self):
        # n = 1: the matrix is p + zeta(z).
        p0 = 0.37 - 0.12j
        conf = lax.cm_config([0.2], [p0], 1.0, LAT)
        L = lax.factorized_cm_lax(conf, Z).entries[0, 0]
        assert abs(L - (p0 + elliptic.zeta(Z, LAT))) < 1e-13 * max(1.0, abs(L))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lat", [LAT, elliptic.lattice_from_periods(1.0, 2.5j)])
    def test_coupling_derivative_oracle(self, lat, n):
        # The closed form against a 4th-order difference of the transport
        # matrix in the coupling.
        rng = np.random.default_rng(n)
        q = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * 0.7 / n
        p = rng.normal(size=n)
        conf = lax.cm_config(q, p, 1.0, lat)
        T = lax.factorized_cm_lax(conf, Z).entries - np.diag(p)
        expected = oracles.fd_coupling_derivative(conf, Z)
        assert np.abs(T - expected).max() < 1e-8 * np.abs(expected).max()

    def test_requires_elliptic_lattice(self):
        conf = lax.cm_config([0.2], [0.0], 1.0, elliptic.trig_lattice())
        with pytest.raises(DegenerateConfiguration):
            lax.factorized_cm_lax(conf, Z)
