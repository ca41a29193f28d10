"""Tests for the Lax-matrix layer: agreement of the direct and
geometric-composition RS matrices, the coupling-to-zero collapse, the
Ruijsenaars eigenvalue correspondence, the Krichever matrix, spin framing,
the CM matrix, and the factorized CM matrix against a coupling-derivative
oracle.
"""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rslax import cauchy, elliptic, lax
from rslax.errors import (
    DegenerateConfiguration,
    NonConvergent,
    NonFiniteEntries,
    PoleAtLattice,
    RslaxError,
    ValueOverflow,
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

    def test_coincident_positions_name_the_closest_pair(self):
        with pytest.raises(DegenerateConfiguration) as exc:
            lax.rs_config([0.1, 0.1 + 1e-7, 0.5], [0.0] * 3, 0.1, LAT)
        assert str(exc.value) == (
            "positions are not pairwise distinct modulo the lattice: positions 0 and 1 "
            "are 1.000e-07 apart, below the tolerance 1.0e-06"
        )
        # Modulo the lattice: q_2 - q_0 is a period plus 3e-7.
        with pytest.raises(DegenerateConfiguration, match=": positions 0 and 2 are 3.000e-07 apart"):
            lax.rs_config([0.1, 0.5, 1.1 + 3e-7], [0.0] * 3, 0.1, LAT)

    def test_one_distinctness_tolerance(self):
        # Defined once, in elliptic; lax and cauchy import it.
        assert lax.DISTINCT_TOL is cauchy.DISTINCT_TOL is elliptic.DISTINCT_TOL
        tol = elliptic.DISTINCT_TOL
        lax.rs_config([0.1, 0.1 + 2 * tol], [0.0, 0.0], 0.1, LAT)
        with pytest.raises(DegenerateConfiguration):
            lax.rs_config([0.1, 0.1 + tol / 2], [0.0, 0.0], 0.1, LAT)


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

    def test_equivalent_momenta_name_a_vanishing_factor(self):
        # hbar + q_0 - q_1 = 0: a factor sigma(hbar + q_l - q_k) vanishes,
        # where an infinite exponent came out with a divide-by-zero warning.
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        conf = lax.rs_config([0.1, 0.45], [0.1, -0.07], 0.35, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PoleAtLattice, match=r"^hbar \+ q_l - q_k is on the lattice"):
                lax.ruijsenaars_equivalent_momenta(conf)

    def test_equivalent_momenta_name_an_overflowing_momentum_factor(self):
        # exp(P_0) overflows: the exponent came out nan+nanj, with numpy
        # overflow and invalid-value warnings.
        lat = elliptic.lattice_from_periods(1.0, -0.467 + 0.423j)
        conf = lax.rs_config([0.1, 0.35], [1218.77 - 901.25j, 0.1], 0.08 + 0.03j, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueOverflow, match=r"exp\(P_0\) overflows \(Re P_0 = 1218.77\)"):
                lax.ruijsenaars_equivalent_momenta(conf)

    @pytest.mark.parametrize(
        "periods,q,P,hbar",
        [
            # sigma(hbar + q_0 - q_1) underflows to 0: theta_1 came out -inf,
            # then a ValueOverflow.
            (
                (20.729 - 1.699j, -0.422 + 1.091j),
                [-7.173 - 23.446j, 13.039 - 15.711j],
                [-0.273 + 0.474j, -0.083 + 0.455j],
                -5.615 - 7.170j,
            ),
            # sigma(q_0 - q_1) underflows to 0: every theta came out NaN, then
            # a ValueOverflow.
            (
                (0.1377 - 0.0055j, -0.0672 + 0.0099j),
                [0.0800 - 0.0596j, -0.4578 + 0.0953j, 0.0741 + 0.0909j, 0.0756 - 0.0302j],
                [-0.09 + 0.09j, -0.37 - 0.13j, 0.29, -0.68 - 0.14j],
                -0.0034 - 0.0256j,
            ),
        ],
        ids=["log-of-zero", "nan"],
    )
    def test_equivalent_momenta_beyond_the_sigma_products_match_mpmath(self, periods, q, P, hbar):
        # exp(theta) within 4 eps sum|log sigma| of mpmath, relative: theta
        # within that, absolute.
        conf = lax.rs_config(q, P, hbar, elliptic.lattice_from_periods(*periods))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = lax.ruijsenaars_equivalent_momenta(conf)
        want, size = oracles.ruijsenaars_equivalent_momenta_mpmath(conf)
        assert np.all(np.abs(theta - want) <= 4 * np.finfo(float).eps * size)

    @pytest.mark.parametrize(
        "kind,periods,q,mu,lam",
        [
            # wp(mu) - wp(q) cancels: through wp, L'[0, 0] came out 8.9e-5
            # off, relative.
            (
                "elliptic",
                (0.061 - 0.0106j, 0.00156 + 0.00451j),
                [-0.0210 + 0.0050j, 0.0],
                -0.0161 + 0.0253j,
                0.0191 - 0.0039j,
            ),
            ("elliptic", (1.0, 0.2 + 2.2j), [0.1 + 0.05j, 0.45 - 0.03j, 0.8 + 0.02j], 0.09 + 0.02j, Z),
            ("trig", None, [0.1 + 0.05j, 0.45 - 0.03j, 0.8 + 0.02j], 0.09 + 0.02j, Z),
            ("rational", None, [0.1 + 0.05j, 0.45 - 0.03j, 0.8 + 0.02j], 0.09 + 0.02j, Z),
        ],
        ids=["elliptic-wp-cancels", "elliptic", "trig", "rational"],
    )
    def test_f_matches_its_wp_form(self, monkeypatch, kind, periods, q, mu, lam):
        # f^2 = sigma(mu)^2 (wp(mu) - wp(q)) at 50 digits (mpmath), against
        # the f^2 that ruijsenaars_lax and the flow plan's jacobian read
        # from sigma, and L' itself.
        lat = {
            "elliptic": lambda: elliptic.lattice_from_periods(*periods),
            "trig": elliptic.trig_lattice,
            "rational": elliptic.rational_lattice,
        }[kind]()
        P = [0.1, -0.2, 0.05][: len(q)]
        conf = lax.rs_config(q, P, mu, lat)
        L_ref, f2_ref = oracles.ruijsenaars_mpmath(q, P, mu, lam, periods, kind)
        seen, row_f = [], lax._row_f
        monkeypatch.setattr(lax, "_row_f", lambda *a: seen.append(row_f(*a)) or seen[-1])
        L = lax.ruijsenaars_lax(conf, lam).entries
        plan = lax._RuijsenaarsPlan(conf, lam)
        qa, Pa = np.asarray(conf.q), np.asarray(conf.P)
        assert plan.jacobian(plan.reduce(qa, False)[0], Pa)[0].tobytes() == L.tobytes()
        assert len(seen) == 2
        for f2, _ in seen:
            assert np.all(np.abs(f2 - f2_ref) <= 1e-12 * np.abs(f2_ref))
        assert np.all(np.abs(L - L_ref) <= 1e-12 * np.abs(L_ref).max())

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

    def test_underflowing_sigma_z_plus_mu_is_a_value_overflow(self):
        # mu lies about 180 periods out, where sigma(z + mu) underflows to 0:
        # the quotient ended in a bare ZeroDivisionError.  The diagonal
        # entry, sigma(lam)/(sigma(lam + mu) sigma(-mu)) [sigma(z - mu)/sigma(z
        # + mu)]^(-1/2), is about 1e622008 at 50 digits: not a double.
        lat = elliptic.lattice_from_periods(0.0055, -0.0018 + 0.0245j)
        mu, z, lam = -0.7397 - 4.8999j, 0.0013 + 0.0007j, 0.0011 + 0.0003j
        conf = lax.rs_config([0.0001, 0.0021], [0.0, 0.0], mu, lat, mu=mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueOverflow, match="^krichever_lax: an entry is not a double$"):
                lax.krichever_lax(conf, z, lam)
        log, _ = oracles.sigma_quotient_mpmath([lam], [lam + mu, -mu], lat)
        log_ratio, _ = oracles.sigma_quotient_mpmath([z - mu], [z + mu], lat)
        assert (log - 0.5 * log_ratio).real > np.log(np.finfo(float).max)


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


    @pytest.mark.parametrize("k", [1, 2])
    def test_framing_of_another_size_is_rejected(self, k):
        # A 1-particle framing broadcast to a 3 x 3 matrix; a 2-particle one
        # ended in numpy's bare broadcasting ValueError.
        conf = make_conf(np.random.default_rng(8), 3)
        ones = np.ones((k, 1))
        spin = lax.SpinFraming(1, ones, ones.T, ones, ones.T)
        with pytest.raises(
            DegenerateConfiguration, match=f"framing has {k} particles but the configuration has 3"
        ):
            lax.spin_lax(conf, spin, Z)


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

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_columns_equal_the_entries(self, seed, n):
        # xi_matrix takes a column per call, k an index array; each entry
        # keeps the bits of its own scalar call.
        rng = np.random.default_rng(seed)
        conf = make_conf(rng, n)
        z = complex(0.3 * rng.normal(), 0.3 * rng.normal())
        Xi = lax.xi_matrix(conf, z).entries
        for j in range(n):
            col = lax.intertwining_vector(conf.q, j, np.arange(n), z, conf.lat)
            assert np.array_equal(col, Xi[:, j])
            for i in range(n):
                entry = lax.intertwining_vector(conf.q, j, i, z, conf.lat)
                assert isinstance(entry, complex) and entry == Xi[i, j]


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

    def test_underflowing_sigma_matches_mpmath(self):
        # On this elongated lattice sigma(q_0 - q_1) and sigma(lam - q_0 +
        # q_1) both underflow to 0: the entry came out 0/0, with a warning,
        # and the matrix raised NonFiniteEntries, then a ValueOverflow.  The
        # entries range from 1e-190 to 1e191.
        lat = elliptic.lattice_from_periods(1.0, 0.0027 + 0.042j)
        q = [-0.1285 + 0.0176j, 1.3665 + 0.0452j, -0.6652 + 0.0047j]
        g, lam = 0.5 + 0.1j, 0.13 + 0.01j
        conf = lax.cm_config(q, [0.0] * 3, g, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = lax.cm_lax(conf, lam).entries
        for i in range(3):
            for j in {0, 1, 2} - {i}:
                d = q[i] - q[j]
                log, size = oracles.sigma_quotient_mpmath([lam - d], [d, lam], lat)
                oracles.assert_log_form(L[i, j] / g, log, size)


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


@st.composite
def one_pass_cases(draw):
    """A lattice like cli-mix's, n <= 4 positions 0.3 apart in its basis,
    and points each drawn in the cell or put where a check of the builders
    fails: on the lattice, or a position difference (plus a lattice point)
    away from it, so that often two checks fail at once."""
    w1 = cmath.rect(draw(st.floats(0.8, 1.2)), draw(st.floats(-0.3, 0.3)))
    w2 = w1 * complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.9, 3.0)))
    lat = elliptic.lattice_from_periods(w1, w2)
    n = draw(st.integers(1, 4))
    noise = st.floats(-0.04, 0.04)
    frac = [0.3 * k + complex(draw(noise), draw(noise)) for k in range(n)]
    q = np.array([w1 * f.real + w2 * f.imag for f in frac])
    cell = st.builds(lambda u, v: w1 * u + w2 * v, st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    node = st.builds(lambda m, k: m * w1 + k * w2, st.integers(-1, 1), st.integers(-1, 1))
    diff = st.builds(lambda i, j, w: q[i] - q[j] + w, st.integers(0, n - 1), st.integers(0, n - 1), node)

    def point(*special):
        return draw(st.one_of(cell, node, *special))

    mu = point(diff, st.just(0.0))
    points = {
        "hbar": point(diff, st.just(1e-9)),
        "mu": mu,
        "z": point(st.builds(lambda w: mu + w, node), st.builds(lambda w: w - mu, node)),
        "lam": point(st.builds(lambda w: w - mu, node), diff),
    }
    return lat, q, points, draw(st.lists(st.floats(-1, 1), min_size=2 * n, max_size=2 * n))


class TestOnePassBuilders:
    """The builders that read their sigma, zeta, wp and distances from one
    reduction (elliptic._Batch) against their former routes, one public call
    per value (oracles.*_reference): the same values, and the same error
    where checks fail, in the same order."""

    @given(case=one_pass_cases())
    @settings(max_examples=150, deadline=None)
    def test_match_the_per_call_builders(self, case):
        lat, q, pt, r = case
        n = q.size
        P = np.array(r[:n]) + 1j * np.array(r[n:])
        conf = lax.rs_config(q, P, pt["hbar"], lat, mu=pt["mu"])
        cmc = lax.cm_config(q, r[:n], 0.7, lat)
        pairs = [
            (lax.composition_lax, oracles.composition_lax_reference, (conf, pt["z"])),
            (lax.krichever_lax, oracles.krichever_lax_reference, (conf, pt["z"], pt["lam"])),
            (lax.factorized_cm_lax, oracles.factorized_cm_lax_reference, (cmc, pt["z"])),
            (lax.cm_lax, oracles.cm_lax_reference, (cmc, pt["lam"])),
        ]
        if n > 1:
            pairs.append(
                (
                    lax.ruijsenaars_equivalent_momenta,
                    oracles.ruijsenaars_equivalent_momenta_reference,
                    (conf,),
                )
            )
        for new, ref, args in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = oracles.outcome(new, *args)
            oracles.assert_same_outcome(got, oracles.outcome(ref, *args))

    @pytest.mark.parametrize(
        "what,points",
        [
            # hbar = q_0 - q_1 puts q_1 + hbar - q_0 on the lattice, and z is
            # on it: the Cauchy factor's distinctness check comes first.
            ("composition", lambda q: dict(hbar=q[0] - q[1], z=0.0)),
            # Zero coupling returns before z is looked at.
            ("composition", lambda q: dict(hbar=0.0, z=0.0)),
            ("composition", lambda q: dict(hbar=complex("nan"), z=0.0)),
            ("krichever", lambda q: dict(mu=0.0, z=0.0)),
            ("krichever", lambda q: dict(mu=0.1, lam=-0.1, z=0.1)),
            ("krichever", lambda q: dict(mu=q[0] - q[1], z=q[1] - q[0])),
            ("krichever", lambda q: dict(mu=q[0] - q[1], z=complex("inf"))),
            ("factorized", lambda q: dict(z=0.0, lat=elliptic.trig_lattice())),
            ("factorized", lambda q: dict(z=1.0)),
            ("cm", lambda q: dict(lam=complex("nan"))),
        ],
        ids=[
            "composition-cauchy-before-z",
            "composition-zero-coupling-before-z",
            "composition-nan-coupling",
            "krichever-zero-mu-before-z",
            "krichever-lam-mu-before-z-mu",
            "krichever-z-mu-before-differences",
            "krichever-infinite-z-mu",
            "factorized-kind-before-z",
            "factorized-z-on-lattice",
            "cm-nan-lam",
        ],
    )
    def test_first_failing_check_is_raised(self, what, points):
        q = np.array([0.1 + 0.05j, 0.45 - 0.03j, 0.8 + 0.02j])
        pt = {"hbar": 0.08, "mu": None, "z": Z, "lam": 0.23 + 0.11j, "lat": LAT, **points(q)}
        conf = lax.rs_config(q, [0.1, -0.2, 0.05], pt["hbar"], pt["lat"], mu=pt["mu"])
        cmc = lax.cm_config(q, [0.3, -0.2, 0.1], 1.0, pt["lat"])
        new, ref, args = {
            "composition": (lax.composition_lax, oracles.composition_lax_reference, (conf, pt["z"])),
            "krichever": (
                lax.krichever_lax, oracles.krichever_lax_reference, (conf, pt["z"], pt["lam"])
            ),
            "factorized": (
                lax.factorized_cm_lax, oracles.factorized_cm_lax_reference, (cmc, pt["z"])
            ),
            "cm": (lax.cm_lax, oracles.cm_lax_reference, (cmc, pt["lam"])),
        }[what]
        oracles.assert_same_outcome(oracles.outcome(new, *args), oracles.outcome(ref, *args))

    def test_plans_check_in_the_order_of_their_former_calls(self):
        # lam and mu both on the lattice: lam is named, as before.
        conf = lax.rs_config([0.1, 0.5], [0.0, 0.0], 0.1, LAT, mu=LAT.omega1)
        with pytest.raises(PoleAtLattice, match="^lam is on the lattice"):
            lax.ruijsenaars_lax(conf, 0.0)
        with pytest.raises(NonConvergent, match="not finite"):
            lax.ruijsenaars_lax(conf, complex("nan"))
        # z on the lattice: named by the Hasegawa plan.
        with pytest.raises(PoleAtLattice, match="^z is on the lattice"):
            lax.hasegawa_lax(lax.rs_config([0.1, 0.5], [0.0, 0.0], 0.1, LAT), LAT.omega2)

    @pytest.mark.parametrize("builder", ["hasegawa", "composition", "ruijsenaars"])
    def test_overflowing_momentum_factor_is_named_without_warnings(self, builder):
        conf = lax.rs_config([0.1, 0.45], [800.0, -0.07], 0.08 + 0.02j, LAT)
        build = getattr(lax, f"{builder}_lax")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NonFiniteEntries, match=r"exp\(P_0\) overflows \(Re P_0 = 800\)"
            ):
                build(conf, Z)


@st.composite
def quotient_cases(draw):
    """(periods, q, r, P, hbar, z, lam): a lattice with Im tau from 0.03 to
    10 and periods scaled 1e-3 to 1e3, n = 1 to 4 positions q and Cauchy
    parameters r, and the points hbar, z and lam, each within a cell of the
    lattice or up to 60 periods out, and exponents P."""
    w1 = 10.0 ** draw(st.floats(-3.0, 3.0)) * cmath.exp(1j * draw(st.floats(-3.1, 3.1)))
    tau = complex(draw(st.floats(-0.5, 0.5)), 10.0 ** draw(st.floats(-1.5, 1.0)))
    coordinate = st.one_of(st.floats(-0.5, 0.5), st.floats(-60.0, 60.0))
    point = st.builds(lambda u, v: u * w1 + v * w1 * tau, coordinate, coordinate)
    n = draw(st.integers(1, 4))
    q, r = (draw(st.lists(point, min_size=n, max_size=n)) for _ in "qr")
    P = draw(st.lists(st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)), min_size=n, max_size=n))
    return (w1, w1 * tau), q, r, P, draw(point), draw(point), draw(point)


class TestQuotientContract:
    """The builders of sigma quotients (elliptic._Batch.quotient): on any
    lattice and at any points, a finite value or an RslaxError, with no
    RuntimeWarning.  Each example is a reproducer of CHANGES.md."""

    # frobenius_determinant: both sigma products underflow to 0; and
    # sigma(lam) does.
    @example(((1.0, 0.3 + 2.1j), [0.15 + 60j, 0.4], [0.0, 0.1], [0, 0], 0.1, 0.3, 0.3))
    @example(((1.0, 0.3 + 2.1j), [0.15 + 1.05j], [0.0], [0], 0.1, 0.3, 71j))
    # ruijsenaars_equivalent_momenta: sigma(hbar + q_0 - q_1), and sigma(q_0
    # - q_1), underflow to 0; exp(P_0) overflows.
    @example(
        (
            (20.729 - 1.699j, -0.422 + 1.091j), [-7.173 - 23.446j, 13.039 - 15.711j],
            [0.0, 0.1], [-0.273 + 0.474j, -0.083 + 0.455j], -5.615 - 7.170j, 0.3, 0.3,
        )
    )
    @example(
        (
            (0.1377 - 0.0055j, -0.0672 + 0.0099j),
            [0.0800 - 0.0596j, -0.4578 + 0.0953j, 0.0741 + 0.0909j, 0.0756 - 0.0302j],
            [0.0, 0.01, 0.02, 0.03], [-0.09 + 0.09j, -0.37 - 0.13j, 0.29, -0.68 - 0.14j],
            -0.0034 - 0.0256j, 0.01, 0.02,
        )
    )
    @example(
        (
            (1.0, -0.467 + 0.423j), [0.1, 0.35], [0.0, 0.1], [1218.77 - 901.25j, 0.1],
            0.08 + 0.03j, 0.3, 0.3,
        )
    )
    # ruijsenaars_equivalent_momenta: prod_l sigma(hbar + q_l - q_k)
    # overflowed with a RuntimeWarning; exp(theta_1) is about e^1242.
    @example(
        (
            (-0.1585 + 0.7859j, -0.2454 + 0.0911j),
            [-3.2363 + 36.1197j, -0.576 + 2.9632j, -0.2187 + 1.013j], [0.0, 0.1, 0.2],
            [-0.58 + 0.04j, 0.65 - 0.65j, -0.62 - 0.11j], -1.8254 + 0.4736j, 0.3, 0.3,
        )
    )
    # cm_lax: sigma(q_0 - q_1) and sigma(lam - q_0 + q_1) underflow to 0.
    @example(
        (
            (1.0, 0.0027 + 0.042j), [-0.1285 + 0.0176j, 1.3665 + 0.0452j, -0.6652 + 0.0047j],
            [0.0, 0.1, 0.2], [0, 0, 0], 0.5 + 0.1j, 0.3, 0.13 + 0.01j,
        )
    )
    # krichever_lax: sigma(z + mu) underflows to 0, 180 periods out.
    @example(
        (
            (0.0055, -0.0018 + 0.0245j), [0.0001, 0.0021], [0.0, 0.001], [0, 0],
            -0.7397 - 4.8999j, 0.0013 + 0.0007j, 0.0011 + 0.0003j,
        )
    )
    # section_phi: sigma(z) underflows to 0.
    @example(((1.0, 0.2 + 2.4j), [0.0], [0.1], [0], 0.1, 0.5 + 48j, 0.3))
    @given(case=quotient_cases())
    @settings(max_examples=40, deadline=None)
    def test_finite_or_a_typed_error(self, case):
        periods, q, r, P, hbar, z, lam = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                lat = elliptic.lattice_from_periods(*periods)
            except RslaxError:
                return
            calls = [
                (lambda: lax.cm_lax(lax.cm_config(q, P, 0.5 + 0.1j, lat), lam).entries),
                (lambda: lax.krichever_lax(lax.rs_config(q, P, hbar, lat), z, lam).entries),
                (lambda: lax.ruijsenaars_equivalent_momenta(lax.rs_config(q, P, hbar, lat))),
                (lambda: cauchy.frobenius_determinant(cauchy.CauchyMatrixSpec(q, r, lat), lam)),
                (lambda: elliptic.section_phi(np.array(q), z, lat)),
            ]
            for call in calls:
                try:
                    out = call()
                except RslaxError:
                    continue
                assert np.isfinite(out).all()
