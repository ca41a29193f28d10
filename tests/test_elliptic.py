"""Unit tests for the special-function layer: theta series, sigma, wp,
quasi-periodicity, the Legendre relation, and the trivial-theta gauge.
Oracle values come from mpmath theta series and truncated lattice products.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from rslax import elliptic
from rslax.errors import NonConvergent, PoleAtLattice, ValueOverflow


LAT = elliptic.lattice_from_periods(1.0, 0.3 + 2.1j)


def random_lattice(rng):
    o1 = 1.0 + 0.2 * rng.normal() + 0.1j * rng.normal()
    ratio = 0.4 * rng.normal() + 1j * (1.2 + abs(rng.normal()))
    return elliptic.lattice_from_periods(o1, o1 * ratio)


class TestThetaSeries:
    def test_matches_mpmath_theta1(self):
        tau = 0.3 + 2.1j
        ch = elliptic.ThetaCharacteristic(0.5, 0.5)
        for z in (0.17 + 0.05j, -0.4 + 0.3j, 1.2 - 0.1j):
            ours = elliptic.theta_char(ch, z, tau)
            ref = oracles.theta1_mpmath(z, tau)
            assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))

    def test_odd_characteristic_vanishes_at_zero(self):
        assert abs(elliptic.theta_char(elliptic.ThetaCharacteristic(0.5, 0.5), 0.0, 2.1j)) < 1e-14

    def test_quasi_periodicity_in_z(self):
        # theta[a;b](z + 1 | tau) = e^{2 pi i a} theta[a;b](z|tau)
        tau = 1.7j
        ch = elliptic.ThetaCharacteristic(0.25, 0.1)
        z = 0.31 + 0.12j
        lhs = elliptic.theta_char(ch, z + 1.0, tau)
        rhs = np.exp(2j * np.pi * ch.a) * elliptic.theta_char(ch, z, tau)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_nonconvergent_for_real_tau(self):
        with pytest.raises((NonConvergent, ValueError)):
            elliptic.theta_char(elliptic.ThetaCharacteristic(0.5, 0.5), 0.3, 1e-9j)

    def test_overflow_is_a_typed_error_without_warnings(self):
        # |theta| ~ exp(pi Im(z)^2 / Im(tau)) = exp(4712) here; the series
        # terms overflow and used to sum to nan+nanj with RuntimeWarnings.
        ch = elliptic.ThetaCharacteristic(0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueOverflow):
                elliptic.theta_char(ch, 0.1 + 60j, 0.2 + 2.4j)
            with pytest.raises(ValueOverflow):
                elliptic.theta_char(ch, np.array([0.1, 0.1 + 60j]), 0.2 + 2.4j)
            assert np.isfinite(elliptic.theta_char(ch, 0.1 + 6j, 0.2 + 2.4j))

    @given(
        log_t=st.floats(-2.0, math.log10(50.0)),
        re_tau=st.floats(-1.0, 1.0),
        a=st.tuples(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.0, 0.25, -0.2])),
        b=st.tuples(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.0, 0.15, -0.25])),
        zs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=3),
        scalar=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_basis_matches_mpmath(self, log_t, re_tau, a, b, zs, scalar):
        # Three bases of the lattice Z + tau Z, with Im tau in [0.01, 50]: tau,
        # tau + 1 and -1/tau.
        tau = complex(re_tau, 10**log_t)
        ch = elliptic.ThetaCharacteristic(complex(*a), complex(*b))
        z = np.array([complex(*p) for p in zs])
        for t in (tau, tau + 1, -1 / tau):
            # theta[a;b](z|t) vanishes where y = z + (a - 1/2) t + b - 1/2 is
            # on the lattice; stay 0.05 of the shortest period off it.
            lat = elliptic.lattice_from_periods(1.0, t)
            y = z + (ch.a - 0.5) * t + ch.b - 0.5
            assume(np.min(elliptic.lattice_distance(y, lat)) > 0.05 * abs(lat.red_omega1))
            ref = np.array([oracles.theta_series_mpmath(ch.a, ch.b, zz, t) for zz in z])
            assume(np.all(np.abs(ref) < 1e300))
            if scalar:
                got = elliptic.theta_char(ch, z[0], t)
                assert isinstance(got, complex)
                assert abs(got - ref[0]) <= 1e-11 * abs(ref[0])
            else:
                got = elliptic.theta_char(ch, z, t)
                assert got.shape == z.shape
                assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))

    def test_matches_reference_series(self):
        # The frozen unreduced series is a second oracle where Im tau is
        # moderate; where its terms overflow, theta_char raises ValueOverflow.
        z4 = np.array([0.17 + 0.05j, -0.4 + 0.3j, 1.2 - 0.1j, 0.05 - 0.6j])
        cases = [(0.5, 0.5, z4, 0.3 + 2.1j), (0.5, 0.5, z4, -0.4 + 0.35j)]
        # A complex characteristic whose largest term lies far off center.
        cases.append((0.5 + 3j, 0.5, np.array([0.1, 0.3 + 0.2j]), 1 + 1j))
        rng = np.random.default_rng(8)
        for _ in range(1500):
            tau = complex(rng.uniform(-1, 1), 10 ** rng.uniform(-0.3, 0.8))
            a = complex(rng.choice([0.5, rng.uniform(-1, 1)]), rng.choice([0.0, rng.uniform(-6, 6)]))
            b = complex(rng.choice([0.5, rng.uniform(-1, 1)]), rng.choice([0.0, rng.uniform(-1, 1)]))
            size = int(rng.choice([0, 1, 6, 21]))
            scale = rng.choice([1.0, 1.0, 1.0, 40.0])
            z = rng.uniform(-1, 1, max(size, 1)) + 1j * scale * rng.uniform(-1, 1, max(size, 1))
            cases.append((a, b, complex(z[0]) if size == 0 else z, tau))
        non_finite = 0
        for a, b, z, tau in cases:
            ch = elliptic.ThetaCharacteristic(a, b)
            with np.errstate(all="ignore"):
                ref = oracles.theta_series_reference(a, b, z, tau)
            if not np.isfinite(ref).all():
                non_finite += 1
                with pytest.raises(ValueOverflow):
                    elliptic.theta_char(ch, z, tau)
                continue
            got = elliptic.theta_char(ch, z, tau)
            assert type(got) is type(ref)
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))
        assert non_finite > 20

    @pytest.mark.parametrize("tau", [1e-6j, 0.6180339887498949 + 1e-12j, 1000 + 0.01j])
    def test_nonconvergent_where_doubles_cannot_sum_it(self, tau):
        # The exponents summed grow like pi (|y|^2/Im tau + Im(red_tau)/4),
        # y = z + (a - 1/2) tau + b - 1/2: about 1e6 at tau = 1e-6 i, and 1e11
        # and 1e7 in the last two, whose reduced Im tau is moderate.
        ch = elliptic.ThetaCharacteristic(0.3, 0.5)
        with pytest.raises(NonConvergent, match="tau="):
            elliptic.theta_char(ch, 0.3, tau)
        with pytest.raises(NonConvergent, match="tau="):
            elliptic.fit_trivial_theta(ch, elliptic.lattice_from_periods(1.0, tau))

    @pytest.mark.parametrize("fn", ["sigma", "zeta", "wp"])
    @pytest.mark.parametrize(
        "z", [complex("nan"), complex("inf"), complex("nan+1j"), complex(0.1, float("inf"))]
    )
    def test_non_finite_argument_raises_nonconvergent(self, fn, z):
        for arg in (z, np.array([0.1 + 0.2j, z])):
            with np.errstate(all="ignore"), pytest.raises(NonConvergent, match="not finite"):
                getattr(elliptic, fn)(arg, LAT)


    @pytest.mark.parametrize("z", [complex("nan"), complex(0.1, float("inf"))])
    def test_non_finite_distance_argument_raises_nonconvergent(self, z):
        for arg in (z, np.array([0.1 + 0.2j, z])):
            with pytest.raises(NonConvergent, match="not finite"):
                elliptic.lattice_distance(arg, LAT)


class TestZeta:
    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    def test_is_log_derivative_of_sigma(self, kind):
        lat = {
            "elliptic": LAT,
            "trig": elliptic.trig_lattice(),
            "rational": elliptic.rational_lattice(),
        }[kind]
        z = np.array([0.23 + 0.11j, -0.41 + 0.37j, 0.62 - 0.2j])
        h = 1e-3
        s = {k: elliptic.sigma(z + k * h, lat) for k in (-2, -1, 1, 2)}
        dsigma = (s[-2] - 8 * s[-1] + 8 * s[1] - s[2]) / (12 * h)
        ref = dsigma / elliptic.sigma(z, lat)
        assert np.max(np.abs(elliptic.zeta(z, lat) - ref)) < 1e-9 * np.max(np.abs(ref))

    def test_quasi_periodicity(self):
        # zeta(z + omega_i) = zeta(z) + 2 eta_i
        for z in (0.23 + 0.11j, -0.41 + 0.37j):
            for w, eta in ((LAT.omega1, LAT.eta1), (LAT.omega2, LAT.eta2)):
                lhs = elliptic.zeta(z + w, LAT)
                rhs = elliptic.zeta(z, LAT) + 2 * eta
                assert abs(lhs - rhs) < 1e-11 * abs(rhs)

    def test_pole_rejected(self):
        with pytest.raises(PoleAtLattice):
            elliptic.zeta(LAT.omega1, LAT)


class TestSigma:
    def test_matches_lattice_product(self):
        # Truncated Hadamard product oracle, radius sweep shows convergence
        # toward the series value.
        z = 0.23 + 0.11j
        ours = elliptic.sigma(z, LAT)
        errs = [
            abs(ours - oracles.sigma_lattice_product(z, LAT.omega1, LAT.omega2, radius=r))
            for r in (20, 40, 80)
        ]
        assert errs[2] < errs[0]
        assert errs[2] < 5e-6 * abs(ours)

    def test_odd_function(self):
        z = 0.4 - 0.22j
        assert abs(elliptic.sigma(z, LAT) + elliptic.sigma(-z, LAT)) < 1e-13

    def test_behaves_like_z_at_origin(self):
        for z in (1e-4, 1e-5 + 2e-5j):
            assert abs(elliptic.sigma(z, LAT) / z - 1.0) < 1e-6

    def test_quasi_periodicity_both_periods(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            lat = random_lattice(rng)
            z = 0.3 * (rng.normal() + 1j * rng.normal())
            for om, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2)):
                lhs = elliptic.sigma(z + om, lat)
                rhs = -np.exp(2 * eta * (z + om / 2)) * elliptic.sigma(z, lat)
                assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_trig_and_rational_kinds(self):
        assert elliptic.sigma(0.7, elliptic.trig_lattice()) == pytest.approx(np.sin(0.7))
        assert elliptic.sigma(0.7, elliptic.rational_lattice()) == 0.7

    def test_trig_sigma_and_derivative_match_cmath(self):
        # The trigonometric pass builds sin and cos from the real and
        # imaginary parts; |Im x| reaches 700, near where cosh overflows.
        rng = np.random.default_rng(11)
        x = rng.uniform(-10, 10, 400) + 1j * np.concatenate(
            [rng.uniform(-700, 700, 200), rng.uniform(-3, 3, 199), [0.0]]
        )
        lat = elliptic.trig_lattice()
        s, ds = np.empty((2, x.size), dtype=complex)
        elliptic._sigma_orders(elliptic._reduce(x, lat), lat, s, ds)
        for ours, func in ((s, cmath.sin), (ds, cmath.cos)):
            ref = np.array([func(v) for v in x])
            assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-15
        assert np.array_equal(elliptic.sigma(x[:5], lat), s[:5])

    def test_trig_sigma_overflow_raises(self):
        lat = elliptic.trig_lattice()
        for z in (0.5 + 711j, 712j, -0.3 - 720j):
            with pytest.raises(ValueOverflow):
                elliptic.sigma(z, lat)

    def test_requires_upper_half_plane_ratio(self):
        with pytest.raises(Exception):
            elliptic.lattice_from_periods(1.0, -2.0j)


class TestLegendreAndWp:
    def test_legendre_relation_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            assert elliptic.legendre_residual(random_lattice(rng)) < 1e-10

    def test_wp_is_minus_log_sigma_second_derivative(self):
        z = 0.27 + 0.19j
        h = 1e-4
        logs = [np.log(elliptic.sigma(z + dz, LAT)) for dz in (-h, 0.0, h)]
        fd = -(logs[2] - 2 * logs[1] + logs[0]) / h**2
        assert abs(elliptic.wp(z, LAT) - fd) < 1e-6 * max(1.0, abs(fd))

    def test_wp_pole_guard(self):
        with pytest.raises(PoleAtLattice):
            elliptic.wp(1e-12, LAT)

    def test_wp_even(self):
        z = 0.31 - 0.08j
        assert abs(elliptic.wp(z, LAT) - elliptic.wp(-z, LAT)) < 1e-10


class TestSectionPhi:
    def test_zero_and_pole_structure(self):
        q = 0.4 + 0.1j
        assert abs(elliptic.section_phi(q, q, LAT)) < 1e-13
        with pytest.raises(PoleAtLattice):
            elliptic.section_phi(q, 0.0, LAT)


class TestTrivialThetaFit:
    def test_zero_characteristic_gauge(self):
        # sigma(z) = C e^{Az + Bz^2} theta[1/2;1/2](z/omega1 | tau), A = 0.
        fit = elliptic.fit_trivial_theta(elliptic.ThetaCharacteristic(0.0, 0.0), LAT)
        z = 0.41 + 0.13j
        ch = elliptic.ThetaCharacteristic(0.5, 0.5)
        lhs = elliptic.sigma(z, LAT)
        rhs = fit(z) * elliptic.theta_char(ch, z / LAT.omega1, LAT.tau)
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)
        assert abs(fit.A) < 1e-8

    def test_zero_characteristic_fit_is_the_exact_gauge(self):
        # sigma(z) = omega1 exp(eta1_hat x^2) theta1(x)/theta1'(0) with
        # x = z/omega1: A = 0 and B = eta1/omega1, the gauge the degeneration
        # sweep uses without a fit.
        w1 = 0.7 - 0.2j
        for lat in (LAT, elliptic.lattice_from_periods(w1, w1 * (-0.3 + 1.2j))):
            fit = elliptic.fit_trivial_theta(elliptic.ThetaCharacteristic(0.0, 0.0), lat)
            B = lat.eta1 / lat.omega1
            assert abs(fit.A) < 1e-12 * abs(B)
            assert abs(fit.B - B) < 1e-12 * abs(B)

    def test_shifted_characteristic_gauge(self):
        # Zeros: sigma(z + a*w2 + b*w1) vanishes at z = -(a*w2 + b*w1) + L,
        # matching theta[1/2+a;1/2+b](z/w1) whose zeros sit at -a*tau - b.
        a, b = 0.2, -0.3
        fit = elliptic.fit_trivial_theta(elliptic.ThetaCharacteristic(a, b), LAT)
        ch = elliptic.ThetaCharacteristic(0.5 + a, 0.5 + b)
        for z in (0.2 + 0.31j, -0.37 + 0.22j):
            lhs = elliptic.sigma(z + a * LAT.omega2 + b * LAT.omega1, LAT)
            rhs = fit(z) * elliptic.theta_char(ch, z / LAT.omega1, LAT.tau)
            assert abs(lhs - rhs) < 1e-8 * abs(lhs)


    def test_constant_beyond_a_double_is_a_typed_error(self):
        # On (1, 0.02i), sigma(z + 1/2) is about exp(-950) near z = 0, and so
        # is C.
        lat = elliptic.lattice_from_periods(1.0, 0.02j)
        with pytest.raises(ValueOverflow, match="tau="):
            elliptic.fit_trivial_theta(elliptic.ThetaCharacteristic(0.0, 0.5), lat)

    def test_gauge_identity_in_any_basis(self):
        # The closed-form gauge at random characteristics, on lattices given
        # in a basis of their own and in one with Im tau about 0.02:
        # (w1 (tau0 + d), w1 (tau0 + d - 1)) spans the lattice of (w1, w1 tau0)
        # with Im tau = Im tau0/|tau0 + d|^2.
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(40):
            w1 = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
            tau0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6))
            d = round(math.sqrt(tau0.imag / 0.02))
            for o1, o2 in ((w1, w1 * tau0), (w1 * (tau0 + d), w1 * (tau0 + d - 1))):
                lat = elliptic.lattice_from_periods(o1, o2)
                a, b = (
                    complex(rng.uniform(-0.5, 0.5), rng.choice([0.0, rng.uniform(-0.3, 0.3)]))
                    for _ in range(2)
                )
                fit = elliptic.fit_trivial_theta(elliptic.ThetaCharacteristic(a, b), lat)
                s = a * lat.omega2 + b * lat.omega1
                z = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
                z *= abs(lat.red_omega1)
                z = z[elliptic.lattice_distance(z + s, lat) > 0.05 * abs(lat.red_omega1)]
                lhs = elliptic.sigma(z + s, lat)
                ch = elliptic.ThetaCharacteristic(0.5 + a, 0.5 + b)
                rhs = fit(z) * elliptic.theta_char(ch, z / lat.omega1, lat.tau)
                assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs))
                checked += z.size
            assert 0.015 < lat.tau.imag < 0.025
        assert checked > 250


class TestLatticeDistance:
    @given(
        m=st.integers(-3, 3),
        n=st.integers(-3, 3),
        off=st.floats(0.05, 0.3),
    )
    @settings(max_examples=30, deadline=None)
    def test_distance_of_lattice_point_plus_offset(self, m, n, off):
        z = m * LAT.omega1 + n * LAT.omega2 + off
        d = float(elliptic.lattice_distance(z, LAT))
        assert d <= off + 1e-9
        assert d > 0


# SL2(Z) generators acting on a basis (omega1, omega2): tau -> tau + 1,
# tau -> tau - 1 and tau -> -1/tau.
_WORD_STEPS = {
    "T": lambda o1, o2: (o1, o2 + o1),
    "T^-1": lambda o1, o2: (o1, o2 - o1),
    "S": lambda o1, o2: (o2, -o1),
}


def _within(ours, ref, dref, z, floor=0.0):
    """|ours - ref| below 1e-13 + 4e-15 kappa relative to |ref| (or to floor
    where |ref| is smaller: zeta and wp have zeros), with kappa = |z
    ref'/ref| the function's condition number at z; one rounding of z moves
    the value by kappa * 1.1e-16 relative."""
    scale = max(abs(ref), floor)
    return abs(ours - ref) < (1e-13 + 4e-15 * abs(z * dref) / scale) * scale


class TestReducedKernel:
    """sigma, zeta and wp against mpmath in the caller's basis, for Im tau
    down to 0.01."""

    @given(
        log_t=st.floats(-2.0, math.log10(50.0)),
        re_tau=st.floats(-0.5, 0.5),
        phase=st.floats(0.0, 2 * math.pi),
        word=st.lists(st.sampled_from(sorted(_WORD_STEPS)), max_size=8),
        u=st.floats(-2.0, 2.0),
        v=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_basis_matches_mpmath(self, log_t, re_tau, phase, word, u, v):
        # On a grid of 2^-30 the steps below are exact, so every basis spans
        # the lattice of (o1, o2) itself.
        w1 = cmath.rect(1.0, phase)
        o1, o2 = (
            complex(round(w.real * 2**30), round(w.imag * 2**30)) / 2**30
            for w in (w1, w1 * complex(re_tau, 10**log_t))
        )
        b1, b2 = o1, o2
        for step in word:
            b1, b2 = _WORD_STEPS[step](b1, b2)
        lat = elliptic.lattice_from_periods(b1, b2)
        assert abs(lat.red_tau) > 1 - 1e-12 and abs(lat.red_tau.real) <= 0.5 + 1e-12
        # Within 2 reduced periods of the origin, at least 0.05 of one off
        # the lattice.
        x = u + v * lat.red_tau
        x_off = x - round(x.imag / lat.red_tau.imag) * lat.red_tau
        assume(abs(x_off - round(x_off.real)) > 0.05)
        self.check(lat.red_omega1 * x, lat, o1, o2)

    @given(
        log_t=st.floats(-2.0, math.log10(50.0)),
        re_tau=st.floats(-0.5, 0.5),
        m=st.integers(-50, 50),
        n=st.integers(-50, 50),
        u=st.floats(0.05, 0.45),
        v=st.floats(0.05, 0.45),
    )
    # |sigma| = 1.29e308 here, a double, while its largest theta term is not.
    @example(log_t=0.0, re_tau=0.0, m=15, n=15, u=0.0546875, v=0.0546875)
    @settings(max_examples=40, deadline=None)
    def test_quasi_periodicity_matches_mpmath(self, log_t, re_tau, m, n, u, v):
        tau = complex(re_tau, 10**log_t)
        lat = elliptic.lattice_from_periods(1.0, tau)
        z0 = u + v * tau
        z = z0 + m + n * tau
        # zeta(z0 + m + n tau) = zeta(z0) + 2 (m eta1 + n eta2).
        ze = oracles.weierstrass_mpmath(z, 1.0, tau)[1]
        ze0 = oracles.weierstrass_mpmath(z0, 1.0, tau)[1]
        assert abs(ze - ze0 - 2 * (m * lat.eta1 + n * lat.eta2)) < 1e-10 * abs(ze)
        self.check(z, lat, 1.0, tau)

    @staticmethod
    def check(z, lat, o1, o2):
        """sigma (or ValueOverflow beyond the doubles), zeta and wp at z
        against weierstrass_mpmath in the basis (o1, o2)."""
        s, ze, wpv, dwp = oracles.weierstrass_mpmath(z, o1, o2)
        w = abs(lat.red_omega1)
        assert _within(elliptic.zeta(z, lat), ze, -wpv, z, 1 / w)
        assert _within(elliptic.wp(z, lat), wpv, dwp, z, 1 / w**2)
        if abs(s) > np.finfo(float).max:
            with pytest.raises(ValueOverflow):
                elliptic.sigma(z, lat)
        elif abs(s) >= np.finfo(float).tiny:
            # Both sides scaled by the power of 2 nearest 1/|s|, exactly,
            # so that s * zeta near the largest double cannot overflow
            # into a NaN tolerance.
            k = math.ldexp(1.0, -math.frexp(abs(s))[1])
            s = complex(s) * k
            assert _within(elliptic.sigma(z, lat) * k, s, s * ze, z)

    @pytest.mark.parametrize("fn", ["sigma", "zeta", "wp"])
    def test_rounding_does_not_depend_on_position(self, fn):
        # Each argument's value has the same bits as a scalar, alone in an
        # array of 21, or at any place in arrays of 42 to 8190 arguments.
        fn = getattr(elliptic, fn)
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        rng = np.random.default_rng(11)
        z = rng.uniform(-1, 1, 21) + 1j * rng.uniform(-1, 1, 21)
        alone = fn(z, lat).tobytes()
        assert np.array([fn(v, lat) for v in z]).tobytes() == alone
        for size in (42, 390, 8190):
            for start in (0, 5, size // 2, size - 21):
                many = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
                many[start : start + 21] = z
                assert fn(many, lat)[start : start + 21].tobytes() == alone

    def test_far_point_and_overflow(self):
        # 30i from the origin sigma is about 1e-132, where the unreduced
        # series gave NaN; 30 periods along the real axis it exceeds every
        # double.
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        ref = complex(oracles.weierstrass_mpmath(0.1 + 30j, 1.0, 0.2 + 2.4j)[0])
        assert abs(elliptic.sigma(0.1 + 30j, lat) - ref) < 1e-12 * abs(ref)
        assert abs(ref - (2.477e-132 + 4.671e-132j)) < 1e-3 * abs(ref)
        with pytest.raises(ValueOverflow):
            elliptic.sigma(np.array([0.1, 30.1]), lat)

    def test_window_cache_is_bounded_and_read_only(self):
        for k in range(300):
            elliptic.lattice_from_periods(1.0, complex(0.001 * k, 1.5))
        info = elliptic._theta1_window.cache_info()
        assert info.maxsize == elliptic._WINDOW_CACHE_SIZE
        assert info.currsize == elliptic._WINDOW_CACHE_SIZE
        for arr in elliptic._theta1_window(1.5j):
            assert not arr.flags.writeable
