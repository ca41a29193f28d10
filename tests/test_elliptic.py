"""Unit tests for the special-function layer: theta series, sigma, wp,
quasi-periodicity, the Legendre relation, and the trivial-theta gauge.
Oracle values come from mpmath theta series and truncated lattice products.
"""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from rslax import elliptic
from rslax.errors import NonConvergent, PoleAtLattice, RslaxError, ValueOverflow


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


    @pytest.mark.parametrize("z", [3e9 + 0.1j, 1e20 + 0.1j, 1e10 * (1 + 1j), 1e300 + 0.1j])
    def test_overflow_beyond_the_exponent_range_is_a_typed_error(self, z):
        # Where the rescaling exponent of _theta1_sums passes 2^63, its cast
        # wrapped around and sigma returned 0.
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (z, np.array([0.1, z])):
                with pytest.raises(ValueOverflow):
                    elliptic.sigma(arg, lat)

    @pytest.mark.parametrize("z", [2e9, 1e10, 1e300])
    def test_exact_lattice_points_far_out_are_zeros(self, z):
        # exp(g) overflows there against a theta sum of 0; it raised
        # ValueOverflow.
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert elliptic.sigma(z, lat) == 0
            out = elliptic.sigma(np.array([0.1, z]), lat)
        assert out[1] == 0 and out[0] == elliptic.sigma(0.1, lat)


class TestBatch:
    """elliptic._Batch: one reduction and one sigma pass for a builder's
    arguments, read with the public functions' checks and values."""

    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    def test_reads_equal_the_public_functions(self, kind):
        lat = {"elliptic": LAT, "trig": elliptic.trig_lattice(), "rational": elliptic.rational_lattice()}[kind]
        rng = np.random.default_rng(3)
        groups = [0.3 + 0.2j, rng.normal(size=5) + 1j * rng.normal(size=5), rng.normal(size=(2, 3)) + 0.1j]
        batch = elliptic._Batch(lat)
        index = [batch.add(g) for g in groups]
        for g, i in zip(groups, index):
            for fn in ("lattice_distance", "sigma", "zeta", "wp"):
                read = getattr(batch, {"lattice_distance": "distance"}.get(fn, fn))(i)
                want = getattr(elliptic, fn)(g, lat)
                assert np.shape(read) == np.shape(want)
                assert np.all(np.abs(read - want) <= 1e-15 * np.abs(want))
            assert np.asarray(batch.zeta(i)).tobytes() == np.asarray(elliptic.zeta(g, lat)).tobytes()

    def test_reads_raise_the_public_functions_errors(self):
        batch = elliptic._Batch(LAT)
        far, nan, node, fine = (batch.add(v) for v in (40.1, complex("nan"), LAT.omega2, 0.3))
        with pytest.raises(ValueOverflow, match="sigma is too large"):
            batch.sigma(far)
        for read in (batch.distance, batch.sigma, batch.zeta, batch.wp):
            with pytest.raises(NonConvergent, match="not finite"):
                read(nan)
        for read in (batch.zeta, batch.wp):
            with pytest.raises(PoleAtLattice, match="argument within"):
                read(node)
        assert batch.distance(node) < elliptic.POLE_TOL
        assert batch.sigma(fine) == elliptic.sigma(0.3, LAT)

    @pytest.mark.parametrize("fn", ["lattice_distance", "sigma", "zeta", "wp"])
    def test_argument_overflowing_the_reduction_is_nonconvergent(self, fn):
        # 1e307/red_omega1 is beyond the doubles on this lattice scaled by
        # 1e-3; the reduced coordinate was NaN, read with RuntimeWarnings.
        lat = elliptic.lattice_from_periods(1e-3, 1e-3 * (-0.45 + 0.95j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match="too large to reduce"):
                getattr(elliptic, fn)(np.array([0.3, 1e307]), lat)
            with pytest.raises(NonConvergent, match="too large to reduce"):
                getattr(elliptic, fn)(1e307, lat)
            assert np.isfinite(getattr(elliptic, fn)(0.3e-3 + 0.1e-3j, lat))


LATTICES = [
    LAT,
    elliptic.lattice_from_periods(1.0, 0.2 + 2.4j),
    # A basis far from reduced, and a lattice scaled by 1e-3.
    elliptic.lattice_from_periods(0.7 + 0.1j, (0.7 + 0.1j) * (2.3 + 0.4j)),
    elliptic.lattice_from_periods(1e-3, 1e-3 * (-0.45 + 0.95j)),
    elliptic.trig_lattice(),
    elliptic.rational_lattice(),
]


def _periods(lat):
    """Two periods spanning a cell of lat, and two spanning its zero set."""
    if lat.kind == elliptic.KIND_ELLIPTIC:
        return lat.omega1, lat.omega2, lat.omega1, lat.omega2
    if lat.kind == elliptic.KIND_TRIG:
        return np.pi, 1j, np.pi, 0.0
    return 1.0, 1j, 0.0, 0.0


def special_arguments(lat):
    """Arguments of the special functions on lat: in the cell, on a lattice
    point, near one, not finite, and up to 1e300 (exact lattice points too,
    where omega1 = 1)."""
    w1, w2, p1, p2 = _periods(lat)
    node = st.builds(lambda m, n: m * p1 + n * p2, st.integers(-3, 3), st.integers(-3, 3))
    return st.one_of(
        st.builds(lambda u, v: u * w1 + v * w2, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        node,
        st.builds(
            lambda p, r, phi: p + r * cmath.exp(1j * phi),
            node, st.sampled_from([1e-12, 1e-9, 1e-8, 1e-7]), st.floats(0, 6.3),
        ),
        st.sampled_from([complex("nan"), complex("inf"), complex(0.1, -math.inf), 1j + math.nan]),
        st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
        st.builds(
            lambda e, y: complex(10.0**e, y), st.integers(3, 300), st.sampled_from([0.0, 0.1, -2.0])
        ),
        st.builds(float, st.integers(-(10**300), 10**300)),
    )


@st.composite
def shaped_arguments(draw, lat):
    """A Python scalar, a 0-d array or a 2-D array of special_arguments."""
    shape = draw(st.sampled_from([None, (), (2, 2), (1, 3)]))
    if shape is None:
        return draw(special_arguments(lat))
    size = math.prod(shape)
    values = draw(st.lists(special_arguments(lat), min_size=size, max_size=size))
    return np.array(values, dtype=complex).reshape(shape)


# The checks of a special-function read, in the order elliptic._Batch makes
# them (by a fragment of each message): an array fails the earliest check
# that one of its entries fails alone.
_CHECKS = {
    "lattice_distance": ("not finite", "too large to reduce"),
    "sigma": ("not finite", "too large to reduce", "sigma is too large"),
    "zeta": ("not finite", "too large to reduce", "argument within", "cannot be summed"),
    "wp": ("not finite", "too large to reduce", "argument within", "cannot be summed"),
}


def _first_error(errors, checks):
    """The error of errors, (type, message) pairs, whose check comes first."""
    ranks = [next((i for i, c in enumerate(checks) if c in e[1]), None) for e in errors]
    assert None not in ranks, errors
    return errors[int(np.argmin(ranks))]


def _assert_same(got, want):
    """The same error, or values of the same Python type, shape and bits."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _entries_alone(fn, z, *args):
    """fn at each entry of z alone, as a 1-element array (or the Python
    scalar z itself), and at the entries' first failed check where one
    fails (oracles.outcome)."""
    return [oracles.outcome(fn, np.array([v]) if np.ndim(z) else v, *args) for v in np.ravel(z)]


class TestReadsAlone:
    """The special functions read through elliptic._Batch: a value does not
    depend on the arguments read with it, and an array fails the first
    check that one of its entries fails alone."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_arrays_equal_their_entries(self, data):
        lat = data.draw(st.sampled_from(LATTICES))
        z = data.draw(shaped_arguments(lat))
        for name, checks in _CHECKS.items():
            fn = getattr(elliptic, name)
            alone = _entries_alone(fn, z, lat)
            errors = [a for a in alone if isinstance(a, tuple)]
            if errors:
                want = _first_error(errors, checks)
            elif np.ndim(z):
                want = np.concatenate(alone).reshape(np.shape(z))
            else:
                want = alone[0]
            _assert_same(oracles.outcome(fn, z, lat), want)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_batch_reads_equal_reads_alone(self, data):
        lat = data.draw(st.sampled_from(LATTICES))
        groups = data.draw(st.lists(shaped_arguments(lat), min_size=1, max_size=3))
        reads = data.draw(st.permutations([(g, name) for g in range(len(groups)) for name in _CHECKS]))
        batch = elliptic._Batch(lat)
        index = [batch.add(g) for g in groups]
        for g, name in reads:
            read = getattr(batch, "distance" if name == "lattice_distance" else name)
            _assert_same(
                oracles.outcome(read, index[g]), oracles.outcome(getattr(elliptic, name), groups[g], lat)
            )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_section_phi_arrays_equal_their_entries(self, data):
        lat = data.draw(st.sampled_from(LATTICES))
        z = data.draw(shaped_arguments(lat))
        q = data.draw(special_arguments(lat))
        if np.ndim(z) and data.draw(st.booleans()):
            q = np.array(data.draw(st.lists(special_arguments(lat), min_size=z.size, max_size=z.size)))
            q = q.reshape(z.shape)
        with np.errstate(invalid="ignore"):  # z - q at z = q = inf
            alone = [
                oracles.outcome(elliptic.section_phi, np.array([a]), np.array([b]), lat)
                for a, b in zip(*map(np.ravel, np.broadcast_arrays(q, z)))
            ]
            got = oracles.outcome(elliptic.section_phi, q, z, lat)
        errors = [a for a in alone if isinstance(a, tuple)]
        if errors:
            assert got in errors
        elif np.ndim(z):
            _assert_same(got, np.concatenate(alone).reshape(np.shape(z)))
        else:
            # A Python complex, whose division may round apart from numpy's.
            assert type(got) is complex and abs(got - alone[0][0]) <= 4 * np.finfo(float).eps * abs(got)


def _closed_forms(lat, z):
    """(sigma, zeta, wp) of the degenerate kinds at z, in mpmath."""
    z = mp.mpc(z)
    if lat.kind == elliptic.KIND_TRIG:
        return mp.sin(z), mp.cot(z), 1 / mp.sin(z) ** 2
    return z, 1 / z, 1 / z**2


def _true_distance(lat, z):
    """The distance from z to the zero set of sigma, by brute force over
    the lattice points m omega1 + n omega2, |m|, |n| <= 6."""
    w1, w2, p1, p2 = _periods(lat)
    k = np.arange(-6, 7)
    return np.abs(z - (k[:, None] * p1 + k[None, :] * p2)).min()


class TestFixedPoints:
    """sigma, zeta, wp, lattice_distance and section_phi at fixed points of
    each lattice kind against mpmath and brute force, with Python scalars
    for 0-d input and shapes kept."""

    CELL = [(0.23, 0.11), (-0.41, 0.37), (0.3, -0.45), (0.02, 0.01)]

    @pytest.mark.parametrize("lat", LATTICES, ids=["a", "b", "skew-basis", "scaled", "trig", "rational"])
    def test_values(self, lat):
        w1, w2, _, _ = _periods(lat)
        scale = abs(lat.red_omega1) if lat.kind == elliptic.KIND_ELLIPTIC else 1.0
        for u, v in self.CELL:
            z = u * w1 + v * w2
            if lat.kind == elliptic.KIND_ELLIPTIC:
                TestReducedKernel.check(z, lat, lat.omega1, lat.omega2)
            else:
                # Each against its derivative's condition number (_within).
                s, ze, wpv = map(complex, _closed_forms(lat, z))
                assert _within(elliptic.sigma(z, lat), s, s * ze, z)
                assert _within(elliptic.zeta(z, lat), ze, -wpv, z)
                assert _within(elliptic.wp(z, lat), wpv, -2 * wpv * ze, z)
            d, true = elliptic.lattice_distance(z, lat), _true_distance(lat, z)
            assert d >= true - 1e-14 * scale
            if true < 0.4 * scale:
                assert abs(d - true) <= 1e-14 * scale

    @pytest.mark.parametrize("lat", LATTICES, ids=["a", "b", "skew-basis", "scaled", "trig", "rational"])
    def test_scalars_and_shapes(self, lat):
        w1, w2, _, _ = _periods(lat)
        z = np.array([u * w1 + v * w2 for u, v in self.CELL])
        for name in _CHECKS:
            fn = getattr(elliptic, name)
            kind = float if name == "lattice_distance" else complex
            for arg in (complex(z[0]), z[0], np.array(z[0]), float(z[0].real)):
                assert type(fn(arg, lat)) is kind
            out = fn(z.reshape(2, 2), lat)
            assert type(out) is np.ndarray and out.shape == (2, 2) and out.dtype == kind
        phi = elliptic.section_phi(0.1 * w1, z, lat)
        assert type(phi) is np.ndarray and phi.shape == (4,)
        assert type(elliptic.section_phi(0.1 * w1, complex(z[0]), lat)) is complex
        assert elliptic.section_phi(z.reshape(2, 2), z[0], lat).shape == (2, 2)

    @pytest.mark.parametrize("lat", LATTICES, ids=["a", "b", "skew-basis", "scaled", "trig", "rational"])
    def test_section_phi(self, lat):
        w1, w2, _, _ = _periods(lat)
        q = 0.17 * w1 - 0.05 * w2
        z = np.array([u * w1 + v * w2 for u, v in self.CELL])
        # A quotient formed directly: within sigma's 1e-13 (TestReducedKernel)
        # once per factor, relative.
        for got, zz in zip(elliptic.section_phi(q, z, lat), z):
            want = complex(mp.exp(oracles.sigma_quotient_mpmath([zz - q], [zz], lat)[0]))
            assert abs(got - want) <= 2e-13 * abs(want)


class TestReadErrors:
    """One crafted argument per error of the special functions' reads."""

    @pytest.mark.parametrize("fn", ["lattice_distance", "sigma", "zeta", "wp"])
    def test_lost_reduction_is_named(self, fn):
        # x = z/red_omega1 rounds to an xr with Im 4.6e282, far beyond Im
        # red_tau = 2.1: the doubles lost this argument's reduction, and
        # lattice_distance returned 4.6e282 (every point is within |omega1|
        # + |omega2| of the lattice) while sigma raised ValueOverflow.
        z = 5.1590200471285626e299 + 2.551744652415609e298j
        for arg in (z, np.array([0.3, z])):
            with pytest.raises(NonConvergent, match="^special function argument is too large to reduce$"):
                getattr(elliptic, fn)(arg, LAT)

    @pytest.mark.parametrize("fn", ["zeta", "wp"])
    def test_pole(self, fn):
        with pytest.raises(PoleAtLattice, match=f"^{fn} argument within 1e-08 of a lattice point$"):
            getattr(elliptic, fn)(np.array([0.3, LAT.omega2 + 1e-9]), LAT)

    @pytest.mark.parametrize("fn", ["zeta", "wp"])
    def test_rounding_beyond_the_bound(self, fn):
        # On (1, 1e-12 i), 0.1 reduces to Im xr = -1e11: the exponents' rounding,
        # about pi 1e11 eps, exceeds 1e-11.
        lat = elliptic.lattice_from_periods(1.0, 1e-12j)
        with pytest.raises(NonConvergent, match=r"^zeta and wp at tau=1e-12j cannot be summed to 1e-11 in doubles$"):
            getattr(elliptic, fn)(0.1, lat)

    def test_section_phi_pole(self):
        with pytest.raises(PoleAtLattice, match="^section_phi evaluated at a lattice pole$"):
            elliptic.section_phi(0.3, np.array([0.2, LAT.omega1]), LAT)

    def test_section_phi_beyond_the_doubles(self):
        # sigma(0.5 + 50i)/sigma(0.5 + 70i) is exp(806.2 - 1.5i) at 50 digits;
        # both sigma values underflow to 0.
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueOverflow, match=r"^section_phi: sigma\(z - q\)/sigma\(z\) is not a double$"):
                elliptic.section_phi(20j, 0.5 + 70j, lat)
        log, _ = oracles.sigma_quotient_mpmath([0.5 + 50j], [0.5 + 70j], lat)
        assert log.real > np.log(np.finfo(float).max)


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

    @pytest.mark.parametrize("c", [2e154, 1e200, 1e300])
    def test_wp_where_the_squared_period_overflows(self, c):
        # wp(cz; c Lambda) = wp(z; Lambda)/c^2.  Squaring red_omega1 ended in
        # a bare OverflowError from |red_omega1| ~ 1.3e154; sigma, zeta and
        # lattice_distance were finite there.
        unit = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        lat = elliptic.lattice_from_periods(c, c * (0.2 + 2.4j))
        expected = elliptic.wp(0.1, unit) / c / c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = elliptic.wp(0.1 * c, lat)
            for f in (elliptic.sigma, elliptic.zeta, elliptic.lattice_distance):
                assert np.isfinite(f(0.1 * c, lat))
        assert abs(value - expected) <= 1e-13 * abs(expected)


class TestSectionPhi:
    def test_zero_and_pole_structure(self):
        q = 0.4 + 0.1j
        assert abs(elliptic.section_phi(q, q, LAT)) < 1e-13
        with pytest.raises(PoleAtLattice):
            elliptic.section_phi(q, 0.0, LAT)

    @pytest.mark.parametrize("z", [0.5 + 48j, np.array([0.5 + 48j, 0.3])])
    def test_underflowing_denominator_matches_mpmath(self, z):
        # sigma(0.5 + 48i) underflows to 0 far from the lattice; the quotient
        # was a ZeroDivisionError (scalar) or nan+nanj with RuntimeWarnings
        # once, then a ValueOverflow.
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = elliptic.section_phi(0.2, z, lat)
        assert np.shape(got) == np.shape(z)
        for g, zz in zip(np.ravel(got), np.ravel(z)):
            oracles.assert_log_form(g, *oracles.sigma_quotient_mpmath([zz - 0.2], [zz], lat))


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


class TestLatticeConstants:
    @pytest.mark.parametrize(
        "omega1,omega2", [(1.0, 1e-310j), (1.0, 1e-300j), (1.0, 5e-324j), (5e-324, 5e-324j)]
    )
    def test_constants_beyond_a_double_are_nonconvergent(self, omega1, omega2):
        # The reduced basis or the eta of these periods are not doubles;
        # 1e-310j raised a bare OverflowError, 1e-300j gave eta1 = -inf+nanj.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match="tau="):
                elliptic.lattice_from_periods(omega1, omega2)
            if omega1 == 1.0:  # theta reads tau alone
                with pytest.raises(NonConvergent, match="tau="):
                    elliptic.theta_char(elliptic.ThetaCharacteristic(0.5, 0.5), 0.1, omega2)

    def test_small_but_representable_im_tau_builds(self):
        lat = elliptic.lattice_from_periods(1.0, 1e-12j)
        assert all(np.isfinite([lat.eta1, lat.eta2, lat.red_omega1, lat.red_tau]))


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


class TestContract:
    """The special functions' contract: on any lattice and at any argument,
    a finite value or an RslaxError, with no RuntimeWarning."""

    @given(
        kind=st.sampled_from(["elliptic", "elliptic", "trig", "rational"]),
        omega1=st.builds(
            lambda w, e: w * 10.0**e,
            st.sampled_from([1.0, 0.7 + 0.1j, -0.3 + 1.2j]),
            st.sampled_from([-100, 0, 0, 100]),
        ),
        tau=st.builds(lambda r, e: complex(r, 10.0**e), st.floats(-1.0, 1.0), st.floats(-320.0, 3.0)),
        cell=st.one_of(
            st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
            st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
        ),
        ch=st.sampled_from([(0.5, 0.5), (0.0, 0.0), (0.25, -0.1)]),
    )
    # zeta and wp on elongated lattices: NaN.
    @example(kind="elliptic", omega1=1.0, tau=300j, cell=0.1 + 140j, ch=(0.5, 0.5))
    @example(kind="elliptic", omega1=1.0, tau=1e-5j, cell=0.1, ch=(0.5, 0.5))
    # An argument whose reduction the doubles lost: zeta and wp NaN.
    @example(
        kind="elliptic", omega1=1.0, tau=0.3 + 2.1j,
        cell=5.1590200471285626e299 + 2.551744652415609e298j, ch=(0.5, 0.5),
    )
    # Degenerate kinds far from the real axis: sin, sinh and squares overflowed.
    @example(kind="trig", omega1=1.0, tau=1j, cell=0.55 + 634j, ch=(0.5, 0.5))
    @example(kind="trig", omega1=1.0, tau=1j, cell=1.6e203 + 1.6e53j, ch=(0.5, 0.5))
    @example(kind="rational", omega1=1.0, tau=1j, cell=1.9e231 + 1.3e274j, ch=(0.5, 0.5))
    # Rounding left tau unreduced: a ValueError from numpy in
    # lattice_from_periods, and an overflow at Im red_tau near 1e308.
    @example(kind="elliptic", omega1=1e-100, tau=0.19724185735448718 + 1e-66j, cell=0.1, ch=(0.5, 0.5))
    @example(kind="elliptic", omega1=1.0, tau=-0.5 + 4.816549831264695e-309j, cell=0.1, ch=(0.5, 0.5))
    # An ultra-thin lattice, Im red_tau = 1e153: the common exponent of zeta's
    # and wp's terms, about pi 2e152, is beyond the doubles, and t1/t0
    # overflowed.
    @example(kind="elliptic", omega1=0.7 + 0.1j, tau=1e-153j, cell=29j, ch=(0.5, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_finite_or_a_typed_error(self, kind, omega1, tau, cell, ch):
        # cell is (u, v), the point u omega1 + v omega2, or an argument.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if kind == "elliptic":
                # omega2 = omega1 tau rounds to 0, or to the wrong side of
                # omega1, where Im tau is near the smallest doubles.
                assume(omega1 * tau != 0 and ((omega1 * tau) / omega1).imag > 0)
                try:
                    lat = elliptic.lattice_from_periods(omega1, omega1 * tau)
                except RslaxError:
                    return
            else:
                lat = elliptic.trig_lattice() if kind == "trig" else elliptic.rational_lattice()
            z = cell[0] * lat.omega1 + cell[1] * lat.omega2 if isinstance(cell, tuple) else cell
            calls = [(getattr(elliptic, fn), z, lat) for fn in ("sigma", "zeta", "wp", "lattice_distance")]
            calls.append((elliptic.theta_char, elliptic.ThetaCharacteristic(*ch), z, lat.tau))
            for fn, *args in calls:
                try:
                    out = fn(*args)
                except RslaxError:
                    continue
                assert np.isfinite(out), (fn.__name__, args, out)

    def test_elongated_lattices_match_mpmath(self):
        # zeta and wp summed theta terms up to exp(pi |Im xr|) unscaled: NaN
        # with RuntimeWarnings at 0.1 + 140i on (1, 300i), and at 0.1 on
        # (1, 1e-5 i), compared through the scaled lattice 1e-5 i (Z + 1e5 i Z).
        c = 1e-5j
        cases = [
            ((1.0, 300j), 0.1 + 140j, oracles.weierstrass_mpmath(0.1 + 140j, 1.0, 300j, dps=400)[1:3]),
            ((1.0, c), 0.1, [v / c**k for k, v in enumerate(
                oracles.weierstrass_mpmath(0.1 / c, 1.0, 1e5j)[1:3], start=1)]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for periods, z, (zeta_ref, wp_ref) in cases:
                lat = elliptic.lattice_from_periods(*periods)
                assert abs(elliptic.zeta(z, lat) - zeta_ref) <= 1e-14 * abs(zeta_ref)
                assert abs(elliptic.wp(z, lat) - wp_ref) <= 1e-14 * abs(wp_ref)
