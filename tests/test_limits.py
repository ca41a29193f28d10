"""Tests for the limit sweeps: elliptic-to-trigonometric degeneration in
sigma's exact gauge, the hbar -> 0 convergence onto the factorized CM matrix,
and the framing-constraint diagnostic.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import oracles
from rslax import elliptic, lax, limits
from rslax.errors import DegenerateConfiguration, NonConvergent, NonFiniteEntries, PoleAtLattice

LAT = elliptic.lattice_from_periods(1.0, 2.5j)


def base_conf(n=2):
    q = [0.11 + 0.03j, 0.46 - 0.02j, 0.79 + 0.01j][:n]
    P = [0.1, -0.07, 0.03][:n]
    return lax.rs_config(q, P, 0.08 + 0.02j, LAT)


class TestDegenerationSweep:
    def test_residual_small_at_large_im_tau(self):
        sweep = limits.degeneration_sweep(base_conf(), [20.0])
        assert sweep.errors[0] < 1e-8

    def test_monotone_decrease_until_machine_floor(self):
        sweep = limits.degeneration_sweep(base_conf(3), [2.0, 3.0, 4.0, 5.0])
        assert all(b < a for a, b in zip(sweep.errors, sweep.errors[1:]))

    def test_fitted_order_near_one_in_nome(self):
        # Residual ~ exp(-2 pi t): slope 1 against the squared nome.
        sweep = limits.degeneration_sweep(base_conf(), [2.0, 2.5, 3.0, 3.5])
        assert abs(sweep.fitted_order - 1.0) < 0.15

    def test_all_points_recorded(self):
        values = [2.0, 6.0, 20.0]
        sweep = limits.degeneration_sweep(base_conf(), values)
        assert list(sweep.values) == values
        assert len(sweep.errors) == 3
        assert all(np.isfinite(sweep.errors))

    def test_nonpositive_im_tau_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            limits.degeneration_sweep(base_conf(), [2.0, -1.0])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan")])
    def test_rejected_im_tau_is_named(self, bad):
        # A NaN passed the old "t <= 0" test and reached lattice_from_periods.
        with pytest.raises(DegenerateConfiguration, match=f"Im\\(tau\\) sweep value {bad!r}"):
            limits.degeneration_sweep(base_conf(), [2.0, bad])


class TestSigmaArgumentMoments:
    def test_closed_form_matches_the_loop(self):
        rng = np.random.default_rng(7)
        hbar, z = 0.08 + 0.03j, 0.17 + 0.23j
        for n in range(1, 9):
            for _ in range(5):
                q = rng.normal(size=n) + 1j * rng.normal(size=n)
                delta1, delta2 = oracles.sigma_argument_moments_reference(q, hbar, z)
                # The loop sums 2n squares, each at most this large.
                scale = 2 * n * (abs(z) + abs(hbar) + 2 * np.abs(q).max()) ** 2
                closed = limits._sigma_argument_second_moment(q, hbar, z)
                assert np.abs(closed - delta2).max() < 1e-15 * scale
                # The first moment, which sigma's gauge (A = 0) does not use.
                d = q[:, None] - q[None, :]
                assert np.abs(n * (hbar + d) - delta1).max() < 1e-15 * scale


class TestCMLimitSweep:
    def test_first_order_convergence(self):
        cmc = lax.cm_config(base_conf(3).q, [0.3, -0.2, 0.1], 1.0, LAT)
        sweep = limits.cm_limit_sweep(cmc, [1e-2, 5e-3, 2.5e-3])
        assert 0.85 <= sweep.fitted_order <= 1.15

    def test_scalar_oracle_n1(self):
        # n = 1, p = 0: (L(h) - 1)/h -> sigma'(z)/sigma(z).
        z = 0.17 + 0.23j
        cmc = lax.cm_config([0.2], [0.0], 1.0, LAT)
        h = 1e-4
        L = lax.composition_lax(lax.rs_config([0.2], [0.0], h, LAT), z).entries[0, 0]
        step = 1e-7
        logdiff = (
            np.log(elliptic.sigma(z + step, LAT)) - np.log(elliptic.sigma(z - step, LAT))
        ) / (2 * step)
        assert abs((L - 1.0) / h - logdiff) < 1e-3
        sweep = limits.cm_limit_sweep(cmc, [1e-4], z=z)
        assert sweep.errors[0] < 1e-3
        assert sweep.fitted_order is None  # single point: no slope

    def test_hbar_zero_rejected(self):
        cmc = lax.cm_config(base_conf().q, [0.1, 0.2], 1.0, LAT)
        with pytest.raises(DegenerateConfiguration):
            limits.cm_limit_sweep(cmc, [1e-2, 0.0])

    @pytest.mark.parametrize(
        "values,bad", [([-1e-2, -5e-3, -2.5e-3], -1e-2), ([1e-2, float("nan")], float("nan"))]
    )
    def test_nonpositive_hbar_rejected(self, values, bad):
        # Negative hbar ended in LAPACK's "SVD did not converge" when the
        # order was fitted to log(hbar).
        cmc = lax.cm_config(base_conf().q, [0.1, 0.2], 1.0, LAT)
        with pytest.raises(DegenerateConfiguration, match=f"hbar sweep value {bad!r}"):
            limits.cm_limit_sweep(cmc, values)


def _fit_bound(small, errors, bounds):
    """How far a least-squares slope of log errors against log small can
    move when each error moves by at most its bound: 2 max(bound/error)
    over the span of log small."""
    span = abs(np.log(small[0]) - np.log(small[-1]))
    return 2 * max(b / e for b, e in zip(bounds, errors)) / span


class TestSweepsAgainstMpmath:
    """The sweeps' residuals recomputed from 50-digit matrices (oracles), each
    within the 1e-12 entry tolerance of the factorized CM matrix's oracle
    test carried through the residual, and the fitted order within what
    those bounds allow; then the sweeps' checks, in order."""

    Q = np.array([0.11 + 0.03j, 0.46 - 0.02j])
    Z = 0.17 + 0.23j

    def test_cm_limit_sweep(self):
        p = np.array([0.3, -0.2])
        hbar = (1e-2, 5e-3, 2.5e-3)
        sweep = limits.cm_limit_sweep(lax.cm_config(self.Q, p, 1.0, LAT), hbar, z=self.Z)
        assert sweep.parameter == "Hbar" and sweep.values == hbar
        F = oracles.factorized_cm_mpmath(self.Q, p, self.Z, 1.0, 2.5j)
        norm = np.linalg.norm(F)
        errors, bounds = [], []
        for h, got in zip(hbar, sweep.errors):
            L = oracles.hasegawa_mpmath(self.Q, h * p, h, self.Z, 1.0, 2.5j)
            errors.append(np.linalg.norm((L - np.eye(2)) / h - F) / norm)
            bounds.append(1e-12 * (np.linalg.norm(L) / h + 2 * np.abs(F).max()) / norm)
            assert type(got) is float and abs(got - errors[-1]) <= bounds[-1]
        order = np.polyfit(np.log(hbar), np.log(errors), 1)[0]
        assert abs(sweep.fitted_order - order) <= _fit_bound(hbar, errors, bounds)

    def test_cm_limit_sweep_below_the_pole_tolerance(self):
        # hbar = 1e-9 is within POLE_TOL of the lattice: zero coupling, so
        # L = diag(exp(hbar p)) and the residual is that of (L - I)/hbar.
        p = np.array([0.3, -0.2])
        sweep = limits.cm_limit_sweep(lax.cm_config(self.Q, p, 1.0, LAT), (1e-2, 1e-9), z=self.Z)
        F = oracles.factorized_cm_mpmath(self.Q, p, self.Z, 1.0, 2.5j)
        want = np.linalg.norm(np.diag(np.expm1(1e-9 * p) / 1e-9) - F) / np.linalg.norm(F)
        assert abs(sweep.errors[1] - want) <= 1e-12 * (1e9 + 2) * np.abs(F).max() / np.linalg.norm(F)

    def test_degeneration_sweep(self):
        P, hbar, values = [0.1, -0.07], 0.08 + 0.02j, (2.0, 3.0)
        sweep = limits.degeneration_sweep(lax.rs_config(self.Q, P, hbar, LAT), values, z=self.Z)
        assert sweep.parameter == "ImTau" and sweep.values == values
        L_trig = oracles.hasegawa_mpmath(
            np.pi * self.Q, P, np.pi * hbar, np.pi * self.Z, kind="trigonometric"
        )
        _, delta2 = oracles.sigma_argument_moments_reference(self.Q, hbar, self.Z)
        errors, bounds = [], []
        for t, got in zip(values, sweep.errors):
            L = oracles.hasegawa_mpmath(self.Q, P, hbar, self.Z, 1.0, 1j * t)
            # eta1/omega1 on (1, i t): zeta(z + 1) = zeta(z) + 2 eta1.
            zeta = [oracles.weierstrass_mpmath(0.3 + k, 1.0, 1j * t)[1] for k in (0, 1)]
            pred = np.exp((zeta[1] - zeta[0]) / 2 * delta2) * L_trig
            norm = np.linalg.norm(pred)
            errors.append(np.linalg.norm(L - pred) / norm)
            bounds.append(1e-12 * 2 * (np.abs(L).max() + np.abs(pred).max()) / norm)
            assert type(got) is float and abs(got - errors[-1]) <= bounds[-1]
        small = [np.exp(-2 * np.pi * t) for t in values]
        order = np.polyfit(np.log(small), np.log(errors), 1)[0]
        assert abs(sweep.fitted_order - order) <= _fit_bound(small, errors, bounds)

    @pytest.mark.parametrize(
        "lat,hbar,z,want",
        [
            (LAT, (1e-2, 0.0), LAT.omega2, (DegenerateConfiguration, "hbar sweep value 0.0 is not positive")),
            (elliptic.trig_lattice(), (1e-2,), np.pi,
             (DegenerateConfiguration, "factorized CM matrix requires an elliptic lattice")),
            (LAT, (1e-2,), LAT.omega2, (PoleAtLattice, "zeta argument within 1e-08 of a lattice point")),
            (LAT, (1e-2,), complex("nan"), (NonConvergent, "special function argument is not finite")),
        ],
    )
    def test_cm_limit_sweep_checks_in_order(self, lat, hbar, z, want):
        cmc = lax.cm_config(self.Q, [0.3, -0.2], 1.0, lat)
        assert oracles.outcome(limits.cm_limit_sweep, cmc, hbar, z=z) == want

    @pytest.mark.parametrize(
        "values,z,want",
        [
            ((8.0, -1.0), 1.0, (DegenerateConfiguration, "Im(tau) sweep value -1.0 is not positive")),
            # pi z on the trigonometric lattice, before any elliptic one.
            ((5.0, 8.0), 1.0, (PoleAtLattice, "z is on the lattice")),
            ((5.0, 8.0), 8j, (PoleAtLattice, "z is on the lattice")),
            ((5.0, 8.0), complex("nan"), (NonConvergent, "special function argument is not finite")),
        ],
    )
    def test_degeneration_sweep_checks_in_order(self, values, z, want):
        conf = lax.rs_config(self.Q, [0.1, -0.07], 0.08 + 0.02j, LAT)
        assert oracles.outcome(limits.degeneration_sweep, conf, values, z=z) == want

class TestOnePassSweeps:
    """The sweeps' checks on each lattice, and their one pass per hbar."""

    def test_residual_that_is_not_finite_is_a_typed_error(self):
        # At hbar = 32i the prediction exp(B Delta2) L_trig overflows; the
        # sweep ended in a bare ValueError, after numpy RuntimeWarnings.
        conf = lax.rs_config([0.1, 0.45], [0.0, 0.0], 32j, LAT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEntries, match="ImTau residual at 5.0 is not finite"):
                limits.degeneration_sweep(conf, [5.0, 10.0])

    def test_positions_are_checked_on_each_lattice(self):
        # Distinct on (1, 2.5i), coincident on (1, 8i), and z on (1, 8i):
        # the positions are named, as dataclasses.replace named them.
        conf = lax.rs_config([0.1, 0.1 + 8j], [0.1, -0.07], 0.08 + 0.02j, LAT)
        with pytest.raises(DegenerateConfiguration, match="not pairwise distinct"):
            limits.degeneration_sweep(conf, [5.0, 8.0], z=8j)

    def test_cm_limit_sweep_rebuilds_no_configuration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a configuration was rebuilt")

        cmc = lax.cm_config(base_conf(3).q, [0.3, -0.2, 0.1], 1.0, LAT)
        monkeypatch.setattr(lax, "rs_config", forbidden)
        monkeypatch.setattr(lax, "RSConfig", forbidden)
        monkeypatch.setattr(elliptic, "sigma", forbidden)
        monkeypatch.setattr(elliptic, "lattice_distance", forbidden)
        sweep = limits.cm_limit_sweep(cmc, [1e-2, 5e-3, 2.5e-3])
        assert 0.85 <= sweep.fitted_order <= 1.15


class TestFramingConstraint:
    def test_valid_config_is_zero(self):
        assert limits.framing_constraint_check(base_conf()) < 1e-12

    def test_perturbation_measured(self):
        conf = dataclasses.replace(base_conf(), q_zero=base_conf().q_zero + 0.1)
        assert abs(limits.framing_constraint_check(conf) - 0.1) < 1e-9

    def test_offset_scales_with_n(self):
        c2, c3 = base_conf(2), base_conf(3)
        assert abs((c2.q_zero - c2.q_inf) - 2 * c2.hbar) < 1e-14
        assert abs((c3.q_zero - c3.q_inf) - 3 * c3.hbar) < 1e-14


class TestLimitSweepType:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            limits.LimitSweep("Hbar", (1e-2, 1e-2), (0.1, 0.1), None)

    def test_finite_errors_enforced(self):
        with pytest.raises(ValueError):
            limits.LimitSweep("Hbar", (1e-2, 1e-3), (0.1, np.inf), None)
