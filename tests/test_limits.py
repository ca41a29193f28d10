"""Tests for the limit sweeps: elliptic-to-trigonometric degeneration in
sigma's exact gauge, the hbar -> 0 convergence onto the factorized CM matrix,
and the framing-constraint diagnostic.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rslax import elliptic, lax, limits
from rslax.errors import DegenerateConfiguration, NonFiniteEntries

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


class TestOnePassSweeps:
    """The sweeps against their former routes (oracles.*_reference): the
    same residuals and fitted order, and the same first error."""

    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        z=st.sampled_from(["cell", "node", "nan"]),
        cm_lattice=st.sampled_from(["same", "other", "trig"]),
        hbar=st.sampled_from([(1e-2, 5e-3, 2.5e-3), (1e-2, 1e-9), (2e-2,), (1e-2, 0.0)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_cm_limit_sweep_matches_the_per_call_sweep(self, n, seed, z, cm_lattice, hbar):
        rng = np.random.default_rng(seed)
        q = 0.35 * np.arange(n) + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        cm_lat = {
            "same": LAT,
            "other": elliptic.lattice_from_periods(1.0, 0.3 + 1.7j),
            "trig": elliptic.trig_lattice(),
        }[cm_lattice]
        cmc = lax.cm_config(q, rng.normal(size=n), 1.0, cm_lat)
        # The reference takes the RS configuration on cmc's own lattice.
        conf = lax.rs_config(q, [0.0] * n, 1e-2, cm_lat)
        z = {"cell": 0.17 + 0.23j, "node": LAT.omega2, "nan": complex("nan")}[z]
        oracles.assert_same_outcome(
            oracles.outcome(limits.cm_limit_sweep, cmc, hbar, z=z),
            oracles.outcome(oracles.cm_limit_sweep_reference, conf, cmc, hbar, z=z),
        )

    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        values=st.sampled_from([(5.0, 8.0, 12.0, 20.0), (2.0, 3.0), (8.0,), (8.0, -1.0)]),
        z=st.sampled_from(["cell", "node", "trig node"]),
        coincide=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_degeneration_sweep_matches_the_per_call_sweep(self, n, seed, values, z, coincide):
        # coincide puts q_1 - q_0 on the lattice (1, 8i) alone, and z
        # "node" on every swept lattice: the positions are checked first.
        rng = np.random.default_rng(seed)
        q = 0.35 * np.arange(n) + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        if coincide and n > 1:
            q[1] = q[0] + 8j
        conf = lax.rs_config(q, 0.15 * rng.normal(size=n), 0.08 + 0.03j, LAT)
        z = {"cell": 0.17 + 0.23j, "node": 8j, "trig node": 1.0}[z]
        oracles.assert_same_outcome(
            oracles.outcome(limits.degeneration_sweep, conf, values, z=z),
            oracles.outcome(oracles.degeneration_sweep_reference, conf, values, z=z),
        )

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
