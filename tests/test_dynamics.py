"""Tests for the flow layer: Hamiltonian evaluation, analytic vector fields
against a finite-difference oracle, RK4 isospectral integration with drift
tracking, Poisson brackets, coordinate-chart consistency, and collision
handling.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rslax
from rslax import dynamics, elliptic, lax
from rslax.errors import (
    CollisionImminent,
    DegenerateConfiguration,
    SingularMatrix,
    StepTooLarge,
    ValueOverflow,
)

LAT = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
LATTICES = {
    "elliptic": LAT,
    "trig": elliptic.trig_lattice(),
    "rational": elliptic.rational_lattice(),
}


def mild_conf():
    q = [0.11 + 0.03j, 0.46 - 0.02j, 0.79 + 0.01j]
    P = [0.12 - 0.04j, -0.09 + 0.06j, 0.04 + 0.02j]
    return lax.rs_config(q, P, 0.08 + 0.03j, LAT)


SPEC1 = dynamics.HamiltonianSpec("trace_power", 1)
COORDS = dynamics._COORDINATES


def drawn_point(rng, kind, n):
    """(lattice, q, P, hbar): an elliptic lattice drawn with Im tau in [0.5,
    4], or the degenerate kind's, with n positions spread over one period."""
    if kind == "elliptic":
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 4.0))
        w1 = rng.uniform(0.8, 1.5) * np.exp(1j * rng.uniform(-0.3, 0.3))
        lat = elliptic.lattice_from_periods(w1, w1 * tau)
        q = (np.arange(n) + 0.3 * rng.uniform(size=n)) / n * w1 + rng.uniform(size=n) * w1 * tau
    else:
        lat = LATTICES[kind]
        q = (np.arange(n) + 0.3 * rng.uniform(size=n)) / n * np.pi + 0.1j * rng.uniform(size=n)
    P = 0.2 * rng.normal(size=n) + 0.1j * rng.normal(size=n)
    hbar = complex(rng.uniform(0.02, 0.2), rng.uniform(-0.05, 0.05))
    return lat, q, P, hbar


class TestHamiltonian:
    def test_trace_power_one_is_trace(self):
        conf = mild_conf()
        H = dynamics.hamiltonian(SPEC1, conf)
        L = lax.hasegawa_lax(conf, SPEC1.eval_z).entries
        assert abs(H - np.trace(L)) < 1e-12 * abs(H)

    def test_hitchin_uses_composition(self):
        conf = mild_conf()
        spec = dynamics.HamiltonianSpec("hitchin", 1)
        H = dynamics.hamiltonian(spec, conf)
        L = lax.composition_lax(conf, spec.eval_z).entries
        assert abs(H - np.trace(L @ L) / 2) < 1e-12 * abs(H)

    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    def test_hitchin_where_positions_are_spaced_by_hbar(self, kind):
        # The Cauchy factorization of composition_lax divides by sigma(hbar +
        # q_0 - q_1) = 0 here; hitchin goes through the Hasegawa matrix.
        lat = {
            "elliptic": LAT,
            "trig": elliptic.trig_lattice(),
            "rational": elliptic.rational_lattice(),
        }[kind]
        q, P = [0.0, 0.1], [0.1, -0.05]
        conf = lax.rs_config(q, P, 0.1, lat)
        spec = dynamics.HamiltonianSpec("hitchin", 1)
        H = dynamics.hamiltonian(spec, conf)
        L = lax.hasegawa_lax(conf, spec.eval_z).entries
        assert np.isfinite(H)
        assert abs(H - np.trace(L @ L) / 2) < 1e-12 * abs(H)
        pt = dynamics.PhasePoint(q, P)
        field = np.concatenate(dynamics.hamiltonian_vector_field(spec, pt, conf))
        ref = np.concatenate(oracles.fd_vector_field(spec, pt, conf))
        assert np.max(np.abs(field - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rs_cosh_scalar_case(self):
        conf = lax.rs_config([0.2], [0.3], 0.07, LAT, mu=0.07)
        spec = dynamics.HamiltonianSpec("rs_cosh")
        H = dynamics.hamiltonian(spec, conf)
        L = lax.ruijsenaars_lax(conf, spec.eval_z).entries[0, 0]
        assert abs(H - (L + 1.0 / L)) < 1e-12 * abs(H)

    def test_rs_cosh_singularity_test_ignores_the_momentum_scaling(self):
        # exp(P) scales the rows of L: cond L = 2.8e10 here, but K =
        # diag(exp(-P)) L has cond 1.66. A test of det L called L singular.
        conf = lax.rs_config([0.1, 0.4, 0.7], [12.0, -12.0, 0.0], 0.08 + 0.03j, LAT)
        spec = dynamics.HamiltonianSpec("rs_cosh")
        L = lax.ruijsenaars_lax(conf, spec.eval_z).entries
        E = np.diag(np.exp(-np.asarray(conf.P, dtype=complex)))
        ref = np.trace(L) + np.trace(np.linalg.inv(E @ L) @ E)
        H = dynamics.hamiltonian(spec, conf)
        assert abs(H - ref) <= 1e-10 * abs(ref)
        assert abs(H - (3.05e5 - 2.23e4j)) < 1e-3 * abs(H)
        field = dynamics.hamiltonian_vector_field(spec, dynamics.PhasePoint(conf.q, conf.P), conf)
        assert np.isfinite(np.concatenate(field)).all()

    def test_singular_ruijsenaars_matrix_still_raises(self):
        L = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex) * np.exp([[5.0], [-5.0]])
        with pytest.raises(SingularMatrix, match="singular"):
            dynamics._inverse(L, np.array([5.0, -5.0], dtype=complex))

    @staticmethod
    def far_point():
        """(conf, point) where |L| is about 1e142 in the Ruijsenaars form and
        1e213 in the Hasegawa form, both finite."""
        lat = elliptic.lattice_from_periods(153.16, -24.38 + 14.52j)
        q = (-0.086 - 0.428j, -0.153 - 0.502j, 0.402 - 0.214j)
        P = (0.0, -0.1995 - 0.0987j, 0.0)
        conf = lax.rs_config(q, P, 506.95 + 156.28j, lat)
        return conf, dynamics.PhasePoint(q, P)

    def test_rs_cosh_where_the_size_of_l_overflows_its_power(self):
        # max|K|^3 is not a double here: the singularity test of L^{-1}
        # ended in a bare OverflowError.
        conf, point = self.far_point()
        spec = dynamics.HamiltonianSpec("rs_cosh")
        L = lax.ruijsenaars_lax(conf, spec.eval_z).entries
        ref = np.trace(L) + np.trace(np.linalg.inv(L))
        assert abs(dynamics.hamiltonian(spec, conf) - ref) <= 1e-12 * abs(ref)
        field = np.concatenate(dynamics.hamiltonian_vector_field(spec, point, conf))
        fd = np.concatenate(oracles.fd_vector_field(spec, point, conf))
        assert np.max(np.abs(field - fd)) <= 1e-8 * np.max(np.abs(fd))

    @pytest.mark.parametrize("family,index", [("trace_power", 2), ("hitchin", 1)])
    def test_rates_beyond_the_doubles_are_a_typed_error(self, family, index):
        # L is finite, L^2 is not: the rates were NaN, with no error.
        conf, point = self.far_point()
        spec = dynamics.HamiltonianSpec(family, index)
        with pytest.raises(CollisionImminent) as exc:
            dynamics.hamiltonian_vector_field(spec, point, conf)
        assert str(exc.value) == "the Hamiltonian vector field is not finite"

    @pytest.mark.parametrize("family,index", [("trace_power", 2), ("hitchin", 1)])
    def test_value_beyond_the_doubles_is_a_typed_error(self, family, index):
        # L is finite, Tr L^3 is not: the value was not finite, with only a
        # RuntimeWarning from matrix_power.
        conf, _ = self.far_point()
        spec = dynamics.HamiltonianSpec(family, index)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueOverflow) as exc:
                dynamics.hamiltonian(spec, conf)
        assert str(exc.value) == "the Hamiltonian is not finite"

    @pytest.mark.parametrize("lax_family", ["hasegawa", "composition", "ruijsenaars"])
    def test_rs_cosh_is_the_ruijsenaars_form_for_every_lax_family(self, lax_family):
        # rs_cosh names the Ruijsenaars matrix whatever lax_family says; the
        # Hasegawa matrix gives another value (4.098-0.072i here).
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        conf = lax.rs_config([0.1, 0.45], [0.1, -0.07], 0.08 + 0.02j, lat)
        spec = dynamics.HamiltonianSpec("rs_cosh", lax_family=lax_family)
        L = lax.ruijsenaars_lax(conf, spec.eval_z).entries
        ref = np.trace(L) + np.trace(np.linalg.inv(L))
        H = dynamics.hamiltonian(spec, conf)
        assert abs(H - ref) < 1e-12 * abs(ref)
        assert abs(H - (3.892 - 0.098j)) < 1e-3
        pt = dynamics.PhasePoint(conf.q, conf.P)
        field = np.concatenate(dynamics.hamiltonian_vector_field(spec, pt, conf))
        ruijsenaars = dynamics.HamiltonianSpec("rs_cosh", lax_family="ruijsenaars")
        assert np.array_equal(
            field, np.concatenate(dynamics.hamiltonian_vector_field(ruijsenaars, pt, conf))
        )


class TestVectorField:
    def test_free_particle_limit(self):
        # hbar = 0: L = diag(e^P), Tr L = sum e^{p_i}; dq_i/dt = e^{p_i},
        # dp_i/dt = 0.
        q = [0.1, 0.5, 0.9]
        p = [0.2, -0.1, 0.05]
        conf = lax.rs_config(q, p, 0.0, LAT)
        pt = dynamics.PhasePoint(q, p)
        dq, dp = dynamics.hamiltonian_vector_field(SPEC1, pt, conf)
        assert np.max(np.abs(dq - np.exp(p))) < 1e-8
        assert np.max(np.abs(dp)) < 1e-8

    # (family, index, lax_family): the five distinct Lax-form/trace-function
    # pairs that hamiltonian() evaluates.
    @pytest.mark.parametrize(
        "family,index,lax_family",
        [
            ("trace_power", 1, "hasegawa"),
            ("trace_power", 3, "composition"),
            ("trace_power", 2, "ruijsenaars"),
            ("hitchin", 2, "composition"),
            ("rs_cosh", 1, "ruijsenaars"),
        ],
    )
    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("hbar", [0.08 + 0.03j, 0.0])
    def test_matches_fourth_order_oracle(self, family, index, lax_family, kind, n, hbar):
        lat = {
            "elliptic": LAT,
            "trig": elliptic.trig_lattice(),
            "rational": elliptic.rational_lattice(),
        }[kind]
        step = {"elliptic": 0.9 / n, "trig": 2.7 / n, "rational": 0.7}[kind]
        k = np.arange(n)
        q = 0.11 + step * k + 0.03j * np.sin(k + 1)
        P = 0.1 * np.cos(k + 0.5) - 0.04j * np.sin(2 * k + 1)
        # mu is set apart from hbar so the Ruijsenaars forms exist at hbar = 0.
        conf = lax.rs_config(q, P, hbar, lat, mu=0.09 + 0.02j)
        spec = dynamics.HamiltonianSpec(family, index, lax_family)
        pt = dynamics.PhasePoint(q, P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = np.concatenate(dynamics.hamiltonian_vector_field(spec, pt, conf))
        ref = np.concatenate(oracles.fd_vector_field(spec, pt, conf))
        assert np.max(np.abs(field - ref)) <= 1e-9 * np.max(np.abs(ref))

    # Points where a sigma factor of an entry of L is exactly zero: q spaced
    # by hbar (a Hasegawa numerator factor sigma(hbar + q_l - q_k')), by
    # z + hbar (the factor sigma(z + hbar + q_k - q_k')) and by -z (the
    # Ruijsenaars factor sigma(q_i - q_k + lam)), plus a spacing one rounding
    # error away from hbar.
    @pytest.mark.parametrize(
        "family,index,lax_family",
        [
            ("trace_power", 1, "hasegawa"),
            ("trace_power", 2, "hasegawa"),
            ("trace_power", 2, "ruijsenaars"),
            ("rs_cosh", 1, "ruijsenaars"),
        ],
    )
    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("spacing", ["hbar", "near_hbar", "z_plus_hbar", "minus_z"])
    def test_matches_oracle_where_an_entry_factor_vanishes(
        self, family, index, lax_family, kind, spacing
    ):
        lat = {
            "elliptic": LAT,
            "trig": elliptic.trig_lattice(),
            "rational": elliptic.rational_lattice(),
        }[kind]
        spec = dynamics.HamiltonianSpec(family, index, lax_family)
        hbar = 0.1
        q = {
            "hbar": [0.0, 0.1],
            "near_hbar": [0.2, 0.3],
            "z_plus_hbar": [0.0, spec.eval_z + hbar],
            "minus_z": [0.0, spec.eval_z],
        }[spacing]
        P = [0.1, -0.05]
        conf = lax.rs_config(q, P, hbar, lat, mu=0.3 + 0.02j)
        pt = dynamics.PhasePoint(q, P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = np.concatenate(dynamics.hamiltonian_vector_field(spec, pt, conf))
        ref = np.concatenate(oracles.fd_vector_field(spec, pt, conf))
        assert np.all(np.isfinite(field))
        assert np.max(np.abs(field - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_bracket_of_conserved_quantities_vanishes(self):
        conf = mild_conf()
        pt = dynamics.PhasePoint(conf.q, conf.P)
        spec2 = dynamics.HamiltonianSpec("trace_power", 2)
        br = dynamics.poisson_bracket(SPEC1, spec2, pt, conf)
        assert abs(br) < 1e-6


class TestDiagonalField:
    """The field of H = Tr L on the Hasegawa form, read from the diagonal of
    L (lax._HasegawaPlan.trace), against the generic route: the Jacobian map
    of the whole of L at R = I."""

    def assert_same(self, spec, conf, q, P):
        # _field by the diagonal route, then by the generic one; the diagonal
        # route leaves L to the plan's batched build, which a flow's
        # spectral pass takes.
        plan = lax._HasegawaPlan(conf, spec.eval_z)
        q, P = np.asarray(q, dtype=complex), np.asarray(P, dtype=complex)
        (L, dq, dp, sep), (L0, dq0, dp0, sep0) = [
            dynamics._field(spec, plan, diagonal, q, P) for diagonal in (True, False)
        ]
        assert L is None
        L = plan.matrix(q[:, None], P[:, None])[..., 0]
        field, ref = np.concatenate([dq, dp]), np.concatenate([dq0, dp0])
        assert np.all(np.isfinite(field))
        assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(L - L0)) <= 1e-12 * np.max(np.abs(L0))
        assert sep == sep0

    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_matches_generic_route(self, kind, n):
        step = {"elliptic": 0.9 / n, "trig": 2.7 / n, "rational": 0.7}[kind]
        k = np.arange(n)
        q = 0.11 + step * k + 0.03j * np.sin(k + 1)
        P = 0.1 * np.cos(k + 0.5) - 0.04j * np.sin(2 * k + 1)
        conf = lax.rs_config(q, P, 0.08 + 0.03j, LATTICES[kind])
        self.assert_same(SPEC1, conf, q, P)

    # q_1 - q_0 = hbar makes the factor sigma(hbar + q_0 - q_1) of L_11
    # vanish; z + hbar makes an entry of L off its diagonal vanish.
    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("spacing", ["hbar", "z_plus_hbar"])
    @pytest.mark.parametrize("lax_family", ["hasegawa", "composition"])
    def test_matches_generic_route_where_a_factor_vanishes(self, kind, spacing, lax_family):
        spec = dynamics.HamiltonianSpec("trace_power", 1, lax_family)
        hbar = 0.1
        q = [0.0, {"hbar": hbar, "z_plus_hbar": spec.eval_z + hbar}[spacing], 0.45 + 0.02j]
        P = [0.1, -0.05, 0.07]
        conf = lax.rs_config(q, P, hbar, LATTICES[kind])
        self.assert_same(spec, conf, q, P)

    @given(
        kind=st.sampled_from(["elliptic", "trig"]),
        n=st.integers(1, 4),
        m=st.integers(-2, 2),
        k=st.integers(-2, 2),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_field_is_invariant_under_a_period_shift(self, kind, n, m, k, seed):
        # q_j -> q_j + w, P_j -> P_j + 2(n - 1) eta(w) hbar and P_l -> P_l -
        # 2 eta(w) hbar (l != j), w = m omega1 + k omega2: by sigma's
        # quasi-periodicity L changes by a diagonal conjugation, and the
        # momentum shift is constant, so the field of Tr L is unchanged.
        lat, q, P, hbar = drawn_point(np.random.default_rng(seed), kind, n)
        conf = lax.rs_config(q, P, hbar, lat)
        j = seed % n
        w, eta = m * lat.omega1 + k * lat.omega2, m * lat.eta1 + k * lat.eta2
        q2, P2 = q.copy(), P - 2 * eta * hbar
        q2[j] += w
        P2[j] = P[j] + 2 * (n - 1) * eta * hbar
        field = np.concatenate(
            dynamics.hamiltonian_vector_field(SPEC1, dynamics.PhasePoint(q, P), conf)
        )
        shifted = np.concatenate(
            dynamics.hamiltonian_vector_field(SPEC1, dynamics.PhasePoint(q2, P2), conf)
        )
        assert np.max(np.abs(shifted - field)) <= 1e-11 * np.max(np.abs(field))

    def test_flow_allocates_no_cube(self):
        # The generic route's products X[l, k, k'] alone are an n x n x n
        # array; the whole flow's peak stays below one.
        n = 48
        k = np.arange(n)
        q = 0.11 + 3.1 / n * k + 0.01j * np.sin(k)
        P = 0.05 * np.cos(k)
        conf = lax.rs_config(q, P, 0.08 + 0.03j, elliptic.trig_lattice())
        start = dynamics.PhasePoint(q, P)
        # Fill the layout caches first.
        dynamics.integrate(SPEC1, start, conf, 2e-4, 1e-4)
        tracemalloc.start()
        try:
            dynamics.integrate(SPEC1, start, conf, 3e-4, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n**3


class TestPermutationCovariance:
    @given(
        kind=st.sampled_from(["elliptic", "trig", "rational"]),
        n=st.integers(2, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_relabelled_particles(self, kind, n, seed):
        # Relabelling the particles by a permutation pi conjugates each Lax
        # matrix by the permutation matrix, leaves H unchanged and permutes
        # the field's components.
        rng = np.random.default_rng(seed)
        lat, q, P, hbar = drawn_point(rng, kind, n)
        pi = rng.permutation(n)
        conf = lax.rs_config(q, P, hbar, lat)
        relabelled = lax.rs_config(q[pi], P[pi], hbar, lat)

        def assert_close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        z, lam = 0.31 + 0.43j, 0.23 + 0.11j
        for build, pt in [
            (lax.hasegawa_lax, z), (lax.composition_lax, z), (lax.ruijsenaars_lax, lam)
        ]:
            L = build(conf, pt).entries
            assert_close(build(relabelled, pt).entries, L[np.ix_(pi, pi)])
        for spec in [
            dynamics.HamiltonianSpec("trace_power", 2),
            dynamics.HamiltonianSpec("hitchin", 2),
            dynamics.HamiltonianSpec("rs_cosh"),
        ]:
            H = dynamics.hamiltonian(spec, conf)
            assert_close(dynamics.hamiltonian(spec, relabelled), H)
            dq, dp = dynamics.hamiltonian_vector_field(spec, dynamics.PhasePoint(q, P), conf)
            field = dynamics.hamiltonian_vector_field(
                spec, dynamics.PhasePoint(q[pi], P[pi]), relabelled
            )
            assert_close(np.concatenate(field), np.concatenate([dq[pi], dp[pi]]))


class TestIntegrate:
    def test_spectral_and_energy_drift_small(self):
        conf = mild_conf()
        start = dynamics.PhasePoint(conf.q, conf.P)
        traj = dynamics.integrate(SPEC1, start, conf, t_end=0.2, dt=2e-3)
        assert max(traj.spectral_drift) < 1e-7
        H0 = dynamics.hamiltonian(SPEC1, conf)
        conf1 = lax.rs_config(traj.points[-1].q, traj.points[-1].p, conf.hbar, LAT)
        H1 = dynamics.hamiltonian(SPEC1, conf1)
        assert abs(H1 - H0) < 1e-9 * max(1.0, abs(H0))

    def test_theta_coordinates_match_p_coordinates(self):
        conf = mild_conf()
        start = dynamics.PhasePoint(conf.q, conf.P)
        t1 = dynamics.integrate(SPEC1, start, conf, 0.1, 2e-3, coordinates="p")
        t2 = dynamics.integrate(SPEC1, start, conf, 0.1, 2e-3, coordinates="theta")
        qa, qb = np.array(t1.points[-1].q), np.array(t2.points[-1].q)
        pa, pb = np.array(t1.points[-1].p), np.array(t2.points[-1].p)
        assert np.max(np.abs(qa - qb)) < 1e-8
        assert np.max(np.abs(pa - pb)) < 1e-8

    def test_free_particle_linear_motion(self):
        q = [0.1]
        p = [0.3]
        conf = lax.rs_config(q, p, 0.0, LAT)
        traj = dynamics.integrate(SPEC1, dynamics.PhasePoint(q, p), conf, 0.1, 1e-3)
        qT = traj.points[-1].q[0]
        assert abs(qT - (0.1 + 0.1 * np.exp(0.3))) < 1e-9

    def test_collision_carries_partial_trajectory(self):
        # Two particles closer than the collision margin at the start.
        q = [0.1, 0.1 + 5e-5]
        p = [0.0, 0.0]
        conf = lax.rs_config(q, p, 0.02, LAT)
        with pytest.raises(CollisionImminent) as exc:
            dynamics.integrate(SPEC1, dynamics.PhasePoint(q, p), conf, 0.5, 1e-3)
        assert exc.value.trajectory is not None

    def test_collision_below_distinctness_tolerance_carries_trajectory(self):
        # 5e-7 is also below RSConfig's distinctness tolerance, so conf is
        # built at other positions; integrate reads only its coupling and
        # lattice.
        p = [0.0, 0.0]
        start = dynamics.PhasePoint([0.1, 0.1 + 5e-7], p)
        conf = lax.rs_config([0.1, 0.6], p, 0.02, LAT)
        with pytest.raises(CollisionImminent) as exc:
            dynamics.integrate(SPEC1, start, conf, 0.5, 1e-3)
        assert exc.value.trajectory.points == [start]

    def test_point_of_another_size_is_rejected(self):
        # A 2-position point with a 3-particle configuration ended in a bare
        # IndexError from the plan's layout.
        point = dynamics.PhasePoint([0.1, 0.4], [0.0, 0.0])
        match = "has 2 particles but the configuration has 3"
        with pytest.raises(DegenerateConfiguration, match=f"the phase point {match}"):
            dynamics.hamiltonian_vector_field(SPEC1, point, mild_conf())
        with pytest.raises(DegenerateConfiguration, match=f"the start {match}"):
            dynamics.integrate(SPEC1, point, mild_conf(), 0.01, 1e-3)

    def test_drift_matches_spectra_optimally(self):
        # Greedy nearest-neighbour matching pairs 0 with 0.3, leaving 0.5
        # with -0.3 (0.8).
        assert dynamics._match_drift([0.0, 0.5], [0.3, -0.3]) == 0.3

    def test_trig_kind_flow(self):
        lat = elliptic.trig_lattice()
        q = [0.3, 1.2, 2.1]
        P = [0.1, -0.05, 0.02]
        conf = lax.rs_config(q, P, 0.09, lat)
        traj = dynamics.integrate(SPEC1, dynamics.PhasePoint(q, P), conf, 0.1, 2e-3)
        assert max(traj.spectral_drift) < 1e-7


class TestFlowLoop:
    """What integrate evaluates per step, how it pairs spectra, and how a
    stage that leaves the flow's domain ends it."""

    # (lax_family, the Jacobian factory its flow uses)
    @pytest.mark.parametrize(
        "lax_family,factory",
        [
            ("hasegawa", "_HasegawaPlan"),
            ("composition", "_HasegawaPlan"),
            ("ruijsenaars", "_RuijsenaarsPlan"),
        ],
    )
    @pytest.mark.parametrize("coordinates", ["p", "theta"])
    def test_four_lax_evaluations_per_step(self, monkeypatch, lax_family, factory, coordinates):
        made, evaluations = [], []
        original = getattr(lax, factory)

        def counting(conf, z):
            made.append(z)
            plan = original(conf, z)

            class Counted:
                # A stage begins with one reduce of its arguments, for H =
                # Tr L on the Hasegawa form too.  The plan's other
                # attributes, its batched Lax build for the spectra among
                # them, pass through uncounted.
                def reduce(self, q, diagonal):
                    evaluations.append(q)
                    return plan.reduce(q, diagonal)

                def __getattr__(self, name):
                    return getattr(plan, name)

            return Counted()

        def forbidden(*args, **kwargs):
            raise AssertionError("integrate called a Lax builder")

        monkeypatch.setattr(lax, factory, counting)
        for name in ("hasegawa_lax", "composition_lax", "ruijsenaars_lax"):
            monkeypatch.setattr(lax, name, forbidden)
        conf = mild_conf()
        spec = dynamics.HamiltonianSpec("trace_power", 1, lax_family)
        start = dynamics.PhasePoint(conf.q, conf.P)
        traj = dynamics.integrate(spec, start, conf, 0.02, 2e-3, coordinates)
        assert len(traj.times) == 11
        assert len(made) == 1
        # One stage at the start, in either coordinate system: the spectra
        # are taken at the recorded start.p apart from the stages.
        assert len(evaluations) == 4 * 10 + 1

    @pytest.mark.parametrize(
        "family,mu,flow_constants,at_start,per_step,spectra",
        [
            # sigma and sigma' at [hbar, z, z + hbar]; then one series per
            # stage over the 2n(n - 1) arguments of the factors of diag L;
            # then one series over the n^2 + 2n(n - 1) arguments of L at
            # each of the 11 accepted points, for their spectra, all in one
            # block.
            ("trace_power", None, [3], [12], [12] * 4, [11 * 21]),
            # sigma at [lam, mu]; then one series per stage over the 2n^2 +
            # 2n(n - 1) arguments, f among them; the spectra are those of
            # the stages' L.
            ("rs_cosh", 0.09 + 0.02j, [2], [30], [30] * 4, []),
        ],
    )
    def test_theta_series_calls_per_stage(
        self, monkeypatch, family, mu, flow_constants, at_start, per_step, spectra
    ):
        sizes = []
        series = elliptic._theta1_sums

        def counted(xr, *rest):
            sizes.append(np.size(xr))
            return series(xr, *rest)

        monkeypatch.setattr(elliptic, "_theta1_sums", counted)
        conf = mild_conf()
        if mu is not None:
            conf = lax.rs_config(conf.q, conf.P, conf.hbar, LAT, mu=mu)
        spec = dynamics.HamiltonianSpec(family, 1)
        start = dynamics.PhasePoint(conf.q, conf.P)
        dynamics.integrate(spec, start, conf, 0.02, 2e-3)
        # No step reads the rates of the last accepted point: there the Tr L
        # route makes no series, and the rs_cosh route builds L only: one
        # series (sigma, no sigma') over its 2n^2 + 2n(n - 1) arguments.
        stages = (at_start + per_step * 10)[: -len(at_start)]
        at_last = [] if family == "trace_power" else [30]
        assert sizes == flow_constants + stages + at_last + spectra

    @pytest.mark.parametrize(
        "family,mu,method",
        [("trace_power", None, "trace"), ("rs_cosh", 0.09 + 0.02j, "jacobian")],
    )
    def test_last_point_evaluates_no_rates(self, monkeypatch, family, mu, method):
        # No step reads the rates of the last accepted point: 4 stages for
        # each of the 10 steps, and the last point's checks only.  L is built
        # once apart from the stages: by the Tr L route for the spectra of
        # its block, by the rs_cosh route at the last point.
        base = mild_conf()
        conf = lax.rs_config(base.q, base.P, base.hbar, LAT, mu=mu)
        spec = dynamics.HamiltonianSpec(family, 1)
        _, plan_class, _ = dynamics._lax_form(spec)
        calls, matrices, inverses = [], [], []
        plan_method, matrix, inverse = getattr(plan_class, method), plan_class.matrix, dynamics._inverse

        def counted(plan, args, P):
            calls.append(args.x.size)
            return plan_method(plan, args, P)

        def counted_matrix(plan, q, P):
            matrices.append(q.shape)
            return matrix(plan, q, P)

        def counted_inverse(L, P):
            inverses.append(L.shape)
            return inverse(L, P)

        monkeypatch.setattr(plan_class, method, counted)
        monkeypatch.setattr(plan_class, "matrix", counted_matrix)
        monkeypatch.setattr(dynamics, "_inverse", counted_inverse)
        start = dynamics.PhasePoint(conf.q, conf.P)
        traj = dynamics.integrate(spec, start, conf, 0.02, 2e-3)
        assert len(traj.times) == 11
        assert len(calls) == 4 * 10 and len(matrices) == 1
        if family == "trace_power":
            assert not inverses and matrices == [(3, 11)]
        else:
            assert len(inverses) == 4 * 10 and matrices == [(3,)]

    @pytest.mark.parametrize(
        "family,lax_family,mu,flow_constants",
        [
            # None: the plan tests z (or lam and mu) once per flow, from the
            # reduction of its constants.  A stage's collision test rounds
            # the coordinates its sigma pass uses, with no call.
            ("trace_power", "hasegawa", None, []),
            # A stage's q_i - q_j + mu pole test rounds its own coordinates too.
            ("rs_cosh", "hasegawa", 0.09 + 0.02j, []),
            ("trace_power", "ruijsenaars", 0.09 + 0.02j, []),
        ],
    )
    def test_no_lattice_distance_call_per_stage(
        self, monkeypatch, family, lax_family, mu, flow_constants
    ):
        conf = mild_conf()
        if mu is not None:
            conf = lax.rs_config(conf.q, conf.P, conf.hbar, LAT, mu=mu)
        sizes = []
        distance = elliptic.lattice_distance

        def counted(z, lat):
            sizes.append(np.size(z))
            return distance(z, lat)

        monkeypatch.setattr(elliptic, "lattice_distance", counted)
        spec = dynamics.HamiltonianSpec(family, 1, lax_family)
        start = dynamics.PhasePoint(conf.q, conf.P)
        traj = dynamics.integrate(spec, start, conf, 0.02, 2e-3)
        assert len(traj.times) == 11
        assert sizes == flow_constants

    def test_fast_drift_pairing_equals_optimal_assignment(self, monkeypatch):
        import scipy.optimize

        assignment = scipy.optimize.linear_sum_assignment
        fallbacks = []

        def counted(cost):
            fallbacks.append(cost.shape[0])
            return assignment(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
        rng = np.random.default_rng(20261018)
        trials = 400
        for trial in range(trials):
            n = int(rng.integers(1, 17))
            ev0 = rng.normal(size=n) + 1j * rng.normal(size=n)
            if n > 1 and trial % 3 == 0:
                # Near-degenerate: one pair of ev0 1e-9 to 1e-3 apart.
                gap = 10.0 ** rng.uniform(-9, -3) * np.exp(2j * np.pi * rng.uniform())
                ev0[1] = ev0[0] + gap
            noise = 10.0 ** rng.uniform(-13, 0)
            ev = rng.permutation(ev0) + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))
            d = ev0[:, None] - ev[None, :]
            cost = np.hypot(d.real, d.imag)
            rows, cols = assignment(cost)
            assert dynamics._match_drift(ev0, ev) == float(cost[rows, cols].max())
        # Both the nearest-neighbour pairing and the fallback were taken.
        assert 0 < len(fallbacks) < trials

    def test_flow_does_not_import_scipy_optimize(self, tmp_path):
        cfg = tmp_path / "e.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "command": "evolve",
                    "output_dir": str(tmp_path / "out"),
                    "params": {
                        "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.0, "im": 2.5}},
                        "q": [0.12, 0.48, 0.83],
                        "P": [0.12, -0.1, 0.05],
                        "hbar": {"re": 0.08, "im": 0.03},
                        "t_end": 0.01,
                        "dt": 0.002,
                    },
                }
            )
        )
        code = (
            "import sys\n"
            "from rslax import cli\n"
            f"code = cli.main(['evolve', '--config', {str(cfg)!r}])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(rslax.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-2:] == ["0", "False"]

    @pytest.mark.parametrize(
        "q,message",
        [
            ([0.1, 0.1 + 5e-5], "positions 0 and 1 are 5.000e-05 apart"),
            ([0.1, 0.45, 0.45 + 3e-5], "positions 1 and 2 are 3.000e-05 apart"),
        ],
    )
    def test_collision_names_the_closest_pair(self, q, message):
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        P = [0.0] * len(q)
        conf = lax.rs_config(q, P, 0.02, lat)
        with pytest.raises(CollisionImminent, match=message) as exc:
            dynamics.integrate(SPEC1, dynamics.PhasePoint(q, P), conf, 0.5, 1e-3)
        assert exc.value.trajectory.times == [0.0]

    @pytest.mark.parametrize(
        "q,P,move",
        [((0.1, 0.103), (0.1, -0.1), "3.392e-01"), ((0.0, 0.003), (0.05, 0.0), "1.456e-01")],
    )
    def test_step_too_large_for_the_separation(self, q, P, move):
        # Without the guard, the first flow ends on a non-finite Lax matrix
        # and the second completes with a spectral drift of 0.48.
        conf = lax.rs_config(q, P, 0.08 + 0.03j, LAT)
        spec = dynamics.HamiltonianSpec("hitchin", 1)
        message = (
            f"step 1: dt = 0.001 moves a position by {move}, more than half "
            "the smallest separation 3.000e-03 of its stage"
        )
        with pytest.raises(StepTooLarge, match=message) as exc:
            dynamics.integrate(spec, dynamics.PhasePoint(q, P), conf, 0.1, 1e-3)
        assert exc.value.trajectory.times == [0.0]

    def test_non_finite_lax_matrix_ends_as_collision(self):
        q, P = [0.1, 0.45], [800.0, -0.07]
        conf = lax.rs_config(q, P, 0.08 + 0.03j, LAT)
        with pytest.raises(CollisionImminent, match="the Lax matrix is not finite") as exc:
            dynamics.integrate(SPEC1, dynamics.PhasePoint(q, P), conf, 0.1, 1e-3)
        assert exc.value.trajectory.times == [0.0]
        assert str(exc.value) == (
            "the Lax matrix is not finite at step 0: exp(P_0) overflows (Re P_0 = 800)"
        )

    @pytest.mark.parametrize("spec", [SPEC1, dynamics.HamiltonianSpec("rs_cosh", 1)])
    def test_non_finite_field_names_the_overflowing_exponent(self, spec):
        q, P = [0.1, 0.45], [-0.07, 800.0]
        conf = lax.rs_config(q, P, 0.08 + 0.03j, LAT)
        message = "the Lax matrix is not finite: exp(P_1) overflows (Re P_1 = 800)"
        with pytest.raises(CollisionImminent) as exc:
            dynamics.hamiltonian_vector_field(spec, dynamics.PhasePoint(q, P), conf)
        assert str(exc.value) == message

    @staticmethod
    def overflowing_flow():
        """A flow of Tr L whose L first leaves the doubles at step 53, off
        its diagonal: the second position climbs the imaginary axis, where
        sin(z + hbar + q_0 - q_1) overflows (Im z = -5) while every factor
        of diag L stays finite.  Its stages read only diag L, so they pass
        the point, and the flow freezes there once sigma(z) sigma(q_1 -
        q_0) overflows too."""
        q = [0.0, 0.5 + 705.0j]
        P = [np.log(5) - 0.5j * np.pi, np.log(5) + (0.5 * np.pi - 0.16) * 1j]
        conf = lax.rs_config(q, P, 0.08 + 0.03j, elliptic.trig_lattice())
        spec = dynamics.HamiltonianSpec("trace_power", 1, eval_z=0.31 - 5j)
        return spec, dynamics.PhasePoint(q, P), conf

    def test_first_non_finite_point_ends_the_flow(self):
        spec, start, conf = self.overflowing_flow()
        with pytest.raises(CollisionImminent) as exc:
            dynamics.integrate(spec, start, conf, 0.1, 1e-3)
        traj = exc.value.trajectory
        assert str(exc.value) == "the Lax matrix is not finite at step 53"
        assert len(traj.times) == len(traj.points) == len(traj.spectral_drift) == 53
        last = traj.points[-1]
        at_last = lax.rs_config(last.q, last.p, conf.hbar, conf.lat)
        assert np.isfinite(lax.hasegawa_lax(at_last, spec.eval_z).entries).all()
        # One more step from the last point reaches the point at fault.
        with pytest.raises(CollisionImminent, match="not finite at step 1$") as exc:
            dynamics.integrate(spec, last, conf, 1e-3, 1e-3)
        assert exc.value.trajectory.points == [last]

    @pytest.mark.parametrize("later", [CollisionImminent, StepTooLarge])
    def test_non_finite_point_precedes_a_later_stage_error(self, monkeypatch, later):
        # The stages pass step 53 and run on; one of step 80 fails.  The
        # flow still ends at the point whose L is not finite.
        spec, start, conf = self.overflowing_flow()
        field, raised = dynamics._field, []

        def failing(*args):
            if args[-1] == 80:
                raised.append(args[-1])
                raise later("a later stage error")
            return field(*args)

        monkeypatch.setattr(dynamics, "_field", failing)
        with pytest.raises(CollisionImminent) as exc:
            dynamics.integrate(spec, start, conf, 0.1, 1e-3)
        assert raised == [80]
        assert type(exc.value) is CollisionImminent
        assert str(exc.value) == "the Lax matrix is not finite at step 53"
        assert len(exc.value.trajectory.times) == 53

    def test_non_finite_stage_ends_as_collision(self):
        # An RK4 stage of this near-collision throws the momenta to inf.
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        q, P = [0.1, 0.1002], [0.0, 0.3]
        conf = lax.rs_config(q, P, 0.08 + 0.03j, lat)
        with np.errstate(all="ignore"), pytest.raises(CollisionImminent) as exc:
            dynamics.integrate(SPEC1, dynamics.PhasePoint(q, P), conf, 0.2, 2e-3)
        traj = exc.value.trajectory
        assert traj.points and all(
            np.all(np.isfinite(pt.q)) and np.all(np.isfinite(pt.p)) for pt in traj.points
        )


class TestSpectra:
    """A flow's spectral drift, taken in batches of accepted points, against
    a point-by-point oracle; and its positions against the exact rational
    flow, over flows of many blocks."""

    SPECS = {
        "trace": SPEC1,
        "trace_power_2": dynamics.HamiltonianSpec("trace_power", 2),
        "hitchin": dynamics.HamiltonianSpec("hitchin", 1),
        "rs_cosh": dynamics.HamiltonianSpec("rs_cosh", 1),
    }

    @staticmethod
    def flow(spec, kind, n, steps, coordinates):
        """(conf, the trajectory, partial where a stage ends the flow)."""
        step = {"elliptic": 0.9 / n, "trig": 2.7 / n, "rational": 0.7}[kind]
        k = np.arange(n)
        q = 0.11 + step * k + 0.03j * np.sin(k + 1)
        P = 0.1 * np.cos(k + 0.5) - 0.04j * np.sin(2 * k + 1)
        conf = lax.rs_config(q, P, 0.08 + 0.03j, LATTICES[kind])
        start = dynamics.PhasePoint(q, P)
        try:
            traj = dynamics.integrate(spec, start, conf, steps * 1e-3, 1e-3, coordinates)
        except CollisionImminent as exc:
            traj = exc.trajectory
        return conf, traj

    def assert_drifts(self, spec, kind, conf, traj):
        build = dynamics._lax_form(spec)[0]
        ref = oracles.flow_drift_reference(build, spec.eval_z, conf, traj.points)
        if spec == SPEC1 and kind != "elliptic":
            # The same L, from the same sigma values.
            assert traj.spectral_drift == ref
        # On the elliptic kind the public builder's theta series rounds
        # apart from a stage's (elliptic._theta1_sums), and a stage's L from
        # its Jacobian route; in theta coordinates the start's L of such a
        # stage is taken at log(exp(p)).  The eigenvalues of the elliptic
        # n = 16 matrices (entries up to 5e3) move by 3e-13 with that
        # rounding, so the bound scales with the spectrum.
        scale = max(1.0, float(np.abs(np.linalg.eigvals(build(conf, spec.eval_z).entries)).max()))
        assert np.max(np.abs(np.subtract(traj.spectral_drift, ref))) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("family", list(SPECS))
    def test_drift_matches_point_by_point_oracle(self, kind, n, family):
        spec = self.SPECS[family]
        for coordinates in COORDS:
            conf, traj = self.flow(spec, kind, n, 3, coordinates)
            self.assert_drifts(spec, kind, conf, traj)

    @pytest.mark.parametrize(
        "family,kind,n,steps",
        [("trace", "elliptic", 8, 60), ("trace", "trig", 16, 15), ("rs_cosh", "trig", 5, 100)],
    )
    def test_drift_across_blocks_matches_oracle(self, family, kind, n, steps):
        spec = self.SPECS[family]
        for coordinates in COORDS:
            conf, traj = self.flow(spec, kind, n, steps, coordinates)
            plan = dynamics._lax_form(spec)[1](conf, spec.eval_z)
            assert len(traj.times) == steps + 1 > dynamics._BLOCK_ARGS // plan.c.size
            self.assert_drifts(spec, kind, conf, traj)

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("coordinates", COORDS)
    def test_rational_flow_matches_exact_solution(self, n, coordinates):
        # 1001 points: 3 blocks at n = 3 and 22 at n = 8.
        k = np.arange(n)
        q0 = 0.7 * k + 0.05j * np.sin(k + 1)
        P0 = 0.1 * np.cos(k + 0.5) - 0.05j * np.sin(2 * k + 1)
        hbar = 0.3 + 0.1j
        conf = lax.rs_config(q0, P0, hbar, elliptic.rational_lattice())
        start = dynamics.PhasePoint(q0, P0)
        traj = dynamics.integrate(SPEC1, start, conf, 1.0, 1e-3, coordinates)
        assert len(traj.times) == 1001
        from scipy.optimize import linear_sum_assignment

        for i in (250, 500, 1000):
            exact = oracles.rational_trace_flow(q0, P0, hbar, SPEC1.eval_z, traj.times[i])
            cost = np.abs(np.array(traj.points[i].q)[:, None] - exact[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-11 * max(1.0, np.abs(exact).max())
        assert max(traj.spectral_drift) < 1e-10
