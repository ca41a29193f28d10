"""Tests for the moment-map reductions: the four solvers, their residuals,
the position/action duality map and its involution, and the determinant
identity for the multiplicative (trig RS) reduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslax import elliptic, lax, reductions
from rslax.errors import DegenerateConfiguration, NoSolution, SingularY

ORB = reductions.OrbitSpec(g=0.7 + 0.2j)


class TestRationalCM:
    def test_commutator_structure(self):
        q = np.array([0.0, 1.1, 2.3]) + 0.1j * np.array([1, -1, 0.5])
        p = np.array([0.4, -0.2, 0.1])
        pair = reductions.solve_rational_cm(q, p, ORB)
        assert reductions.moment_residual(pair, ORB) < 1e-12

    def test_y_matches_spectral_free_cm_lax(self):
        q = [0.0, 1.0, 2.5]
        p = [0.3, -0.2, 0.1]
        g = 0.7
        orb = reductions.OrbitSpec(g=g)
        pair = reductions.solve_rational_cm(q, p, orb)
        conf = lax.cm_config(q, p, g, elliptic.rational_lattice())
        L = lax.cm_lax(conf, None).entries
        assert np.array_equal(pair.Y, L)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        q = np.sort(rng.normal(size=n)) * 1.5 + 1j * 0.2 * rng.normal(size=n)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        pair = reductions.solve_rational_cm(q, p, ORB)
        assert reductions.moment_residual(pair, ORB) < 1e-10


class TestTrigCM:
    def test_generic_configuration(self):
        rng = np.random.default_rng(7)
        q = np.sort(rng.normal(size=4)) * 1.3 + 0.2j * rng.normal(size=4)
        pair = reductions.solve_trig_cm(q, ORB, np.ones(4))
        assert reductions.moment_residual(pair, ORB) < 1e-10
        assert np.max(np.abs(np.diag(pair.X) - 1.0)) < 1e-12

    def test_resonant_pair_still_solvable(self):
        # q_2 = q_1 + g: the Cauchy-type column entry degenerates; the
        # solver frees that entry and renormalizes the affected column.
        orb = reductions.OrbitSpec(g=1.0)
        pair = reductions.solve_trig_cm([0.0, 1.0], orb, [1.0, 1.0])
        assert reductions.moment_residual(pair, orb) < 1e-12

    def test_zero_coupling_gives_diagonal_gauge(self):
        orb = reductions.OrbitSpec(g=0.0)
        gauge = [1.0, 2.0, 3.0]
        pair = reductions.solve_trig_cm([0.1, 0.7, 1.4], orb, gauge)
        assert np.array_equal(pair.X, np.diag(np.asarray(gauge, dtype=complex)))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        q = np.sort(rng.normal(size=n)) * 1.4 + 0.3j * rng.normal(size=n)
        pair = reductions.solve_trig_cm(q, ORB, np.ones(n))
        assert reductions.moment_residual(pair, ORB) < 1e-10


class TestRationalRS:
    def test_residual(self):
        rng = np.random.default_rng(2)
        th = rng.normal(size=3) + 0.3j * rng.normal(size=3)
        orb = reductions.OrbitSpec(g=0.4)
        pair = reductions.solve_rational_rs(th, orb, rng.normal(size=3))
        assert reductions.moment_residual(pair, orb) < 1e-10

    def test_degenerate_rapidities_rejected(self):
        orb = reductions.OrbitSpec(g=0.4)
        with pytest.raises(DegenerateConfiguration):
            reductions.solve_rational_rs([0.1, 0.1], orb, [0.0, 0.0])


class TestTrigRS:
    U = np.array([1.0, 0.0, 0.0])
    V = np.array([0.0, 0.7, -0.3])
    TH = np.array([0.3 + 0.1j, 1.1 - 0.2j, -0.7 + 0.05j])

    def orbit(self):
        return reductions.OrbitSpec(g=0.0, u=self.U, v=self.V)

    def test_residual(self):
        pair = reductions.solve_trig_rs(self.TH, self.orbit(), [0.9, 1.2, -0.4])
        assert reductions.moment_residual(pair, self.orbit()) < 1e-10

    def test_det_identity(self):
        pair = reductions.solve_trig_rs(self.TH, self.orbit(), [0.9, 1.2, -0.4])
        X, Y = pair.X, pair.Y
        d = np.linalg.det(X @ Y @ np.linalg.inv(X) @ np.linalg.inv(Y))
        assert abs(d - (1.0 + self.V @ self.U)) < 1e-10

    def test_u_zero_orbit_is_identity(self):
        orb = reductions.OrbitSpec(g=0.0, u=np.zeros(3), v=self.V)
        pair = reductions.solve_trig_rs(self.TH, orb, [0.9, 1.2, -0.4])
        X, Y = pair.X, pair.Y
        M = X @ Y @ np.linalg.inv(X) @ np.linalg.inv(Y)
        assert np.max(np.abs(M - np.eye(3))) < 1e-12

    def test_inconsistent_framing_rejected(self):
        # A diagonal X forces v^T u = 0; generic u, v with v^T u != 0 has no
        # solution on this gauge slice.
        u = np.array([1.0, 0.5, 0.2])
        v = np.array([0.3, -0.4, 0.6])
        orb = reductions.OrbitSpec(g=0.0, u=u, v=v)
        with pytest.raises(NoSolution):
            reductions.solve_trig_rs(self.TH, orb, [0.9, 1.2, -0.4])

    def test_singular_y_test_ignores_the_row_scale(self):
        # Y's first row is 1e7 times the others, but Y divided by its row
        # maxima has cond 1: a test of det Y raised SingularY.
        theta = [0.1 + 0.05j, -0.4 + 0.2j, 0.7 - 0.1j]
        orb = reductions.OrbitSpec(u=(1, 0, 0), v=(0, 0.4, -0.3))
        pair = reductions.solve_trig_rs(theta, orb, [1e7, 1, 1])
        assert reductions.moment_residual(pair, orb) < 1e-10
        # A zero diagonal entry leaves Y singular at any row scale.
        with pytest.raises(SingularY):
            reductions.solve_trig_rs(theta, orb, [0, 1, 1])


class TestDualize:
    def test_involution_on_positions(self):
        q = np.array([0.0, 1.1, 2.3, 3.6]) + 0.1j * np.array([1, -1, 0.5, 0.2])
        p = np.array([0.4, -0.2, 0.1, 0.05]) + 0.2j * np.array([1, 2, -1, 0.3])
        pair = reductions.solve_rational_cm(q, p, ORB)
        dd = reductions.dualize(reductions.dualize(pair))
        orig = np.sort_complex(np.diag(pair.X))
        back = np.sort_complex(np.diag(dd.X))
        assert np.max(np.abs(orig - back)) < 1e-8

    def test_dual_pair_stays_on_orbit(self):
        q = np.array([0.0, 1.1, 2.3]) + 0.1j * np.array([1, -1, 0.5])
        p = np.array([0.4, -0.2, 0.1]) + 0.2j * np.array([1, 2, -1])
        pair = reductions.solve_rational_cm(q, p, ORB)
        dual = reductions.dualize(pair)
        assert reductions.moment_residual(dual, ORB) < 1e-8

    def test_spectrum_preserved(self):
        # The spectrum of the full member is carried onto the dual's diagonal
        # member exactly (conjugation invariance), and the old diagonal's
        # spectrum becomes the dual full member's spectrum.
        q = np.array([0.0, 1.1, 2.3]) + 0.1j * np.array([1, -1, 0.5])
        p = np.array([0.4, -0.2, 0.1])
        pair = reductions.solve_rational_cm(q, p, ORB)
        dual = reductions.dualize(pair)
        evY = np.sort_complex(np.linalg.eigvals(pair.Y))
        diag_dual = np.sort_complex(np.diag(dual.X))
        assert np.max(np.abs(evY - diag_dual)) < 1e-9
        ev_dualY = np.sort_complex(np.linalg.eigvals(dual.Y))
        assert np.max(np.abs(ev_dualY - np.sort_complex(q))) < 1e-9
