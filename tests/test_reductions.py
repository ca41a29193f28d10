"""Tests for the moment-map reductions: the four solvers, their residuals,
the position/action duality map and its involution, and the determinant
identity for the multiplicative (trig RS) reduction.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rslax import elliptic, lax, reductions
from rslax.errors import DegenerateConfiguration, NoSolution, SingularMatrix, SingularY

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

    def test_singular_member_of_a_dual_pair_is_named(self):
        # dualize keeps the kind rational_rs, but the dual X is the spectrum
        # of the old Y, here [[0]]: moment_residual ended in a bare
        # LinAlgError("Singular matrix").
        orbit = reductions.OrbitSpec(g=0.4)
        dual = reductions.dualize(reductions.solve_rational_rs([0.3], orbit, [0.0]))
        assert dual.kind == "rational_rs" and np.array_equal(dual.X, [[0.0]])
        with pytest.raises(SingularMatrix) as exc:
            reductions.moment_residual(dual, orbit)
        assert str(exc.value) == (
            "X of the rational_rs pair is singular; its moment residual is undefined"
        )


class TestArguments:
    @pytest.mark.parametrize(
        "solve,args,name",
        [
            (reductions.solve_rational_cm, ([0, 1, 2], [1, 2], ORB), "p"),
            (reductions.solve_trig_cm, ([0, 1, 2], ORB, [1, 1]), "gauge"),
            (reductions.solve_trig_cm, ([0, 1], reductions.OrbitSpec(g=0.0), [1]), "gauge"),
            (reductions.solve_rational_rs, ([0.1, 0.5], ORB, [0.0]), "diag_free"),
            (
                reductions.solve_trig_rs,
                ([0.1, 0.5], reductions.OrbitSpec(u=(1, 0), v=(0,)), [1, 1]),
                "v",
            ),
            (reductions.solve_rational_cm, ([], [], ORB), "q"),
            (reductions.solve_trig_cm, ([], ORB, []), "q"),
            (reductions.solve_rational_rs, ([], ORB, []), "theta"),
            (reductions.solve_trig_rs, ([], reductions.OrbitSpec(), []), "theta"),
            (reductions.solve_rational_cm, ([[0, 1]], [[1, 2]], ORB), "q"),
        ],
    )
    def test_lengths_are_checked_first(self, solve, args, name):
        # These ended in bare IndexError, ValueError or LinAlgError.
        with pytest.raises(DegenerateConfiguration, match=f"^{name} must be a vector of length n >= 1"):
            solve(*args)


def _draw(seed, kind, n, twist):
    """Arguments of a solver of the given kind: random, or with the twist
    (coincident, resonant or degenerate data) applied."""
    rng = np.random.default_rng(seed)

    def cnormal(size, scale=1.0):
        return scale * (rng.normal(size=size) + 1j * rng.normal(size=size))

    g = complex(0.7 + 0.3 * cnormal(1)[0])
    if kind in ("rational_cm", "trig_cm"):
        q = np.sort(rng.normal(size=n)) * 1.4 + 0.3j * rng.normal(size=n)
        if twist == 1 and n > 1:
            q[-1] = q[0] + (0.0 if seed % 2 else 5e-11)
        if twist == 2 and n > 1:  # q_i = q_0 + i g: resonant pairs
            q[: n // 2 + 1] = q[0] + g * np.arange(n // 2 + 1)
        if twist == 3:
            g = 0.0
        if kind == "rational_cm":
            return q, cnormal(n), reductions.OrbitSpec(g=g)
        return q, reductions.OrbitSpec(g=g), 1.0 + 0.1 * cnormal(n)
    theta = cnormal(n, 0.6)
    if twist == 1 and n > 1:  # equal exp(theta), or exp(theta_1 - theta_0) near 1
        theta[1] = theta[0] + (2j * np.pi if seed % 2 else 1e-9)
        theta[0] += 0 if seed % 2 else 10.0
        theta[1] += 0 if seed % 2 else 10.0
    d = rng.normal(size=n) * (twist != 3)
    if kind == "rational_rs":
        return theta, reductions.OrbitSpec(g=g), d
    u, v = np.zeros(n), cnormal(n)
    u[0], v[0] = 1.0, 0.0  # the solvable stratum
    if twist == 2:  # generic framing: v^T u != 0
        u = cnormal(n)
    if twist == 4:  # 1 + v^T u = 0
        u = cnormal(n)
        v = -u / np.dot(u, u)
    if twist == 5 and n > 1:  # column 0's closure vanishes: w_0 is free
        u, v = np.zeros(n, dtype=complex), cnormal(n)
        u[1] = 1.0
        v[1] = np.exp(theta[1] - theta[0]) - 1.0
        v[2:] = 0.0
        d[0] *= seed % 2
    return theta, reductions.OrbitSpec(u=u, v=v), d


def _outcomes(solve, moment_residual, dualize, args, orbit):
    """Bytes of the pair, its residual, its dual and the dual's residual, or
    the type and message of the first exception."""
    out = []
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            pair = solve(*args)
            out.append((pair.X.tobytes(), pair.Y.tobytes(), pair.kind))
            out.append(np.float64(moment_residual(pair, orbit)).tobytes())
            dual = dualize(pair)
            out.append((dual.X.tobytes(), dual.Y.tobytes(), dual.kind))
            out.append(np.float64(moment_residual(dual, orbit)).tobytes())
    except Exception as exc:  # noqa: BLE001 - numpy's errors are compared too
        out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("twist", range(6))
@pytest.mark.parametrize("kind", ["rational_cm", "trig_cm", "rational_rs", "trig_rs"])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_array_forms_match_the_entrywise_references(kind, twist, seed, n):
    args = _draw(seed, kind, n, twist)
    orbit = next(a for a in args if isinstance(a, reductions.OrbitSpec))
    new = (getattr(reductions, f"solve_{kind}"), reductions.moment_residual, reductions.dualize)
    ref = (
        getattr(oracles, f"solve_{kind}_reference"),
        oracles.moment_residual_reference,
        oracles.dualize_reference,
    )
    assert _outcomes(*new, args, orbit) == _outcomes(*ref, args, orbit)
