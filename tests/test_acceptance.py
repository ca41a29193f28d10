"""Acceptance suite: the eleven end-to-end criteria for the toolkit, at
their stated tolerances.

1.  Special functions: sigma quasi-periodicity (1e-9) and the Legendre
    relation (1e-10) on 100 random points x 10 random lattices; the
    Weierstrass wp function equals -(log sigma)'' to 1e-6.
2.  Frobenius determinant vs LU, rel. 1e-8, n <= 6, 200 trials; the minor
    closed form for all (k, l), n <= 5.
3.  Det-ratio shifted inverse-product equals the direct product to 1e-9 on
    100 random theta-entry matrices, n <= 4.
4.  hasegawa_lax == composition_lax entrywise to rel. 1e-7 on 100 random
    configs, n in {2,3,4}, two tau values; coupling-zero collapse to
    diag(e^P) at 1e-12.
5.  Spin matrix with k = 1 unit framing reproduces the spinless matrix
    exactly; the framing dependence is bilinear.
6.  Isospectrality: eigenvalue drift < 1e-6 over t in [0,1], dt = 1e-3,
    n in {2,3}, elliptic and trigonometric kinds; energy drift < 1e-8.
7.  Involution: |{H_i, H_j}| < 1e-6 for i, j <= 3, n = 3, 20 random points.
8.  Degeneration: elliptic-to-trig residual < 1e-8 at Im tau = 20 after the
    gauge fit; residual monotone decreasing for Im tau >= 5.
9.  CM limit: convergence order of (L(h) - I)/h in [0.85, 1.15]; the n = 1
    scalar oracle matches to 1e-6 at h = 1e-4.
10. Reductions: all four moment-map residuals < 1e-10; the rational CM Y
    equals the spectral-free CM Lax matrix exactly; dualize is an involution
    on position multisets to 1e-8; det(X Y X^-1 Y^-1) = 1 + v^T u to 1e-10.
11. CLI: byte-identical reruns under a fixed seed, exit-code contract, and
    schema-valid outputs.
"""

import csv
import json

import numpy as np
import pytest

from rslax import cli, dynamics, elliptic, lax, limits, reductions
from rslax.cauchy import (
    CauchyMatrixSpec,
    build_elliptic_cauchy,
    frobenius_determinant,
    minor_determinant,
    shifted_inverse_product,
)


def random_lattice(rng):
    o1 = 1.0 + 0.2 * rng.normal() + 0.1j * rng.normal()
    ratio = 0.3 * rng.normal() + 1j * (1.3 + abs(rng.normal()))
    return elliptic.lattice_from_periods(o1, o1 * ratio)


def random_cauchy_spec(rng, n, lat):
    qs = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * 0.45
    rs = qs + 0.12 + 0.05j + 0.04 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return CauchyMatrixSpec(tuple(qs), tuple(rs), lat)


def mild_rs_config(rng, n, lat, hbar=0.08 + 0.03j, p_scale=0.15):
    q = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * (
        0.35 if lat.kind == elliptic.KIND_ELLIPTIC else 0.9
    )
    P = p_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return lax.rs_config(q, P, hbar, lat)


class TestCriterion1SpecialFunctions:
    def test_quasi_periodicity_and_legendre(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            lat = random_lattice(rng)
            assert elliptic.legendre_residual(lat) < 1e-10
            z = 0.3 * (rng.normal(size=10) + 1j * rng.normal(size=10))
            for om, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2)):
                lhs = elliptic.sigma(z + om, lat)
                rhs = -np.exp(2 * eta * (z + om / 2)) * elliptic.sigma(z, lat)
                rel = np.max(np.abs(lhs - rhs) / np.abs(rhs))
                assert rel < 1e-9

    def test_wp_is_minus_log_sigma_second_derivative(self):
        rng = np.random.default_rng(102)
        lat = random_lattice(rng)
        h = 1e-4
        for _ in range(10):
            z = 0.25 + 0.1 * rng.normal() + 1j * (0.2 + 0.05 * rng.normal())
            logs = [np.log(elliptic.sigma(z + dz, lat)) for dz in (-h, 0.0, h)]
            fd = -(logs[2] - 2 * logs[1] + logs[0]) / h**2
            assert abs(elliptic.wp(z, lat) - fd) < 1e-6 * max(1.0, abs(fd))


class TestCriterion2FrobeniusDeterminant:
    def test_closed_form_vs_lu_200_trials(self):
        rng = np.random.default_rng(201)
        lam = 0.21 + 0.17j
        for _ in range(200):
            n = int(rng.integers(1, 7))
            lat = random_lattice(rng)
            spec = random_cauchy_spec(rng, n, lat)
            closed = frobenius_determinant(spec, lam)
            lu = np.linalg.det(build_elliptic_cauchy(spec, lam).entries)
            assert abs(closed - lu) < 1e-8 * max(abs(lu), 1e-30)

    def test_minor_formula_all_indices(self):
        rng = np.random.default_rng(202)
        lam = 0.21 + 0.17j
        for n in range(2, 6):
            lat = random_lattice(rng)
            spec = random_cauchy_spec(rng, n, lat)
            F = build_elliptic_cauchy(spec, lam).entries
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    rows = [i for i in range(n) if i != k - 1]
                    cols = [j for j in range(n) if j != l - 1]
                    brute = np.linalg.det(F[np.ix_(rows, cols)])
                    closed = minor_determinant(spec, lam, k, l)
                    assert abs(closed - brute) < 1e-8 * max(abs(brute), 1e-30)


class TestCriterion3ShiftedInverseProduct:
    def test_det_ratio_identity_100_matrices(self):
        rng = np.random.default_rng(301)
        tau = 1.9j
        ch = elliptic.ThetaCharacteristic(0.5, 0.5)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            base = 0.35 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) + 0.4
            slope = rng.normal(size=(n, n)) + 0.5

            def F(z, base=base, slope=slope, n=n):
                args = base + z * slope
                return np.array(
                    [
                        [elliptic.theta_char(ch, args[i, j], tau) for j in range(n)]
                        for i in range(n)
                    ]
                )

            z, u = 0.13 + 0.29j, 0.06 - 0.03j
            direct = shifted_inverse_product(F, z, u, method="solve").entries
            ratio = shifted_inverse_product(F, z, u, method="det_ratio").entries
            assert np.max(np.abs(direct - ratio)) < 1e-9 * max(
                1.0, float(np.max(np.abs(direct)))
            )


class TestCriterion4GeometricLax:
    def test_equivalence_100_configs(self):
        rng = np.random.default_rng(401)
        z = 0.19 + 0.27j
        lats = [
            elliptic.lattice_from_periods(1.0, 0.2 + 2.2j),
            elliptic.lattice_from_periods(1.0, 1.6j),
        ]
        count = 0
        while count < 100:
            n = int(rng.integers(2, 5))
            lat = lats[count % 2]
            conf = mild_rs_config(rng, n, lat, hbar=0.11 + 0.04j, p_scale=0.25)
            A = lax.hasegawa_lax(conf, z).entries
            B = lax.composition_lax(conf, z).entries
            assert np.max(np.abs(A - B)) < 1e-7 * np.max(np.abs(A))
            count += 1

    def test_coupling_zero_collapse(self):
        rng = np.random.default_rng(402)
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.2j)
        z = 0.19 + 0.27j
        for n in (2, 3, 4):
            conf = mild_rs_config(rng, n, lat, hbar=0.0)
            P = np.asarray(conf.P)
            for fn in (lax.hasegawa_lax, lax.composition_lax):
                L = fn(conf, z).entries
                assert np.max(np.abs(L - np.diag(np.exp(P)))) < 1e-12


class TestCriterion5SpinReduction:
    def test_unit_framing_is_spinless(self):
        rng = np.random.default_rng(501)
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.2j)
        z = 0.19 + 0.27j
        for n in (2, 3):
            conf = mild_rs_config(rng, n, lat)
            conf0 = lax.RSConfig(
                n=n, q=conf.q, P=tuple(0.0 for _ in range(n)), hbar=conf.hbar,
                mu=conf.mu, lat=conf.lat, q_inf=conf.q_inf, q_zero=conf.q_zero,
            )
            ones = np.ones((n, 1))
            spin = lax.SpinFraming(1, ones, ones.T, ones, ones.T)
            Ls = lax.spin_lax(conf0, spin, z).entries
            L0 = lax.hasegawa_lax(conf0, z).entries
            assert np.array_equal(Ls, L0) or np.max(np.abs(Ls - L0)) < 1e-15

    def test_bilinearity(self):
        rng = np.random.default_rng(502)
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.2j)
        z = 0.19 + 0.27j
        n, k = 3, 2
        conf = mild_rs_config(rng, n, lat)
        mats = [rng.normal(size=s) + 1j * rng.normal(size=s)
                for s in ((n, k), (k, n), (n, k), (k, n))]
        U0, V0, Ui, Vi = mats
        U0b = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        a, b = 1.3 - 0.2j, -0.7 + 0.5j
        L_sum = lax.spin_lax(
            conf, lax.SpinFraming(k, a * U0 + b * U0b, V0, Ui, Vi), z
        ).entries
        L_1 = lax.spin_lax(conf, lax.SpinFraming(k, U0, V0, Ui, Vi), z).entries
        L_2 = lax.spin_lax(conf, lax.SpinFraming(k, U0b, V0, Ui, Vi), z).entries
        assert np.max(np.abs(L_sum - (a * L_1 + b * L_2))) < 1e-12 * np.max(
            np.abs(L_sum)
        )


class TestCriterion6Isospectrality:
    @pytest.mark.parametrize(
        "kind,n",
        [("elliptic", 2), ("elliptic", 3), ("trig", 2), ("trig", 3)],
    )
    def test_drift_over_unit_time(self, kind, n):
        rng = np.random.default_rng(601 + n + (0 if kind == "elliptic" else 10))
        lat = (
            elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
            if kind == "elliptic"
            else elliptic.trig_lattice()
        )
        hbar = 0.08 + 0.03j if kind == "elliptic" else 0.09
        conf = mild_rs_config(rng, n, lat, hbar=hbar, p_scale=0.15)
        spec = dynamics.HamiltonianSpec("trace_power", 1)
        start = dynamics.PhasePoint(conf.q, conf.P)
        traj = dynamics.integrate(spec, start, conf, t_end=1.0, dt=1e-3)
        assert max(traj.spectral_drift) < 1e-6
        H0 = dynamics.hamiltonian(spec, conf)
        end = traj.points[-1]
        conf1 = lax.rs_config(end.q, end.p, conf.hbar, lat)
        assert abs(dynamics.hamiltonian(spec, conf1) - H0) < 1e-8


class TestCriterion7Involution:
    def test_brackets_vanish(self):
        rng = np.random.default_rng(701)
        lat = elliptic.lattice_from_periods(1.0, 0.2 + 2.4j)
        specs = [dynamics.HamiltonianSpec("trace_power", i) for i in (1, 2, 3)]
        for _ in range(20):
            q = 0.04 * (rng.normal(size=3) + 1j * rng.normal(size=3)) + np.arange(
                3
            ) * 0.35
            P = 0.15 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            conf = lax.rs_config(q, P, 0.08 + 0.03j, lat)
            pt = dynamics.PhasePoint(conf.q, conf.P)
            for i in range(3):
                for j in range(i + 1, 3):
                    br = dynamics.poisson_bracket(specs[i], specs[j], pt, conf)
                    assert abs(br) < 1e-6


class TestCriterion8Degeneration:
    def test_residual_small_at_twenty_and_monotone(self):
        rng = np.random.default_rng(801)
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        for n in (2, 3):
            conf = mild_rs_config(rng, n, lat)
            sweep = limits.degeneration_sweep(conf, [5.0, 8.0, 12.0, 20.0])
            assert sweep.errors[-1] < 1e-8
            # Monotone to within double-precision noise at the floor.
            for a, b in zip(sweep.errors, sweep.errors[1:]):
                assert b <= a + 1e-12

    def test_random_configs_at_twenty(self):
        rng = np.random.default_rng(802)
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        for trial in range(20):
            n = 2 + trial % 2
            conf = mild_rs_config(rng, n, lat)
            sweep = limits.degeneration_sweep(conf, [20.0])
            assert sweep.errors[0] < 1e-8


    def test_exact_gauge_reaches_the_floor(self):
        # In sigma's exact gauge the residuals at Im(tau) >= 8 are
        # double-precision noise, so no convergence order is fitted.
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        for seed, trials in ((801, 2), (802, 20)):
            rng = np.random.default_rng(seed)
            for trial in range(trials):
                conf = mild_rs_config(rng, 2 + trial % 2, lat)
                sweep = limits.degeneration_sweep(conf, [5.0, 8.0, 12.0, 20.0])
                assert max(sweep.errors[1:]) < 1e-14
                assert sweep.fitted_order is None


class TestCriterion9CMLimit:
    def test_convergence_order(self):
        rng = np.random.default_rng(901)
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        for n in (2, 3):
            conf = mild_rs_config(rng, n, lat, hbar=1e-2)
            p = rng.normal(size=n) + 0.2j * rng.normal(size=n)
            cmc = lax.cm_config(conf.q, p, 1.0, lat)
            sweep = limits.cm_limit_sweep(cmc, [1e-2, 5e-3, 2.5e-3])
            assert 0.85 <= sweep.fitted_order <= 1.15

    def test_scalar_oracle(self):
        lat = elliptic.lattice_from_periods(1.0, 2.5j)
        z = 0.17 + 0.23j
        h = 1e-4
        L = lax.composition_lax(lax.rs_config([0.2], [0.0], h, lat), z).entries[0, 0]
        step = 1e-7
        logdiff = (
            np.log(elliptic.sigma(z + step, lat))
            - np.log(elliptic.sigma(z - step, lat))
        ) / (2 * step)
        # (sigma(z+h)/sigma(z) - 1)/h = sigma'/sigma + O(h)
        assert abs((L - 1.0) / h - logdiff) < 1e-6 + abs(logdiff) * 1e-3


class TestCriterion10Reductions:
    RNG = np.random.default_rng(1001)

    def test_all_four_moment_residuals(self):
        rng = self.RNG
        orb = reductions.OrbitSpec(g=0.7 + 0.2j)
        q = np.sort(rng.normal(size=4)) * 1.4 + 0.2j * rng.normal(size=4)
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        pairs = [
            (reductions.solve_rational_cm(q, p, orb), orb),
            (reductions.solve_trig_cm(q, orb, np.ones(4)), orb),
        ]
        orb_rs = reductions.OrbitSpec(g=0.4)
        th = rng.normal(size=3) + 0.3j * rng.normal(size=3)
        pairs.append((reductions.solve_rational_rs(th, orb_rs, rng.normal(size=3)), orb_rs))
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 0.7, -0.3])
        orb_trs = reductions.OrbitSpec(g=0.0, u=u, v=v)
        pairs.append(
            (reductions.solve_trig_rs(th, orb_trs, [0.9, 1.2, -0.4]), orb_trs)
        )
        for pair, orbit in pairs:
            assert reductions.moment_residual(pair, orbit) < 1e-10

    def test_rational_cm_y_is_spectral_free_lax(self):
        q = [0.0, 1.0, 2.5]
        p = [0.3, -0.2, 0.1]
        g = 0.7
        pair = reductions.solve_rational_cm(q, p, reductions.OrbitSpec(g=g))
        conf = lax.cm_config(q, p, g, elliptic.rational_lattice())
        assert np.array_equal(pair.Y, lax.cm_lax(conf, None).entries)

    def test_dualize_involution(self):
        rng = self.RNG
        orb = reductions.OrbitSpec(g=0.7 + 0.2j)
        q = np.sort(rng.normal(size=4)) * 1.5 + 0.3j * rng.normal(size=4)
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        pair = reductions.solve_rational_cm(q, p, orb)
        dd = reductions.dualize(reductions.dualize(pair))
        orig = np.sort_complex(np.diag(pair.X))
        back = np.sort_complex(np.diag(dd.X))
        assert np.max(np.abs(orig - back)) < 1e-8

    def test_det_identity(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 0.7, -0.3])
        orb = reductions.OrbitSpec(g=0.0, u=u, v=v)
        th = np.array([0.3 + 0.1j, 1.1 - 0.2j, -0.7 + 0.05j])
        pair = reductions.solve_trig_rs(th, orb, [0.9, 1.2, -0.4])
        X, Y = pair.X, pair.Y
        d = np.linalg.det(X @ Y @ np.linalg.inv(X) @ np.linalg.inv(Y))
        assert abs(d - (1.0 + v @ u)) < 1e-10


class TestCriterion11CLI:
    def _verify_cfg(self, tmp_path, out):
        path = tmp_path / "verify.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "command": "verify",
                    "seed": 42,
                    "output_dir": str(tmp_path / out),
                    "params": {},
                }
            )
        )
        return str(path)

    def test_determinism_and_exit_codes(self, tmp_path):
        cfg = self._verify_cfg(tmp_path, "a")
        assert cli.main(["verify", "--config", cfg]) == 0
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        # forced failure -> exit 1; invalid config -> exit 2
        assert cli.main(["verify", "--config", cfg, "--tol-scale", "0",
                         "--out", str(tmp_path / "c")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert cli.main(["verify", "--config", str(bad)]) == 2

    def test_schema_valid_outputs(self, tmp_path):
        cfg = tmp_path / "evolve.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "command": "evolve",
                    "seed": 7,
                    "output_dir": str(tmp_path / "out"),
                    "params": {
                        "lattice": {
                            "kind": "elliptic",
                            "omega1": 1.0,
                            "omega2": {"re": 0.0, "im": 2.5},
                        },
                        "q": [{"re": 0.12, "im": 0.02}, {"re": 0.48, "im": -0.03}],
                        "P": [0.12, -0.1],
                        "hbar": {"re": 0.08, "im": 0.03},
                        "t_end": 0.05,
                        "dt": 0.002,
                    },
                }
            )
        )
        assert cli.main(["evolve", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert {"command", "checks"} <= set(report)
        for check in report["checks"]:
            assert {"name", "status", "residual", "tolerance"} <= set(check)
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t" and rows[0][-1] == "spectral_drift"
        for row in rows[1:]:
            [float(x) for x in row]  # every cell parses as a real number
