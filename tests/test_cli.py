"""Tests for the command-line harness: config validation, all five
subcommands, byte-identical determinism under a fixed seed, the exit-code
contract, and output schema validity.
"""

import csv
import io
import json
import os
import warnings

import numpy as np
import pytest

import oracles
from rslax import cli


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def verify_cfg(tmp_path, out="out", checks=None, seed=42):
    params = {} if checks is None else {"checks": checks}
    return write_config(
        tmp_path,
        "verify.json",
        {
            "schema_version": 1,
            "command": "verify",
            "seed": seed,
            "output_dir": str(tmp_path / out),
            "params": params,
        },
    )


EVOLVE_PARAMS = {
    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.0, "im": 2.5}},
    "q": [{"re": 0.12, "im": 0.02}, {"re": 0.48, "im": -0.03}],
    "P": [0.12, -0.1],
    "hbar": {"re": 0.08, "im": 0.03},
    "t_end": 0.05,
    "dt": 0.002,
}


class TestConfigValidation:
    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"schema_version": 2, "params": {}})
        assert cli.main(["verify", "--config", cfg]) == 2

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"schema_version": 1, "command": "evolve", "params": {}}
        )
        assert cli.main(["verify", "--config", cfg]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_nonpositive_dt(self, tmp_path):
        params = dict(EVOLVE_PARAMS, dt=-1.0)
        cfg = write_config(
            tmp_path,
            "e.json",
            {
                "schema_version": 1,
                "command": "evolve",
                "output_dir": str(tmp_path / "o"),
                "params": params,
            },
        )
        assert cli.main(["evolve", "--config", cfg]) == 2


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        cfg = verify_cfg(tmp_path)
        assert cli.main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_empty_check_list(self, tmp_path):
        cfg = verify_cfg(tmp_path, checks=[])
        assert cli.main(["verify", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"] == []

    def test_zero_tolerance_forces_failure(self, tmp_path):
        cfg = verify_cfg(tmp_path, checks=["basis_invariance"])
        assert cli.main(["verify", "--config", cfg, "--tol-scale", "0"]) == 1

    def test_trig_cm_small_determinant_seed(self, tmp_path):
        # This seed draws a trig CM input whose X is well conditioned but has
        # |det X| below 1e-10 * max|X|^n.
        cfg = verify_cfg(tmp_path, checks=["trig_cm_moment"], seed=86105372)
        assert cli.main(["verify", "--config", cfg]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = verify_cfg(tmp_path)
        cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "b")])
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb


class TestEvolve:
    def _cfg(self, tmp_path, **over):
        params = dict(EVOLVE_PARAMS, **over)
        return write_config(
            tmp_path,
            "e.json",
            {
                "schema_version": 1,
                "command": "evolve",
                "seed": 1,
                "output_dir": str(tmp_path / "out"),
                "params": params,
            },
        )

    def test_trajectory_files_written_and_parse(self, tmp_path):
        cfg = self._cfg(tmp_path)
        assert cli.main(["evolve", "--config", cfg]) == 0
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert rows[0][-1] == "spectral_drift"
        assert len(rows) == 1 + 26  # header + 25 steps + initial point
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["max_spectral_drift"] < 1e-6

    def test_free_particle_linear_motion(self, tmp_path):
        cfg = self._cfg(
            tmp_path,
            q=[0.1],
            P=[0.3],
            hbar=0.0,
            t_end=0.1,
            dt=0.01,
        )
        assert cli.main(["evolve", "--config", cfg]) == 0
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        import numpy as np

        ts = np.array([float(r[0]) for r in rows])
        qs = np.array([float(r[1]) for r in rows])
        fit = np.polyfit(ts, qs, 1)
        assert abs(fit[0] - np.exp(0.3)) < 1e-9
        assert abs(fit[1] - 0.1) < 1e-12

    def test_collision_fails_the_completed_check(self, tmp_path):
        cfg = self._cfg(tmp_path, q=[0.1, 0.1 + 5e-5], P=[0.0, 0.0], hbar=0.02)
        assert cli.main(["evolve", "--config", cfg]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["completed"] == "fail"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["collision"] is True

    def test_non_finite_stage_ends_as_collision(self, tmp_path):
        # An RK4 stage of this near-collision throws the momenta to inf; the
        # run writes its partial trajectory and fails the completed check.
        cfg = self._cfg(tmp_path, q=[0.1, 0.1002], P=[0.0, 0.3], t_end=0.2)
        with np.errstate(all="ignore"):
            assert cli.main(["evolve", "--config", cfg]) == 1
        out = tmp_path / "out"
        assert set(os.listdir(out)) == {"trajectory.csv", "summary.json", "report.json"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["collision"] is True
        report = json.loads((out / "report.json").read_text())
        assert {c["name"]: c["status"] for c in report["checks"]}["completed"] == "fail"

    def test_non_finite_stage_names_the_cause_without_warnings(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, q=[0.1, 0.1002], P=[0.0, 0.3], t_end=0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["evolve", "--config", cfg]) == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        # The stage-size guard stops the flow before a stage goes non-finite.
        assert "StepTooLarge: step 1: dt = 0.002 moves a position by" in err
        out = tmp_path / "out"
        assert set(os.listdir(out)) == {"trajectory.csv", "summary.json", "report.json"}
        assert json.loads((out / "summary.json").read_text())["collision"] is True

    def test_determinism(self, tmp_path):
        cfg = self._cfg(tmp_path)
        cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()


class TestLimit:
    def test_degeneration_sweep_monotone(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "schema_version": 1,
                "command": "limit",
                "output_dir": str(tmp_path / "out"),
                "params": {
                    "sweep": "degeneration",
                    "im_tau_values": [5, 10, 20],
                    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 5}},
                    "q": [0.1, 0.45],
                    "P": [0.1, -0.07],
                    "hbar": {"re": 0.08, "im": 0.02},
                },
            },
        )
        assert cli.main(["limit", "--config", cfg]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        residuals = [float(r[1]) for r in rows]
        assert residuals[1] <= residuals[0] + 1e-12
        assert residuals[2] <= residuals[1] + 1e-12

    def test_cm_sweep_fitted_order(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "schema_version": 1,
                "command": "limit",
                "output_dir": str(tmp_path / "out"),
                "params": {
                    "sweep": "cm",
                    "hbar_values": [1e-2, 5e-3, 2.5e-3],
                    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 2.5}},
                    "q": [0.1, 0.45],
                    "P": [0.0, 0.0],
                    "hbar": 1e-2,
                    "p": [0.3, -0.2],
                },
            },
        )
        assert cli.main(["limit", "--config", cfg]) == 0
        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert abs(sweep["fitted_order"] - 1.0) < 0.15

    def test_single_point_sweep_null_order(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l.json",
            {
                "schema_version": 1,
                "command": "limit",
                "output_dir": str(tmp_path / "out"),
                "params": {
                    "sweep": "cm",
                    "hbar_values": [1e-3],
                    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 2.5}},
                    "q": [0.1, 0.45],
                    "P": [0.0, 0.0],
                    "hbar": 1e-3,
                    "p": [0.3, -0.2],
                },
            },
        )
        assert cli.main(["limit", "--config", cfg]) == 0
        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert sweep["fitted_order"] is None


class TestReduceAndLax:
    def test_reduce_trig_cm(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "r.json",
            {
                "schema_version": 1,
                "command": "reduce",
                "output_dir": str(tmp_path / "out"),
                "params": {"kind": "trig_cm", "q": [0, 1], "g": 1.0, "gauge": [1, 1]},
            },
        )
        assert cli.main(["reduce", "--config", cfg]) == 0
        data = json.loads((tmp_path / "out" / "reduce.json").read_text())
        assert data["residual"] < 1e-10
        # complex encoding convention
        assert set(data["X"][0][0]) == {"re", "im"}

    def test_lax_matrix_dump(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "x.json",
            {
                "schema_version": 1,
                "command": "lax",
                "output_dir": str(tmp_path / "out"),
                "params": {
                    "family": "hasegawa",
                    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 2}},
                    "q": [0.1, 0.45],
                    "P": [0.1, -0.07],
                    "hbar": {"re": 0.08, "im": 0.02},
                },
            },
        )
        assert cli.main(["lax", "--config", cfg]) == 0
        with open(tmp_path / "out" / "lax.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "col", "re", "im"]
        assert len(rows) == 1 + 4

    def test_lax_far_positions_match_mpmath(self, tmp_path):
        # Positions 30i apart, where sigma is about 1e-132 and the unreduced
        # series overflowed to NaN: the entries match mpmath.
        q = [0.1 + 0.05j, 0.1 + 30.05j]
        P = [0.1, -0.07]
        hbar = 0.08 + 0.02j
        cfg = write_config(
            tmp_path,
            "x.json",
            {
                "schema_version": 1,
                "command": "lax",
                "output_dir": str(tmp_path / "out"),
                "params": {
                    "family": "hasegawa",
                    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.2, "im": 2.4}},
                    "q": [{"re": v.real, "im": v.imag} for v in q],
                    "P": P,
                    "hbar": {"re": hbar.real, "im": hbar.imag},
                },
            },
        )
        assert cli.main(["lax", "--config", cfg]) == 0
        with open(tmp_path / "out" / "lax.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        L = np.zeros((2, 2), dtype=complex)
        for i, j, re, im in rows:
            L[int(i), int(j)] = complex(float(re), float(im))
        ref = oracles.hasegawa_mpmath(q, P, hbar, 0.31 + 0.43j, 1.0, 0.2 + 2.4j)
        assert np.max(np.abs(L - ref) / np.abs(ref)) < 1e-10

    def test_lax_non_finite_entries_exit_one(self, tmp_path, capsys):
        # exp(800) times entries of order one: no double holds them.
        cfg = write_config(
            tmp_path,
            "x.json",
            {
                "schema_version": 1,
                "command": "lax",
                "output_dir": str(tmp_path / "out"),
                "params": {
                    "family": "hasegawa",
                    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.2, "im": 2.4}},
                    "q": [0.1, 0.45],
                    "P": [800.0, -0.07],
                    "hbar": {"re": 0.08, "im": 0.02},
                },
            },
        )
        with np.errstate(all="ignore"):
            assert cli.main(["lax", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NonFiniteEntries")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("q", ["nan", 0.45], "params.q[0]"),
        ("q", [0.1, {"re": 0.45, "im": "inf"}], "params.q[1]"),
        ("q", [0.1, "abc"], "params.q[1]"),
        ("q", [0.1, {"re": "abc"}], "params.q[1]"),
        ("hbar", "nan", "params.hbar"),
        ("hbar", float("nan"), "params.hbar"),
        ("P", [float("-inf"), 0.1], "params.P[0]"),
    ],
)
def test_lax_invalid_number_is_a_config_error(tmp_path, capsys, key, value, field):
    # json.dumps writes float NaN and infinities as the literals NaN and
    # -Infinity, which json.load accepts.
    params = {
        "family": "hasegawa",
        "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 2}},
        "q": [0.1, 0.45],
        "P": [0.1, -0.07],
        "hbar": {"re": 0.08, "im": 0.02},
    }
    params[key] = value
    cfg = write_config(
        tmp_path,
        "x.json",
        {"schema_version": 1, "command": "lax", "output_dir": str(tmp_path / "out"), "params": params},
    )
    assert cli.main(["lax", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# command -> (params, the files the command writes)
OUTPUTS = {
    "verify": ({"checks": ["basis_invariance"]}, {"report.json"}),
    "lax": (
        {
            "family": "krichever",
            "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 2}},
            "q": [0.1, 0.45, 0.8],
            "P": [0.1, -0.07, 0.02],
            "hbar": {"re": 0.08, "im": 0.02},
        },
        {"lax.csv", "lax.json", "report.json"},
    ),
    "evolve": (EVOLVE_PARAMS, {"trajectory.csv", "summary.json", "report.json"}),
    "limit": (
        {
            "sweep": "degeneration",
            "im_tau_values": [5, 10],
            "q": [0.1, 0.45],
            "P": [0.1, -0.07],
            "hbar": {"re": 0.08, "im": 0.02},
        },
        {"sweep.csv", "sweep.json", "report.json"},
    ),
    "reduce": (
        {"kind": "rational_rs", "theta": [0.1, 0.5, 1.2], "g": 0.4},
        {"X.csv", "Y.csv", "reduce.json", "report.json"},
    ),
}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_output_files(tmp_path, command):
    params, files = OUTPUTS[command]
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "c.json",
        {"schema_version": 1, "command": command, "output_dir": str(out), "params": params},
    )
    assert cli.main([command, "--config", cfg]) == 0
    assert set(os.listdir(out)) == files
    assert json.loads((out / "report.json").read_text())["command"] == command
    if command == "reduce":
        data = json.loads((out / "reduce.json").read_text())
        for name in ("X", "Y"):
            with open(out / f"{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["row", "col", "re", "im"]
            assert [(int(i), int(j), float(re), float(im)) for i, j, re, im in rows[1:]] == [
                (i, j, v["re"], v["im"])
                for i, row in enumerate(data[name])
                for j, v in enumerate(row)
            ]


def test_csv_bytes_match_the_csv_module(tmp_path):
    # write_csv joins the cells' str; csv.writer's minimal quoting, which it
    # replaced, gives the same bytes for every cell rslax writes.
    header = ["t", "re_q0", "im_p11", "spectral_drift", "row", "col", "parameter", "residual"]
    values = [0.0, -0.0, 1.5, -2.25e-300, 1e300, 5e-324, 0.1 + 0.2, float("nan"), float("inf")]
    rows = [[i, -i, *values[i % 3 :][:6]] for i in range(40)] + [[0, 7, *values[3:]]]
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    cli.write_csv(str(tmp_path / "a.csv"), header, rows)
    assert (tmp_path / "a.csv").read_bytes() == buf.getvalue().encode("utf-8")


def test_parser_is_built_once_and_reused(tmp_path):
    # Interleave runs that write artifacts with a config error (exit 2) and
    # an argparse usage error (SystemExit 2); each call with the cached
    # parser must behave as a call with a freshly built one.
    lax_cfg = write_config(
        tmp_path,
        "lax.json",
        {"schema_version": 1, "command": "lax", "params": OUTPUTS["lax"][0]},
    )
    bad_cfg = write_config(tmp_path, "bad.json", {"schema_version": 2, "params": {}})

    def calls(out):
        return [
            ["lax", "--config", lax_cfg, "--out", str(out / "a")],
            ["lax", "--config", bad_cfg],
            ["lax", "--no-such-option"],
            ["evolve"],
            ["lax", "--config", lax_cfg, "--out", str(out / "b"), "--tol-scale", "2"],
            ["nonsense"],
            ["lax", "--config", lax_cfg, "--out", str(out / "c")],
        ]

    def run(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return ("SystemExit", exc.code)

    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh_codes = []
    for argv in calls(fresh):
        cli._parser.cache_clear()
        fresh_codes.append(run(argv))
    parser = cli._parser()
    reused_codes = [run(argv) for argv in calls(reused)]
    assert cli._parser() is parser
    assert fresh_codes == reused_codes == [
        0, 2, ("SystemExit", 2), ("SystemExit", 2), 0, ("SystemExit", 2), 0
    ]
    for run_dir in ("a", "b", "c"):
        names = sorted(os.listdir(fresh / run_dir))
        assert names == sorted(os.listdir(reused / run_dir)) == ["lax.csv", "lax.json", "report.json"]
        for name in names:
            assert (fresh / run_dir / name).read_bytes() == (reused / run_dir / name).read_bytes()


LIMIT_PARAMS = {
    "lattice": {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0, "im": 2.5}},
    "q": [0.1, 0.45],
    "P": [0.0, 0.0],
    "hbar": 1e-2,
}


# (command, params, the field the config error names)
INVALID_CONFIGS = [
    ("evolve", dict(EVOLVE_PARAMS, dt=float("nan")), "params.dt"),
    ("evolve", dict(EVOLVE_PARAMS, index="abc"), "params.index"),
    ("evolve", dict(EVOLVE_PARAMS, family="foo"), "params.family"),
    ("evolve", dict(EVOLVE_PARAMS, lax_family="foo"), "params.lax_family"),
    ("evolve", dict(EVOLVE_PARAMS, coordinates="x"), "params.coordinates"),
    ("evolve", dict(EVOLVE_PARAMS, drift_tolerance="nan"), "params.drift_tolerance"),
    (
        "limit",
        dict(LIMIT_PARAMS, sweep="degeneration", im_tau_values=["abc"]),
        "params.im_tau_values[0]",
    ),
    ("limit", dict(LIMIT_PARAMS, sweep="cm", hbar_values=["nan", 0.005]), "params.hbar_values[0]"),
    ("limit", dict(LIMIT_PARAMS, sweep="cm", hbar_values=[1e-2, 2.5e-3, 5e-3]), "params.hbar_values"),
    ("limit", dict(LIMIT_PARAMS, sweep="cm", hbar_values=[-1e-2, -5e-3]), "params.hbar_values[0]"),
    (
        "lax",
        dict(LIMIT_PARAMS, lattice={"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.3, "im": -2}}),
        "params.lattice.omega2",
    ),
    (
        "reduce",
        {"kind": "trig_rs", "theta": [0.1, 0.5, 1.2], "u": [1.0, 0.0], "v": [0.0, 0.3, 0.5]},
        "params.u",
    ),
]


@pytest.mark.parametrize("command,params,field", INVALID_CONFIGS)
def test_invalid_field_is_a_config_error(tmp_path, capsys, command, params, field):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "c.json",
        {"schema_version": 1, "command": command, "output_dir": str(out), "params": params},
    )
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert "Traceback" not in err
    assert not out.exists()
