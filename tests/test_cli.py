"""Tests for the command-line harness: config validation, all five
subcommands, byte-identical determinism under a fixed seed, the exit-code
contract, and output schema validity.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from rslax import cli, lax


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

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = json.dumps(
            {"schema_version": 1, "command": "lax", "output_dir": str(out), "params": {"q": "@@"}}
        )
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("utf-8").replace(b"@@", b"\xff\xfe"))
        assert cli.main(["lax", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            b'\xef\xbb\xbf{"schema_version": 1}',
            b'{\r\n  "schema_version": 1,\r\n  "seed": ,\r\n}',
            b'{\r  "schema_version": 1,\r  "seed": x\r}',
            b'{\r\n "schema_version": 1, "params": {"a": "x\r\ny"}}',
        ],
    )
    def test_invalid_json_reads_as_in_text_mode(self, tmp_path, raw):
        # The byte read must keep the BOM and newline handling of a
        # text-mode read, so the error names the same line, column and char.
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as text_mode:
            json.load(fh)
        with pytest.raises(cli.ConfigInvalid) as exc:
            cli.load_config(str(path), "verify")
        assert str(exc.value) == f"config: not valid JSON: {text_mode.value}"

    def test_directory_config_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["lax", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_crlf_and_cr_newlines_are_read(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{\r\n"schema_version": 1,\r"seed": 3,\n"params": {"a": [1,\r\n2]}}\r')
        cfg = cli.load_config(str(path), "verify")
        assert (cfg.seed, cfg.params) == (3, {"a": [1, 2]})

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

    def test_cm_sweep_checks_the_positions_once(self, tmp_path, monkeypatch):
        # One configuration is built, the CM one, so its positions are
        # checked once; the RS fields P and hbar are read but build nothing.
        calls = []
        separation = lax._separation
        monkeypatch.setattr(lax, "_separation", lambda q, lat: calls.append(q) or separation(q, lat))
        params = {"sweep": "cm", "hbar_values": [1e-2, 5e-3], "q": [0.1, 0.45], "P": [0.0, 0.0], "hbar": 1e-2}
        cfg = write_config(
            tmp_path,
            "l.json",
            {"schema_version": 1, "command": "limit", "output_dir": str(tmp_path / "out"), "params": params},
        )
        assert cli.main(["limit", "--config", cfg]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("family", ["hasegawa", "composition", "ruijsenaars"])
    def test_lax_names_the_overflowing_momentum_without_warnings(self, tmp_path, capsys, family):
        params = dict(LIMIT_PARAMS, family=family, P=[0.3, 800.0], hbar={"re": 0.08, "im": 0.02})
        cfg = write_config(
            tmp_path,
            "x.json",
            {"schema_version": 1, "command": "lax", "output_dir": str(tmp_path), "params": params},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["lax", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: NonFiniteEntries: entries must be finite: "
            "exp(P_1) overflows (Re P_1 = 800)\n"
        )

    @pytest.mark.parametrize("im", [1e-310, 1e-300, 5e-324])
    def test_lax_on_a_lattice_beyond_the_doubles_exits_one(self, tmp_path, capsys, im):
        lattice = {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.0, "im": im}}
        cfg = write_config(
            tmp_path,
            "x.json",
            {
                "schema_version": 1,
                "command": "lax",
                "output_dir": str(tmp_path / "out"),
                "params": dict(LIMIT_PARAMS, lattice=lattice),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["lax", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NonConvergent: the lattice constants at tau=")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


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
    assert {stat.S_IMODE((out / name).stat().st_mode) for name in files} == {0o600}
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

    # _matrix_table: the rows np.ndenumerate gave, for float and complex
    # matrices.
    re = np.array([[0.0, -0.0, 5e-324], [1e308, 0.1 + 0.2, -2.5]])
    for M in (re, re + 1j * re[::-1], re.T.astype(complex), np.zeros((0, 0))):
        buf = io.StringIO()
        w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(["row", "col", "re", "im"])
        for (i, j), v in np.ndenumerate(M):
            w.writerow([i, j, repr(float(v.real)), repr(float(v.imag))])
        cli.write_csv(str(tmp_path / "m.csv"), *cli._matrix_table(M))
        assert (tmp_path / "m.csv").read_bytes() == buf.getvalue().encode("utf-8")


def _reference_json(obj):
    text = json.dumps(oracles.jsonify_reference(obj), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "a\"b", "\x00\x1f\x7f", "é", "☃", "\u2028", "𝔷"]),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = st.one_of(_FINITE, st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2]))
# Complex values also with the parts -0.0, 5e-324 and +-1e308, whose text
# the complex-array path must write as json.dumps does.
_COMPLEX = st.one_of(
    st.complex_numbers(allow_nan=False, allow_infinity=False), st.builds(complex, _FLOATS, _FLOATS)
)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_SCALARS = st.one_of(
    _FLOATS,
    st.integers(min_value=-(2**100), max_value=2**100),
    st.booleans(),
    st.none(),
    _KEYS,
    _COMPLEX,
    _FLOATS.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    _COMPLEX.map(np.complex128),
    hnp.arrays(np.float64, _SHAPES, elements=_FINITE),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.complex128, _SHAPES, elements=_COMPLEX),
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(_KEYS, inner, max_size=4),
        ),
        max_leaves=20,
    )


_PAYLOADS = _nested(_SCALARS)


def _holding(bad):
    """Payloads with the value bad at some depth among valid siblings."""
    return st.recursive(
        st.just(bad),
        lambda inner: st.one_of(
            st.tuples(_PAYLOADS, inner).map(list),
            st.tuples(_KEYS, inner, st.dictionaries(_KEYS, _PAYLOADS, max_size=2)).map(
                lambda t: {**t[2], t[0]: t[1]}
            ),
        ),
        max_leaves=4,
    )


_NON_FINITE = st.sampled_from(
    [
        math.nan,
        math.inf,
        -math.inf,
        complex(math.nan, 0.0),
        complex(0.0, -math.inf),
        np.float64(math.inf),
        np.float32(math.nan),
        np.array([[1.0, math.nan]]),
        np.array([1j, math.inf]),
    ]
)


_EDGE_COMPLEX = np.array([-0.0, complex(0.0, -0.0), 5e-324j, -5e-324, 1e308 - 1e308j, 0.1 + 0.2j])


class TestWriteJson:
    @given(obj=_PAYLOADS)
    @example(obj={"X": _EDGE_COMPLEX.reshape(3, 1, 2), "Y": [_EDGE_COMPLEX[::-1], -_EDGE_COMPLEX]})
    @example(obj=[np.zeros((2, 0, 3), complex), np.zeros((0, 4), complex), np.zeros(0, complex)])
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_the_json_module(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "payload.json"
        cli.write_json(str(path), obj)
        assert path.read_bytes() == _reference_json(obj)

    @given(obj=_NON_FINITE.flatmap(_holding))
    @settings(max_examples=50, deadline=None)
    def test_non_finite_float_is_a_value_error(self, tmp_path_factory, obj):
        with pytest.raises(ValueError):
            _reference_json(obj)
        with pytest.raises(ValueError):
            cli.write_json(str(tmp_path_factory.getbasetemp() / "nan.json"), obj)

    @given(obj=st.sampled_from([{1, 2}, set(), object(), np.bool_(True), np.array(2.0)]).flatmap(_holding))
    @settings(max_examples=50, deadline=None)
    def test_unsupported_type_is_a_type_error(self, tmp_path_factory, obj):
        with pytest.raises(TypeError):
            _reference_json(obj)
        with pytest.raises(TypeError):
            cli.write_json(str(tmp_path_factory.getbasetemp() / "type.json"), obj)

    def test_multi_megabyte_payload_round_trips(self, tmp_path):
        obj = {"entries": np.random.default_rng(3).normal(size=(100, 1000)) * (1 + 1j)}
        cli.write_json(str(tmp_path / "big.json"), obj)
        data = (tmp_path / "big.json").read_bytes()
        assert len(data) > 5 * 2**20
        assert data == _reference_json(obj)


class TestWriteAtomic:
    def test_partial_writes_are_resumed(self, tmp_path, monkeypatch):
        data = np.random.default_rng(5).bytes(5 * 2**20 + 17)
        real_write, sizes = os.write, []

        def short_write(fd, buf):
            sizes.append(real_write(fd, buf[: 2**20 - 3]))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short_write)
        cli._write_atomic(str(tmp_path / "big.bin"), data)
        assert (tmp_path / "big.bin").read_bytes() == data
        assert len(sizes) == 6
        assert stat.S_IMODE((tmp_path / "big.bin").stat().st_mode) == 0o600

    def test_failed_replace_keeps_the_target_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        cli.write_json(str(target), {"a": 1})
        before = target.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            cli.write_json(str(target), {"a": 2})
        with pytest.raises(OSError, match="replace refused"):
            cli.write_csv(str(tmp_path / "new.csv"), ["x"], [[1]])
        assert target.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["report.json"]

    def test_a_missing_directory_is_not_made(self, tmp_path):
        # main makes the output directory; the writers take it as given.
        with pytest.raises(FileNotFoundError):
            cli.write_json(str(tmp_path / "new" / "report.json"), {"a": 1})
        with pytest.raises(FileNotFoundError):
            cli.write_csv(str(tmp_path / "new" / "a.csv"), ["x"], [[1]])
        assert os.listdir(tmp_path) == []

    def test_taken_temporary_names_are_skipped(self, tmp_path, monkeypatch):
        # The next two names hold a file and a symbolic link: O_EXCL opens
        # neither, and the third name carries the artifact.
        monkeypatch.setattr(cli, "_tmp_seq", itertools.count(7))
        taken = tmp_path / f".tmp-rslax-{os.getpid()}-7"
        taken.write_bytes(b"not ours")
        victim = tmp_path / "victim"
        victim.write_bytes(b"kept")
        link = tmp_path / f".tmp-rslax-{os.getpid()}-8"
        link.symlink_to(victim)
        cli.write_json(str(tmp_path / "report.json"), {"a": 1})
        assert (tmp_path / "report.json").read_bytes() == b'{\n  "a": 1\n}\n'
        assert stat.S_IMODE((tmp_path / "report.json").stat().st_mode) == 0o600
        assert taken.read_bytes() == b"not ours" and victim.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == sorted([taken.name, link.name, "victim", "report.json"])
        assert next(cli._tmp_seq) == 10

    def test_retries_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_tmp_seq", itertools.count(0))
        monkeypatch.setattr(os, "TMP_MAX", 2)
        for k in range(2):
            (tmp_path / f".tmp-rslax-{os.getpid()}-{k}").write_bytes(b"")
        with pytest.raises(FileExistsError, match="No usable temporary file name found"):
            cli.write_csv(str(tmp_path / "a.csv"), ["x"], [[1]])
        assert len(os.listdir(tmp_path)) == 2


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


_ARGV_FLAGS = ["--config", "--out", "--seed", "--tol-scale", "--conf", "--out=o", "-h", "--", "lax"]
_ARGV_VALUES = ["c.json", "lax", "3", "", "-", "-1", "-h", "a b", "-a b", "--out", "--config"]
# A command-like first word, then (flag, value) pairs, maybe with the last value cut off.
_ARGVS = st.tuples(
    st.sampled_from(["lax", "reduce", "x", "-h", "--config"]),
    st.lists(st.tuples(st.sampled_from(_ARGV_FLAGS), st.sampled_from(_ARGV_VALUES)), max_size=3),
    st.booleans(),
).map(lambda t: [t[0], *itertools.chain.from_iterable(t[1])][: None if t[2] else -1])


def _parsed(parse, argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return ("SystemExit", exc.code)


@given(argv=_ARGVS)
@example(argv=["lax", "--config", "c.json", "--out", "o"])
@example(argv=["reduce", "--config", "", "--out", ""])
@example(argv=["lax", "--config", "lax"])
@example(argv=["lax", "--config", "c.json", "--out", "-1"])
@example(argv=["lax", "--config", "-", "--out", "-a b"])
@settings(max_examples=300, deadline=None)
def test_direct_read_of_the_command_line_matches_argparse(argv):
    # The common form skips argparse; every argv must read as argparse reads it.
    assert _parsed(cli._parse_args, argv) == _parsed(cli._parser().parse_args, argv)


@pytest.mark.parametrize("command", sorted(cli._RUNNERS))
def test_help_and_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-h"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
    for argv in ([command], [command + "x", "--config", "c.json"], [command, "--config"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "config",
    [
        {"schema_version": 2, "params": {}},
        {"schema_version": 1, "command": "lax", "params": dict(OUTPUTS["lax"][0], q="x")},
    ],
)
def test_config_error_makes_no_output_directory(tmp_path, capsys, config):
    cfg = write_config(tmp_path, "bad.json", config)
    out = tmp_path / "never" / "made"
    assert cli.main(["lax", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "never").exists()


# exp(-800) is 0, so X = [[0]] and the moment map's X^-1 is undefined.
SINGULAR_REDUCE = {"kind": "rational_rs", "theta": [-800], "g": 0.4}


def test_error_after_the_solve_writes_nothing(tmp_path, capsys):
    # The solve succeeds and the residual fails: X.csv and Y.csv were
    # written before the error, with no report.json.
    cfg = write_config(
        tmp_path, "c.json", {"schema_version": 1, "command": "reduce", "params": SINGULAR_REDUCE}
    )
    out = tmp_path / "never" / "made"
    assert cli.main(["reduce", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: SingularMatrix: ")
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "checks",
    [[], ["rational_cm_moment"], ["rational_cm_moment", "trig_cm_moment", "rational_rs_moment"]],
)
def test_report_bytes_equal_the_asdict_serializer(tmp_path, monkeypatch, checks):
    made = []

    class Recorded(cli.RunReport):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cli, "RunReport", Recorded)
    assert cli.main(["verify", "--config", verify_cfg(tmp_path, checks=checks)]) == 0
    assert len(made) == 1 and len(made[0].checks) == len(checks)
    data = (tmp_path / "out" / "report.json").read_bytes()
    assert data == oracles.report_json_reference(made[0])


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
    # Beyond cli.MAX_EVOLVE_STEPS steps of dt (1e303 here, or inf).
    ("evolve", dict(EVOLVE_PARAMS, t_end=1e300, dt=1e-3), "params.t_end"),
    ("evolve", dict(EVOLVE_PARAMS, t_end=1e300, dt=1e-300), "params.t_end"),
    # Empty or missing positions, and check lists that are not lists of names.
    ("reduce", {"kind": "rational_cm", "q": []}, "params.q"),
    ("reduce", {"kind": "trig_cm"}, "params.q"),
    ("reduce", {"kind": "rational_rs", "theta": []}, "params.theta"),
    ("reduce", {"kind": "trig_rs"}, "params.theta"),
    ("evolve", dict(EVOLVE_PARAMS, q=[], P=[]), "params.q"),
    ("limit", dict(LIMIT_PARAMS, q=[], P=[], sweep="cm", hbar_values=[1e-2]), "params.q"),
    ("verify", {"checks": [["x"]]}, "params.checks"),
    ("verify", {"checks": "basis_invariance"}, "params.checks"),
    # Every field is read before the lattice and the configuration are made:
    # coincident positions, or a lattice beyond the doubles, come second.
    ("lax", dict(LIMIT_PARAMS, q=[0.1, 0.1], z="abc"), "params.z"),
    ("lax", dict(LIMIT_PARAMS, q=[0.1, 0.1], family="krichever", lam="abc"), "params.lam"),
    (
        "limit",
        dict(LIMIT_PARAMS, q=[0.1, 0.1], sweep="degeneration", im_tau_values=["abc"]),
        "params.im_tau_values[0]",
    ),
    ("limit", dict(LIMIT_PARAMS, q=[0.1, 0.1], sweep="cm", hbar_values=[1e-2], p="x"), "params.p"),
    (
        "lax",
        dict(LIMIT_PARAMS, lattice={"kind": "elliptic", "omega2": {"re": 0, "im": 1e-310}}, z="abc"),
        "params.z",
    ),
    # JSON booleans are not numbers.
    ("lax", dict(LIMIT_PARAMS, hbar=True), "params.hbar"),
    ("lax", dict(LIMIT_PARAMS, hbar={"re": True}), "params.hbar"),
    ("lax", dict(LIMIT_PARAMS, q=[0.1, {"re": 0.45, "im": False}]), "params.q[1]"),
    # Nor integers: true would read as 1.  For a top-level field, the
    # second column holds the config's top-level fields, with empty params.
    ("verify", {"seed": True}, "seed"),
    ("verify", {"schema_version": True}, "schema_version"),
    ("reduce", {"schema_version": 1.0}, "schema_version"),
    # {re, im} with a third key, a part that is not finite (the JSON number
    # 1e309 reads as inf) or a boolean part.
    ("lax", dict(LIMIT_PARAMS, hbar={"re": 0.1, "im": 0.2, "x": 1}), "params.hbar"),
    ("lax", dict(LIMIT_PARAMS, z={"re": 1e309, "im": 0.0}), "params.z"),
    ("lax", dict(LIMIT_PARAMS, q=[0.1, {"re": 1, "im": True}]), "params.q[1]"),
]


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"re": 0.1, "im": 0.2, "x": 1}', "expected a number, a complex string, or {re, im}"),
        ('{"re": 1e309, "im": 0.0}', "must be finite"),
        ('{"re": 1, "im": true}', "expected a number, a complex string, or {re, im}"),
        ('{"re": 0.1, "im": NaN}', "must be finite"),
        ('{"re": 0.5}', None),
        ('{"re": 0.25, "im": -0.0}', None),
    ],
)
def test_complex_field_errors(text, message):
    value = json.loads(text)
    if message is None:
        parts = (value.get("re", 0.0), value.get("im", 0.0))
        assert cli._as_complex(value, "f") == complex(*parts)
        assert math.copysign(1.0, cli._as_complex(value, "f").imag) == math.copysign(1.0, parts[1])
    else:
        with pytest.raises(cli.ConfigInvalid) as exc:
            cli._as_complex(value, "f")
        assert str(exc.value) == f"f: {message}"


@pytest.mark.parametrize("command,params,field", INVALID_CONFIGS)
def test_invalid_field_is_a_config_error(tmp_path, capsys, command, params, field):
    out = tmp_path / "out"
    config = {"schema_version": 1, "command": command, "output_dir": str(out), "params": params}
    if not field.startswith("params"):
        config.update(params, params={})
    cfg = write_config(tmp_path, "c.json", config)
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_evolve_step_cap(tmp_path, capsys):
    params = dict(EVOLVE_PARAMS, dt=1e-3, t_end=(cli.MAX_EVOLVE_STEPS + 1) * 1e-3)
    cfg = write_config(
        tmp_path,
        "e.json",
        {"schema_version": 1, "command": "evolve", "output_dir": str(tmp_path), "params": params},
    )
    assert cli.main(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: params.t_end: t_end/dt = 100001 exceeds the step cap")


def test_trig_rs_reads_no_coupling(tmp_path):
    # The trig_rs orbit has g = 0, so params.g is not read.
    params = {"kind": "trig_rs", "theta": [0.3, 1.1, -0.7], "u": [1, 0, 0], "v": [0, 0.7, -0.3]}
    outputs = []
    for name, extra in (("a", {}), ("b", {"g": "abc"})):
        out = tmp_path / name
        cfg = write_config(
            tmp_path,
            f"{name}.json",
            {"schema_version": 1, "command": "reduce", "output_dir": str(out), "params": {**params, **extra}},
        )
        assert cli.main(["reduce", "--config", cfg]) == 0
        outputs.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
    assert outputs[0] == outputs[1]


# (command, valid params whose run is cheap): the configs the contract test mutates.
_CONTRACT_BASES = [
    ("verify", {"checks": ["rational_cm_moment"]}),
    ("lax", dict(LIMIT_PARAMS, family="krichever", z="0.31+0.43j", lam={"re": 0.23, "im": 0.11}, mu=0.02)),
    ("lax", dict(LIMIT_PARAMS, family="ruijsenaars", z={"re": 0.31, "im": 0.43})),
    ("evolve", dict(EVOLVE_PARAMS, t_end=0.01, family="trace_power", index=1, drift_tolerance=1e-6)),
    ("limit", dict(LIMIT_PARAMS, sweep="degeneration", im_tau_values=[5, 10], residual_tolerance=1e-8)),
    ("limit", dict(LIMIT_PARAMS, sweep="cm", hbar_values=[1e-2, 5e-3], p=[0.3, -0.2])),
    ("reduce", {"kind": "rational_cm", "q": [0.1, 0.9], "p": [0.3, -0.2], "g": 0.7}),
    ("reduce", {"kind": "trig_rs", "theta": [0.3, 1.1], "u": [1, 0], "v": [0, 0.7], "diag_free": [0.9, 1.2]}),
]
_BAD_VALUES = [True, "abc", [[0.1]], math.nan, [], 1e300]


def _run_config(directory, command, params):
    """(exit code, stderr, output directory) of a run of the config."""
    out = directory / "out"
    path = directory / "c.json"
    path.write_text(json.dumps({"schema_version": 1, "command": command, "output_dir": str(out), "params": params}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(path)])
    return code, err.getvalue(), out


@pytest.mark.parametrize("command,params", _CONTRACT_BASES)
def test_contract_bases_pass(tmp_path, command, params):
    assert _run_config(tmp_path, command, params)[0] == 0


@st.composite
def _mutated_configs(draw):
    """(command, params): a base config with one field, or one lattice
    field, dropped or set to a bad value or to a lattice with tiny Im tau."""
    command, params = draw(st.sampled_from(_CONTRACT_BASES))
    params = json.loads(json.dumps(params))
    key = draw(st.sampled_from(sorted(params) + ["lattice.omega1", "lattice.omega2"]))
    target = params
    if key.startswith("lattice."):
        target, key = params.setdefault("lattice", {}), key.split(".")[1]
    im_tau = 10.0 ** -draw(st.integers(1, 320))
    tiny = {"kind": "elliptic", "omega1": 1.0, "omega2": {"re": 0.0, "im": im_tau}}
    value = draw(st.sampled_from(_BAD_VALUES + ["drop", tiny]))
    if value == "drop":
        target.pop(key, None)
    else:
        target[key] = value
    return command, params


@given(case=_mutated_configs())
@example(case=("evolve", dict(EVOLVE_PARAMS, q=[], P=[])))
@example(case=("reduce", {"kind": "rational_cm", "p": []}))
@example(case=("verify", {"checks": [["x"]]}))
@example(case=("reduce", SINGULAR_REDUCE))
@settings(max_examples=60, deadline=None)
def test_any_config_ends_in_an_exit_code(tmp_path_factory, case):
    # The CLI contract: whatever a config holds, a run ends in exit code 0,
    # 1 or 2 without a traceback, and a config error or a run stopped by an
    # error writes nothing.
    code, err, out = _run_config(tmp_path_factory.mktemp("contract"), *case)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2 or (code == 1 and err.startswith("error: ")):
        assert not out.exists()
