"""Tests of the benchmark's own parts: the tracer reaches calls made through
names other modules bound, and each output checker rejects a corrupted
artifact.

    python3 -m pytest bench/test_bench.py -q
"""

import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from rslax import cli, elliptic, lax, limits  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def test_tracer_sees_calls_through_indirect_bindings():
    # limits binds hasegawa_lax by name (from .lax import ...); the sweep
    # builds one trigonometric matrix plus one per Im(tau) value.
    conf = lax.rs_config([0.1 + 0.03j, 0.45 - 0.02j], [0.1, -0.07], 0.08 + 0.02j,
                         elliptic.lattice_from_periods(1.0, 2.5j))
    values = [5.0, 8.0, 12.0]
    original = lax.hasegawa_lax
    tracer = Tracer()
    tracer.install()
    try:
        assert limits.hasegawa_lax is not original
        limits.degeneration_sweep(conf, values)
    finally:
        tracer.uninstall()
    assert limits.hasegawa_lax is original and lax.hasegawa_lax is original
    calls = {name: v["calls"] for name, v in tracer.summary().items()}
    assert calls["lax.hasegawa_lax"] == len(values) + 1
    assert calls["limits.degeneration_sweep"] == 1


def test_tracer_reports_a_vanished_name_and_carries_on():
    tracer = Tracer(targets=TARGETS + [("elliptic", "_gone", "elliptic.gone", None)])
    tracer.install()
    try:
        elliptic.sigma(0.3, elliptic.lattice_from_periods(1.0, 2j))
    finally:
        tracer.uninstall()
    assert tracer.missing == ["elliptic._gone"]
    assert tracer.summary()["elliptic.sigma"]["calls"] == 1


def _run(tmp_path, op, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(op.config()))
    out = tmp_path / name
    assert cli.main([op.command, "--config", str(path), "--out", str(out)]) == 0
    return str(out)


def _perturb_csv(path, row, col, delta):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def _mix_op(command, **match):
    for op in workloads.cli_mix(7, 0):
        if op.command == command and all(op.params.get(k) == v for k, v in match.items()):
            return op
    raise LookupError(match)


def test_lax_checker_rejects_a_perturbed_entry(tmp_path):
    op = _mix_op("lax", family="hasegawa")
    out = _run(tmp_path, op, "lax")
    checks.check_lax(op.params, out)
    _perturb_csv(os.path.join(out, "lax.csv"), 4, 2, 1e-5)
    with pytest.raises(checks.CheckFailed):
        checks.check_lax(op.params, out)


@pytest.mark.parametrize("make", [workloads.evolve_elliptic_n3, workloads.evolve_trig_n16])
def test_evolve_checker_rejects_a_perturbed_last_row(tmp_path, make):
    op = make(7, 0)[0]
    op = workloads.Op(op.command, dict(op.params, t_end=2 * workloads.DT), op.check)
    out = _run(tmp_path, op, "evolve")
    checks.check_evolve(op.params, out)
    _perturb_csv(os.path.join(out, "trajectory.csv"), -1, 1, 1e-4)
    with pytest.raises(checks.CheckFailed):
        checks.check_evolve(op.params, out)


@pytest.mark.parametrize("kind", ["rational_cm", "trig_cm", "rational_rs", "trig_rs"])
def test_reduce_checker_rejects_a_perturbed_x_entry(tmp_path, kind):
    op = _mix_op("reduce", kind=kind)
    out = _run(tmp_path, op, "reduce")
    checks.check_reduce(op.params, out)
    _perturb_csv(os.path.join(out, "X.csv"), 2, 2, 1e-6)  # X[0, 1]
    with pytest.raises(checks.CheckFailed):
        checks.check_reduce(op.params, out)
