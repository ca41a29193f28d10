"""Benchmark of the rslax command-line toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The run
repeats the workload's fixed round of commands (see workloads.py) until S
seconds have passed, each command an in-process `rslax.cli.main([...])`
call with RSLAX_THREADS=1, and checks every command's artifacts against
computations made apart from rslax (checks.py).

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
interpreters importing rslax.cli and building the first round's inputs),
wall_s (median time of one round), op_p50_ms (median time of one command)
and peak_rss_mb.  The three times are scaled to a host of fixed speed by a
calibration kernel timed after every round and every set-up (see
calibrate).  --trace 1 runs every round twice, untraced and then under the
tracer (tracer.py), checks that both wrote byte-identical artifacts and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with library versions and
the thread setting, goes to .bench_out/<workload>.trace<0|1>.json, and the
traced run's spans to .bench_out/<workload>.spans.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
# The shared 2-vCPU host this benchmark was built on changes speed by up to
# 1.5x for tens of seconds at a time, so the medians of ten 40 s runs of the
# same code spread by up to 41% (first to third quartile).  The kernel in
# calibrate() slows with the workloads: a round's time divided by the
# kernel's time right after it varied by 2-4% between 40 s windows of one
# run where the raw time varied by 10-25%.
# Each round, command and set-up time is therefore scaled by
# CALIB_REF_S / (kernel time right after it), so it reads as on a host where
# the kernel takes CALIB_REF_S, its median on that host (Xeon Sapphire
# Rapids, KVM guest).
CALIB_REF_S = 0.016
THREAD_VARS = ("RSLAX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

os.environ["RSLAX_THREADS"] = "1"

_perf = time.perf_counter


def import_cli():
    """Import rslax.cli from ./src, before anything else imports numpy so the
    thread cap applies."""
    if not os.path.isfile(os.path.join(SRC, "rslax", "cli.py")):
        raise SystemExit("bench: ./src/rslax not found; run from the repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from rslax import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: rslax imported from {cli.__file__}, not from ./src")
    return cli


def set_up(workload, seed):
    """What every run pays before its first command: import the CLI, build
    round 0's configs and the first lattice."""
    cli = import_cli()
    import workloads

    workloads.write_configs(workloads.WORKLOADS[workload](seed, 0),
                            os.path.join(OUT, workload, "config"))
    periods = workloads.first_lattice(workload, seed)
    if periods is not None:
        cli.elliptic.lattice_from_periods(*periods)
    return cli, workloads


def calibrate():
    """Seconds a fixed kernel takes, the gauge of the host's current speed:
    60 small complex array products and eigenvalue solves, nothing from
    rslax."""
    import numpy as np

    a = np.exp(0.1j * np.arange(256.0)).reshape(16, 16)
    t0 = _perf()
    for _ in range(60):
        np.linalg.eigvals(np.prod(a[:, :, None] * a[None, :, :], axis=1))
    return _perf() - t0


def measure_setup(workload, seed):
    """Times of SETUP_REPEATS fresh interpreters from their start until
    set_up returns, each with the calibration time taken right after it.

    The child prints perf_counter (CLOCK_MONOTONIC, shared by all processes)
    when set_up returns; timing the child's exit instead would read in 50 ms
    steps, the poll interval of subprocess's wait with a timeout."""
    times, calib = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = _perf()
        out = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]) - t0)
        calib.append(calibrate())
    return times, calib


def run_op(cli, op, config_path, outdir):
    """Run one command; return (seconds, None) or (seconds, failure text)."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [op.command, "--config", config_path, "--out", outdir]
    sink = io.StringIO()
    t0 = _perf()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        failure = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # noqa: BLE001 - an escaping error is a failed operation
        failure = f"{type(exc).__name__}: {exc}"
    return _perf() - t0, failure


def same_files(a, b):
    names = sorted(os.listdir(a)) if os.path.isdir(a) else []
    if names != (sorted(os.listdir(b)) if os.path.isdir(b) else []):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


class Run:
    """Counters and timings of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.op_s = []
        self.op_s_by_command = {}
        self.round_s = []
        self.untraced_round_s = []
        self.calib_s = []
        self.scaled_round_s = []
        self.scaled_op_s = []
        self.cache_misses = 0

    def record(self, r, i, op, seconds, failure, outdir, checkers):
        self.attempted += 1
        self.op_s.append(seconds)
        self.op_s_by_command.setdefault(op.command, []).append(seconds)
        if failure is not None:
            self.failed += 1
            if not op.expect_fail:
                self.errors.append(f"round {r} op {i} ({op.command}) failed: {failure}")
            return
        try:
            checkers[op.check](op.params, outdir)
        except Exception as exc:  # noqa: BLE001 - any checker error marks the output wrong
            self.errors.append(f"round {r} op {i} ({op.command}): {type(exc).__name__}: {exc}")


def run_rounds(cli, workloads, workload, seed, seconds, tracer=None):
    from checks import CHECKERS

    run = Run()
    cfg_dir = os.path.join(OUT, workload, "config")
    ops_dir = os.path.join(OUT, workload, "ops")
    cache = getattr(cli.elliptic, "_UNIT_CACHE", None)
    t_start = _perf()
    r = 0
    while r == 0 or _perf() - t_start < seconds:
        ops = workloads.WORKLOADS[workload](seed, r)
        paths = workloads.write_configs(ops, cfg_dir)
        if tracer is not None:
            # Untraced twin first, from the same unit-cache state the traced
            # pass then starts from.
            snapshot = dict(cache) if isinstance(cache, dict) else None
            untraced = 0.0
            for i, (op, path) in enumerate(zip(ops, paths)):
                untraced += run_op(cli, op, path, os.path.join(ops_dir, f"{i}-untraced"))[0]
            run.untraced_round_s.append(untraced)
            if snapshot is not None:
                cache.clear()
                cache.update(snapshot)
            tracer.install()
        cache_before = len(cache) if isinstance(cache, dict) else 0
        op_s = []
        for i, (op, path) in enumerate(zip(ops, paths)):
            outdir = os.path.join(ops_dir, str(i))
            if tracer is not None:
                tracer.op = run.attempted
            seconds_op, failure = run_op(cli, op, path, outdir)
            op_s.append(seconds_op)
            # Checkers never call into rslax, so they add no spans.
            if tracer is not None and not same_files(outdir, os.path.join(ops_dir, f"{i}-untraced")):
                run.errors.append(f"round {r} op {i}: traced artifacts differ from untraced")
            run.record(r, i, op, seconds_op, failure, outdir, CHECKERS)
        if tracer is not None:
            tracer.uninstall()
        if isinstance(cache, dict):
            run.cache_misses += len(cache) - cache_before
        round_s = sum(op_s)
        run.round_s.append(round_s)
        calib = calibrate()
        run.calib_s.append(calib)
        run.scaled_round_s.append(round_s * CALIB_REF_S / calib)
        run.scaled_op_s += [t * CALIB_REF_S / calib for t in op_s]
        r += 1
    return run


def end_to_end_metrics(run, setup_times, setup_calib):
    setup_s = [t * CALIB_REF_S / c for t, c in zip(setup_times, setup_calib)]
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "wall_s": {"value": statistics.median(run.scaled_round_s), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(run.scaled_op_s), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(run, tracer, cache_present):
    import numpy as np
    from tracer import LAX_BUILDERS

    s = tracer.summary()
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in s:
        # The unit-cache lookup span is reported as lookups/misses below.
        if name != "elliptic.unit_cache":
            put(f"{name}.calls", s[name]["calls"], "count")
            put(f"{name}.self_s", s[name]["self_s"], "s")

    spans = tracer.arrays()[0]
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*names):
        return np.isin(spans, [ids[n] for n in names if n in ids])

    in_build = tracer.inside(LAX_BUILDERS)
    top_builds = mask(*LAX_BUILDERS) & ~in_build
    if "elliptic.sigma" in s:
        put("elliptic.sigma.args_per_call",
            _ratio(s["elliptic.sigma"]["measure"], s["elliptic.sigma"]["calls"]), "count")
    if "elliptic.theta_series" in s:
        theta_in_builds = mask("elliptic.theta_series") & in_build
        put("elliptic.theta_series.per_lax_build",
            _ratio(int(theta_in_builds.sum()), int(top_builds.sum())), "count")
    if "elliptic.unit_cache" in s and cache_present:
        lookups = s["elliptic.unit_cache"]["calls"]
        put("elliptic.unit_cache.lookups", lookups, "count")
        put("elliptic.unit_cache.misses", run.cache_misses, "count")
        # With no lookup nothing missed: the ratio reads 1.
        put("elliptic.unit_cache.hit_ratio",
            1.0 if lookups == 0 else (lookups - run.cache_misses) / lookups, "ratio")
    if "dynamics.integrate" in s:
        steps = s["dynamics.integrate"]["measure"]
        in_integrate = tracer.inside(["dynamics.integrate"])
        put("lax.builds_per_step", _ratio(int((top_builds & in_integrate).sum()), steps), "count")
    if "dynamics.hamiltonian" in s and "dynamics.hamiltonian_vector_field" in s:
        in_field = mask("dynamics.hamiltonian") & tracer.inside(["dynamics.hamiltonian_vector_field"])
        put("dynamics.hamiltonian.per_field",
            _ratio(int(in_field.sum()), s["dynamics.hamiltonian_vector_field"]["calls"]), "count")
    if "cli.write" in s:
        put("cli.write.bytes", int(s["cli.write"]["measure"]), "B")
    put("trace.overhead_s",
        statistics.median(run.round_s) - statistics.median(run.untraced_round_s), "s")
    return m


def environment():
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        set_up(args.workload, args.seed)
        print(_perf())
        return 0

    import_cli()  # fail fast, before the set-up probes, without ./src
    # Run on one vCPU, set-up children included: the two vCPUs of the shared
    # host change speed independently, so the calibration kernel only gauges
    # the speed the measured code saw if both run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    setup_times, setup_calib = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    cli, workloads = set_up(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = run_rounds(cli, workloads, args.workload, args.seed, args.seconds, tracer)

    if tracer is None:
        metrics = end_to_end_metrics(run, setup_times, setup_calib)
    else:
        cache_present = isinstance(getattr(cli.elliptic, "_UNIT_CACHE", None), dict)
        metrics = per_layer_metrics(run, tracer, cache_present)
        if not cache_present:
            tracer.missing.append("elliptic._UNIT_CACHE")
        tracer.save(os.path.join(OUT, f"{args.workload}.spans.npz"))
        for name in tracer.missing:
            print(f"bench: {name} not found; its metrics are missing", file=sys.stderr)

    for err in run.errors[:20]:
        print(f"bench: {err}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(run.round_s),
        "round_s": run.round_s,
        "op_p50_ms_by_command": {
            c: 1e3 * statistics.median(v) for c, v in sorted(run.op_s_by_command.items())
        },
        "untraced_round_s": run.untraced_round_s,
        "calib_s": run.calib_s,
        "setup_times_s": setup_times,
        "setup_calib_s": setup_calib,
        # The end-to-end times before speed calibration.
        "unscaled": {
            "setup_s": statistics.median(setup_times) if setup_times else None,
            "wall_s": statistics.median(run.round_s),
            "op_p50_ms": 1e3 * statistics.median(run.op_s),
        },
        "errors": run.errors,
        "missing": tracer.missing if tracer else [],
        "environment": environment(),
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
