"""Command-line harness: verification suites, Lax-matrix dumps, flow
integration, limit sweeps, and moment-map reductions, driven by a versioned
JSON experiment config.

Usage:
    rslax {verify,lax,evolve,limit,reduce} --config path.json
          [--seed N] [--out DIR] [--tol-scale X]

All randomness flows from a single seeded NumPy PCG64 stream, so outputs are
byte-identical across reruns with the same config and seed.  Tabular data is
written as RFC-4180 CSV with complex values split into real/imaginary column
pairs; summaries are JSON with complex values as {"re": ..., "im": ...}.
Runners return their artifacts as data; main makes the output directory and
writes them, then report.json, so a run stopped by an error writes nothing.
Each file is written to a new 0600 .tmp-rslax-<pid>-<n> (O_EXCL), then renamed
over its target.  Exit status is 0 iff every check passes.  RSLAX_THREADS caps
BLAS/OpenMP threads.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field

# Honor the thread cap before numpy initializes its BLAS backend.
_threads = os.environ.get("RSLAX_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import numpy as np

from . import dynamics, elliptic, lax, limits, reductions
from .cauchy import CauchyMatrixSpec, build_elliptic_cauchy, frobenius_determinant
from .errors import CollisionImminent, ConfigInvalid, RslaxError

SCHEMA_VERSION = 1
# The most RK4 steps, round(t_end/dt), that `rslax evolve` runs: a trajectory
# holds every step, so the bound keeps a run's memory and time finite.
MAX_EVOLVE_STEPS = 100_000

_encode_str = json.encoder.encode_basestring_ascii
_tmp_seq = itertools.count()  # the n of the temporary names .tmp-rslax-<pid>-<n>
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC | os.O_NOFOLLOW  # as mkstemp's


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file: command, seed, command params, output dir."""

    command: str
    seed: int
    params: dict
    output_dir: str
    tol_scale: float = 1.0


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # "pass" | "fail"
    residual: float
    tolerance: float


@dataclass
class RunReport:
    """Outcome of one CLI run, one row per scheduled check; written as
    report.json.  It holds no wall time, so reruns write identical bytes."""

    command: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name, residual, tolerance):
        residual = float(residual)
        status = "pass" if residual < tolerance else "fail"
        self.checks.append(CheckRow(name, status, residual, float(tolerance)))


# ---------------------------------------------------------------------------
# JSON / CSV plumbing


def _as_complex(v, field_name):
    """v as a finite complex: a number (not a bool), a complex string or {re, im}."""
    try:
        if any(isinstance(x, bool) for x in (v.values() if isinstance(v, dict) else (v,))):
            out = None
        elif isinstance(v, dict) and set(v) <= {"re", "im"}:
            out = complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
        else:
            out = complex(v) if isinstance(v, (int, float, complex, str)) else None
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None:
        raise ConfigInvalid("expected a number, a complex string, or {re, im}", field=field_name)
    if not cmath.isfinite(out):
        raise ConfigInvalid("must be finite", field=field_name)
    return out


def _as_real(v, field_name, positive=False):
    """v as a float: a finite JSON number (not a bool), > 0 if positive."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigInvalid("expected a real number", field=field_name)
    out = _as_complex(v, field_name).real
    if positive and out <= 0:
        raise ConfigInvalid("must be positive", field=field_name)
    return out


def _complex_list(v, field_name, n=None):
    """v as a list of complex numbers: n of them, or, with n None, at least one."""
    if not isinstance(v, list):
        raise ConfigInvalid("expected a list", field=field_name)
    if n is None and not v:
        raise ConfigInvalid("expected a non-empty list", field=field_name)
    if n is not None and len(v) != n:
        raise ConfigInvalid(f"expected {n} values, got {len(v)}", field=field_name)
    return [_as_complex(x, f"{field_name}[{i}]") for i, x in enumerate(v)]


def _choice(p, key, choices, default):
    v = p.get(key, default)
    choices = tuple(choices)
    if v not in choices:
        raise ConfigInvalid(f"must be one of {', '.join(choices)}; got {v!r}", field=f"params.{key}")
    return v


def _sweep_values(p, key, positive=False):
    """params[key] as a non-empty, strictly monotone list of real numbers."""
    values = p.get(key)
    field_name = f"params.{key}"
    if not isinstance(values, list) or not values:
        raise ConfigInvalid("expected a non-empty list", field=field_name)
    out = [_as_real(v, f"{field_name}[{i}]", positive) for i, v in enumerate(values)]
    d = np.diff(out)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ConfigInvalid("values must be strictly monotone", field=field_name)
    return out


def _json_float(x):
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_LEAF_TEXT = {  # the text of a value at the indent i by its exact type: the leaves of tolist()
    complex: lambda z, i: (
        f'{{\n{i}  "im": {_json_float(z.imag)},\n{i}  "re": {_json_float(z.real)}\n{i}}}'
    ),
    float: lambda x, i: _json_float(x),
    int: lambda x, i: int.__repr__(x),
    str: lambda x, i: _encode_str(x),
    bool: lambda x, i: "true" if x else "false",
    type(None): lambda x, i: "null",
}


def _json_text(obj, indent=""):
    """obj as JSON text with sorted keys and a 2-space indent, the text of
    json.dumps(..., sort_keys=True, indent=2, allow_nan=False) after
    complex numbers become {"re", "im"}, ndarrays lists and numpy scalars
    Python numbers.  Keys must be str.  ValueError for a non-finite float,
    TypeError for a value JSON cannot hold."""
    if isinstance(obj, np.ndarray) and obj.ndim:
        obj = obj.tolist()
    elif isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf:
        return leaf(obj, indent)
    for kind, text in _LEAF_TEXT.items():  # subclasses of the leaf types
        if isinstance(obj, kind):
            return text(obj, indent)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_LEAF_TEXT.get(type(x), _json_text)(x, inner) for x in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_encode_str(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _open_temporary(d):
    """(fd, name) of a new 0600 .tmp-rslax-<pid>-<n> in the directory d, past the taken names."""
    for _ in range(os.TMP_MAX):
        tmp = os.path.join(d, f".tmp-rslax-{os.getpid()}-{next(_tmp_seq)}")
        try:
            return os.open(tmp, _TMP_FLAGS, 0o600), tmp
        except FileExistsError:
            continue
    raise FileExistsError("No usable temporary file name found")


def _write_atomic(path, data: bytes):
    """Write data to path through a 0600 temporary file in its directory,
    which must exist, then rename it over path."""
    fd, tmp = _open_temporary(os.path.dirname(path))
    try:
        try:
            view = memoryview(data)
            while view:  # os.write may write less than it is given
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    _write_atomic(path, (_json_text(obj) + "\n").encode("utf-8"))


def write_csv(path, header, rows):
    """The header and rows as CSV lines ending in CRLF.  Every cell is an
    int, a float (written as its repr) or a header name, none of which holds
    a comma, a quote or a line break, so csv's minimal quoting would quote
    nothing."""
    lines = [",".join(map(str, row)) for row in [header, *rows]]
    _write_atomic(path, ("\r\n".join(lines) + "\r\n").encode("utf-8"))


def _matrix_table(M):
    """(header, rows) of the matrix M: one row (row, col, re, im) per entry, row-major."""
    cols = M.shape[1]
    cells = enumerate(M.ravel().tolist())
    rows = [(*divmod(k, cols), float(v.real), float(v.imag)) for k, v in cells]
    return ["row", "col", "re", "im"], rows


def load_config(path, command, seed_override=None, out_override=None, tol_scale=1.0):
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:  # the newline translation of a text-mode read
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text)
    except OSError as exc:
        raise ConfigInvalid(str(exc), field="config")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"not valid UTF-8: {exc}", field="config")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"not valid JSON: {exc}", field="config")
    if not isinstance(raw, dict):
        raise ConfigInvalid("top level must be an object", field="config")
    # JSON true and 1.0 are not integers, though Python compares them equal to 1.
    version = raw.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ConfigInvalid(
            f"schema_version must be the integer {SCHEMA_VERSION}", field="schema_version"
        )
    cfg_command = raw.get("command", command)
    if cfg_command != command:
        raise ConfigInvalid(
            f"config declares command {cfg_command!r} but {command!r} was invoked",
            field="command",
        )
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigInvalid("seed must be an integer", field="seed")
    out = out_override or raw.get("output_dir", ".")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid("params must be an object", field="params")
    return ExperimentConfig(command, seed, params, out, _as_real(tol_scale, "tol_scale"))


def _lattice_from_params(p, field_name="lattice"):
    """The builder of the lattice the checked fields p describe: a function
    of no arguments, so that a runner reads all its fields before it
    computes anything."""
    if not isinstance(p, dict):
        raise ConfigInvalid("expected an object", field=field_name)
    kind = p.get("kind", "elliptic")
    if kind == "trig":
        return elliptic.trig_lattice
    if kind == "rational":
        return elliptic.rational_lattice
    if kind == "elliptic":
        o1 = _as_complex(p.get("omega1", 1.0), f"{field_name}.omega1")
        o2 = _as_complex(p.get("omega2", 2j), f"{field_name}.omega2")
        if o1 == 0 or (o2 / o1).imag <= 0:
            raise ConfigInvalid("Im(omega2/omega1) must be positive", field=f"{field_name}.omega2")
        return lambda: elliptic.lattice_from_periods(o1, o2)
    raise ConfigInvalid(f"unknown lattice kind {kind!r}", field=f"{field_name}.kind")


def _rs_config_from_params(p, field_name="params"):
    """The builder of the RS configuration the checked fields p describe
    (see _lattice_from_params)."""
    for key in ("q", "P", "hbar"):
        if key not in p:
            raise ConfigInvalid("missing required field", field=f"{field_name}.{key}")
    lattice = _lattice_from_params(p.get("lattice", {}), f"{field_name}.lattice")
    q = _complex_list(p["q"], f"{field_name}.q")
    P = _complex_list(p["P"], f"{field_name}.P", len(q))
    hbar = _as_complex(p["hbar"], f"{field_name}.hbar")
    mu = _as_complex(p["mu"], f"{field_name}.mu") if "mu" in p else None
    return lambda: lax.rs_config(q, P, hbar, lattice(), mu=mu)


# ---------------------------------------------------------------------------
# verify


def _random_lattice(rng):
    o1 = 1.0 + 0.2 * rng.normal() + 0.1j * rng.normal()
    ratio = 0.3 * rng.normal() + 1j * (1.5 + abs(rng.normal()))
    return elliptic.lattice_from_periods(o1, o1 * ratio)


def _check_sigma_quasi_periodicity(rng, n_points=30, n_lattices=4):
    worst = 0.0
    for _ in range(n_lattices):
        lat = _random_lattice(rng)
        z = 0.3 * (rng.normal(size=n_points) + 1j * rng.normal(size=n_points))
        for om, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2)):
            lhs = elliptic.sigma(z + om, lat)
            rhs = -np.exp(2 * eta * (z + om / 2)) * elliptic.sigma(z, lat)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    return worst


def _check_basis_invariance(rng, n_points=10, n_lattices=4):
    """Worst relative difference of sigma at the same points in the bases
    tau, tau + 1 and -1/tau of random lattices, Im tau down to 0.02, within
    two shortest periods of the origin.  The periods lie on a grid of 2^-30,
    so the three bases span one lattice exactly.  A NaN difference is the
    result, not skipped."""
    worst = []
    for _ in range(n_lattices):
        o1 = complex(*rng.normal(size=2))
        tau = complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(np.log10(0.02), 0.5))
        o1, o2 = np.round(np.array([o1, o1 * tau]) * 2**30) / 2**30
        lats = [elliptic.lattice_from_periods(*b) for b in ((o1, o2), (o1, o2 + o1), (o2, -o1))]
        u, v = rng.uniform(-1, 1, (2, n_points))
        z = 2 * lats[0].red_omega1 * (u + 1j * v)
        s0, s1, s2 = (elliptic.sigma(z, lat) for lat in lats)
        worst.append(np.max(np.abs([s1 - s0, s2 - s0]) / np.abs(s0)))
    return float(np.max(worst))


def _check_frobenius(rng, trials=25):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        lat = _random_lattice(rng)
        qs = 0.25 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * 0.4
        rs = qs + 0.13 + 0.07j + 0.05 * rng.normal(size=n)
        lam = 0.21 + 0.17j
        spec = CauchyMatrixSpec(tuple(qs), tuple(rs), lat)
        det_closed = frobenius_determinant(spec, lam)
        det_lu = np.linalg.det(build_elliptic_cauchy(spec, lam).entries)
        worst = max(worst, abs(det_closed - det_lu) / abs(det_lu))
    return worst


def _check_lax_equivalence(rng, trials=10):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        lat = _random_lattice(rng)
        q = 0.12 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + np.arange(n) * 0.3
        P = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        conf = lax.rs_config(q, P, 0.11 + 0.04j, lat)
        z = 0.19 + 0.27j
        A = lax.hasegawa_lax(conf, z).entries
        B = lax.composition_lax(conf, z).entries
        worst = max(worst, float(np.max(np.abs(A - B)) / np.max(np.abs(A))))
    return worst


def _check_rational_cm_moment(rng):
    n = 4
    q = np.sort(rng.normal(size=n)) + 1j * 0.1 * rng.normal(size=n)
    p = rng.normal(size=n) + 1j * 0.1 * rng.normal(size=n)
    orb = reductions.OrbitSpec(g=0.7 + 0.2j)
    pair = reductions.solve_rational_cm(q, p, orb)
    return reductions.moment_residual(pair, orb)


def _check_trig_cm_moment(rng):
    n = 4
    q = np.sort(rng.normal(size=n)) * 1.3 + 1j * 0.2 * rng.normal(size=n)
    orb = reductions.OrbitSpec(g=0.6 + 0.1j)
    pair = reductions.solve_trig_cm(q, orb, np.ones(n))
    return reductions.moment_residual(pair, orb)


def _check_rational_rs_moment(rng):
    n = 3
    th = rng.normal(size=n) + 1j * 0.3 * rng.normal(size=n)
    orb = reductions.OrbitSpec(g=0.4)
    pair = reductions.solve_rational_rs(th, orb, rng.normal(size=n))
    return reductions.moment_residual(pair, orb)


def _check_degeneration(rng):
    q = [0.1 + 0.03j, 0.45 - 0.02j]
    P = [0.1, -0.07]
    lat = elliptic.lattice_from_periods(1.0, 20j)
    conf = lax.rs_config(q, P, 0.08 + 0.02j, lat)
    sweep = limits.degeneration_sweep(conf, [20.0])
    return sweep.errors[0]


def _check_cm_limit_order(rng):
    q = [0.1 + 0.03j, 0.45 - 0.02j, 0.8 + 0.01j]
    p = [0.3, -0.2, 0.1]
    lat = elliptic.lattice_from_periods(1.0, 2.5j)
    sweep = limits.cm_limit_sweep(lax.cm_config(q, p, 1.0, lat), [1e-2, 5e-3, 2.5e-3])
    return abs(sweep.fitted_order - 1.0)


_VERIFY_CHECKS = {
    "sigma_quasi_periodicity": (_check_sigma_quasi_periodicity, 1e-9),
    "basis_invariance": (_check_basis_invariance, 1e-12),
    "frobenius_determinant": (_check_frobenius, 1e-8),
    "lax_equivalence": (_check_lax_equivalence, 1e-7),
    "rational_cm_moment": (_check_rational_cm_moment, 1e-10),
    "trig_cm_moment": (_check_trig_cm_moment, 1e-10),
    "rational_rs_moment": (_check_rational_rs_moment, 1e-10),
    "degeneration_residual": (_check_degeneration, 1e-8),
    "cm_limit_order": (_check_cm_limit_order, 0.15),
}


def run_verify(cfg: ExperimentConfig, report: RunReport):
    names = cfg.params.get("checks")
    if names is None:
        names = list(_VERIFY_CHECKS)
    if not isinstance(names, list):
        raise ConfigInvalid("expected a list of check names", field="params.checks")
    for name in names:
        if not (isinstance(name, str) and name in _VERIFY_CHECKS):
            raise ConfigInvalid(f"unknown check {name!r}", field="params.checks")
    for name in names:
        fn, tol = _VERIFY_CHECKS[name]
        rng = np.random.default_rng([cfg.seed, zlib.crc32(name.encode("utf-8"))])
        report.add(name, fn(rng), tol * cfg.tol_scale)
    return {}


# ---------------------------------------------------------------------------
# lax


# family -> the matrix at z (and lam, read for krichever only)
_LAX_BUILDERS = {
    "hasegawa": lambda conf, z, lam: lax.hasegawa_lax(conf, z),
    "composition": lambda conf, z, lam: lax.composition_lax(conf, z),
    "ruijsenaars": lambda conf, z, lam: lax.ruijsenaars_lax(conf, z),
    "krichever": lambda conf, z, lam: lax.krichever_lax(conf, z, lam),
}


def run_lax(cfg: ExperimentConfig, report: RunReport):
    p = cfg.params
    family = _choice(p, "family", _LAX_BUILDERS, "hasegawa")
    make_conf = _rs_config_from_params(p)
    z = _as_complex(p.get("z", 0.31 + 0.43j), "params.z")
    lam = _as_complex(p.get("lam", 0.23 + 0.11j), "params.lam") if family == "krichever" else None
    conf = make_conf()
    M = _LAX_BUILDERS[family](conf, z, lam)

    return {
        "lax.csv": _matrix_table(M.entries),
        "lax.json": {"family": family, "n": conf.n, "z": z, "entries": M.entries},
    }


# ---------------------------------------------------------------------------
# evolve


def run_evolve(cfg: ExperimentConfig, report: RunReport):
    p = cfg.params
    dt = _as_real(p.get("dt", 1e-3), "params.dt", positive=True)
    t_end = _as_real(p.get("t_end", 1.0), "params.t_end", positive=True)
    if t_end / dt > MAX_EVOLVE_STEPS:
        raise ConfigInvalid(
            f"t_end/dt = {t_end / dt:g} exceeds the step cap of {MAX_EVOLVE_STEPS}",
            field="params.t_end",
        )
    index = p.get("index", 1)
    if isinstance(index, bool) or not isinstance(index, int) or index < 1:
        raise ConfigInvalid("expected an integer >= 1", field="params.index")
    hspec = dynamics.HamiltonianSpec(
        family=_choice(p, "family", dynamics._FAMILIES, "trace_power"),
        index=index,
        lax_family=_choice(p, "lax_family", dynamics._LAX_FAMILIES, "hasegawa"),
    )
    coordinates = _choice(p, "coordinates", dynamics._COORDINATES, "p")
    drift_tol = _as_real(p.get("drift_tolerance", 1e-6), "params.drift_tolerance") * cfg.tol_scale
    conf = _rs_config_from_params(p)()
    start = dynamics.PhasePoint(conf.q, conf.P)

    collided = False
    try:
        traj = dynamics.integrate(hspec, start, conf, t_end, dt, coordinates)
    except CollisionImminent as exc:
        traj = exc.trajectory
        collided = True
        print(
            f"flow stopped after t = {traj.times[-1]:g}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )

    n = conf.n
    header = ["t"] + [f"{part}_{x}{i}" for x in "qp" for i in range(n) for part in ("re", "im")]
    header.append("spectral_drift")
    qp = np.array([pt.q + pt.p for pt in traj.points])
    # Columns re, im of each q_i, then of each p_i; .tolist() keeps the cells
    # Python floats, whose repr write_csv prints.
    table = np.column_stack(
        [traj.times, np.stack([qp.real, qp.imag], axis=2).reshape(len(qp), -1), traj.spectral_drift]
    )
    max_drift = max((float(d) for d in traj.spectral_drift), default=0.0)
    report.add("spectral_drift", max_drift, drift_tol)
    # 1.0 is not below the tolerance 1.0: a collision fails the check.
    report.add("completed", float(collided), 1.0)
    return {
        "trajectory.csv": (header, table.tolist()),
        "summary.json": {
            "n": n,
            "steps": len(traj.times) - 1 if traj.times else 0,
            "t_end_reached": traj.times[-1] if traj.times else None,
            "max_spectral_drift": max_drift,
            "collision": collided,
        },
    }


# ---------------------------------------------------------------------------
# limit


def run_limit(cfg: ExperimentConfig, report: RunReport):
    p = cfg.params
    sweep_kind = _choice(p, "sweep", ("degeneration", "cm"), None)
    make_conf = _rs_config_from_params(p)

    if sweep_kind == "degeneration":
        values = _sweep_values(p, "im_tau_values", positive=True)
        residual_tol = _as_real(p.get("residual_tolerance", 1e-8), "params.residual_tolerance")
        sweep = limits.degeneration_sweep(make_conf(), values)
        tail = [e for t, e in zip(sweep.values, sweep.errors) if t >= 5.0]
        mono = max([0.0, *(b - a for a, b in zip(tail, tail[1:]))])
        report.add("tail_monotone", mono, 1e-12)
        report.add("final_residual", sweep.errors[-1], residual_tol * cfg.tol_scale)
    else:
        # The order is fitted to log(hbar).
        values = _sweep_values(p, "hbar_values", positive=True)
        pvec = _complex_list(p.get("p", [0.0] * len(p["q"])), "params.p", len(p["q"]))
        # P, hbar and mu, checked with make_conf, enter no formula: each RS
        # point is built from the CM configuration.
        lattice = _lattice_from_params(p.get("lattice", {}), "params.lattice")
        cmc = lax.cm_config(_complex_list(p["q"], "params.q"), pvec, 1.0, lattice())
        sweep = limits.cm_limit_sweep(cmc, values)
        if sweep.fitted_order is not None:
            report.add("fitted_order_near_one", abs(sweep.fitted_order - 1.0), 0.15 * cfg.tol_scale)

    return {
        "sweep.csv": (["parameter", "residual"], list(zip(sweep.values, sweep.errors))),
        "sweep.json": {
            "parameter": sweep.parameter,
            "values": list(sweep.values),
            "errors": list(sweep.errors),
            "fitted_order": sweep.fitted_order,
        },
    }


# ---------------------------------------------------------------------------
# reduce


def run_reduce(cfg: ExperimentConfig, report: RunReport):
    p = cfg.params
    kind = _choice(p, "kind", ("rational_cm", "trig_cm", "rational_rs", "trig_rs"), None)
    if kind != "trig_rs":  # whose orbit has g = 0
        orb = reductions.OrbitSpec(g=_as_complex(p.get("g", 1.0), "params.g"))
    if kind == "rational_cm":
        q = _complex_list(p.get("q", []), "params.q")
        mom = _complex_list(p.get("p", [0.0] * len(q)), "params.p", len(q))
        pair = reductions.solve_rational_cm(q, mom, orb)
    elif kind == "trig_cm":
        q = _complex_list(p.get("q", []), "params.q")
        gauge = _complex_list(p.get("gauge", [1.0] * len(q)), "params.gauge", len(q))
        pair = reductions.solve_trig_cm(q, orb, gauge)
    elif kind == "rational_rs":
        th = _complex_list(p.get("theta", []), "params.theta")
        diag = _complex_list(p.get("diag_free", [0.0] * len(th)), "params.diag_free", len(th))
        pair = reductions.solve_rational_rs(th, orb, diag)
    else:  # trig_rs
        th = _complex_list(p.get("theta", []), "params.theta")
        u = _complex_list(p.get("u", []), "params.u", len(th))
        v = _complex_list(p.get("v", []), "params.v", len(th))
        diag = _complex_list(p.get("diag_free", [1.0] * len(th)), "params.diag_free", len(th))
        orb = reductions.OrbitSpec(g=0.0, u=tuple(u), v=tuple(v))
        pair = reductions.solve_trig_rs(th, orb, diag)

    residual = reductions.moment_residual(pair, orb)
    report.add("moment_residual", residual, 1e-10 * cfg.tol_scale)
    return {
        "X.csv": _matrix_table(pair.X),
        "Y.csv": _matrix_table(pair.Y),
        "reduce.json": {"kind": kind, "residual": residual, "X": pair.X, "Y": pair.Y},
    }


# ---------------------------------------------------------------------------
# entry point

_RUNNERS = {
    "verify": run_verify,
    "lax": run_lax,
    "evolve": run_evolve,
    "limit": run_limit,
    "reduce": run_reduce,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at its first use and kept for the
    process: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="rslax",
        description="Numerical toolkit for Ruijsenaars-Schneider and Calogero-Moser Lax matrices.",
    )
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--tol-scale", type=float, default=1.0, help="scale every check tolerance")
    return parser


@functools.cache
def _defaults():
    """The value _parser gives each option a command line leaves out."""
    return {a.dest: a.default for a in _parser()._actions if a.default is not argparse.SUPPRESS}


def _parse_args(argv):
    """argv as _parser reads it.  COMMAND --config PATH [--out DIR], with no
    value that starts with "-", is read without argparse, whose parse costs
    more than loading a config; the options it leaves out take _parser's
    defaults."""
    argv = sys.argv[1:] if argv is None else list(argv)
    flags = argv[1::2]
    if (
        len(argv) in (3, 5)
        and argv[0] in _RUNNERS
        and flags == ["--config", "--out"][: len(flags)]
        and not any(v.startswith("-") for v in argv[2::2])
    ):
        given = dict(zip(["command", "config", "out"], argv[::2]))
        return argparse.Namespace(**{**_defaults(), **given})
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)

    try:
        cfg = load_config(args.config, args.command, args.seed, args.out, args.tol_scale)
        report = RunReport(args.command)
        t0 = time.perf_counter()
        artifacts = _RUNNERS[args.command](cfg, report)
        artifacts["report.json"] = {"command": cfg.command, "checks": list(map(vars, report.checks))}
        os.makedirs(cfg.output_dir or ".", exist_ok=True)
        for name, content in artifacts.items():
            path = os.path.join(cfg.output_dir, name)
            if name.endswith(".csv"):
                write_csv(path, *content)
            else:
                write_json(path, content)
        wall_time = time.perf_counter() - t0
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RslaxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for c in report.checks:
        print(f"{c.status:4s}  {c.name}  residual={c.residual:.3e}  tol={c.tolerance:.3e}")
    print(f"wall time: {wall_time:.2f}s")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
