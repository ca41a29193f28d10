"""Benchmark-side tracer: spans around the public functions of each rslax
layer, installed from outside the program.

`Tracer.install()` replaces each target function with a wrapper in every
rslax module namespace that binds it, including names bound by
`from .x import f` and values of module-level dicts (the CLI's runner
table).  Each call records a span (name, start, end, parent span, operation
id) in flat in-memory arrays; nothing is written until `save()`.
`uninstall()` puts the original functions back.

A target whose name no longer exists is recorded in `missing` and its
metrics are left out of the report; the run goes on.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

_perf = time.perf_counter
PACKAGE = "rslax"


def _sigma_args(args, kwargs, result):
    return float(np.size(args[0] if args else kwargs["z"]))


def _bytes_written(args, kwargs, result):
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _steps(args, kwargs, result):
    return float(len(result.times) - 1)


# (module, attribute, span name, measure).  measure(args, kwargs, result)
# runs after a call that returned and gives a number stored with the span:
# sigma's argument count, bytes a writer wrote, RK4 steps an integration took.
TARGETS = [
    ("elliptic", "_theta_series", "elliptic.theta_series", None),
    ("elliptic", "sigma", "elliptic.sigma", _sigma_args),
    ("elliptic", "wp", "elliptic.wp", None),
    ("elliptic", "lattice_from_periods", "elliptic.lattice_from_periods", None),
    ("elliptic", "fit_trivial_theta", "elliptic.fit_trivial_theta", None),
    ("elliptic", "_unit_constants", "elliptic.unit_cache", None),
    ("elliptic", "lattice_distance", "elliptic.lattice_distance", None),
    ("lax", "rs_config", "lax.rs_config", None),
    ("lax", "hasegawa_lax", "lax.hasegawa_lax", None),
    ("lax", "composition_lax", "lax.composition_lax", None),
    ("lax", "ruijsenaars_lax", "lax.ruijsenaars_lax", None),
    ("lax", "krichever_lax", "lax.krichever_lax", None),
    ("lax", "factorized_cm_lax", "lax.factorized_cm_lax", None),
    ("dynamics", "hamiltonian", "dynamics.hamiltonian", None),
    ("dynamics", "hamiltonian_vector_field", "dynamics.hamiltonian_vector_field", None),
    ("dynamics", "integrate", "dynamics.integrate", _steps),
    ("cauchy", "build_elliptic_cauchy", "cauchy.build_elliptic_cauchy", None),
    ("cauchy", "frobenius_determinant", "cauchy.frobenius_determinant", None),
    ("limits", "degeneration_sweep", "limits.degeneration_sweep", None),
    ("limits", "cm_limit_sweep", "limits.cm_limit_sweep", None),
    ("reductions", "solve_rational_cm", "reductions.solve", None),
    ("reductions", "solve_trig_cm", "reductions.solve", None),
    ("reductions", "solve_rational_rs", "reductions.solve", None),
    ("reductions", "solve_trig_rs", "reductions.solve", None),
    ("reductions", "moment_residual", "reductions.moment_residual", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "write_json", "cli.write", _bytes_written),
    ("cli", "write_csv", "cli.write", _bytes_written),
    ("cli", "run_verify", "cli.runner", None),
    ("cli", "run_lax", "cli.runner", None),
    ("cli", "run_evolve", "cli.runner", None),
    ("cli", "run_limit", "cli.runner", None),
    ("cli", "run_reduce", "cli.runner", None),
]

LAX_BUILDERS = (
    "lax.hasegawa_lax",
    "lax.composition_lax",
    "lax.ruijsenaars_lax",
    "lax.krichever_lax",
    "lax.factorized_cm_lax",
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []
        self._name_id = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.measure = array("d")
        self.op = -1
        self.missing = []
        self._stack = []
        self._patches = []
        self._wrappers = None

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        if self._wrappers is None:
            self._wrappers = []
            for mod_name, attr, span_name, measure in self.targets:
                mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
                original = getattr(mod, attr, None)
                if callable(original):
                    self._wrappers.append((original, self._wrap(original, span_name, measure)))
                else:
                    self.missing.append(f"{mod_name}.{attr}")
        modules = self._modules()
        for original, wrapper in self._wrappers:
            for m in modules:
                ns = vars(m)
                for key, val in list(ns.items()):
                    if val is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is original:
                                self._patches.append((val, k, original))
                                val[k] = wrapper

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def _wrap(self, fn, span_name, measure):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_id[span_name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            self.measure.append(0.0)
            stack.append(idx)
            self.start.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _perf()
                stack.pop()
            if measure is not None:
                self.measure[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def arrays(self):
        """Copies of the spans as numpy arrays: name id, start, end, parent,
        op, measure.  (Copies, because an array.array cannot grow while a
        view of it is alive.)"""
        return tuple(
            np.array(a)
            for a in (self.name_of, self.start, self.end, self.parent, self.op_of, self.measure)
        )

    def summary(self):
        """Per span name: calls, self seconds and summed measure.  Self time
        is a span's duration minus the durations of its direct children."""
        name, start, end, parent, _, measure = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_sum = np.bincount(name, weights=self_s, minlength=k)
        meas = np.bincount(name, weights=measure, minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_sum[i]), "measure": float(meas[i])}
            for i, n in enumerate(self.names)
        }

    def inside(self, span_names):
        """Boolean per span: some strict ancestor is one of span_names."""
        ids = {self._name_id[n] for n in span_names if n in self._name_id}
        name, parent = self.name_of.tolist(), self.parent.tolist()
        out = [False] * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                out[i] = out[p] or name[p] in ids
        return np.array(out, dtype=bool)

    def save(self, path):
        name, start, end, parent, op, measure = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end,
            parent=parent, op=op, measure=measure,
        )
