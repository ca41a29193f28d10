"""Per-call reference figures for the README's table.

    python3 bench/reference.py

Run from the repository root.  Times, single-threaded (RSLAX_THREADS=1):
hasegawa_lax and hamiltonian_vector_field (H = Tr L) per call at
n in {2, 4, 8, 16, 32} on the elliptic lattice (1, 0.2+2.4i) and the
trigonometric kind; `rslax evolve` per RK4 step at n = 3 on both kinds; and
one elliptic sigma call on a scalar against one on a 1000-vector.  Each
figure is the median of five batches, a batch repeating the call for about
BUDGET/5 seconds.  Prints a markdown table and writes
.bench_out/reference.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import tempfile
import time

from run import OUT, environment, import_cli

SIZES = (2, 4, 8, 16, 32)
EVOLVE_STEPS = 20
BUDGET = 1.0  # seconds of calls per figure


def per_call(fn):
    """Median over five batches of the seconds one fn() call takes."""
    fn()
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(BUDGET / 5 / max(time.perf_counter() - t0, 1e-9)))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def main():
    cli = import_cli()
    import numpy as np

    import workloads
    from rslax import dynamics, elliptic, lax

    ell = elliptic.lattice_from_periods(*workloads.ELLIPTIC_PERIODS)
    kinds = {"elliptic": (ell, 0.9), "trigonometric": (elliptic.trig_lattice(), np.pi)}
    spec = dynamics.HamiltonianSpec("trace_power", 1)
    rows = []
    for kind, (lat, period) in kinds.items():
        for n in SIZES:
            k = np.arange(n)
            q = 0.02 + 0.01j * np.sin(k) + k * period / (n + 1)
            conf = lax.rs_config(q, 0.1 * np.cos(k), workloads.HBAR_ELLIPTIC, lat)
            point = dynamics.PhasePoint(conf.q, conf.P)
            rows.append({
                "kind": kind,
                "n": n,
                "hasegawa_lax_ms": 1e3 * per_call(
                    lambda: lax.hasegawa_lax(conf, workloads.EVAL_Z)),
                "hamiltonian_vector_field_ms": 1e3 * per_call(
                    lambda: dynamics.hamiltonian_vector_field(spec, point, conf)),
            })

    evolve_ms = {}
    with tempfile.TemporaryDirectory(dir=OUT if os.path.isdir(OUT) else None) as tmp:
        for kind, make in (("elliptic", workloads.evolve_elliptic_n3),
                           ("trigonometric", workloads.evolve_trig_n16)):
            op = make(0, 0)[0]
            params = dict(op.params, t_end=EVOLVE_STEPS * workloads.DT)
            if kind == "trigonometric":
                params.update(q=params["q"][:3], P=params["P"][:3])
            path = os.path.join(tmp, f"{kind}.json")
            with open(path, "w") as fh:
                json.dump(workloads.Op("evolve", params, "evolve").config(), fh)
            argv = ["evolve", "--config", path, "--out", os.path.join(tmp, kind)]
            with contextlib.redirect_stdout(io.StringIO()):
                seconds = per_call(lambda: cli.main(argv))
            evolve_ms[kind] = 1e3 * seconds / EVOLVE_STEPS

    z = 0.3 * np.exp(2j * np.pi * np.arange(1000) / 1000)
    sigma_ms = {
        "scalar": 1e3 * per_call(lambda: elliptic.sigma(0.3 + 0.1j, ell)),
        "vector_1000": 1e3 * per_call(lambda: elliptic.sigma(z, ell)),
    }

    print("| kind | n | hasegawa_lax ms | hamiltonian_vector_field ms |")
    print("|---|---|---|---|")
    for r in rows:
        print(f"| {r['kind']} | {r['n']} | {r['hasegawa_lax_ms']:.3f} "
              f"| {r['hamiltonian_vector_field_ms']:.2f} |")
    for kind, ms in evolve_ms.items():
        print(f"\nrslax evolve, n = 3, {kind}: {ms:.1f} ms per RK4 step")
    print(f"\nelliptic sigma: scalar {1e3 * sigma_ms['scalar']:.1f} us, "
          f"1000-vector {sigma_ms['vector_1000']:.3f} ms")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "reference.json"), "w") as fh:
        json.dump({"per_call": rows, "evolve_ms_per_step_n3": evolve_ms,
                   "sigma_ms": sigma_ms, "environment": environment()}, fh, indent=2)


if __name__ == "__main__":
    main()
