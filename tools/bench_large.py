"""Bench of the large solves that perfbench does not cover.

Instances (p = 2):

- ``d=12``, ``d=16``, ``d=20`` nonlinear: random states and two random
  observables drawn from ``default_rng(40 + d)``, as in the certified
  nonlinear tests; plan dimension ``d^2``, ``2 d^2 - 1`` constraints.
- ``K=4`` linearized: the qubit base instance of perfbench's multipartite
  workload (``perfbench/workloads.py``, ``_base_instance``: four random
  observables, ``n = 256``, ``m = 25``).

Each instance runs in a fresh Python process with one BLAS thread, so that
``ru_maxrss`` is the peak of that solve alone.  A run records the
end-to-end time of ``transport.wasserstein_distance`` (constraint build,
preprocess, solve, certify, decode and face probe), the instance build
time, iterations, status, stop reason and peak RSS.

Usage::

    python3 tools/bench_large.py --label change
    python3 tools/bench_large.py --label parent --src /path/to/other/checkout/src

Each instance runs ``REPEAT`` times; the results are merged into
``BENCH_large.json`` under the label, so two checkouts measured on one host
sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(REPO, "BENCH_large.json")
INSTANCES = ("d=12", "d=16", "d=20", "K=4")
REPEAT = 3


def _instance(name: str):
    import numpy as np

    from qot import cost, linalg, transport

    if name.startswith("d="):
        dim = int(name[2:])
        rng = np.random.default_rng(40 + dim)
        rho, omega = linalg.random_density(rng, dim), linalg.random_density(rng, dim)
        obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
        return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)
    from workloads import _base_instance

    k = int(name[2:])
    rho, omega, observables = _base_instance(2, k, 100 + k)
    obs = cost.observable_set(observables)
    return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_LINEARIZED)


def run_one(name: str) -> dict:
    """Solve one instance in this process and return its record."""
    from qot import transport

    if name.startswith("K="):  # perfbench's draw, imported before the clock starts
        sys.path.insert(0, os.path.join(REPO, "perfbench"))
        import workloads  # noqa: F401
    t0 = time.perf_counter()
    try:
        instance = _instance(name)
    except ValueError as exc:  # rejected, e.g. above the dimension cap
        return {"instance": name, "error": str(exc)}
    t1 = time.perf_counter()
    result = transport.wasserstein_distance(instance)
    t2 = time.perf_counter()
    sol = result.solution
    return {
        "instance": name,
        "n": int(sol.x.shape[0]),
        "m": int(len(sol.y)),
        "instance_s": t1 - t0,
        "e2e_s": t2 - t1,
        "iterations": sol.iterations,
        "status": sol.status,
        "reason": sol.reason,
        "certified": bool(result.certificate.passed),
        "dp": result.dp,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _spawn(name: str, src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--one", name], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    if "error" in runs[0]:
        return runs[0]
    first = runs[0]
    keep = ("n", "m", "iterations", "status", "reason", "certified", "dp")
    out = {key: first[key] for key in keep}
    for key in ("e2e_s", "instance_s", "peak_rss_mb"):
        values = [r[key] for r in runs]
        out[key] = round(statistics.median(values), 4)
        out[f"{key}_runs"] = [round(v, 4) for v in values]
    out["stable"] = all(all(r[key] == first[key] for key in keep[:5]) for r in runs)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", help=argparse.SUPPRESS)
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", default=os.path.join(REPO, "src"))
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_one(args.one)))
        return 0

    results = {}
    for name in INSTANCES:
        runs = [_spawn(name, os.path.abspath(args.src)) for _ in range(REPEAT)]
        results[name] = _summary(runs)
        print(name, json.dumps(results[name]), flush=True)
    doc = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("setup", {
        "blas_threads": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    })
    doc.setdefault("runs", {})[args.label] = results
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
