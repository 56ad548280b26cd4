"""Bench of the small solves: the qubit suites and rank-deficient qudit pairs.

Groups (p = 2):

- ``qubit``: the six qubit suites of perfbench's qubit-sweep workload at its
  sizes (strong-duality with 5 samples, the three grids at density 3, the two
  divergence sweeps at density 4), 114 transport solves with ``n = 4``,
  ``m = 7``; ``CYCLES`` cycles, strong-duality drawn from seed ``c``.
- ``rank d=3`` and ``rank d=4``: the d=3 and d=4 pairs of perfbench's
  rank-deficient workload (``perfbench/workloads.py``, ``RANK_MIX``: pure,
  rank-deficient and full-rank states, two random observables, nonlinear
  mode, ``n = 9`` and ``16``), in ``CYCLES`` monomial changes of basis drawn
  from seed 0, solved by ``transport.wasserstein_distance`` without the CLI.

Each group runs ``REPEAT`` times, each in a fresh Python process with one
BLAS thread.  Per transport solve a run records the end-to-end time of
``transport.wasserstein_distance`` (constraint build, solve, certify, decode
and face probe), the time of ``sdp.solve`` less its ``sdp.preprocess`` (the
interior-point loop), and the digest ``(status, iterations, dp.hex())``.
A group reports the median over solves of each solve's median over repeats.

Usage::

    python3 tools/bench_small.py --label change
    python3 tools/bench_small.py --label parent --src /path/to/other/checkout/src
    python3 tools/bench_small.py --compare parent change

The results are merged into ``BENCH_small.json`` under the label, so two
checkouts measured on one host sit side by side; ``--compare`` prints, per
group, whether every digest matches between two labels and the time ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(REPO, "BENCH_small.json")
GROUPS = ("qubit", "rank d=3", "rank d=4")
QUBIT_SUITES = (
    ("strong-duality", {"samples": 5}),
    ("symm-commuting", {"density": 3}),
    ("z-xy", {"density": 3}),
    ("z-commuting", {"density": 3}),
    ("divergence-symm", {"density": 4}),
    ("divergence-z", {"density": 4}),
)
CYCLES = 3
REPEAT = 3


def _group_runner(name: str):
    """A function solving every instance of group ``name`` once."""
    from qot import cli, suites, transport

    if name == "qubit":
        def run():
            for c in range(CYCLES):
                for suite, kwargs in QUBIT_SUITES:
                    suites.run_suite(suite, seed=c, **kwargs)
        return run

    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import numpy as np
    from workloads import BASE_SEED, RANK_MIX, _instance_file, _rotated_inputs

    dim = name.split("=")[1]
    instances = []
    for i, (label, _, make) in enumerate(RANK_MIX):
        if label.startswith(f"d={dim} "):
            base = make(np.random.default_rng([BASE_SEED, 200 + i]))
            instances += [cli.parse_instance(_instance_file(*_rotated_inputs(base, 0, c, 200 + i)))
                          for c in range(CYCLES)]

    def run():
        for instance in instances:
            transport.wasserstein_distance(instance)
    return run


def run_one(name: str) -> list[dict]:
    """Solve group ``name`` in this process; one record per transport solve."""
    from qot import sdp, transport

    run = _group_runner(name)
    records: list[dict] = []
    spent = {"solve": 0.0, "preprocess": 0.0}

    def timed(module, attr: str, key: str):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0

        setattr(module, attr, wrapper)

    timed(sdp, "solve", "solve")
    timed(sdp, "preprocess", "preprocess")
    distance = transport.wasserstein_distance

    def recorded(*args, **kwargs):
        spent.update(solve=0.0, preprocess=0.0)
        t0 = time.perf_counter()
        result = distance(*args, **kwargs)
        e2e = time.perf_counter() - t0
        sol = result.solution
        records.append({
            "n": int(sol.x.shape[0]),
            "m": int(len(sol.y)),
            "e2e_ms": 1000 * e2e,
            "loop_ms": 1000 * (spent["solve"] - spent["preprocess"]),
            "digest": f"{sol.status} {sol.iterations} {float(result.dp).hex()}",
        })
        return result

    transport.wasserstein_distance = recorded
    run()
    return records


def _spawn(name: str, src: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--one", name], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _summary(runs: list[list[dict]]) -> dict:
    first = runs[0]
    out = {
        "solves": len(first),
        "n": sorted({r["n"] for r in first}),
        "m": sorted({r["m"] for r in first}),
        "statuses": dict(sorted(Counter(r["digest"].split()[0] for r in first).items())),
        "stable": all([r["digest"] for r in run] == [r["digest"] for r in first] for run in runs),
    }
    for key in ("e2e_ms", "loop_ms"):
        per_solve = [statistics.median(run[i][key] for run in runs) for i in range(len(first))]
        out[f"{key}_p50"] = round(statistics.median(per_solve), 4)
        out[f"{key}_mean_runs"] = [round(statistics.fmean(r[key] for r in run), 4)
                                   for run in runs]
    out["digests"] = [r["digest"] for r in first]
    return out


def _load() -> dict:
    if not os.path.exists(OUT):
        return {}
    with open(OUT, encoding="utf-8") as fh:
        return json.load(fh)


def compare(a: str, b: str) -> int:
    """Print, per group, whether labels ``a`` and ``b`` have the same digests."""
    runs = _load().get("runs", {})
    same_everywhere = True
    for name in GROUPS:
        ra, rb = runs[a][name], runs[b][name]
        same = ra["digests"] == rb["digests"]
        same_everywhere &= same
        differ = sum(x != y for x, y in zip(ra["digests"], rb["digests"]))
        print(f"{name}: {ra['solves']} solves, digests "
              f"{'identical' if same else f'DIFFER ({differ})'}; "
              + "; ".join(f"{key} {ra[key]:.3f} -> {rb[key]:.3f} ({rb[key] / ra[key] - 1:+.1%})"
                          for key in ("e2e_ms_p50", "loop_ms_p50")))
    print(f"every (status, iterations, dp.hex()) {'matches' if same_everywhere else 'DIFFERS'}")
    return 0 if same_everywhere else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", help=argparse.SUPPRESS)
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", default=os.path.join(REPO, "src"))
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_one(args.one)))
        return 0
    if args.compare:
        return compare(*args.compare)

    results = {}
    for name in GROUPS:
        summary = _summary([_spawn(name, os.path.abspath(args.src)) for _ in range(REPEAT)])
        results[name] = summary
        print(name, json.dumps({k: v for k, v in summary.items() if k != "digests"}), flush=True)
    doc = _load()
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
