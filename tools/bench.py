"""Bench of the solves in ``BENCH_small.json`` and ``BENCH_large.json``.

Groups and their cases (p = 2):

- ``small``:
  - ``qubit``: the six qubit suites of perfbench's qubit-sweep workload at
    its sizes (strong-duality with 5 samples, the three grids at density 3,
    the two divergence sweeps at density 4), 114 transport solves with
    ``n = 4``, ``m = 7``; ``CYCLES`` cycles, strong-duality drawn from seed
    ``c``.
  - ``rank d=3`` and ``rank d=4``: the d=3 and d=4 pairs of perfbench's
    rank-deficient workload (``perfbench/workloads.py``, ``RANK_MIX``: pure,
    rank-deficient and full-rank states, two random observables, nonlinear
    mode, ``n = 9`` and ``16``), in ``CYCLES`` monomial changes of basis
    drawn from seed 0.
- ``large``, the solves perfbench does not cover:
  - ``d=12``, ``d=16``, ``d=20`` nonlinear: random states and two random
    observables drawn from ``default_rng(40 + d)``, as in the certified
    nonlinear tests; plan dimension ``d^2``, ``2 d^2 - 1`` constraints.
  - ``K=4`` linearized: the qubit base instance of perfbench's multipartite
    workload (``_base_instance``: four random observables, ``n = 256``,
    ``m = 25``).

Each case runs ``REPEAT`` times per checkout, each in a fresh Python process
with one BLAS thread, so that ``ru_maxrss`` is the peak of that case alone.
Every repeat spawns every checkout, in reversed order on odd repeats
(:func:`schedule`), so that host drift falls on all of them alike.  Instances
are built before the solves start, and each checkout's own ``tools/bench.py``
times it.  Per transport solve a run records n, m, from the result's
``timings`` the end-to-end time (their sum) and the interior-point loop time
(``iterate``), iterations, status, stop reason, whether the certificate
passed, and the digest ``(status, iterations, dp.hex())``.  A case reports
the median over solves of each solve's median over repeats, and the median
peak RSS.  The command exits 1 when the repeats of a case disagree on any
digest: solves are bitwise deterministic.

Usage::

    python3 tools/bench.py small
    python3 tools/bench.py large parent=/path/to/other/checkout/src change=src
    python3 tools/bench.py --compare parent change

Each ``LABEL=SRC`` names a checkout's source directory (``change=src`` when
none is given).  The results are merged into ``BENCH_<group>.json`` under
the labels, so checkouts measured on one host sit side by side;
``--compare`` prints, per case of the group given (every group without
one), whether every digest matches between two labels, and the time and
memory ratios; a label missing from a file is a usage error (exit 2).
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
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
GROUPS = {
    "small": ("qubit", "rank d=3", "rank d=4"),
    "large": ("d=12", "d=16", "d=20", "K=4"),
}
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


def _output(group: str) -> str:
    return os.path.join(REPO, f"BENCH_{group}.json")


def _case_runner(name: str):
    """A function solving every instance of case ``name`` once; the instances
    are built before it is returned."""
    import numpy as np

    from qot import cli, cost, linalg, suites, transport

    if name == "qubit":
        def run():
            for c in range(CYCLES):
                for suite, kwargs in QUBIT_SUITES:
                    suites.run_suite(suite, seed=c, **kwargs)
        return run

    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    from workloads import BASE_SEED, RANK_MIX, _base_instance, _instance_file, _rotated_inputs

    if name.startswith("rank d="):
        dim = name.split("=")[1]
        instances = []
        for i, (label, _, make) in enumerate(RANK_MIX):
            if label.startswith(f"d={dim} "):
                base = make(np.random.default_rng([BASE_SEED, 200 + i]))
                instances += [
                    cli.parse_instance(_instance_file(*_rotated_inputs(base, 0, c, 200 + i)))
                    for c in range(CYCLES)
                ]
    elif name.startswith("d="):
        dim = int(name[2:])
        rng = np.random.default_rng(40 + dim)
        rho, omega = linalg.random_density(rng, dim), linalg.random_density(rng, dim)
        obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
        instances = [transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)]
    else:
        k = int(name[2:])
        rho, omega, observables = _base_instance(2, k, 100 + k)
        obs = cost.observable_set(observables)
        instances = [transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_LINEARIZED)]

    def run():
        for instance in instances:
            transport.wasserstein_distance(instance)
    return run


def run_one(name: str) -> dict:
    """Solve case ``name`` in this process: one record per transport solve,
    and the peak RSS of the process."""
    from qot import transport

    run = _case_runner(name)
    records: list[dict] = []
    distance = transport.wasserstein_distance

    def recorded(*args, **kwargs):
        result = distance(*args, **kwargs)
        sol = result.solution
        records.append({
            "n": int(sol.x.shape[0]),
            "m": int(len(sol.y)),
            "e2e_ms": 1000 * sum(result.timings.values()),
            "loop_ms": 1000 * result.timings["iterate"],
            "iterations": sol.iterations,
            "status": sol.status,
            "reason": sol.reason,
            "certified": bool(result.certificate.passed),
            "digest": f"{sol.status} {sol.iterations} {float(result.dp).hex()}",
        })
        return result

    transport.wasserstein_distance = recorded
    run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"records": records, "peak_rss_mb": peak_rss_mb}


def _spawn(name: str, src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    tool = os.path.join(os.path.dirname(src), "tools", "bench.py")
    out = subprocess.run([sys.executable, tool, "--one", name], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def schedule(names: tuple[str, ...], labels: list[str]) -> list[tuple[str, str]]:
    """The ``(case, label)`` spawns in run order: per case, each of the
    ``REPEAT`` repeats spawns every label, in reversed order on odd repeats."""
    return [(name, label) for name in names for r in range(REPEAT)
            for label in (labels if r % 2 == 0 else labels[::-1])]


def summary(runs: list[dict]) -> dict:
    """One case over its repeats: per-solve medians, histograms of the first
    run, and whether every repeat has the first run's digests."""
    first = runs[0]["records"]
    digests = [r["digest"] for r in first]

    def histogram(key: str) -> dict:
        return dict(sorted(Counter(r[key] for r in first).items()))

    out = {
        "solves": len(first),
        "n": sorted({r["n"] for r in first}),
        "m": sorted({r["m"] for r in first}),
        "iterations": [min(r["iterations"] for r in first), max(r["iterations"] for r in first)],
        "statuses": histogram("status"),
        "reasons": histogram("reason"),
        "certified": sum(r["certified"] for r in first),
        "stable": all([r["digest"] for r in run["records"]] == digests for run in runs),
        "peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in runs), 1),
    }
    for key in ("e2e_ms", "loop_ms"):
        per_solve = [statistics.median(run["records"][i][key] for run in runs)
                     for i in range(len(first))]
        out[f"{key}_p50"] = round(statistics.median(per_solve), 4)
        out[f"{key}_mean_runs"] = [round(statistics.fmean(r[key] for r in run["records"]), 4)
                                   for run in runs]
    out["digests"] = digests
    return out


def _load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def merge(path: str, label: str, results: dict) -> None:
    """Store ``results`` under ``label`` in the file at ``path``, keeping the
    other labels and the setup stamp of the first run."""
    doc = _load(path)
    doc.setdefault("setup", {
        "blas_threads": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    })
    doc.setdefault("runs", {})[label] = results
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare(paths: list[str], a: str, b: str) -> int:
    """Print, per case, whether labels ``a`` and ``b`` have the same digests;
    0 when every digest matches, else 1."""
    same_everywhere = True
    for path in paths:
        runs = _load(path)["runs"]
        for name, ra in runs[a].items():
            rb = runs[b][name]
            differ = sum(x != y for x, y in zip(ra["digests"], rb["digests"]))
            differ += abs(len(ra["digests"]) - len(rb["digests"]))
            same_everywhere &= differ == 0
            print(f"{name}: {ra['solves']} solves, digests "
                  f"{'identical' if differ == 0 else f'DIFFER ({differ})'}; "
                  + "; ".join(f"{key} {ra[key]:.3f} -> {rb[key]:.3f} ({rb[key] / ra[key] - 1:+.1%})"
                              for key in ("e2e_ms_p50", "loop_ms_p50", "peak_rss_mb")))
    print(f"every (status, iterations, dp.hex()) {'matches' if same_everywhere else 'DIFFERS'}")
    return 0 if same_everywhere else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("group", nargs="?", choices=sorted(GROUPS))
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=SRC")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_one(args.one)))
        return 0
    if args.compare:
        paths = [_output(g) for g in ([args.group] if args.group else sorted(GROUPS))]
        for path in paths:
            labels = _load(path).get("runs", {})
            unknown = [label for label in args.compare if label not in labels]
            if unknown:
                parser.error(f"{os.path.basename(path)} has no label {', '.join(unknown)}; "
                             f"its labels: {', '.join(sorted(labels)) or 'none'}")
        return compare(paths, *args.compare)
    if args.group is None:
        parser.error("a group is required unless --compare is given")
    specs = args.checkouts or [f"change={os.path.join(REPO, 'src')}"]
    malformed = [spec for spec in specs if "=" not in spec]
    if malformed:
        parser.error(f"not LABEL=SRC: {' '.join(malformed)}")
    srcs = dict(spec.split("=", 1) for spec in specs)
    names = GROUPS[args.group]
    runs = {label: {name: [] for name in names} for label in srcs}
    for name, label in schedule(names, list(srcs)):
        runs[label][name].append(_spawn(name, os.path.abspath(srcs[label])))

    unstable = []
    for label, by_case in runs.items():
        results = {name: summary(case_runs) for name, case_runs in by_case.items()}
        for name, s in results.items():
            print(label, name, json.dumps({k: v for k, v in s.items() if k != "digests"}),
                  flush=True)
            if not s["stable"]:
                unstable.append(f"{label} {name}")
        merge(_output(args.group), label, results)
    if unstable:
        print(f"repeats disagree on a digest: {', '.join(unstable)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
