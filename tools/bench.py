"""Bench of the solves in ``BENCH_small.json`` and ``BENCH_large.json``.

Groups and their cases (p = 2):

- ``small``:
  - ``qubit``: the six qubit suites of perfbench's qubit-sweep workload at
    its sizes (strong-duality with 5 samples, the three grids at density 3,
    the two divergence sweeps at density 4), 106 transport solves with
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
(:func:`schedule`), so that host drift falls on all of them alike.
Instances are built before the solves start, and each checkout's own
``tools/bench.py`` times it.  Per transport solve a run records n, m, from
the result's ``timings`` the end-to-end time (their sum; for a member of a
batch, ``transport.wasserstein_distances``, its own build, preprocess and
certify and its share of the batch's iterations), the interior-point
loop time (``iterate``) and the setup time (``build`` plus ``preprocess``;
after a face shape's first solve in a process ``preprocess`` is near zero,
since the constraints and their rank decision are built once per shape),
iterations, status, stop reason, whether the certificate passed, the digest
``(status, iterations, dp.hex())``, the sums of its trace's
``step_fallbacks`` (corrector sides whose step length a full spectrum gave
on a plan that reads Ritz values) and ``ritz_steps`` (Lanczos steps of the
predictor and corrector runs), the counts of its stepping iterations on
each Schur route (``slot_iterations``, ``qr_iterations``: the trace rows'
``route``) and of its shifted Schur factors (``shifts``), and
``layers_ms``: each key of ``timings`` and each phase of the solve's clock
(``SdpSolution.phases``, which split ``iterate``).  ``timings`` holds only
the phases that ran: the bench reads no diagnostic of a result, so neither
``decode`` nor ``face_probe`` runs, and neither counts in the end-to-end
time.  A case reports the median over solves of each solve's median over
repeats, for each layer too (``layer_ms_p50``), the median over repeats of
the run's total end-to-end time (so that a change which drops solves
shows), the total step fallbacks, Lanczos steps, route iterations and
shifts of its solves, and the median peak RSS.  The
command exits 1 when the repeats of a case disagree on any digest: solves
are bitwise deterministic.

Usage::

    python3 tools/bench.py small
    python3 tools/bench.py large parent=/path/to/other/checkout/src change=src
    python3 tools/bench.py --compare parent change

Each ``LABEL=SRC`` names a checkout's source directory (``change=src`` when
none is given).  The results are merged into ``BENCH_<group>.json`` under the
labels, so checkouts measured on one host sit side by side; ``--compare``
prints, per case of the group given (every group without one), whether the
digests of two labels match as multisets, each label's status histogram and
certified count, each label's total iterations, step fallbacks and Lanczos
steps over the case's solves, and the time and memory ratios, each timing
beside both labels' min-max over repeats (``n/a`` for a count or timing that
the older ``tools/bench.py`` of a label did not record), on a second line
each layer's median and ratio, and on a third each label's iterations on
each Schur route and shifts.  Digests that differ
only in the last bits of ``dp`` keep the outcomes; a change of outcome shows
in the histograms.  It exits 0 when every case matches, else 1; a label
missing from a file is a usage error (exit 2).
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
# trace counters summed per record and per case
TRACE_SUMS = ("step_fallbacks", "ritz_steps")
# stepping iterations per Schur route (the iteration that switched to QR
# takes the QR) and shifted Schur factors, counted per record and per case
ROUTE_COUNTS = {
    "slot_iterations": lambda row: row.get("route") == "slot",
    "qr_iterations": lambda row: row.get("route") in ("qr", "switched"),
    "shifts": lambda row: bool(row.get("shifted")),
}


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
    and the peak RSS of the process.  The records come from wrappers of
    ``transport.wasserstein_distance`` and, in a qot that has it,
    ``transport.wasserstein_distances``, whose members each make a record;
    neither calls the other, so no solve is recorded twice."""
    from qot import transport

    run = _case_runner(name)
    records: list[dict] = []

    def record(result) -> None:
        sol = result.solution
        records.append({
            "n": int(sol.x.shape[0]),
            "m": int(len(sol.y)),
            "e2e_ms": 1000 * sum(result.timings.values()),
            "loop_ms": 1000 * result.timings["iterate"],
            "setup_ms": 1000 * (result.timings["build"] + result.timings["preprocess"]),
            "iterations": sol.iterations,
            "status": sol.status,
            "reason": sol.reason,
            "certified": bool(result.certificate.passed),
            "digest": f"{sol.status} {sol.iterations} {float(result.dp).hex()}",
            **{key: int(sum(row.get(key, 0) for row in sol.trace)) for key in TRACE_SUMS},
            **{key: sum(map(count, sol.trace)) for key, count in ROUTE_COUNTS.items()},
            # an older qot's solution has no phase clock
            "layers_ms": {key: 1000 * seconds for key, seconds
                          in [*result.timings.items(), *getattr(sol, "phases", {}).items()]},
        })

    def recorded(solve, batch: bool):
        def wrapper(*args, **kwargs):
            result = solve(*args, **kwargs)
            for member in (result if batch else [result]):
                record(member)
            return result
        return wrapper

    originals = {entry: getattr(transport, entry)
                 for entry in ("wasserstein_distance", "wasserstein_distances")
                 if hasattr(transport, entry)}  # an older qot has no batch entry point
    for entry, solve in originals.items():
        setattr(transport, entry, recorded(solve, batch=entry == "wasserstein_distances"))
    try:
        run()
    finally:
        for entry, solve in originals.items():
            setattr(transport, entry, solve)
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
        **{key: sum(r[key] for r in first) for key in (*TRACE_SUMS, *ROUTE_COUNTS)
           if all(key in r for r in first)},  # an older tools/bench.py lacks some
        "stable": all([r["digest"] for r in run["records"]] == digests for run in runs),
        "peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in runs), 1),
    }
    for key in ("e2e_ms", "loop_ms", "setup_ms"):
        if any(key not in r for run in runs for r in run["records"]):
            continue  # recorded by an older tools/bench.py
        per_solve = [statistics.median(run["records"][i][key] for run in runs)
                     for i in range(len(first))]
        out[f"{key}_p50"] = round(statistics.median(per_solve), 4)
        out[f"{key}_mean_runs"] = [round(statistics.fmean(r[key] for r in run["records"]), 4)
                                   for run in runs]
    # per layer, as e2e_ms_p50, the layers that every record of every run
    # has; [key, value] pairs keep the solve's order in the sorted file
    layers = [key for key in first[0].get("layers_ms", ())
              if all(key in r.get("layers_ms", ()) for run in runs for r in run["records"])]
    out["layer_ms_p50"] = [
        [key, round(statistics.median(
            statistics.median(run["records"][i]["layers_ms"][key] for run in runs)
            for i in range(len(first))), 4)]
        for key in layers
    ]
    totals = [sum(r["e2e_ms"] for r in run["records"]) for run in runs]
    out["e2e_ms_total"] = round(statistics.median(totals), 4)
    out["e2e_ms_total_runs"] = [round(total, 4) for total in totals]
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


def digest_verdict(a: list[str], b: list[str]) -> tuple[str, bool]:
    """How the digests of one case compare as multisets, and whether they
    match: identical, or DIFFER with the count of solves without a match."""
    ca, cb = Counter(a), Counter(b)
    if ca == cb:
        return "digests identical", True
    return f"digests DIFFER ({max((ca - cb).total(), (cb - ca).total())})", False


def outcomes(r: dict) -> str:
    """One label's status histogram and certified count of a case."""
    statuses = " ".join(f"{status} {count}" for status, count in r["statuses"].items())
    return f"{statuses}, {r['certified']} certified"


def total_iterations(digests: list[str]) -> int:
    """The iterations of a case's solves, summed from their digests."""
    return sum(int(digest.split()[1]) for digest in digests)


def ratio(ra: dict, rb: dict, key: str) -> str:
    """``key`` of ``ra`` and ``rb`` with their ratio; for a timing also each
    side's min-max over the repeats of the per-run mean (of the per-run total
    for ``e2e_ms_total``), or ``n/a`` when either label lacks ``key``.
    ``REPEAT`` runs on a shared host are too few for their min-max to bound
    the noise, so the ranges carry no verdict."""
    if key not in ra or key not in rb:
        return f"{key} n/a"
    text = f"{key} {ra[key]:.3f} -> {rb[key]:.3f} ({rb[key] / ra[key] - 1:+.1%}"
    runs = key.replace("_p50", "_mean_runs") if key.endswith("_p50") else f"{key}_runs"
    if runs not in ra:
        return text + ")"
    (lo_a, hi_a), (lo_b, hi_b) = ((min(r[runs]), max(r[runs])) for r in (ra, rb))
    return text + f"; runs {lo_a:.3f}-{hi_a:.3f} | {lo_b:.3f}-{hi_b:.3f})"


def layer_ratios(ra: dict, rb: dict) -> str:
    """Each layer's ``layer_ms_p50`` of ``ra`` and ``rb`` with their ratio,
    ``n/a`` for a layer that a label did not record (an older
    ``tools/bench.py``, or a qot without the phase clock)."""
    la, lb = (dict(r.get("layer_ms_p50", ())) for r in (ra, rb))
    parts = []
    for key in [*la, *(key for key in lb if key not in la)]:
        if key in la and key in lb:
            change = f" ({lb[key] / la[key] - 1:+.1%})" if la[key] else ""
            parts.append(f"{key} {la[key]:.4f} -> {lb[key]:.4f}{change}")
        else:
            parts.append(f"{key} {la.get(key, 'n/a')} -> {lb.get(key, 'n/a')}")
    return "; ".join(parts) or "n/a"


def compare(paths: list[str], a: str, b: str) -> int:
    """Print, per case, whether labels ``a`` and ``b`` have the same digests
    (:func:`digest_verdict`), both labels' outcomes (:func:`outcomes`),
    total iterations (:func:`total_iterations`), the totals of ``TRACE_SUMS``
    (``n/a`` for one that the older ``tools/bench.py`` of a label did not
    record), and the ratios of time and memory (:func:`ratio`), then on a
    line of its own the ratio of each layer (:func:`layer_ratios`), and on a
    third both labels' totals of ``ROUTE_COUNTS``; 0 when every digest
    matches, else 1."""
    same_everywhere = True
    for path in paths:
        runs = _load(path)["runs"]
        for name, ra in runs[a].items():
            rb = runs[b][name]
            verdict, same = digest_verdict(ra["digests"], rb["digests"])
            same_everywhere &= same
            solves = str(ra["solves"])
            if rb["solves"] != ra["solves"]:
                solves += f" -> {rb['solves']}"
            iterations = "; ".join(
                [f"iterations {total_iterations(ra['digests'])} -> "
                 f"{total_iterations(rb['digests'])}"]
                + [f"{key} {ra.get(key, 'n/a')} -> {rb.get(key, 'n/a')}" for key in TRACE_SUMS])
            ratios = (ratio(ra, rb, key)
                      for key in ("e2e_ms_p50", "loop_ms_p50", "setup_ms_p50", "e2e_ms_total",
                                  "peak_rss_mb"))
            print(f"{name}: {solves} solves, {verdict}; {outcomes(ra)} -> {outcomes(rb)}; "
                  f"{iterations}; " + "; ".join(ratios))
            print(f"  {name} layer_ms_p50: {layer_ratios(ra, rb)}")
            print(f"  {name} routes: " + "; ".join(
                f"{key} {ra.get(key, 'n/a')} -> {rb.get(key, 'n/a')}" for key in ROUTE_COUNTS))
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
