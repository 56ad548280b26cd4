"""Benchmark for qot: time to a certified transport result, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-dense --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
first runs the closed loop untraced for half of ``--seconds``, then replays
the same instances with layer spans on; it prints the per-layer metrics, the
tracing overhead, and checks that both passes returned identical statuses,
iteration counts and ``dp`` values.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own fresh process.  Metric
definitions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("qubit-sweep", "pair-dense", "multipartite", "rank-deficient")
SETUP_REPEATS = 5
# Calibration kinds of ``HostClock``: median time of one calibration on the
# host where the benchmark was defined, calibration every this much call
# time, and sizes (stack batch, plan size n, rows and columns of the QR).
CALIBRATIONS = {
    "small": (4.7e-3, 0.25, None),
    "dense-64": (4.3e-2, 0.5, (48, 64, 8192, 96)),
    "dense-256": (5.8e-2, 0.5, (8, 256, 131072, 8)),
}
UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "instance_ms_tail": "ms",
    "certified_frac": "share",
    "peak_rss_mb": "MB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _single_blas_thread() -> None:
    """One BLAS thread; must run before numpy loads.

    On a shared host a second BLAS thread spin-waits whenever the host pauses
    the other vCPU; with two threads, n=16 solves were seen to take 60 times
    their usual time during such a pause.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import hashlib
    import platform

    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qot").glob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": _nproc(),
    }


@dataclass
class Row:
    """One timed call: its type, size of work, time, solves and verdict."""

    label: str
    instances: int
    seconds: float
    solves: list
    verdict: object
    suite_seconds: float | None = None

    def digests(self) -> list:
        return [s.digest() for s in self.solves]


class HostClock:
    """Host speed, from a fixed calibration timed next to every call.

    On a shared host the speed of the same code drifts by up to 2x, from one
    second to the next and for a minute or more at a time.  The calibration
    is fixed numpy work that does not depend on qot.  It runs before every
    call and after the last one, once per ``every_s`` of the call before it,
    so each call sits between two blocks of calibration samples taken in the
    same stretch of time.  A call's host factor is the mean of those two
    blocks over the calibration's time on the reference host.

    The calibration matches the workload's kind of work: tiny kernels with
    Python work for the qubit and rank-deficient workloads, and dense
    batched matmuls plus a tall QR near the workload's plan size for
    pair-dense and multipartite, whose slowdowns followed a small-kernel
    calibration only in part.
    """

    def __init__(self, kind: str) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self.kind = kind
        self.reference_s, self.every_s, sizes = CALIBRATIONS[kind]
        if kind == "small":
            g = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
            self._herm = list(g + g.conj().transpose(0, 2, 1))
            self._tall = rng.standard_normal((16, 7))
        else:
            batch, n, rows, cols = sizes
            self._ops = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
            self._r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self._tall = rng.standard_normal((rows, cols))
        self._once()  # untimed: the first call allocates and faults in pages
        self.blocks: list[list[float]] = []

    def _once(self) -> None:
        np = self._np
        if self.kind == "small":  # the tiny kernels and Python work of an n=4 step
            for i in range(40):
                h = self._herm[i % 8]
                w, q = np.linalg.eigh(h)
                x = q @ np.diag(np.maximum(w, 1e-9)) @ q.conj().T
                np.einsum("ab,ba->", x, h)
                np.trace(np.kron(h[:2, :2], h[2:, 2:]))
                r = np.linalg.qr(self._tall, mode="r")
                np.linalg.solve(r.T @ r + np.eye(7), np.ones(7))
                {"w": w.tolist(), "x": [float(v) for v in x.real.ravel()]}
        else:  # the scaled constraint stack and the QR of the Schur factor
            np.matmul(np.matmul(self._r.conj().T[None, :, :], self._ops), self._r)
            np.linalg.qr(self._tall, mode="r")

    def calibrate(self, after_s: float) -> None:
        """Time the calibration once per ``every_s`` of the previous call."""
        block = []
        for _ in range(max(1, round(after_s / self.every_s))):
            t0 = time.perf_counter()
            self._once()
            block.append(time.perf_counter() - t0)
        self.blocks.append(block)

    @property
    def samples(self) -> list[float]:
        return [t for block in self.blocks for t in block]

    def factors(self) -> list[float]:
        """Host factor of each call, from the blocks before and after it."""
        return [statistics.fmean(before + after) / self.reference_s
                for before, after in zip(self.blocks, self.blocks[1:])]

    def factor(self) -> float:
        return statistics.median(self.samples) / self.reference_s


def cycle_count(workload, seconds: float, least: int) -> int:
    """Whole cycles, at least ``least``, for about ``seconds`` on the reference host.

    The count depends only on ``seconds`` and the workload's nominal cycle
    time, never on a clock, so a seed always gives the same instances, the
    same outcomes and the same ``attempted`` and ``failed`` counts.
    """
    return max(least, round(seconds / workload.cycle_s))


def run_cycles(workload, recorder, cycles: int, tracer=None,
               clock: HostClock | None = None) -> list[Row]:
    """Run ``cycles`` whole cycles.  A ``clock`` calibrates before every call
    and after the last."""
    rows: list[Row] = []
    dt = 0.0
    for c in range(cycles):
        for task in workload.cycle(c):
            if clock is not None:
                clock.calibrate(dt)
            if tracer is not None:
                tracer.instance = len(rows)
                tracer.active = True
            with recorder.capture() as solves:
                t0 = time.perf_counter()
                out = task.run()
                dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            verdict = task.check(out, solves)
            rows.append(Row(task.label, task.instances, dt, list(solves), verdict,
                            getattr(out, "seconds", None)))
    if clock is not None:
        clock.calibrate(dt)
    return rows


def raw_latency(rows: list[Row]) -> str:
    """Mean rate, upper median and tail of the raw call latencies, for the log.

    The tail is the highest percentile with at least ten samples beyond it,
    or the maximum when there are fewer than 11 samples.
    """
    xs = sorted(1000.0 * r.seconds / r.instances for r in rows)
    n = len(xs)
    rate = sum(r.instances for r in rows) / sum(r.seconds for r in rows)
    if n < 11:
        tail = f"max {xs[-1]:.4g} ms of {n} calls"
    else:
        tail = f"p{100.0 * (n - 10) / n:.1f} {xs[n - 11]:.4g} ms of {n} calls (10 beyond)"
    return f"raw: {rate:.4g} instances/s, median {xs[n // 2]:.4g} ms, tail {tail}"


def trimmed_mean(xs: list[float]) -> float:
    """Mean without the lowest and the highest tenth of the values.

    The host flips between a fast and a slow state within seconds, so the
    calls of one type fall into two groups; a median jumps between them when
    the slow share of a run is near one half, a mean moves in proportion.
    The trim drops rare stalls.
    """
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


def end_to_end(rows: list[Row], setup_s: float, factors: list[float]) -> dict:
    """The end-to-end metrics of a run; see perfbench/README.md.

    The time metrics use each instance type's trimmed mean over its calls of
    the call time divided by that call's host factor.  Every cycle makes one
    call of each type, so one call per type is the mix.
    """
    import resource

    times: dict[str, list[float]] = {}
    instances: dict[str, int] = {}
    for r, factor in zip(rows, factors, strict=True):
        times.setdefault(r.label, []).append(r.seconds / factor)
        instances[r.label] = r.instances
    typical = {label: trimmed_mean(ts) for label, ts in times.items()}
    per_instance_ms = sorted(1000.0 * typical[label] / instances[label] for label in typical)
    attempted = sum(r.instances for r in rows)
    return {
        "setup_s": setup_s,
        "instances_per_s": sum(instances.values()) / sum(typical.values()),
        "instance_ms_p50": per_instance_ms[len(per_instance_ms) // 2],
        "instance_ms_tail": per_instance_ms[-1],
        "certified_frac": sum(r.verdict.certified for r in rows) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def print_types(rows: list[Row]) -> None:
    """n, m, iterations, statuses and latency per instance type."""
    print(f"# {'type':<24} {'calls':>5} {'inst':>5} {'n':>9} {'m':>9} "
          f"{'iter min/med/max':>16} {'ms/inst p50':>11}  statuses")
    for label in dict.fromkeys(r.label for r in rows):
        group = [r for r in rows if r.label == label]
        solves = [s for r in group for s in r.solves]
        its = sorted(s.iterations for s in solves) or [0]
        ns = "/".join(str(v) for v in sorted({s.n for s in solves}))
        ms = "/".join(str(v) for v in sorted({s.m for s in solves}))
        status = ", ".join(f"{k}:{v}" for k, v in sorted(Counter(s.status for s in solves).items()))
        per_instance = [1000.0 * r.seconds / r.instances for r in group]
        print(f"# {label:<24} {len(group):>5} {sum(r.instances for r in group):>5} {ns:>9} "
              f"{ms:>9} {f'{its[0]}/{statistics.median(its):g}/{its[-1]}':>16} "
              f"{statistics.median(per_instance):>11.2f}  {status}")


def print_failures(rows: list[Row]) -> None:
    """Status histogram and every named reason an instance was not certified."""
    hist = Counter(s.status for r in rows for s in r.solves)
    print("# status histogram: " + ", ".join(f"{k}:{v}" for k, v in sorted(hist.items())))
    grouped: dict[tuple[str, str], list[str]] = {}
    for r in rows:
        if r.verdict.certified < r.instances and not r.verdict.reasons:
            grouped.setdefault((r.label, "uncertified with no named reason"), []).append("")
        for reason in r.verdict.reasons:
            kind = re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", reason)
            grouped.setdefault((r.label, kind), []).append(reason)
    for (label, kind), examples in grouped.items():
        print(f"# failure [{label}] x{len(examples)}: {kind}   e.g. {examples[0]}")


def run_workload(args) -> int:
    if not (SRC / "qot" / "__init__.py").is_file():
        print(f"error: no qot sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    _single_blas_thread()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qot  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print("error: more BLAS threads than usable cores", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")

    workdir = OUT / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = tracing.Recorder()
    cls = workloads.WORKLOADS[args.workload]
    clock = HostClock(cls.calibration)
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate(setups[-1] if setups else 0.0)
        t0 = time.perf_counter()
        workload = cls(args.seed, args.tiny, str(workdir))
        warm = []
        for task in workload.warmup():
            with recorder.capture() as solves:
                warm.append((task, task.run(), solves))
        setups.append(time.perf_counter() - t0)
        for task, out, solves in warm:
            task.check(out, solves)
    clock.calibrate(setups[-1])
    factors = clock.factors()
    setup_s = import_s / factors[0] + statistics.median(
        t / f for t, f in zip(setups, factors, strict=True))
    setup_blocks, clock.blocks = clock.blocks, []

    if args.trace:
        cycles = cycle_count(workload, args.seconds / 2, 1)
        rows = run_cycles(workload, recorder, cycles)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_cycles(workload, recorder, cycles, tracer=tracer)
        same = [r.digests() for r in rows] == [r.digests() for r in traced]
        print(f"# traced replay of {cycles} cycle(s): results "
              f"{'identical' if same else 'DIFFER'} to the untraced pass")
        metrics = tracing.layer_metrics(tracer.spans)
        suite_s = Counter()
        for r in traced:
            if r.suite_seconds is not None:
                suite_s[r.label] += r.suite_seconds
        for name in tracing.SUITE_NAMES:
            metrics[f"suites.{name}_s"] = suite_s[name]
        untraced_s = sum(r.seconds for r in rows)
        traced_s = sum(r.seconds for r in traced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        print(f"# tracing overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
              f"= {traced_s - untraced_s:+.4f} s ({len(tracer.spans)} spans)")
        _write_spans(tracer.spans, OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
        units = {name: tracing.unit_of(name) for name in metrics}
        rows = traced
        correct = same
    else:
        least = 1 if args.tiny else workload.min_cycles
        rows = run_cycles(workload, recorder, cycle_count(workload, args.seconds, least),
                          clock=clock)
        metrics = end_to_end(rows, setup_s, clock.factors())
        print("# " + raw_latency(rows))
        print(f"# host factor {clock.factor():.4f}: {clock.kind} calibration median "
              f"{1000 * statistics.median(clock.samples):.3f} ms over {len(clock.samples)}, "
              f"reference {1000 * clock.reference_s:g} ms")
        units = UNITS
        correct = True

    print_types(rows)
    print_failures(rows)
    attempted = sum(r.instances for r in rows)
    certified = sum(r.verdict.certified for r in rows)
    correct = correct and not any(r.verdict.wrong for r in rows)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - certified,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    for name, m in result["metrics"].items():
        print(f"# {name:<32} {m['value']:>14.6g} {m['unit']}")
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "result": result,
                   "setup_s": setups, "setup_blocks": setup_blocks,
                   "host_blocks": clock.blocks if not args.trace else None,
                   "rows": [[r.label, r.instances, r.seconds, r.verdict.certified,
                             list(r.verdict.reasons), r.digests()] for r in rows]}, fh)
    print(json.dumps(result))
    return 0


def _write_spans(spans: list, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, instance, info) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "instance": instance, "info": info}) + "\n")


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print("# summary")
    for name, res in results.items():
        print(f"# {name:<16} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"#     {metric:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest instance sizes, for the self-check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
