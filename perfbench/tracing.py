"""Result recording and layer spans around the qot modules.

Both work by replacing module attributes, so calls made inside the package
go through them too: ``sdp.solve`` looks ``preprocess`` up at call time, and
the qot modules reach ``np.linalg.qr`` and the other kernels the same way.
Nothing under ``src/`` changes.

``Recorder`` wraps ``transport.wasserstein_distance`` in every run and keeps a
small summary of each result (no clocks), so that statuses, iteration counts
and certificate failures are visible behind any entry point (suites, cli).
``Tracer`` is installed only in the traced pass.  Each span holds its name,
start, end, parent span and instance id; spans stay in memory until the
benchmark writes them out at exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from qot import cli, closedform, cost, linalg, sdp, transport

KERNELS = {
    "qr": "kernel.qr",
    "eigh": "kernel.eigh",
    "eigvalsh": "kernel.eigh",
    "svd": "kernel.svd",
    "solve": "kernel.solve",
    "lstsq": "kernel.lstsq",
}
KERNEL_NAMES = sorted(set(KERNELS.values()))
STATUSES = ("optimal", "numerical", "max_iter", "infeasible")
SUITE_NAMES = (
    "strong-duality",
    "symm-commuting",
    "z-xy",
    "z-commuting",
    "divergence-symm",
    "divergence-z",
)


@dataclass(frozen=True)
class Solve:
    """What one ``wasserstein_distance`` call returned, reduced to plain values."""

    n: int
    m: int
    status: str
    iterations: int
    dp: float
    rel_gap: float
    cert_passed: bool
    failures: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.status == sdp.STATUS_OPTIMAL and self.cert_passed

    def digest(self) -> tuple[str, int, str]:
        return (self.status, self.iterations, float(self.dp).hex())


class Recorder:
    """Collects a ``Solve`` for every transport solve made inside ``capture``."""

    def __init__(self) -> None:
        self._sink: list[Solve] | None = None
        self._original = transport.wasserstein_distance

        def recorded(*args, **kwargs):
            result = self._original(*args, **kwargs)
            if self._sink is not None:
                self._sink.append(
                    Solve(
                        n=result.solution.x.shape[0],
                        m=len(result.solution.y),
                        status=result.status,
                        iterations=result.solution.iterations,
                        dp=result.dp,
                        rel_gap=result.gap / max(1.0, abs(result.primal_objective)),
                        cert_passed=result.certificate.passed,
                        failures=result.certificate.failures,
                    )
                )
            return result

        transport.wasserstein_distance = recorded

    @contextlib.contextmanager
    def capture(self):
        sink: list[Solve] = []
        self._sink = sink
        try:
            yield sink
        finally:
            self._sink = None


def _solve_info(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    return {
        "status": result.status,
        "iterations": result.iterations,
        "constraint_bytes": problem.constraint_ops.nbytes,
    }


def _preprocess_info(args, kwargs, result) -> dict:
    return {"removed": len(result[1].removed)}


def _targets() -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, annotator) for every traced call."""
    out = [(np.linalg, fn, name, None) for fn, name in KERNELS.items()]
    out += [(sdp, "sdp_problem", "sdp.sdp_problem", None),
            (sdp, "preprocess", "sdp.preprocess", _preprocess_info),
            (sdp, "solve", "sdp.solve", _solve_info),
            (sdp, "certify", "sdp.certify", None)]
    out += [(linalg, fn, f"linalg.{fn}", None)
            for fn in ("embed_at_slot", "min_eigenvalue", "partial_trace")]
    out += [(cost, fn, "cost.build", None)
            for fn in ("cost_operator_general", "cost_operator_factorized",
                       "embedded_cost_sum", "cost_symm", "cost_z")]
    out += [(transport, fn, "transport.instance", None)
            for fn in ("joint_instance", "factorized_instance", "general_instance",
                       "symm_instance", "z_instance")]
    out += [(transport, "build_primal", "transport.build_primal", None),
            (transport, "wasserstein_distance", "transport.wasserstein", None)]
    out += [(transport, fn, "transport.decode", None)
            for fn in ("potentials_from_multipliers", "potential_objective", "potential_slack")]
    out += [(closedform, fn, "closedform", None) for fn in closedform.__all__]
    out += [(cli, "main", "cli.main", None)]
    return out


class Tracer:
    """Span recorder; ``installed()`` swaps the wrappers in and back out."""

    def __init__(self) -> None:
        # [name, start, end, parent index, instance id, info]
        self.spans: list[list] = []
        self.instance = -1
        # Off outside the timed calls, so oracle checks leave no spans.
        self.active = False
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, annotate):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, annotate in _targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over all spans; see perfbench/README.md for each definition."""
    incl: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    # (parent name, child name) -> summed child duration
    under: dict[tuple[str, str], float] = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        dur = end - start
        incl[name] += dur
        self_time[name] += dur
        calls[name] += 1
        if parent >= 0:
            pname = spans[parent][0]
            self_time[pname] -= dur
            under[(pname, name)] += dur

    solves = [s[5] for s in spans if s[0] == "sdp.solve"]
    iterations = [info["iterations"] for info in solves] or [0]
    status = Counter(info["status"] for info in solves)
    out = {
        "sdp.preprocess_s": incl["sdp.preprocess"],
        "sdp.preprocess_removed": sum(s[5]["removed"] for s in spans if s[0] == "sdp.preprocess"),
        "sdp.solve_self_s": incl["sdp.solve"] - under[("sdp.solve", "sdp.preprocess")],
        "sdp.solve_other_s": self_time["sdp.solve"],
    }
    for kernel in KERNEL_NAMES:
        out[f"{kernel}_s"] = incl[kernel]
        out[f"{kernel}_calls"] = calls[kernel]
    out["sdp.iterations_mean"] = sum(iterations) / len(iterations)
    out["sdp.iterations_max"] = max(iterations)
    for st in STATUSES:
        out[f"sdp.status.{st}"] = status[st]
    out["sdp.constraint_mb"] = max((info["constraint_bytes"] for info in solves), default=0) / 1e6
    out["sdp.sdp_problem_s"] = incl["sdp.sdp_problem"]
    out["sdp.certify_s"] = incl["sdp.certify"]
    out["transport.instance_s"] = self_time["transport.instance"]
    out["transport.build_primal_s"] = (
        incl["transport.build_primal"] - under[("transport.build_primal", "cost.build")]
    )
    out["linalg.embed_at_slot_s"] = incl["linalg.embed_at_slot"]
    out["linalg.embed_at_slot_calls"] = calls["linalg.embed_at_slot"]
    out["cost.build_s"] = self_time["cost.build"]
    out["transport.decode_s"] = incl["transport.decode"]
    out["transport.wasserstein_self_s"] = self_time["transport.wasserstein"]
    out["linalg.min_eigenvalue_s"] = incl["linalg.min_eigenvalue"]
    out["linalg.partial_trace_s"] = incl["linalg.partial_trace"]
    out["closedform.s"] = self_time["closedform"]
    out["cli.self_s"] = incl["cli.main"] - under[("cli.main", "transport.wasserstein")]
    return out


def unit_of(metric: str) -> str:
    if metric.endswith(("_calls", "_removed")) or ".status." in metric:
        return "count"
    if ".iterations_" in metric:
        return "iterations"
    if metric.endswith("_mb"):
        return "MB"
    return "s"
