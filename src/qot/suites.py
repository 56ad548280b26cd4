"""Named verification suites: closed forms against the SDP, duality, triangles.

Each suite runs a deterministic sweep (grids or seeded random samples),
returns one row per case plus an aggregate verdict, and pins the tolerance
it enforces.  ``SUITES`` declares every suite once: its name, its runner
and its default sizes.  :func:`run_suite` names and times the outcome and
keeps how each transport solve of the suite stopped, and the summary counts
their statuses and stop reasons.  The CLI ``verify`` command and the
acceptance tests both run these drivers, so the checked numbers are
identical in both places.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import closedform as cf
from . import cost as cost_mod
from . import linalg, transport

__all__ = ["SuiteOutcome", "SUITES", "run_suite", "suite_names"]

# Tolerances enforced per suite (absolute unless noted).
TOL_GAP_DEMO = 1e-6
TOL_STRONG_DUALITY = 1e-6      # relative to max(1, primal)
TOL_GRID_FORMULA = 1e-5
TOL_WITNESS = 1e-6
TOL_WITNESS_COUPLING = 1e-8
TOL_WITNESS_SLACK = 1e-8
TOL_DIVERGENCE_GRID = 1e-5
TOL_DIVERGENCE_SPOT = 1e-9
TOL_TRIANGLE = -1e-9           # margins must stay above this
TOL_COST_INVARIANCE = 1e-10
TOL_FACTORIZED = 1e-5
TOL_PURIFICATION = 1e-9
TOL_PURIFICATION_SDP = 1e-6
GAP_DEMO_BUDGET_S = 10.0
# factorized-k3 bounds a solve's iterations, not its seconds, which vary with
# host load: at seed 9 its 20 solves take 8-10 iterations (one BLAS thread).
FACTORIZED_MAX_ITERATIONS = 20


@dataclass
class SuiteOutcome:
    name: str
    passed: bool
    cases: list[dict] = field(default_factory=list)
    worst: dict = field(default_factory=dict)
    seconds: float = 0.0
    # (status, reason) of each transport solve, in order (run_suite)
    solves: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cases if not c["ok"])

    def summary(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "cases": len(self.cases),
            "failed": self.n_failed,
            "seconds": round(self.seconds, 3),
            **{f"worst_{k}": v for k, v in self.worst.items()},
            "statuses": dict(sorted(Counter(status for status, _ in self.solves).items())),
            "reasons": dict(sorted(Counter(reason for _, reason in self.solves).items())),
        }


def _finish(cases: list[dict], worst: dict, passed: bool = True) -> SuiteOutcome:
    """Outcome of the sorted cases; it passes when every case and ``passed``
    hold.  :func:`run_suite` sets its name and seconds."""
    cases.sort(key=lambda c: c["case"])
    return SuiteOutcome("", all(c["ok"] for c in cases) and passed, cases, worst)


def _grid(density: int, lo: float = -0.95, hi: float = 0.95) -> np.ndarray:
    return np.linspace(lo, hi, density)


# ---------------------------------------------------------------------------
# Strict linearization gap.
# ---------------------------------------------------------------------------


def suite_gap(density: int, samples: int, seed: int) -> SuiteOutcome:
    t0 = time.perf_counter()
    cases = []
    worst_dev = 0.0
    for p in (1.0, 2.0, 3.0):
        result = transport.gap_demo(p)
        expect_nonlinear = 2.0**p
        expect_linearized = 2.0**p * (1.0 - (math.sqrt(3.0) - 1.0) / 2.0)
        dev = max(
            abs(result.nonlinear - expect_nonlinear),
            abs(result.linearized - expect_linearized),
        )
        worst_dev = max(worst_dev, dev)
        cases.append(
            {
                "case": f"p={p:g}",
                "nonlinear": result.nonlinear,
                "linearized": result.linearized,
                "difference": result.difference,
                "deviation": dev,
                "ok": dev <= TOL_GAP_DEMO and result.linearized < result.nonlinear,
            }
        )
    elapsed = time.perf_counter() - t0
    return _finish(
        cases, {"deviation": worst_dev, "seconds": elapsed}, elapsed < GAP_DEMO_BUDGET_S
    )


# ---------------------------------------------------------------------------
# Strong duality on random instances.
# ---------------------------------------------------------------------------


def suite_strong_duality(density: int, samples: int, seed: int) -> SuiteOutcome:
    rng = np.random.default_rng(seed)
    cases = []
    worst_rel_gap = 0.0
    for family in ("symm", "z"):
        for p in (1.0, 2.0):
            for i in range(samples):
                rho = cf.state_from_bloch(linalg.random_bloch(rng, 0.99))
                omega = cf.state_from_bloch(linalg.random_bloch(rng, 0.99))
                make = transport.symm_instance if family == "symm" else transport.z_instance
                res = transport.wasserstein_distance(make(rho, omega, p))
                rel_gap = res.gap / max(1.0, abs(res.primal_objective))
                worst_rel_gap = max(worst_rel_gap, rel_gap)
                ok = rel_gap <= TOL_STRONG_DUALITY and res.certificate.passed
                if not ok or i < 2:
                    cases.append(
                        {
                            "case": f"{family},p={p:g},i={i:04d}",
                            "primal": res.primal_objective,
                            "dual": res.dual_objective,
                            "rel_gap": rel_gap,
                            "status": res.status,
                            "ok": ok,
                        }
                    )
    return _finish(cases, {"rel_gap": worst_rel_gap}, worst_rel_gap <= TOL_STRONG_DUALITY)


# ---------------------------------------------------------------------------
# Closed-form grids with primal/dual witnesses.
# ---------------------------------------------------------------------------


def _witness_case(
    key: str,
    sdp_value: float,
    formula: float,
    coupling: transport.Coupling,
    cost_matrix: np.ndarray,
    candidates: tuple[transport.DualPotentials, ...],
    rho: np.ndarray,
    omega: np.ndarray,
) -> dict:
    coupling_obj = coupling.objective(cost_matrix)
    check = coupling.check(TOL_WITNESS_COUPLING)
    pot_obj = max(transport.potential_objective(rho, omega, c) for c in candidates)
    slack_min = min(
        linalg.min_eigenvalue(transport.potential_slack(cost_matrix, c))
        for c in candidates
    )
    dev_formula = abs(sdp_value - formula)
    dev_witness = max(
        abs(coupling_obj - pot_obj), abs(coupling_obj - sdp_value), abs(pot_obj - sdp_value)
    )
    return {
        "case": key,
        "sdp": sdp_value,
        "formula": formula,
        "coupling_objective": coupling_obj,
        "potential_objective": pot_obj,
        "formula_deviation": dev_formula,
        "witness_deviation": dev_witness,
        "marginal_deviation": check.max_marginal_deviation,
        "slack_min_eig": slack_min,
        "ok": (
            dev_formula <= TOL_GRID_FORMULA
            and dev_witness <= TOL_WITNESS
            and check.ok
            and slack_min >= -TOL_WITNESS_SLACK
        ),
    }


def _grid_suite(
    density: int,
    state_of: Callable[[float], np.ndarray],
    instance_of: Callable[[np.ndarray, np.ndarray, float], transport.TransportInstance],
    formula_of: Callable[[float, float, float], float],
    coupling_of: Callable[[float, float], transport.Coupling],
    candidates_of: Callable[[float, float, float], tuple[transport.DualPotentials, ...]],
) -> SuiteOutcome:
    cases = []
    worst_formula = 0.0
    worst_witness = 0.0
    values = _grid(density)
    # one state a grid value: the instance builders copy what they validate
    states = {a: state_of(a) for a in values}
    for p in (1.0, 2.0):
        for a in values:
            for b in values:
                instance = instance_of(states[a], states[b], p)
                res = transport.wasserstein_distance(instance)
                row = _witness_case(
                    f"a={a:+.4f},b={b:+.4f},p={p:g}",
                    res.dp,
                    formula_of(a, b, p),
                    coupling_of(a, b),
                    instance.plan_cost(),
                    candidates_of(a, b, p),
                    states[a],
                    states[b],
                )
                worst_formula = max(worst_formula, row["formula_deviation"])
                worst_witness = max(worst_witness, row["witness_deviation"])
                if not row["ok"] or (a == values[0] and b == values[0]):
                    cases.append(row)
    return _finish(
        cases,
        {"formula_deviation": worst_formula, "witness_deviation": worst_witness},
        worst_formula <= TOL_GRID_FORMULA and worst_witness <= TOL_WITNESS,
    )


# ---------------------------------------------------------------------------
# Divergences.
# ---------------------------------------------------------------------------


def _divergence_sweep(
    values: np.ndarray,
    observables: cost_mod.ObservableSet,
    state_of: Callable[[float], np.ndarray],
    formula_of: Callable[[float, float], float],
    spots: list[tuple[str, float, float]],
) -> SuiteOutcome:
    cases = []
    worst = 0.0
    # one state a grid value: the instance builders copy what they validate
    states = {a: state_of(a) for a in values}

    @functools.cache
    def distance(a: float, b: float) -> float:
        return transport.wasserstein_distance(
            transport.factorized_instance(states[a], states[b], observables, 2.0)
        ).dp

    for a in values:
        for b in values:
            # the diagonal cross instance is the self instance, solved once
            d2_sdp = distance(a, b) - 0.5 * (distance(a, a) + distance(b, b))
            d2_formula = formula_of(a, b)
            dev = abs(d2_sdp - d2_formula)
            worst = max(worst, dev)
            if dev > TOL_DIVERGENCE_GRID or (a == values[0] and b == values[0]):
                cases.append(
                    {
                        "case": f"a={a:+.4f},b={b:+.4f}",
                        "d2_sdp": d2_sdp,
                        "d2_formula": d2_formula,
                        "deviation": dev,
                        "ok": dev <= TOL_DIVERGENCE_GRID,
                    }
                )
    worst_spot = 0.0
    for label, got, expect in spots:
        dev = abs(got - expect)
        worst_spot = max(worst_spot, dev)
        cases.append(
            {
                "case": f"spot:{label}",
                "value": got,
                "expected": expect,
                "deviation": dev,
                "ok": dev <= TOL_DIVERGENCE_SPOT,
            }
        )
    return _finish(cases, {"grid_deviation": worst, "spot_deviation": worst_spot})


# ---------------------------------------------------------------------------
# Triangle inequalities (closed forms, random sweeps).
# ---------------------------------------------------------------------------


def _triangle_sweep(
    samples: int,
    seed: int,
    margin_of: Callable[[float, float, float], float],
    lo: float,
    hi: float,
) -> SuiteOutcome:
    rng = np.random.default_rng(seed)
    cases = []
    worst = np.inf
    for i in range(samples):
        triple = tuple(rng.uniform(lo, hi, 3))
        margin = margin_of(*triple)
        worst = min(worst, margin)
        if margin < TOL_TRIANGLE or i == 0:
            cases.append(
                {
                    "case": f"i={i:05d}," + ",".join(f"{v:+.4f}" for v in triple),
                    "margin": margin,
                    "ok": margin >= TOL_TRIANGLE,
                }
            )
    return _finish(cases, {"min_margin": float(worst)})


# ---------------------------------------------------------------------------
# Cost identities.
# ---------------------------------------------------------------------------


def suite_costs(density: int, samples: int, seed: int) -> SuiteOutcome:
    rng = np.random.default_rng(seed)
    cases = []
    for p in (1.0, 2.0):
        t = 2.0**p
        expected_symm = np.array(
            [[t, 0, 0, -t], [0, 2 * t, 0, 0], [0, 0, 2 * t, 0], [-t, 0, 0, t]], dtype=complex
        )
        exact_symm = bool(np.array_equal(cost_mod.cost_symm(p), expected_symm))
        exact_z = bool(
            np.array_equal(cost_mod.cost_z(p), np.diag([0.0, t, t, 0.0]).astype(complex))
        )
        cases.append({"case": f"matrix,p={p:g}", "symm_exact": exact_symm, "z_exact": exact_z,
                      "ok": exact_symm and exact_z})
    worst = 0.0
    for p in (1.0, 2.0):
        matrix = cost_mod.cost_symm(p)
        for i in range(samples):
            u = linalg.random_unitary(rng, 2)
            dev = cost_mod.check_unitary_invariance(matrix, u)
            worst = max(worst, dev)
            if dev > TOL_COST_INVARIANCE:
                cases.append({"case": f"unitary,p={p:g},i={i:03d}", "deviation": dev, "ok": False})
    cases.append(
        {"case": "unitary-invariance", "worst_deviation": worst, "ok": worst <= TOL_COST_INVARIANCE}
    )
    return _finish(cases, {"invariance_deviation": worst})


# ---------------------------------------------------------------------------
# Multipartite decomposition.
# ---------------------------------------------------------------------------


def suite_factorized_k3(density: int, samples: int, seed: int) -> SuiteOutcome:
    rng = np.random.default_rng(seed)
    observables = cost_mod.pauli_triple()
    cases = []
    for i in range(samples):
        a, b = rng.uniform(-0.9, 0.9, 2)
        p = (1.0, 2.0)[i % 2]
        inst = transport.factorized_instance(
            cf.state_z(a), cf.state_z(b), observables, p, transport.MODE_LINEARIZED
        )
        full = transport.wasserstein_distance(inst)
        decomposed = transport.solve_linearized_decomposed(inst)
        dev = abs(full.primal_objective - decomposed.total)
        iterations = full.solution.iterations
        cases.append(
            {
                "case": f"i={i:02d},a={a:+.4f},b={b:+.4f},p={p:g}",
                "full": full.primal_objective,
                "decomposed": decomposed.total,
                "deviation": dev,
                "solve_seconds": sum(full.timings.values()),
                "iterations": iterations,
                "ok": dev <= TOL_FACTORIZED and iterations <= FACTORIZED_MAX_ITERATIONS,
            }
        )
    keys = ("deviation", "solve_seconds", "iterations")
    return _finish(cases, {key: max((c[key] for c in cases), default=0) for key in keys})


# ---------------------------------------------------------------------------
# Purification identity.
# ---------------------------------------------------------------------------


def suite_purification(density: int, samples: int, seed: int) -> SuiteOutcome:
    rng = np.random.default_rng(seed)
    quad_cost = cost_mod.cost_symm(2.0)
    cases = []
    worst_identity = 0.0
    for i in range(samples):
        rho = linalg.random_density(rng, 2)
        value = transport.purification_coupling(rho).objective(quad_cost)
        expect = 8.0 - 4.0 * float(np.trace(linalg.sqrt_psd(rho)).real) ** 2
        dev = abs(value - expect)
        worst_identity = max(worst_identity, dev)
        if dev > TOL_PURIFICATION:
            cases.append({"case": f"random,i={i:03d}", "deviation": dev, "ok": False})
    cases.append(
        {
            "case": "identity-random",
            "worst_deviation": worst_identity,
            "ok": worst_identity <= TOL_PURIFICATION,
        }
    )
    worst_sdp = 0.0
    upper_bound_ok = True
    for a in _grid(density):
        rho = cf.state_z(a)
        purif_value = transport.purification_coupling(rho).objective(quad_cost)
        sdp_value = transport.wasserstein_distance(transport.symm_instance(rho, rho, 2.0)).dp
        dev = abs(purif_value - sdp_value)
        worst_sdp = max(worst_sdp, dev)
        upper_bound_ok = upper_bound_ok and sdp_value <= purif_value + 1e-7
        if dev > TOL_PURIFICATION_SDP:
            cases.append(
                {"case": f"grid,a={a:+.4f}", "purification": purif_value, "sdp": sdp_value,
                 "deviation": dev, "ok": False}
            )
    cases.append(
        {
            "case": "self-distance-grid",
            "worst_deviation": worst_sdp,
            "upper_bound": upper_bound_ok,
            "ok": worst_sdp <= TOL_PURIFICATION_SDP and upper_bound_ok,
        }
    )
    return _finish(cases, {"identity": worst_identity, "sdp_deviation": worst_sdp})


# name -> (runner(density, samples, seed), default density, default samples);
# the defaults are the shipped verification targets.  A row looks its closed
# forms and builders up when it runs, not at import, so wrappers set on those
# modules later (perfbench's tracer) see the calls.
SUITES: dict[str, tuple[Callable[[int, int, int], SuiteOutcome], int, int]] = {
    "gap": (suite_gap, 0, 0),
    "strong-duality": (suite_strong_duality, 0, 500),
    "symm-commuting": (
        lambda density, samples, seed: _grid_suite(
            density, cf.state_z, transport.symm_instance, cf.d_symm_commuting,
            cf.coupling_symm_commuting, cf.potentials_symm_commuting,
        ),
        21, 0,
    ),
    "z-xy": (
        lambda density, samples, seed: _grid_suite(
            density, cf.state_x, transport.z_instance, cf.d_z_xy, cf.coupling_z_xy,
            cf.potentials_z_xy,
        ),
        21, 0,
    ),
    "z-commuting": (
        lambda density, samples, seed: _grid_suite(
            density, cf.state_z, transport.z_instance, cf.d_z_commuting,
            cf.coupling_z_commuting, lambda a, b, p: cf.potentials_z_commuting(p),
        ),
        21, 0,
    ),
    "divergence-symm": (
        lambda density, samples, seed: _divergence_sweep(
            _grid(density, -0.9, 0.9),
            cost_mod.pauli_triple(),
            cf.state_z,
            lambda a, b: cf.divergence_symm_commuting((0.0, 0.0, a), (0.0, 0.0, b)),
            [("(1/2,-1/2)", cf.divergence_symm_commuting((0.0, 0.0, 0.5), (0.0, 0.0, -0.5)),
              2.0 * math.sqrt(3.0))],
        ),
        11, 0,
    ),
    "divergence-z": (
        lambda density, samples, seed: _divergence_sweep(
            _grid(density, 0.0, 0.9),
            cost_mod.sigma_z_observable(),
            cf.state_x,
            cf.divergence_z_xy,
            [("(0,1/2)", cf.divergence_z_xy(0.0, 0.5), 1.0 - math.sqrt(3.0) / 2.0)],
        ),
        11, 0,
    ),
    "triangle-symm": (
        lambda density, samples, seed: _triangle_sweep(
            samples, seed, cf.triangle_margin_symm, -1.0, 1.0
        ),
        0, 10_000,
    ),
    "triangle-z": (
        lambda density, samples, seed: _triangle_sweep(
            samples, seed, cf.triangle_margin_z, 0.0, 1.0
        ),
        0, 10_000,
    ),
    "costs": (suite_costs, 0, 100),
    "factorized-k3": (suite_factorized_k3, 0, 20),
    "purification": (suite_purification, 21, 100),
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(
    name: str, *, density: int | None = None, samples: int | None = None, seed: int = 0
) -> SuiteOutcome:
    """Run one named suite at its default sizes unless given, recording how
    each of its transport solves stopped (``SuiteOutcome.solves``); unknown
    names raise ``KeyError``."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    runner, default_density, default_samples = SUITES[name]
    with transport.solve_log() as solves:
        t0 = time.perf_counter()
        outcome = runner(
            default_density if density is None else density,
            default_samples if samples is None else samples,
            seed,
        )
        outcome.seconds = time.perf_counter() - t0
    outcome.name = name
    outcome.solves = solves
    return outcome
