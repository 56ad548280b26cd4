"""Tests for the suite drivers that are not acceptance criteria themselves."""

from collections import Counter

import numpy as np
import pytest

from qot import closedform as cf
from qot import cost, suites, transport


def reference_divergence_grid(values, observables, state_of, formula_of):
    """The divergence grid with every (a, b) solved, the diagonal included:
    ``(cases, worst deviation)`` as ``suites._divergence_sweep`` reports them."""

    def solve(a, b):
        instance = transport.factorized_instance(state_of(a), state_of(b), observables, 2.0)
        return transport.wasserstein_distance(instance).dp

    cases, worst = [], 0.0
    for a in values:
        for b in values:
            d2_sdp = solve(a, b) - 0.5 * (solve(a, a) + solve(b, b))
            d2_formula = formula_of(a, b)
            dev = abs(d2_sdp - d2_formula)
            worst = max(worst, dev)
            if dev > suites.TOL_DIVERGENCE_GRID or (a == values[0] and b == values[0]):
                cases.append({
                    "case": f"a={a:+.4f},b={b:+.4f}", "d2_sdp": d2_sdp, "d2_formula": d2_formula,
                    "deviation": dev, "ok": dev <= suites.TOL_DIVERGENCE_GRID,
                })
    return sorted(cases, key=lambda c: c["case"]), worst


def test_divergence_sweep_solves_each_distinct_instance_once(monkeypatch):
    calls = []
    distances = transport.wasserstein_distances

    def counted(instances):
        calls.append(list(instances))
        return distances(instances)

    monkeypatch.setattr(transport, "wasserstein_distances", counted)
    monkeypatch.setattr(transport, "wasserstein_distance", lambda *a, **k: pytest.fail("alone"))
    outcome = suites.run_suite("divergence-symm", density=4)
    # 4 self instances and the 12 off-diagonal cross instances, one batch;
    # each diagonal cross instance is its self instance
    assert [len(batch) for batch in calls] == [16]
    monkeypatch.undo()

    values = np.linspace(-0.9, 0.9, 4)
    axis = lambda v: np.array([0.0, 0.0, v])
    cases, worst = reference_divergence_grid(
        values, cost.pauli_triple(), cf.state_z,
        lambda a, b: cf.divergence_symm_commuting(axis(a), axis(b)),
    )
    assert [c for c in outcome.cases if not c["case"].startswith("spot:")] == cases
    assert outcome.worst["grid_deviation"] == worst


@pytest.mark.parametrize("name", ["divergence-symm", "divergence-z"])
def test_divergence_sweep_honours_a_density_above_eleven(name):
    # 12 self instances and the 132 off-diagonal cross instances
    assert len(suites.run_suite(name, density=12).solves) == 144


def test_summary_counts_how_each_transport_solve_stopped(monkeypatch):
    stops, batches = [], []
    distances = transport.wasserstein_distances

    def recorded(instances):
        results = distances(instances)
        batches.append(len(results))
        stops.extend((result.status, result.solution.reason) for result in results)
        return results

    monkeypatch.setattr(transport, "wasserstein_distances", recorded)
    outcome = suites.run_suite("strong-duality", samples=3, seed=5)
    # 2 families x 2 exponents x 3 samples, one batch, each logged once, in order
    assert batches == [12] and outcome.solves == stops
    summary = outcome.summary()
    assert summary["statuses"] == dict(sorted(Counter(s for s, _ in stops).items()))
    assert summary["reasons"] == dict(sorted(Counter(r for _, r in stops).items()))
    assert sum(summary["statuses"].values()) == sum(summary["reasons"].values()) == 12
    # the keys the summary had before the counts are unchanged
    assert list(summary)[:5] == ["suite", "passed", "cases", "failed", "seconds"]
    assert "worst_rel_gap" in summary


def test_suites_without_transport_solves_count_none():
    summary = suites.run_suite("triangle-z", samples=10).summary()
    assert summary["statuses"] == {} and summary["reasons"] == {}


def test_solve_log_collects_only_inside_its_block():
    instance = transport.symm_instance(cf.state_z(0.5), cf.state_z(-0.5), 2.0)
    with transport.solve_log() as outer:
        transport.wasserstein_distance(instance)
        with transport.solve_log() as inner:
            transport.wasserstein_distance(instance)
        transport.wasserstein_distance(instance)
    transport.wasserstein_distance(instance)
    assert inner == [("optimal", "converged")]
    assert outer == [("optimal", "converged")] * 2


def test_a_solve_that_does_not_end_optimal_fails_the_suite(monkeypatch):
    from qot import sdp

    # every solve converges to certified values, which pass the suite's own
    # checks, under a status that is not optimal: each fails it as a case
    monkeypatch.setitem(sdp.REASON_STATUS, "converged", sdp.STATUS_NUMERICAL)
    outcome = suites.run_suite("strong-duality", samples=1, seed=5)
    assert outcome.solves == [("numerical", "converged")] * 4
    assert all(c["ok"] for c in outcome.cases if not c["case"].startswith("solve:"))
    failed = [c for c in outcome.cases if c["case"].startswith("solve:")]
    assert failed == [{"case": f"solve:{k:05d}", "status": "numerical", "reason": "converged",
                       "ok": False} for k in range(4)]
    assert not outcome.passed and outcome.summary()["failed"] == 4


@pytest.mark.parametrize(
    "name,sizes,solves",
    [("strong-duality", {"samples": 3, "seed": 7}, 12), ("z-xy", {"density": 3}, 18),
     ("divergence-z", {"density": 3}, 9)],
)
def test_sweeps_submit_blocks_of_at_most_batch_block(monkeypatch, name, sizes, solves):
    whole = suites.run_suite(name, **sizes)
    blocks = []
    distances = transport.wasserstein_distances

    def recorded(instances):
        blocks.append(len(instances))
        return distances(instances)

    monkeypatch.setattr(suites, "BATCH_BLOCK", 5)
    monkeypatch.setattr(transport, "wasserstein_distances", recorded)
    blocked = suites.run_suite(name, **sizes)
    # full blocks in order and the rest last, each member solved as in one
    # batch: the same states drawn, the same cases and worst values
    assert blocks == [5] * (solves // 5) + [solves % 5] * (solves % 5 > 0)
    assert blocked.cases == whole.cases and blocked.worst == whole.worst
    assert blocked.solves == whole.solves and blocked.passed
