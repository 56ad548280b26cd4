"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line.  The grid sweeps are shared
between the formula-agreement criteria and the witness criterion through
module-scoped fixtures, so every solve happens exactly once.
"""

import math

import numpy as np
import pytest

from qot import suites

SQRT3 = math.sqrt(3.0)


def report(number, label, outcome):
    verdict = "PASS" if outcome.passed else "FAIL"
    worst = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in outcome.worst.items())
    print(f"criterion {number:2d} [{verdict}] {label}: {worst} ({outcome.seconds:.1f}s)")
    return outcome.passed


@pytest.fixture(scope="module")
def symm_grid():
    return suites.run_suite("symm-commuting", density=21)


@pytest.fixture(scope="module")
def z_xy_grid():
    return suites.run_suite("z-xy", density=21)


@pytest.fixture(scope="module")
def z_commuting_grid():
    return suites.run_suite("z-commuting", density=21)


def test_criterion_01_strict_gap():
    outcome = suites.run_suite("gap")
    passed = report(1, "strict linearization gap, p in {1,2,3}", outcome)
    assert outcome.worst["deviation"] <= 1e-6
    assert outcome.worst["seconds"] < 10.0
    for row in outcome.cases:
        assert row["linearized"] < row["nonlinear"]
        expected = 2.0 ** float(row["case"].split("=")[1]) * (1 - (SQRT3 - 1) / 2)
        np.testing.assert_allclose(row["linearized"], expected, atol=1e-6)
    assert passed


def test_criterion_02_strong_duality():
    outcome = suites.run_suite("strong-duality", samples=500, seed=2024)
    passed = report(2, "strong duality on 500 random instances per family and p", outcome)
    assert outcome.worst["rel_gap"] <= 1e-6
    assert passed


def test_criterion_03_symm_closed_form_grid(symm_grid):
    passed = report(3, "symmetric-cost closed form vs SDP on 21x21 grid", symm_grid)
    assert symm_grid.worst["formula_deviation"] <= 1e-5
    assert passed


def test_criterion_04_z_closed_form_grids(z_xy_grid, z_commuting_grid):
    passed_xy = report(4, "sigma_z-cost xy closed form vs SDP on 21x21 grid", z_xy_grid)
    passed_comm = report(4, "sigma_z-cost commuting closed form vs SDP on 21x21 grid",
                         z_commuting_grid)
    assert z_xy_grid.worst["formula_deviation"] <= 1e-5
    assert z_commuting_grid.worst["formula_deviation"] <= 1e-5
    assert passed_xy and passed_comm


def test_criterion_05_witness_optimality(symm_grid, z_xy_grid, z_commuting_grid):
    # couplings and potentials from the closed forms agree with each other
    # and with the SDP optimum at every grid point; feasibility is part of
    # each row's verdict (marginals at 1e-8, slack at -1e-8)
    for grid in (symm_grid, z_xy_grid, z_commuting_grid):
        passed = report(5, f"witness optimality on {grid.name}", grid)
        assert grid.worst["witness_deviation"] <= 1e-6
        assert passed


def test_criterion_06_divergence_closed_forms():
    symm = suites.run_suite("divergence-symm", density=11)
    z = suites.run_suite("divergence-z", density=11)
    passed_symm = report(6, "quadratic divergence closed form (symmetric cost)", symm)
    passed_z = report(6, "quadratic divergence closed form (sigma_z cost)", z)
    assert symm.worst["grid_deviation"] <= 1e-5
    assert z.worst["grid_deviation"] <= 1e-5
    assert symm.worst["spot_deviation"] <= 1e-9
    assert z.worst["spot_deviation"] <= 1e-9
    assert passed_symm and passed_z


def test_criterion_07_triangle_inequalities():
    symm = suites.run_suite("triangle-symm", samples=10_000, seed=7)
    z = suites.run_suite("triangle-z", samples=10_000, seed=7)
    passed_symm = report(7, "squared-divergence triangle inequality (commuting)", symm)
    passed_z = report(7, "squared-divergence triangle inequality (xy plane)", z)
    assert symm.worst["min_margin"] >= -1e-9
    assert z.worst["min_margin"] >= -1e-9
    assert passed_symm and passed_z


def test_criterion_08_cost_identities():
    outcome = suites.run_suite("costs", samples=100, seed=8)
    passed = report(8, "cost matrices as printed and basis invariance", outcome)
    assert outcome.worst["invariance_deviation"] <= 1e-10
    assert passed


def test_criterion_09_factorized_decomposition():
    outcome = suites.run_suite("factorized-k3", samples=20, seed=9)
    passed = report(9, "K=3 multipartite SDP equals sum of three single SDPs", outcome)
    assert outcome.worst["deviation"] <= 1e-5
    assert outcome.worst["iterations"] <= suites.FACTORIZED_MAX_ITERATIONS == 20
    assert passed


def test_criterion_10_purification_identity():
    outcome = suites.run_suite("purification", density=21, samples=100, seed=10)
    passed = report(10, "purification objective identity and SDP self-distance", outcome)
    assert outcome.worst["identity"] <= 1e-9
    assert outcome.worst["sdp_deviation"] <= 1e-6
    assert passed
