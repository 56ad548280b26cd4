"""Tests for the interior-point SDP solver."""

import dataclasses

import numpy as np
import pytest

from qot import cost, linalg, sdp, transport
from qot.linalg import kron

EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)


def rho_z(alpha):
    return np.diag([(1 + alpha) / 2, (1 - alpha) / 2]).astype(complex)


def qubit_transport_problem(cost_matrix, rho, omega):
    basis = linalg.hermitian_basis(2)
    constraints = [(EYE4, 1.0)]
    for b in basis[1:]:
        constraints.append((kron(b, EYE2), float(np.trace(omega @ b).real)))
        constraints.append((kron(EYE2, b.T), float(np.trace(rho @ b).real)))
    return sdp.sdp_problem(cost_matrix, constraints)


class TestSolveBasics:
    def test_smallest_eigenvalue_selection(self):
        problem = sdp.sdp_problem(np.diag([1.0, 2.0]).astype(complex), [(EYE2, 1.0)])
        sol = sdp.solve(problem)
        assert sol.optimal
        np.testing.assert_allclose(sol.primal_objective, 1.0, atol=1e-7)
        np.testing.assert_allclose(sol.x, np.diag([1.0, 0.0]), atol=1e-5)

    def test_scalar_problem(self):
        problem = sdp.sdp_problem(np.array([[3.0 + 0j]]), [(np.array([[1.0 + 0j]]), 2.0)])
        sol = sdp.solve(problem)
        assert sol.optimal
        np.testing.assert_allclose(sol.primal_objective, 6.0, atol=1e-8)
        np.testing.assert_allclose(sol.y, [3.0], atol=1e-7)

    def test_transport_oracle_commuting(self):
        # sigma_z-diagonal states: the optimum is the classical two-point value
        problem = qubit_transport_problem(cost.cost_z(2.0), rho_z(0.3), rho_z(-0.1))
        sol = sdp.solve(problem)
        assert sol.optimal
        np.testing.assert_allclose(sol.primal_objective, 0.8, atol=1e-7)

    def test_brute_force_min_eigenvalue(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = linalg.random_hermitian(rng, 2)
            sol = sdp.solve(sdp.sdp_problem(c, [(EYE2, 1.0)]))
            assert sol.optimal
            np.testing.assert_allclose(
                sol.primal_objective, np.linalg.eigvalsh(c)[0], atol=1e-9
            )

    def test_weak_duality_on_random_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = linalg.random_density(rng, 2)
            omega = linalg.random_density(rng, 2)
            problem = qubit_transport_problem(cost.cost_symm(2.0), rho, omega)
            sol = sdp.solve(problem)
            assert sol.dual_objective <= sol.primal_objective + 1e-9

    def test_determinism(self):
        problem = qubit_transport_problem(cost.cost_symm(1.0), rho_z(0.37), rho_z(-0.21))
        a, b = sdp.solve(problem), sdp.solve(problem)
        assert a.primal_objective == b.primal_objective
        assert a.dual_objective == b.dual_objective
        assert a.status == b.status and a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)

    def test_scaling_covariance(self):
        problem = qubit_transport_problem(cost.cost_symm(2.0), rho_z(0.4), rho_z(-0.3))
        sol = sdp.solve(problem, tol=1e-10)
        scaled = sdp.sdp_problem(
            3.0 * problem.objective, list(zip(problem.constraint_ops, problem.constraint_vals))
        )
        sol_scaled = sdp.solve(scaled, tol=1e-10)
        rel = abs(sol_scaled.primal_objective - 3.0 * sol.primal_objective) / abs(
            3.0 * sol.primal_objective
        )
        assert rel <= 1e-9
        # the optimal face must not move: compare range projectors of X
        def face_projector(x):
            vals, vecs = np.linalg.eigh(x)
            keep = vals > 1e-6 * vals[-1]
            block = vecs[:, keep]
            return block @ block.conj().T, int(keep.sum())

        p1, r1 = face_projector(sol.x)
        p2, r2 = face_projector(sol_scaled.x)
        assert r1 == r2
        overlap = np.trace(p1 @ p2).real / r1
        assert overlap >= 1 - 1e-6

    def test_verbose_trace(self, capfd):
        problem = sdp.sdp_problem(np.diag([1.0, 2.0]).astype(complex), [(EYE2, 1.0)])
        sdp.solve(problem, verbose=True)
        err = capfd.readouterr().err
        assert "mu" in err and "gap" in err

    def test_dimension_cap(self):
        big = np.eye(300, dtype=complex)
        with pytest.raises(ValueError, match="exceeds"):
            sdp.sdp_problem(big, [(big, 1.0)])

    def test_constraints_required(self):
        with pytest.raises(ValueError, match="constraint"):
            sdp.sdp_problem(EYE2, [])


class TestPreprocess:
    def test_duplicate_trace_removed(self):
        problem = sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 1.0)])
        reduced, report = sdp.preprocess(problem)
        assert report.kept == (0,)
        assert report.removed == (1,)
        assert not report.infeasible
        assert reduced.n_constraints == 1

    def test_marginal_system_full_rank(self):
        problem = qubit_transport_problem(cost.cost_z(2.0), rho_z(0.3), rho_z(-0.1))
        assert problem.n_constraints == 7
        _, report = sdp.preprocess(problem)
        assert len(report.kept) == 7
        assert report.removed == ()

    def test_contradictory_duplicates_flagged(self):
        problem = sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 2.0)])
        _, report = sdp.preprocess(problem)
        assert report.infeasible
        sol = sdp.solve(problem)
        assert sol.status == sdp.STATUS_INFEASIBLE

    def test_dependent_but_consistent_combination(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        problem = sdp.sdp_problem(EYE2, [(a, 0.25), (b, 0.75), (a + b, 1.0)])
        reduced, report = sdp.preprocess(problem)
        assert report.removed == (2,)
        assert not report.infeasible
        assert reduced.n_constraints == 2


def random_marginal_problem(rng, dim, pairs):
    """Transport problem of random states: one trace row plus 2K slots of marginals."""
    observables = cost.observable_set(
        [linalg.random_hermitian(rng, dim) for _ in range(max(pairs, 2))]
    )
    mode = transport.MODE_LINEARIZED if pairs > 1 else transport.MODE_NONLINEAR
    instance = transport.factorized_instance(
        linalg.random_density(rng, dim), linalg.random_density(rng, dim), observables, 2.0, mode
    )
    return transport.build_primal(instance)


class TestStructuredSchur:
    def test_hermitian_coordinates_are_an_isometry(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            for _ in range(10):
                a, b = linalg.random_hermitian(rng, n), linalg.random_hermitian(rng, n)
                dot = sdp._hermitian_coords(a) @ sdp._hermitian_coords(b)
                expected = np.trace(a.conj().T @ b).real
                np.testing.assert_allclose(dot, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dim,pairs", [(2, 1), (3, 1), (4, 1), (2, 3)])
    def test_slot_gram_matches_dense(self, dim, pairs):
        rng = np.random.default_rng(dim * 10 + pairs)
        problem = random_marginal_problem(rng, dim, pairs)
        n, m = problem.dim, problem.n_constraints
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = np.matmul(np.matmul(r.conj().T[None], problem.constraint_ops), r).reshape(m, -1)
        f_real = np.hstack([f.real, f.imag])
        coords = sdp._slot_scaled_constraints(r, problem.structure)
        assert coords.shape == (m, n * n)
        dense = f_real @ f_real.T
        np.testing.assert_allclose(
            coords @ coords.T, dense, rtol=0, atol=1e-12 * np.abs(dense).max()
        )

    def test_duplicated_row_is_filtered_from_the_structure(self):
        problem = random_marginal_problem(np.random.default_rng(8), 6, 1)
        assert problem.dim >= sdp.STRUCTURED_MIN_DIM
        structure = problem.structure
        rows = list(zip(structure.slots, structure.local_ops, problem.constraint_vals))
        doubled = sdp.slot_problem(problem.objective, structure.shape, rows + [rows[5]])
        reduced, report = sdp.preprocess(doubled)
        assert report.removed == (len(rows),)
        assert reduced.structure.slots == structure.slots
        base, dup = sdp.solve(problem), sdp.solve(doubled)
        assert base.optimal and dup.optimal
        assert dup.y[-1] == 0.0
        scale = max(1.0, abs(base.primal_objective))
        np.testing.assert_allclose(
            dup.primal_objective, base.primal_objective, rtol=0, atol=1e-8 * scale
        )
        assert sdp.certify(dup, doubled).passed


class TestCertify:
    def test_optimal_solution_passes(self):
        problem = qubit_transport_problem(cost.cost_symm(2.0), rho_z(0.5), rho_z(-0.5))
        sol = sdp.solve(problem)
        cert = sdp.certify(sol, problem)
        assert cert.passed
        assert cert.gap <= 1e-7 * max(1.0, abs(cert.primal_objective))

    def test_perturbed_solution_fails_feasibility(self):
        problem = qubit_transport_problem(cost.cost_symm(2.0), rho_z(0.5), rho_z(-0.5))
        sol = sdp.solve(problem)
        bad_x = sol.x.copy()
        bad_x[0, 0] += 1e-3
        bad = dataclasses.replace(sol, x=bad_x)
        cert = sdp.certify(bad, problem)
        assert not cert.passed
        assert any("equality" in f for f in cert.failures)

    def test_closed_form_dual_value(self):
        # commuting states: the dual optimum is the classical two-point value
        alpha, beta, p = 0.6, -0.2, 2.0
        problem = qubit_transport_problem(cost.cost_z(p), rho_z(alpha), rho_z(beta))
        sol = sdp.solve(problem)
        cert = sdp.certify(sol, problem)
        np.testing.assert_allclose(
            cert.dual_objective, 2.0 ** (p - 1) * abs(alpha - beta), atol=1e-6
        )
