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

    def test_dependent_rows_beyond_the_coordinate_length(self):
        # nine copies of one row fill the 8 real coordinates of a 2x2 problem
        # with rounding residues; the independent row after them must stay
        half = np.diag([1.0, 0.0]).astype(complex)
        problem = sdp.sdp_problem(EYE2, [(EYE2, 1.0)] * 9 + [(half, 0.25)])
        reduced, report = sdp.preprocess(problem)
        assert report.kept == (0, 9)
        assert not report.infeasible
        np.testing.assert_array_equal(reduced.constraint_vals, [1.0, 0.25])

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


def random_slot_problem(rng, shape):
    """One trace row plus the traceless Hermitian basis at every slot of ``shape``."""
    constraints = [(0, np.eye(shape.dims[0], dtype=complex), 1.0)]
    for slot, d in enumerate(shape.dims):
        for b in linalg.hermitian_basis(d)[1:]:
            constraints.append((slot, b, float(rng.standard_normal())))
    return sdp.slot_problem(linalg.random_hermitian(rng, shape.total_dim), shape, constraints)


# (dim, pairs) of random_marginal_problem; pairs=0: random_slot_problem on
# the shape ``dim``, the trace row plus a full basis at each slot
SLOT_CASES = pytest.mark.parametrize(
    "dim,pairs",
    [
        (2, 1), (3, 1), (4, 1), (2, 3),
        pytest.param((2, 3), 0, id="shape-2x3"),
        pytest.param((2, 3, 2), 0, id="shape-2x3x2"),
    ],
)


def slot_case(dim, pairs):
    """``(rng, problem)`` of one SLOT_CASES entry."""
    if pairs:
        rng = np.random.default_rng(dim * 10 + pairs)
        return rng, random_marginal_problem(rng, dim, pairs)
    rng = np.random.default_rng(len(dim))
    return rng, random_slot_problem(rng, linalg.FactorShape(dim))


def random_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + 1e-3 * np.eye(n)


class TestStructuredSchur:
    def test_hermitian_coordinates_are_an_isometry(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            for _ in range(10):
                a, b = linalg.random_hermitian(rng, n), linalg.random_hermitian(rng, n)
                dot = sdp._hermitian_coords(a) @ sdp._hermitian_coords(b)
                expected = np.trace(a.conj().T @ b).real
                np.testing.assert_allclose(dot, expected, rtol=1e-12, atol=1e-12)

    @SLOT_CASES
    def test_slot_gram_matches_dense(self, dim, pairs):
        rng, problem = slot_case(dim, pairs)
        n, m = problem.dim, problem.n_constraints
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = np.matmul(np.matmul(r.conj().T[None], problem.constraint_ops), r).reshape(m, -1)
        f_real = np.hstack([f.real, f.imag])
        dense = f_real @ f_real.T
        atol = 1e-12 * np.abs(dense).max()
        coords = sdp._slot_scaled_constraints(r, problem.structure)
        assert coords.shape == (m, n * n)
        np.testing.assert_allclose(coords @ coords.T, dense, rtol=0, atol=atol)
        schur = sdp._slot_schur(r @ r.conj().T, problem.structure)
        np.testing.assert_allclose(schur, dense, rtol=0, atol=atol)
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        applied = (f @ np.conj(mat.reshape(-1))).real
        np.testing.assert_allclose(
            sdp._slot_applied(r @ mat @ r.conj().T, problem.structure),
            applied, rtol=0, atol=1e-12 * np.abs(applied).max(),
        )

    @SLOT_CASES
    def test_slot_adjoint_and_marginals_match_dense(self, dim, pairs):
        rng, problem = slot_case(dim, pairs)
        ops, m = problem.constraint_ops, problem.n_constraints
        y = rng.standard_normal(m)
        dense = np.tensordot(y, ops, axes=1)
        np.testing.assert_allclose(
            sdp._slot_adjoint(y, problem.structure), dense,
            rtol=0, atol=1e-12 * np.abs(dense).max(),
        )
        x = random_pd(rng, problem.dim)
        applied = (ops.reshape(m, -1) @ np.conj(x.reshape(-1))).real
        np.testing.assert_allclose(
            sdp._slot_applied(x, problem.structure), applied,
            rtol=0, atol=1e-12 * np.abs(applied).max(),
        )

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (2, 3, 2)], ids=str)
    def test_slot_coordinates_have_the_dense_gram(self, dims):
        problem = random_slot_problem(np.random.default_rng(len(dims)), linalg.FactorShape(dims))
        m = problem.n_constraints
        flat = problem.constraint_ops.reshape(m, -1)
        rows = np.hstack([flat.real, flat.imag])
        coords = problem.structure.coordinates()
        assert coords.shape == (m, 1 + sum(d * d for d in dims))
        np.testing.assert_allclose(coords @ coords.T, rows @ rows.T, rtol=0, atol=1e-12 * m)

    def test_identity_declared_at_two_slots_is_removed(self):
        problem = random_marginal_problem(np.random.default_rng(2), 5, 1)
        assert problem.dim >= sdp.STRUCTURED_MIN_DIM  # rank tested on slot coordinates
        structure = problem.structure
        rows = list(zip(structure.slots, structure.local_ops, problem.constraint_vals))
        again = sdp.slot_problem(
            problem.objective, structure.shape, rows + [(1, np.eye(5, dtype=complex), 1.0)]
        )
        reduced, report = sdp.preprocess(again)
        assert report.removed == (len(rows),)
        assert not report.infeasible
        assert reduced.structure.slots == structure.slots

    def test_structured_solve_is_deterministic(self):
        problem = random_marginal_problem(np.random.default_rng(11), 6, 1)
        assert problem.dim >= sdp.STRUCTURED_MIN_DIM
        a, b = sdp.solve(problem), sdp.solve(problem)
        assert a.optimal and a.iterations == b.iterations
        for name in ("x", "y", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

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


class TestLargePlanStep:
    @pytest.mark.parametrize("n", [25, 36, 64])
    def test_scaled_frame_step_matches_the_eigenbasis_step(self, n):
        rng = np.random.default_rng(n)
        x, s = random_pd(rng, n), random_pd(rng, n)
        r, sig = sdp._nt_scaling(sdp._cholesky_factor(x), sdp._cholesky_factor(s))
        rh = r.conj().T
        # both iterates are diag(sig) in the scaled frame
        scaled_x = np.linalg.solve(r, np.linalg.solve(r, x).conj().T).conj().T
        np.testing.assert_allclose(scaled_x, np.diag(sig), rtol=0, atol=1e-10 * sig.max())
        np.testing.assert_allclose(rh @ s @ r, np.diag(sig), rtol=0, atol=1e-10 * sig.max())
        wx, qx = np.linalg.eigh(x)
        ws, qs = np.linalg.eigh(s)
        for _ in range(5):
            ds_scaled = linalg.random_hermitian(rng, n, scale=float(sig.mean()))
            ds = np.linalg.solve(rh, np.linalg.solve(rh, ds_scaled).conj().T).conj().T
            ad = sdp._boundary_step(sdp._frame_eigvals(ds_scaled, sig)[0])
            np.testing.assert_allclose(ad, sdp._max_step(qs, ws, ds), rtol=1e-10)
            # predictor: the X-side direction is -diag(sig) - ds_scaled, and
            # its smallest scaled eigenvalue is -1 minus the S side's largest
            dx_scaled = -np.diag(sig) - ds_scaled
            lam_x = sdp._frame_eigvals(dx_scaled, sig)
            lam_s = sdp._frame_eigvals(ds_scaled, sig)
            np.testing.assert_allclose(lam_x[0], -1.0 - lam_s[-1], rtol=1e-10)
            ap = sdp._boundary_step(-1.0 - lam_s[-1])
            np.testing.assert_allclose(
                ap, sdp._max_step(qx, wx, r @ dx_scaled @ rh), rtol=1e-10
            )

    def test_cholesky_factor_falls_back_to_the_eigen_factor(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        rank_two = v @ v.conj().T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rank_two)
        f = sdp._cholesky_factor(rank_two)
        np.testing.assert_array_equal(f, sdp._psd_factor(rank_two)[0])
        np.testing.assert_allclose(f @ f.conj().T, rank_two, rtol=0, atol=1e-12)
        pd = random_pd(rng, 6)
        np.testing.assert_array_equal(sdp._cholesky_factor(pd), np.linalg.cholesky(pd))


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
