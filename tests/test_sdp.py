"""Tests for the interior-point SDP solver."""

import dataclasses
import functools
import math

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

    def test_problems_without_a_point_start_at_tau_identity(self):
        # the digest of this solve before problems could declare a start
        problem = small_transport_problem()
        assert problem.interior is None
        sol = sdp.solve(problem)
        assert (sol.reason, sol.iterations, sol.primal_objective.hex()) == (
            "converged", 7, "0x1.00000003ae6a9p+2"
        )

    def test_determinism(self):
        problem = qubit_transport_problem(cost.cost_symm(1.0), rho_z(0.37), rho_z(-0.21))
        a, b = sdp.solve(problem), sdp.solve(problem)
        assert a.primal_objective == b.primal_objective
        assert a.dual_objective == b.dual_objective
        assert a.status == b.status and a.iterations == b.iterations
        assert a.trace == b.trace
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

    def test_dimension_cap(self):
        big = np.eye(sdp.MAX_VARIABLE_DIM + 1, dtype=complex)
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
        assert a.optimal and a.iterations == b.iterations and a.trace == b.trace
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


def singular_schur(rng, m):
    """A rank-deficient PSD ``a a^T`` with a duplicated row whose Cholesky
    factorization meets an exactly zero pivot: the first two rows of the
    integer ``a`` are (1, 2, 2, 0, ...), so the second pivot is 9 - 3 * 3."""
    a = rng.integers(-3, 4, size=(m, m + 5)).astype(float)
    a[:2] = 0.0
    a[:2, :3] = (1.0, 2.0, 2.0)
    return a @ a.T


def relative_residual(mat, rhs, v):
    return np.linalg.norm(rhs - mat @ v) / (np.linalg.norm(mat, 2) * np.linalg.norm(v))


class TestSchurSolver:
    def test_singular_matrix_takes_the_shift(self, monkeypatch):
        rng = np.random.default_rng(6)
        mat = singular_schur(rng, 40)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        rhs = mat @ rng.standard_normal(40)
        solve, ratio = sdp._schur_solver(mat)
        refined = solve(rhs)
        assert np.all(np.isfinite(refined)) and ratio < sdp.SCHUR_COND_LIMIT
        monkeypatch.setattr(sdp, "SCHUR_REFINEMENT_STEPS", 0)
        before = relative_residual(mat, rhs, sdp._schur_solver(mat)[0](rhs))
        after = relative_residual(mat, rhs, refined)
        # refinement against the unshifted matrix removes the shift's bias
        assert after <= 1e-15 and after <= 0.1 * before

    def test_ill_conditioned_solve_is_refined(self, monkeypatch):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        mat = (q * np.logspace(0, -12, 80)) @ q.T
        mat = 0.5 * (mat + mat.T)
        assert 0.5e12 <= np.linalg.cond(mat) <= 2e12
        rhs = rng.standard_normal(80)
        solve, ratio = sdp._schur_solver(mat)
        diag = np.linalg.cholesky(mat).diagonal()
        assert ratio == diag.max() / diag.min()
        refined = solve(rhs)
        monkeypatch.setattr(sdp, "SCHUR_REFINEMENT_STEPS", 0)
        before = relative_residual(mat, rhs, sdp._schur_solver(mat)[0](rhs))
        after = relative_residual(mat, rhs, refined)
        assert after <= 1e-14 and after <= before


def infeasible_diagonal():
    # X11 = 2 against tr X = 1: the primal iterate diverges
    return sdp.sdp_problem(EYE2, [(EYE2, 1.0), (np.diag([1.0, 0.0]).astype(complex), 2.0)])


def unbounded_off_diagonal():
    # X11 = X22 while the objective rewards Re X12 without bound
    c = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
    return sdp.sdp_problem(c, [(np.diag([1.0, -1.0]).astype(complex), 0.0)])


def unbounded_diagonal(n=2):
    # X22 + ... + Xnn = n - 1 leaves diag(t, 1, ..., 1) feasible for every
    # t >= 0, and the objective falls without bound along it: an improving
    # ray, not infeasibility
    c = np.diag([-1.0] + [1.0] * (n - 1)).astype(complex)
    return sdp.sdp_problem(c, [(np.diag([0.0] + [1.0] * (n - 1)).astype(complex), n - 1.0)])


def infeasible_with_improving_ray():
    # X11 = -1 has no PSD solution, although D = E22 keeps A(D) = 0 and
    # lowers the objective: y = -1 is a Farkas ray all the same
    c = np.diag([0.0, -1.0]).astype(complex)
    return sdp.sdp_problem(c, [(np.diag([1.0, 0.0]).astype(complex), -1.0)])


def diverging_dual(n=25):
    # tr X = -1 has no PSD solution and the dual b.y = -y grows without
    # bound along the Farkas ray y = -1
    eye = np.eye(n, dtype=complex)
    return sdp.sdp_problem(eye, [(eye, -1.0)])


def structured_problem():
    return random_marginal_problem(np.random.default_rng(11), 6, 1)


def small_transport_problem():
    return qubit_transport_problem(cost.cost_symm(2.0), rho_z(0.5), rho_z(-0.5))


# (reason, problem, module attributes patched to reach it)
STOPS = [
    pytest.param("converged", small_transport_problem, {}, id="converged-small"),
    pytest.param("converged", structured_problem, {}, id="converged-structured"),
    pytest.param("max_iter", small_transport_problem, {"MAX_ITER": 3}, id="max_iter"),
    # an unreachable tolerance runs mu down to its floor, about +8e-13
    pytest.param(
        "mu_floor", small_transport_problem, {"solve": functools.partial(sdp.solve, tol=1e-30)},
        id="mu_floor",
    ),
    # X passes DIVERGENCE_LIMIT; at n=2 the step stalls first
    pytest.param("diverged", functools.partial(unbounded_diagonal, 4), {}, id="diverged-unbounded"),
    pytest.param("diverged", functools.partial(unbounded_diagonal, 49), {}, id="diverged"),
    pytest.param("stalled_step", unbounded_diagonal, {}, id="stalled_step-unbounded"),
    pytest.param(
        "schur_conditioning", small_transport_problem, {"SCHUR_COND_LIMIT": 1.0},
        id="schur_conditioning-qr",
    ),
    pytest.param(
        "schur_conditioning", structured_problem, {"SCHUR_COND_LIMIT": 1.0},
        id="schur_conditioning-cholesky",
    ),
    pytest.param("stalled_step", unbounded_off_diagonal, {}, id="stalled_step"),
    pytest.param(
        "preprocess_infeasible", lambda: sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 2.0)]), {},
        id="preprocess_infeasible",
    ),
    pytest.param("reclassified_infeasible", infeasible_diagonal, {}, id="reclassified_infeasible"),
    pytest.param(
        "reclassified_infeasible", infeasible_with_improving_ray, {},
        id="reclassified_infeasible-ray",
    ),
    pytest.param("reclassified_infeasible", diverging_dual, {}, id="reclassified_infeasible-dual"),
]
# the fixtures without a feasible plan
INFEASIBLE = [infeasible_diagonal, infeasible_with_improving_ray, diverging_dual]


class TestStopReason:
    @pytest.mark.parametrize("reason,build,patches", STOPS)
    def test_each_stop_names_its_reason(self, monkeypatch, reason, build, patches):
        for name, value in patches.items():
            monkeypatch.setattr(sdp, name, value)
        sol = sdp.solve(build())
        assert sol.reason == reason
        assert sol.status == sdp.REASON_STATUS[reason]

    def test_every_reason_is_reached(self):
        assert {case.values[0] for case in STOPS} == set(sdp.REASON_STATUS)

    def test_diverged_run_stops_before_overflow(self):
        sol = sdp.solve(unbounded_diagonal(4))
        assert sol.reason == "diverged" and sol.iterations < 20
        assert max(np.abs(a).max() for a in (sol.x, sol.s, sol.y)) > sdp.DIVERGENCE_LIMIT
        assert np.isfinite(sol.mu) and np.isfinite(sol.primal_objective)

    def test_negative_mu_is_diverged(self, monkeypatch):
        # tr(XS) >= 0 while both iterates are in the cone, so only rounding on
        # diverging iterates gives a negative mu; no fixture here reaches one
        # since every plan takes the scaled-frame step, so it is simulated
        monkeypatch.setattr(sdp, "_trace_product", lambda a, b: -1.0)
        sol = sdp.solve(small_transport_problem())
        assert sol.reason == "diverged" and sol.iterations == 0

    @pytest.mark.parametrize("n", [2, 24, 25])
    def test_dual_ray_is_reclassified_at_every_size(self, n):
        # one iteration for every plan size: the same stop on either side of
        # STRUCTURED_MIN_DIM, then the Farkas relabel
        sol = sdp.solve(diverging_dual(n))
        assert sol.reason == "reclassified_infeasible" and sol.iterations == 11
        assert sol.mu > 0 and np.abs(sol.y).max() > sdp.DIVERGENCE_LIMIT

    def test_unbounded_run_diverges_along_an_improving_ray(self):
        sol = sdp.solve(unbounded_diagonal())
        assert sol.status != sdp.STATUS_INFEASIBLE
        # the run is one the infeasibility rule looks at ...
        assert sol.primal_residual > 1e-4 and np.abs(sol.x).max() > 1e8
        # ... but X/|X| is feasible for the homogeneous system and improves
        norm = np.linalg.norm(sol.x)
        assert abs(sol.x[1, 1].real) / norm <= sdp.TOL and sol.primal_objective < 0


TRACE_KEYS = {"mu", "rp", "rd", "gap"}
STEP_KEYS = {"schur_ratio", "ap", "ad", "sigma"}


class TestTrace:
    @pytest.mark.parametrize("reason,build,patches", STOPS)
    def test_every_row_holds_the_residuals_and_every_step_its_lengths(
        self, monkeypatch, reason, build, patches
    ):
        for name, value in patches.items():
            monkeypatch.setattr(sdp, name, value)
        sol = sdp.solve(build())
        rows = sol.trace
        # the divergence guard stops an iteration before it records a row
        guarded = max(np.abs(a).max() for a in (sol.x, sol.s, sol.y)) > sdp.DIVERGENCE_LIMIT
        measured = not guarded and reason != "preprocess_infeasible"
        assert len(rows) == sol.iterations + measured
        for k, row in enumerate(rows):
            # a row steps when another iteration follows it
            stepped = k < len(rows) - 1 or guarded
            assert set(row) == TRACE_KEYS | (STEP_KEYS if stepped else set())
            assert all(type(v) is float for v in row.values())

    @pytest.mark.parametrize(
        "build,tol",
        [(small_transport_problem, sdp.TOL), (structured_problem, sdp.TOL),
         (small_transport_problem, 1e-30)],
        ids=["converged-small", "converged-structured", "mu_floor"],
    )
    def test_last_row_is_the_reported_state(self, build, tol):
        sol = sdp.solve(build(), tol=tol)
        assert sol.reason == ("mu_floor" if tol < sdp.TOL else "converged")
        last = sol.trace[-1]
        assert (last["mu"], last["rp"], last["rd"], last["gap"]) == (
            sol.mu, sol.primal_residual, sol.dual_residual, sol.gap
        )

    def test_timings_name_each_phase(self):
        inconsistent = sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 2.0)])
        for problem in (small_transport_problem(), inconsistent):
            timings = sdp.solve(problem).timings
            assert set(timings) == {"preprocess", "iterate"}
            assert all(v >= 0.0 for v in timings.values())


def farkas_margins(problem, y):
    """``(b . v, lambda_min(-sum_i v_i A_i))`` for ``v = y / max|y|``, from the
    dense stack."""
    v = y / np.abs(y).max()
    combination = np.tensordot(v, problem.constraint_ops, axes=1)
    return float(problem.constraint_vals @ v), linalg.min_eigenvalue(-combination)


def full_space_problem(instance):
    """The transport SDP of ``instance`` on the whole plan space, without the
    reduction of ``transport.build_primal`` to the support face."""
    whole = transport.SupportFace(instance.omega, instance.rho, instance.pairs)
    return sdp.slot_problem(
        instance.plan_cost(), instance.plan_shape, transport._marginal_constraints(whole)
    )


class TestFarkasRule:
    @pytest.mark.parametrize("build", INFEASIBLE)
    def test_reclassified_multipliers_are_a_farkas_ray(self, build):
        problem = build()
        sol = sdp.solve(problem)
        assert sol.reason == "reclassified_infeasible"
        gain, lowest = farkas_margins(problem, sol.y)
        # any PSD X with A(X) = b would have b.v = <sum v_i A_i, X> <= TOL tr X
        assert gain > sdp.TOL and lowest >= -sdp.TOL

    @pytest.mark.parametrize(
        "build",
        [unbounded_off_diagonal, unbounded_diagonal, functools.partial(unbounded_diagonal, 4),
         functools.partial(unbounded_diagonal, 49)],
        ids=["off-diagonal", "diagonal-2", "diagonal-4", "diagonal-49"],
    )
    def test_unbounded_problems_are_never_infeasible(self, build):
        problem = build()
        sol = sdp.solve(problem)
        assert sol.status == sdp.STATUS_NUMERICAL and sol.primal_residual > 1e-4
        gain, lowest = farkas_margins(problem, sol.y)
        assert gain <= sdp.TOL or lowest < -sdp.TOL

    @pytest.mark.parametrize(
        "dim,ranks", [(2, (1, 1)), (2, (1, 2)), (3, (1, 1)), (3, (1, 3)), (3, (2, 3)),
                      (4, (1, 1)), (4, (1, 4)), (4, (2, 3))],
    )
    def test_rank_deficient_transport_is_never_infeasible(self, dim, ranks):
        rng = np.random.default_rng([dim, *ranks])

        def state(rank):
            v = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            rho = v @ v.conj().T
            return rho / np.trace(rho).real

        observables = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
        instance = transport.factorized_instance(
            state(ranks[0]), state(ranks[1]), observables, 2.0, transport.MODE_NONLINEAR
        )
        # posed on the whole plan space, not on the support face, the
        # feasible set has no interior: these runs stop short with a primal
        # residual above 1e-4, so the rule is consulted; a plan of unit trace
        # bounds b.v by TOL
        sol = sdp.solve(full_space_problem(instance))
        assert sol.primal_residual > 1e-4 and sol.status != sdp.STATUS_INFEASIBLE


def eigenbasis_step(m, delta):
    """Largest ``alpha`` keeping ``m + alpha delta`` PSD, from the eigenvalues
    of ``delta`` whitened by the eigen factor of ``m``."""
    w, q = np.linalg.eigh(m)
    t = (q.conj().T @ delta @ q) / np.sqrt(np.outer(w, w))
    return sdp._boundary_step(float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[0]))


class TestScaledFrameStep:
    @pytest.mark.parametrize("n", [4, 9, 16, 25, 36, 64])
    def test_scaled_frame_step_matches_the_eigenbasis_step(self, n):
        rng = np.random.default_rng(n)
        x, s = random_pd(rng, n), random_pd(rng, n)
        r, sig = sdp._nt_scaling(sdp._cholesky_factor(x), sdp._cholesky_factor(s))
        rh = r.conj().T
        # both iterates are diag(sig) in the scaled frame
        scaled_x = np.linalg.solve(r, np.linalg.solve(r, x).conj().T).conj().T
        np.testing.assert_allclose(scaled_x, np.diag(sig), rtol=0, atol=1e-10 * sig.max())
        np.testing.assert_allclose(rh @ s @ r, np.diag(sig), rtol=0, atol=1e-10 * sig.max())
        for _ in range(5):
            ds_scaled = linalg.random_hermitian(rng, n, scale=float(sig.mean()))
            ds = np.linalg.solve(rh, np.linalg.solve(rh, ds_scaled).conj().T).conj().T
            ad = sdp._boundary_step(sdp._frame_eigvals(ds_scaled, sig)[0])
            np.testing.assert_allclose(ad, eigenbasis_step(s, ds), rtol=1e-10)
            # predictor: the X-side direction is -diag(sig) - ds_scaled, and
            # its smallest scaled eigenvalue is -1 minus the S side's largest
            dx_scaled = -np.diag(sig) - ds_scaled
            lam_x = sdp._frame_eigvals(dx_scaled, sig)
            lam_s = sdp._frame_eigvals(ds_scaled, sig)
            np.testing.assert_allclose(lam_x[0], -1.0 - lam_s[-1], rtol=1e-10)
            ap = sdp._boundary_step(-1.0 - lam_s[-1])
            np.testing.assert_allclose(ap, eigenbasis_step(x, r @ dx_scaled @ rh), rtol=1e-10)
            # the corrector measures both sides in one stacked call
            both = sdp._max_steps(np.stack([dx_scaled, ds_scaled]), sig)
            assert both == [sdp._boundary_step(lam_x[0]), ad]

    def test_cholesky_factor_falls_back_to_the_eigen_factor(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        rank_two = v @ v.conj().T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rank_two)
        f = sdp._cholesky_factor(rank_two)
        np.testing.assert_allclose(f @ f.conj().T, rank_two, rtol=0, atol=1e-12)
        pd = random_pd(rng, 6)
        np.testing.assert_array_equal(sdp._cholesky_factor(pd), np.linalg.cholesky(pd))


class TestStackedPair:
    """X and S are one stacked pair in ``solve``; each stacked call must
    round exactly as the per-matrix calls it replaced."""

    @pytest.mark.parametrize("n", [4, 9, 16, 36])
    def test_stacked_pair_is_bitwise_the_per_matrix_calls(self, n):
        rng = np.random.default_rng(n)
        x, s = random_pd(rng, n), random_pd(rng, n)
        _, sig = sdp._nt_scaling(sdp._cholesky_factor(x), sdp._cholesky_factor(s))
        deltas = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        weights = np.stack([sig, rng.uniform(0.5, 2.0, n)])
        for k in range(2):
            np.testing.assert_array_equal(
                sdp._frame_eigvals(deltas, weights)[k], sdp._frame_eigvals(deltas[k], weights[k])
            )
            # one row of weights shared by the stack, as in the scaled frame
            np.testing.assert_array_equal(
                sdp._frame_eigvals(deltas, sig)[k], sdp._frame_eigvals(deltas[k], sig)
            )
        # both steps, bitwise those measured one side at a time
        assert sdp._max_steps(deltas, sig) == [
            sdp._boundary_step(float(sdp._frame_eigvals(deltas[k], sig)[0])) for k in (0, 1)
        ]

    def test_dense_adjoint_is_bitwise_tensordot(self):
        problem = qubit_transport_problem(cost.cost_symm(2.0), rho_z(0.5), rho_z(-0.3))
        y = np.random.default_rng(2).standard_normal(problem.n_constraints)
        _, adjoint = sdp._constraint_maps(problem)
        np.testing.assert_array_equal(
            adjoint(y), np.tensordot(y, problem.constraint_ops, axes=1)
        )


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


def dense_copy(problem):
    """The same problem declared on one slot: every read goes through the
    dense stack, which ``constraint_ops`` builds from the slots."""
    constraints = list(zip(problem.constraint_ops, problem.constraint_vals))
    return sdp.sdp_problem(problem.objective, constraints)


def nonlinear_d6():
    rng = np.random.default_rng(46)
    rho, omega = linalg.random_density(rng, 6), linalg.random_density(rng, 6)
    obs = cost.observable_set([linalg.random_hermitian(rng, 6) for _ in range(2)])
    return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)


def pauli_triple_k3():
    return transport.factorized_instance(
        rho_z(0.3), rho_z(-0.5), cost.pauli_triple(), 2.0, transport.MODE_LINEARIZED
    )


CERT_FIELDS = (
    "max_equality_residual", "dual_residual", "min_eig_x", "min_eig_s",
    "primal_objective", "dual_objective", "gap",
)


class TestSlotReads:
    @pytest.mark.parametrize("build,n", [(nonlinear_d6, 36), (pauli_triple_k3, 64)])
    def test_certify_through_slots_matches_the_dense_stack(self, build, n):
        problem = transport.build_primal(build())
        assert problem.dim == n and sdp._slot_reads(problem) is not None
        sol = sdp.solve(problem)
        slots = sdp.certify(sol, problem)
        assert "constraint_ops" not in vars(problem)  # certify built no dense stack
        dense = sdp.certify(sol, dense_copy(problem))
        for name in CERT_FIELDS:
            np.testing.assert_allclose(
                getattr(slots, name), getattr(dense, name), rtol=0, atol=1e-12
            )
        assert slots.passed == dense.passed

    def test_solve_does_not_depend_on_the_dense_cache(self):
        fresh, touched = (transport.build_primal(nonlinear_d6()) for _ in range(2))
        touched.constraint_ops  # build the cache before solving
        a, b = sdp.solve(fresh), sdp.solve(touched)
        assert "constraint_ops" not in vars(fresh)
        assert a.iterations == b.iterations and a.reason == b.reason
        for name in ("x", "y", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_one_slot_problem_holds_one_copy_of_its_operators(self):
        ops = [np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), EYE2]
        problem = sdp.sdp_problem(EYE2, [(a, 1.0) for a in ops])
        stack = vars(problem)["constraint_ops"]  # set at construction, not built later
        assert problem.constraint_ops is stack
        np.testing.assert_array_equal(stack, np.stack(ops))
        for local in problem.structure.local_ops:
            assert local.base is stack

    def test_dense_stack_is_the_embedded_local_operators(self):
        problem = random_slot_problem(np.random.default_rng(3), linalg.FactorShape((2, 3, 2)))
        structure = problem.structure
        for op, slot, local in zip(problem.constraint_ops, structure.slots, structure.local_ops):
            np.testing.assert_array_equal(op, linalg.embed_at_slot(local, slot, structure.shape))
        assert not problem.constraint_ops.flags.writeable


class TestSlotProblemValidation:
    SHAPE = linalg.FactorShape((2, 3))

    def build(self, constraints, objective=None):
        if objective is None:
            objective = np.eye(self.SHAPE.total_dim, dtype=complex)
        return sdp.slot_problem(objective, self.SHAPE, constraints)

    def test_valid_problem_is_accepted(self):
        problem = self.build([(0, EYE2, 1.0), (1, np.eye(3, dtype=complex), 1.0)])
        assert problem.structure.slots == (0, 1)

    @pytest.mark.parametrize("slot", [2, -1])
    def test_bad_slot_index(self, slot):
        with pytest.raises(ValueError, match="does not fit slot"):
            self.build([(slot, EYE2, 1.0)])

    def test_operator_shape_must_match_its_slot(self):
        with pytest.raises(ValueError, match="does not fit slot"):
            self.build([(0, np.eye(3, dtype=complex), 1.0)])

    def test_non_hermitian_operator(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            self.build([(0, np.array([[0, 1], [0, 0]], dtype=complex), 1.0)])

    def test_non_finite_operator(self):
        with pytest.raises(ValueError, match="non-finite"):
            self.build([(1, np.diag([1.0, np.nan, 0.0]).astype(complex), 1.0)])

    def test_objective_must_match_the_slots(self):
        with pytest.raises(ValueError, match="does not match"):
            self.build([(0, EYE2, 1.0)], objective=EYE4)

    def test_constraints_required(self):
        with pytest.raises(ValueError, match="constraint"):
            self.build([])

    def test_declared_point_is_kept_by_preprocess(self):
        point = np.diag([0.1, 0.2, 0.3, 0.2, 0.1, 0.1]).astype(complex)
        # the duplicate trace row is dropped; the point meets the kept ones
        problem = sdp.slot_problem(
            np.eye(6), self.SHAPE, [(0, EYE2, 1.0), (1, np.eye(3), 1.0)], interior=point
        )
        reduced, report = sdp.preprocess(problem)
        assert report.removed == (1,)
        np.testing.assert_array_equal(reduced.interior, point)
        assert not reduced.interior.flags.writeable

    @pytest.mark.parametrize(
        "point,match",
        [
            (np.diag([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]), "not positive definite"),
            (np.diag([0.5, 0.5, 0.5, -0.5, 0.0, 0.0]), "not positive definite"),
            (np.eye(6) / 3, "misses the constraints by 1.000e"),
            (np.eye(6) / 6 + 1e-9 * np.diag([1, 0, 0, -1, 0, 0]), "misses the constraints"),
            (np.eye(6) / 6 + np.triu(np.ones((6, 6)), 1) / 100, "not Hermitian"),
            (np.eye(4) / 4, "shape"),
        ],
        ids=["singular", "indefinite", "off-trace", "off-marginal", "non-hermitian", "shape"],
    )
    def test_bad_point_is_rejected(self, point, match):
        b = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match=match):
            sdp.slot_problem(np.eye(6), self.SHAPE, [(0, EYE2, 1.0), (0, b, 0.0)], interior=point)

    def test_plan_above_the_cap(self):
        d = math.isqrt(sdp.MAX_VARIABLE_DIM) + 1
        shape = linalg.FactorShape((d, d))
        with pytest.raises(ValueError, match="exceeds"):
            sdp.slot_problem(np.eye(d * d, dtype=complex), shape, [(0, np.eye(d), 1.0)])
