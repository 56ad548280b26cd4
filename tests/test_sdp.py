"""Tests for the interior-point SDP solver."""

import dataclasses
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qot import cost, linalg, sdp, transport
from qot.closedform import state_x
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
        np.testing.assert_allclose(sol.certificate.primal_objective, 1.0, atol=1e-7)
        np.testing.assert_allclose(sol.x, np.diag([1.0, 0.0]), atol=1e-5)

    def test_scalar_problem(self):
        problem = sdp.sdp_problem(np.array([[3.0 + 0j]]), [(np.array([[1.0 + 0j]]), 2.0)])
        sol = sdp.solve(problem)
        assert sol.optimal
        np.testing.assert_allclose(sol.certificate.primal_objective, 6.0, atol=1e-8)
        np.testing.assert_allclose(sol.y, [3.0], atol=1e-7)

    def test_transport_oracle_commuting(self):
        # sigma_z-diagonal states: the optimum is the classical two-point value
        problem = qubit_transport_problem(cost.cost_z(2.0), rho_z(0.3), rho_z(-0.1))
        sol = sdp.solve(problem)
        assert sol.optimal
        np.testing.assert_allclose(sol.certificate.primal_objective, 0.8, atol=1e-7)

    def test_brute_force_min_eigenvalue(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = linalg.random_hermitian(rng, 2)
            sol = sdp.solve(sdp.sdp_problem(c, [(EYE2, 1.0)]))
            assert sol.optimal
            np.testing.assert_allclose(
                sol.certificate.primal_objective, np.linalg.eigvalsh(c)[0], atol=1e-9
            )

    def test_weak_duality_on_random_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = linalg.random_density(rng, 2)
            omega = linalg.random_density(rng, 2)
            problem = qubit_transport_problem(cost.cost_symm(2.0), rho, omega)
            sol = sdp.solve(problem)
            assert sol.certificate.dual_objective <= sol.certificate.primal_objective + 1e-9

    def test_problems_without_a_point_start_at_tau_identity(self):
        # the digest of this solve before problems could declare a start
        problem = small_transport_problem()
        assert problem.interior is None
        sol = sdp.solve(problem)
        assert (sol.reason, sol.iterations, sol.certificate.primal_objective.hex()) == (
            "converged", 7, "0x1.0000000a2e1a8p+2"
        )

    def test_determinism(self):
        problem = qubit_transport_problem(cost.cost_symm(1.0), rho_z(0.37), rho_z(-0.21))
        a, b = sdp.solve(problem), sdp.solve(problem)
        assert a.certificate.primal_objective == b.certificate.primal_objective
        assert a.certificate.dual_objective == b.certificate.dual_objective
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
        rel = abs(sol_scaled.certificate.primal_objective - 3.0 * sol.certificate.primal_objective) / abs(
            3.0 * sol.certificate.primal_objective
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

    def test_consistency_is_checked_per_problem_on_one_reduced_structure(self):
        # one structure with a duplicated row, posed with consistent and with
        # inconsistent values: the rank decision is the structure's, the
        # value check each problem's
        z = np.diag([1.0, -1.0]).astype(complex)
        structure = sdp.slot_structure(linalg.FactorShape((2,)), [(0, EYE2), (0, z), (0, EYE2)])
        consistent = sdp.pose(structure, EYE2, [1.0, 0.2, 1.0])
        inconsistent = sdp.pose(structure, EYE2, [1.0, 0.2, 2.0])
        (a, kept), (b, flagged) = sdp.preprocess(consistent), sdp.preprocess(inconsistent)
        assert kept.removed == flagged.removed == (2,)
        assert a.structure is b.structure is structure.rank_decision[2]
        assert not kept.infeasible and flagged.infeasible
        assert sdp.solve(consistent).optimal
        assert sdp.solve(inconsistent).reason == "preprocess_infeasible"

    def test_dependent_but_consistent_combination(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        problem = sdp.sdp_problem(EYE2, [(a, 0.25), (b, 0.75), (a + b, 1.0)])
        reduced, report = sdp.preprocess(problem)
        assert report.removed == (2,)
        assert not report.infeasible
        assert reduced.n_constraints == 2


def marginal_instance(rng, dim, pairs):
    """Random states and observables: nonlinear for one pair, linearized for more."""
    observables = cost.observable_set(
        [linalg.random_hermitian(rng, dim) for _ in range(max(pairs, 2))]
    )
    mode = transport.MODE_LINEARIZED if pairs > 1 else transport.MODE_NONLINEAR
    return transport.factorized_instance(
        linalg.random_density(rng, dim), linalg.random_density(rng, dim), observables, 2.0, mode
    )


def random_marginal_problem(rng, dim, pairs):
    """Transport problem of random states: one trace row plus 2K slots of marginals."""
    return transport.build_primal(marginal_instance(rng, dim, pairs))


def rank_instance(rng, ranks):
    """A nonlinear qutrit pair whose states (omega, rho) have ``ranks``: its
    support face has the slots ``ranks``."""
    omega, rho = (
        (lambda g: g @ g.conj().T / np.linalg.norm(g) ** 2)(
            rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r))
        )
        for r in ranks
    )
    obs = cost.observable_set([linalg.random_hermitian(rng, 3) for _ in range(2)])
    return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)


def posed(objective, shape, constraints, interior=None):
    """The problem of the rows ``(slot, op, b)``: their structure declared,
    then the objective, the values and ``interior`` posed on it."""
    structure = sdp.slot_structure(shape, [(slot, op) for slot, op, _ in constraints])
    return sdp.pose(structure, objective, [b for *_, b in constraints], interior=interior)


def coupling_operators(shape):
    """``(slot, op)`` of the coupling constraints on a face of ``shape``, in
    the order ``build_primal`` declares them: the trace, the identity at slot
    0, then per pair the two slots' traceless basis elements alternating
    while both last, a second slot's transposed."""
    bases = [linalg.hermitian_basis(d)[1:] for d in shape.dims[:2]]
    ops = [(0, np.eye(shape.dims[0], dtype=complex))]
    for k in range(shape.n_factors // 2):
        for pair in itertools.zip_longest(*bases):
            ops += [
                (2 * k + side, b.T if side else b) for side, b in enumerate(pair) if b is not None
            ]
    return ops


def declared(instance):
    """``(objective, shape, constraints)`` as ``build_primal`` declares them,
    on the slots of the instance's support face."""
    face = instance.support
    ops = coupling_operators(face.shape)
    rows = [(slot, op, b) for (slot, op), b in zip(ops, transport._marginal_values(face))]
    return face.restrict(instance.cost), face.shape, rows


def random_slot_rows(rng, shape):
    """One trace row plus the traceless Hermitian basis at every slot of ``shape``."""
    constraints = [(0, np.eye(shape.dims[0], dtype=complex), 1.0)]
    for slot, d in enumerate(shape.dims):
        for b in linalg.hermitian_basis(d)[1:]:
            constraints.append((slot, b, float(rng.standard_normal())))
    return constraints


def random_slot_problem(rng, shape):
    """A random objective under :func:`random_slot_rows`."""
    constraints = random_slot_rows(rng, shape)
    return posed(linalg.random_hermitian(rng, shape.total_dim), shape, constraints)


def slot_declaration(case):
    """``(rng, objective, shape, constraints)`` of a slot-structured case: a
    tuple of dims is :func:`random_slot_problem` on that shape, ``"rank-RxS"``
    the face of a qutrit pair of ranks R and S (slots R, S), ``"D-K"`` the
    plan of K pairs of random qudits of dimension D."""
    if isinstance(case, tuple):
        rng = np.random.default_rng(len(case))
        shape = linalg.FactorShape(case)
        constraints = random_slot_rows(rng, shape)
        return rng, linalg.random_hermitian(rng, shape.total_dim), shape, constraints
    if case.startswith("rank-"):
        ranks = tuple(int(r) for r in case[5:].split("x"))
        rng = np.random.default_rng(ranks)
        return (rng, *declared(rank_instance(rng, ranks)))
    dim, pairs = (int(v) for v in case.split("-"))
    rng = np.random.default_rng(dim * 10 + pairs)
    return (rng, *declared(marginal_instance(rng, dim, pairs)))


def slot_case(case):
    """``(rng, problem)`` of :func:`slot_declaration`."""
    rng, *declaration = slot_declaration(case)
    return rng, posed(*declaration)


# slot_case of random_marginal_problem plans (one of which, K=4, reads groups
# (8, 8, 4) and K=2 qubits (8, 2), while K=2 qutrits do not merge), of
# random_slot_problem shapes and of rank-deficient faces whose slots merge
SLOT_CASES = pytest.mark.parametrize("case", [
    "2-1", "3-1", "4-1", "2-3",
    pytest.param((2, 3), id="shape-2x3"),
    pytest.param((2, 3, 2), id="shape-2x3x2"),
    "2-2", "2-4", "3-2", "rank-1x3", "rank-2x3",
])


def random_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + 1e-3 * np.eye(n)


def hkm_pair(rng, n):
    """Random positive definite ``(X, Z)`` with ``Z = S^-1`` from the factors
    ``solve`` takes, and those factors ``(Lx, Ls^-1)``."""
    factors, inverses = sdp._cholesky_pair(np.stack([random_pd(rng, n), random_pd(rng, n)]))
    x = factors[0] @ factors[0].conj().T
    return x, inverses[1].conj().T @ inverses[1], factors[0], inverses[1]


def dense_schur(ops, x, z):
    """``Re tr(A_i X A_j Z)`` from the dense stack."""
    return np.einsum("iab,jba->ij", ops @ x, ops @ z).real


class TestStructuredSchur:
    @SLOT_CASES
    def test_slot_gram_matches_dense(self, case):
        # both Schur routes form Re tr(A_i X A_j Z): the slot contraction and
        # the Gram matrix of the QR route's rows Ls^-1 A_i Lx
        rng, problem = slot_case(case)
        ops = problem.constraint_ops
        x, z, lx, inv_s = hkm_pair(rng, problem.dim)
        dense = dense_schur(ops, x, z)
        atol = 1e-12 * np.abs(dense).max()
        np.testing.assert_allclose(sdp._slot_schur(x, z, problem.structure), dense, rtol=0, atol=atol)
        rows = sdp._scaled_rows(ops, lx, inv_s)
        np.testing.assert_allclose(rows @ rows.T, dense, rtol=0, atol=atol)
        # the constraints read Re tr(A_i .) on a non-Hermitian product
        mat = x @ linalg.random_hermitian(rng, problem.dim) @ z
        applied = np.einsum("iab,ba->i", ops, mat).real
        np.testing.assert_allclose(
            sdp._slot_applied(mat, problem.structure), applied,
            rtol=0, atol=1e-12 * np.abs(applied).max(),
        )
        flat_apply, _ = sdp._constraint_maps(dense_copy(problem))
        np.testing.assert_allclose(flat_apply(mat[None])[0, :, 0], applied,
                                   rtol=0, atol=1e-12 * np.abs(applied).max())

    @SLOT_CASES
    def test_slot_adjoint_and_marginals_match_dense(self, case):
        rng, problem = slot_case(case)
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

    @pytest.mark.parametrize(
        "dim,pairs,groups",
        [(2, 2, (8, 2)), (2, 3, (8, 8)), (2, 4, (8, 8, 4)), (3, 2, (3, 3, 3, 3))],
        ids=["qubit-K2", "qubit-K3", "qubit-K4", "qutrit-K2"],
    )
    def test_grouped_schur_matches_the_dense_form(self, dim, pairs, groups):
        rng = np.random.default_rng(dim * 10 + pairs)
        problem = random_marginal_problem(rng, dim, pairs)
        assert problem.structure.shape.dims == groups
        x, z, _, _ = hkm_pair(rng, problem.dim)
        schur = sdp._slot_schur(x, z, problem.structure)
        dense = dense_schur(problem.constraint_ops, x, z)
        np.testing.assert_allclose(schur, dense, rtol=0, atol=1e-13 * np.abs(dense).max())

    @pytest.mark.parametrize("dims,merged", [
        ((2,) * 8, (8, 8, 4)), ((2, 3, 4), (6, 4)), ((12, 12), (12, 12)), ((10,), (10,)),
    ], ids=["qubits-8", "2x3x4", "12x12", "one-slot"])
    def test_slot_adjoint_product_matches_the_dense_stack(self, dims, merged):
        # A*(y) Z through one product per group of slots
        rng = np.random.default_rng(len(dims))
        problem = random_slot_problem(rng, linalg.FactorShape(dims))
        assert problem.structure.shape.dims == merged
        y = rng.standard_normal(problem.n_constraints)
        _, z, _, _ = hkm_pair(rng, problem.dim)
        dense = np.tensordot(y, problem.constraint_ops, axes=1) @ z
        np.testing.assert_allclose(
            sdp._slot_adjoint_product(y, z, problem.structure), dense,
            rtol=0, atol=1e-13 * np.abs(dense).max(),
        )

    @pytest.mark.parametrize("build", [
        lambda: qubit_linearized(3, 5), lambda: qubit_linearized(4, 23), lambda: nonlinear_instance(12),
    ], ids=["K3", "K4", "d12"])
    def test_slot_applied_product_matches_the_formed_product(self, build):
        # the corrector's refinement reads A(X A*(dy) Z) from group marginals
        problem = transport.build_primal(build())
        rng = np.random.default_rng(problem.dim)
        x, z, _, _ = hkm_pair(rng, problem.dim)
        w = sdp._slot_adjoint_product(rng.standard_normal(problem.n_constraints), z, problem.structure)
        apply, _ = sdp._constraint_maps(problem)
        formed = apply((x @ w)[None])[0, :, 0]
        np.testing.assert_allclose(
            sdp._slot_applied_product(x, w, problem.structure), formed,
            rtol=0, atol=1e-13 * np.abs(formed).max(),
        )

    def test_merged_slots_stay_below_the_group_dimension(self):
        # a slot above the group dimension stays alone, so no one-pair plan
        # read through the slots (d >= 5) becomes one slot spanning the space
        for dims, merged in [((6, 6), (6, 6)), ((2, 2, 3, 3), (4, 3, 3)), ((1, 2, 1, 2), (4,))]:
            shape = linalg.FactorShape(dims)
            structure = random_slot_problem(np.random.default_rng(1), shape).structure
            assert structure.shape.dims == merged
            rows = np.sort(np.concatenate([rows for _, rows, _ in structure.blocks]))
            np.testing.assert_array_equal(rows, np.arange(structure.n_constraints))

    @pytest.mark.parametrize(
        "case",
        [(5,), (2, 2), (3, 3), (2, 3), (2, 3, 2), "rank-1x3", "rank-2x3", "2-2", "2-4", "3-2"],
        ids=str,
    )
    def test_slot_coordinates_have_the_dense_gram(self, case):
        _, problem = slot_case(case)
        m = problem.n_constraints
        flat = problem.constraint_ops.reshape(m, -1)
        rows = np.hstack([flat.real, flat.imag])
        coords = problem.structure.coordinates()
        assert coords.shape == (m, 1 + sum(d * d for d in problem.structure.shape.dims))
        np.testing.assert_allclose(coords @ coords.T, rows @ rows.T, rtol=0, atol=1e-12 * m)

    def test_identity_declared_at_two_slots_is_removed(self):
        # on the d=5 pair plan, and on the K=3 qubit plan, whose slots 0 and 1
        # share a group
        for dim, pairs in [(5, 1), (2, 3)]:
            instance = marginal_instance(np.random.default_rng(2), dim, pairs)
            objective, shape, rows = declared(instance)
            problem = posed(objective, shape, rows)
            identity = (1, np.eye(dim, dtype=complex), 1.0)
            again = posed(objective, shape, rows + [identity])
            reduced, report = sdp.preprocess(again)
            assert report.removed == (len(rows),)
            assert not report.infeasible
            np.testing.assert_array_equal(reduced.constraint_ops, problem.constraint_ops)

    def test_structured_solve_is_deterministic(self):
        problem = random_marginal_problem(np.random.default_rng(11), 6, 1)
        assert problem.dim >= sdp.STRUCTURED_MIN_DIM
        a, b = sdp.solve(problem), sdp.solve(problem)
        assert a.optimal and a.iterations == b.iterations and a.trace == b.trace
        for name in ("x", "y", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_duplicated_row_is_filtered_from_the_structure(self):
        objective, shape, rows = declared(marginal_instance(np.random.default_rng(8), 6, 1))
        problem = posed(objective, shape, rows)
        assert problem.dim >= sdp.STRUCTURED_MIN_DIM
        doubled = posed(objective, shape, rows + [rows[5]])
        reduced, report = sdp.preprocess(doubled)
        assert report.removed == (len(rows),)
        np.testing.assert_array_equal(reduced.constraint_ops, problem.constraint_ops)
        base, dup = sdp.solve(problem), sdp.solve(doubled)
        assert base.optimal and dup.optimal
        assert dup.y[-1] == 0.0
        scale = max(1.0, abs(base.certificate.primal_objective))
        np.testing.assert_allclose(
            dup.certificate.primal_objective, base.certificate.primal_objective, rtol=0, atol=1e-8 * scale
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
    def test_singular_matrix_reports_the_breakdown(self):
        # without the shift (below the Lanczos gate) solve then takes the QR
        # of the scaled rows
        mat = singular_schur(np.random.default_rng(6), 40)
        assert sdp._schur_solver(mat, shift=False) is None

    def test_singular_matrix_takes_the_shift(self):
        rng = np.random.default_rng(6)
        mat = singular_schur(rng, 40)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        inverse, ratio, shifted = sdp._schur_solver(mat, shift=True)
        assert shifted
        shift = np.finfo(float).eps * 40 * float(mat.diagonal().max())
        upper = np.linalg.cholesky(mat + shift * np.eye(40)).T
        diag = upper.diagonal()
        assert ratio == diag.max() / diag.min() < sdp.SCHUR_COND_LIMIT
        # a solve is two products with the inverted factor
        rhs = mat @ rng.standard_normal(40)
        inv = sdp._triangular_inverse(upper)
        np.testing.assert_array_equal(inverse, inv)
        solved = sdp._schur_solve([inverse], rhs[None])[0]
        np.testing.assert_array_equal(solved, inv @ (inv.T @ rhs))
        assert np.all(np.isfinite(solved))


def triangular_factor(m, kind):
    """An upper triangular factor of order ``m``: ``R`` of a real QR
    (``single``), or the stacked pair of adjoints of complex Cholesky
    factors that ``solve`` inverts (``pair``)."""
    rng = np.random.default_rng(m)
    if kind == "single":
        return np.linalg.qr(rng.standard_normal((m + 5, m)), mode="r")
    pair = np.stack([random_pd(rng, m), random_pd(rng, m)])
    return np.linalg.cholesky(pair).conj().swapaxes(-1, -2)


class TestTriangularInverse:
    @pytest.mark.parametrize("m", [25, 33, 64, 65, 127, 256, 287, 400])
    def test_residual_is_at_rounding(self, m):
        for kind in ("single", "pair"):
            upper = triangular_factor(m, kind)
            inv = sdp._triangular_inverse(upper)
            assert np.array_equal(inv, np.triu(inv))
            for u, v in zip(upper.reshape(-1, m, m), inv.reshape(-1, m, m)):
                residual = np.linalg.norm(u @ v - np.eye(m), 2)
                bound = 4 * np.finfo(float).eps * np.linalg.norm(u, 2) * np.linalg.norm(v, 2)
                assert residual <= bound

    @pytest.mark.parametrize("m", [1, 7, 25, sdp.TRIANGULAR_LEAF])
    def test_leaf_is_the_library_inverse(self, m):
        for kind in ("single", "pair"):
            upper = triangular_factor(m, kind)
            np.testing.assert_array_equal(sdp._triangular_inverse(upper), np.linalg.inv(upper))

    @pytest.mark.parametrize("n", [9, sdp.GRAM_LEAF, 65, 128, 256, 400])
    def test_inverse_gram_is_the_product(self, n):
        # Z = Ls^-* Ls^-1 by blocks of the triangular factor inverse, the
        # full product at and below the leaf
        _, inv = sdp._cholesky_factor(random_pd(np.random.default_rng(n), n))
        gram, product = sdp._inverse_gram(inv), inv.conj().T @ inv
        if n <= sdp.GRAM_LEAF:
            np.testing.assert_array_equal(gram, product)
        else:
            h = n // 2
            np.testing.assert_array_equal(gram[h:, :h], gram[:h, h:].conj().T)
            eps = np.finfo(float).eps
            np.testing.assert_allclose(gram, product, rtol=0, atol=8 * eps * np.abs(product).max())

    def test_inverse_gram_of_the_eigen_factor_is_the_product(self):
        # the eigen factor of a singular side is not triangular
        rng = np.random.default_rng(3)
        g = rng.standard_normal((128, 100)) + 1j * rng.standard_normal((128, 100))
        _, inv = sdp._cholesky_factor(g @ g.conj().T)
        assert np.triu(inv, 1).any()
        np.testing.assert_array_equal(sdp._inverse_gram(inv), inv.conj().T @ inv)


def infeasible_diagonal():
    # X11 = 2 against tr X = 1: the primal iterate diverges
    return sdp.sdp_problem(EYE2, [(EYE2, 1.0), (np.diag([1.0, 0.0]).astype(complex), 2.0)])


def unbounded_off_diagonal(n=2):
    # X11 = X22 (and X_kk = 1 for k > 2) while the objective rewards Re X12
    # without bound
    c = np.zeros((n, n), dtype=complex)
    c[0, 1] = c[1, 0] = -1.0
    constraints = [(np.diag([1.0, -1.0] + [0.0] * (n - 2)).astype(complex), 0.0)]
    for k in range(2, n):
        unit = np.zeros((n, n), dtype=complex)
        unit[k, k] = 1.0
        constraints.append((unit, 1.0))
    return sdp.sdp_problem(c, constraints)


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


def ill_scaled_d6():
    """A nonlinear p=2 pair at d = 6 with two random observables x1e3, cost
    entries near 1e8."""
    rng = np.random.default_rng([6, 3, 5])
    rho, omega = linalg.random_density(rng, 6), linalg.random_density(rng, 6)
    obs = cost.observable_set([1e3 * linalg.random_hermitian(rng, 6) for _ in range(2)])
    return transport.build_primal(
        transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)
    )


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
    # X passes DIVERGENCE_LIMIT
    pytest.param("diverged", functools.partial(unbounded_diagonal, 4), {}, id="diverged-unbounded"),
    pytest.param("diverged", unbounded_diagonal, {}, id="diverged"),
    pytest.param(
        "stalled_step", functools.partial(unbounded_off_diagonal, 4), {},
        id="stalled_step-unbounded",
    ),
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
        problem = build()
        sol = sdp.solve(problem)
        assert sol.reason == reason
        assert sol.status == sdp.REASON_STATUS[reason]
        # every stop returns the iterates as updated, with no final symmetrization
        assert_exactly_hermitian(sol.x)
        assert_exactly_hermitian(sol.s)
        # and reports certify's reading of the point it returns, the guard's
        # refused iterate and preprocess_infeasible's zero point included
        assert sol.certificate == sdp.certify(sol, problem)

    def test_every_reason_is_reached(self):
        assert {case.values[0] for case in STOPS} == set(sdp.REASON_STATUS)

    def test_diverged_run_stops_before_overflow(self):
        problem = unbounded_diagonal(4)
        sol = sdp.solve(problem)
        assert sol.reason == "diverged" and sol.iterations < 20
        assert max(np.abs(a).max() for a in (sol.x, sol.s, sol.y)) > sdp.DIVERGENCE_LIMIT
        # the last row measures the iterate before the refused one; the
        # certificate, the report, reads the refused iterate that is returned
        assert np.isfinite(sol.trace[-1]["mu"]) and np.isfinite(sol.certificate.primal_objective)
        assert sol.certificate == sdp.certify(sol, problem)
        assert -sol.certificate.primal_objective > sdp.DIVERGENCE_LIMIT

    def test_preprocess_infeasible_reports_its_zero_point(self):
        problem = sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 2.0)])
        sol = sdp.solve(problem)
        assert sol.reason == "preprocess_infeasible" and sol.trace == ()
        assert not (sol.x.any() or sol.y.any() or sol.s.any())
        cert = sol.certificate
        assert (cert.primal_objective, cert.dual_objective, cert.gap) == (0.0, 0.0, 0.0)
        assert cert.max_equality_residual == 2.0 and not cert.passed
        # the inconsistency stays preprocess's to report
        assert sdp.preprocess(problem)[1].max_inconsistency == 1.0

    def test_negative_mu_is_diverged(self, monkeypatch):
        # tr(XS) >= 0 while both iterates are in the cone, so only rounding on
        # diverging iterates gives a negative mu; no fixture here reaches one
        # since every plan takes the scaled-frame step, so it is simulated
        monkeypatch.setattr(sdp, "_trace_product", lambda a, b: np.full(a.shape[:-2], -1.0))
        sol = sdp.solve(small_transport_problem())
        assert sol.reason == "diverged" and sol.iterations == 0

    @pytest.mark.parametrize("n", [2, 24, 25])
    def test_dual_ray_is_reclassified_at_every_size(self, n):
        # one iteration for every plan size: the same stop on either side of
        # STRUCTURED_MIN_DIM, then the Farkas relabel
        sol = sdp.solve(diverging_dual(n))
        assert sol.reason == "reclassified_infeasible" and sol.iterations == 11
        assert sol.trace[-1]["mu"] > 0 and np.abs(sol.y).max() > sdp.DIVERGENCE_LIMIT

    def test_unbounded_run_diverges_along_an_improving_ray(self):
        problem = unbounded_diagonal()
        sol = sdp.solve(problem)
        assert sol.status != sdp.STATUS_INFEASIBLE and np.abs(sol.x).max() > 1e8
        # its multipliers are no Farkas ray ...
        _, adjoint = sdp._constraint_maps(problem)
        assert not sdp._farkas_ray(sol.y, problem.constraint_vals, adjoint)
        # ... and X/|X| is feasible for the homogeneous system and improves;
        # X is scaled by max|X| first, as its entries reach DIVERGENCE_LIMIT
        x = sol.x / np.abs(sol.x).max()
        assert abs(x[1, 1].real) / np.linalg.norm(x) <= sdp.TOL and sol.certificate.primal_objective < 0


def pinned_problem(rng, n, x):
    """A problem whose n^2 constraints pin ``x``: the orthonormal Hermitian
    basis mixed by a random matrix of condition at most 2."""
    basis = linalg.hermitian_basis(n)
    q, _ = np.linalg.qr(rng.standard_normal((n * n, n * n)))
    mix = q * rng.uniform(1.0, 2.0, n * n)
    ops = [sum(w * b for w, b in zip(row, basis)) for row in mix]
    vals = [float(np.trace(a @ x).real) for a in ops]
    return sdp.sdp_problem(linalg.random_hermitian(rng, n), list(zip(ops, vals)))


class TestPinnedStart:
    """n^2 independent constraints leave one feasible plan: the solve starts
    at the exact pair when the stop test accepts it, else as every problem."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pinned_plan_converges_at_iteration_zero(self, n):
        rng = np.random.default_rng([n, 32])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = g @ g.conj().T / n + np.eye(n)
        problem = pinned_problem(rng, n, x)
        sol = sdp.solve(problem)
        assert sol.reason == "converged" and sol.iterations == 0 and len(sol.trace) == 1
        assert np.abs(sol.x - x).max() <= 1e-12
        _, adjoint = sdp._constraint_maps(problem)
        assert np.abs(adjoint(sol.y[None, :, None])[0] - problem.objective).max() <= 1e-12
        assert sdp.certify(sol, problem).passed
        assert_exactly_hermitian(sol.x)
        assert_exactly_hermitian(sol.s)

    def test_start_is_tested_once_a_solve_and_factored_once_a_structure(self, monkeypatch):
        rng = np.random.default_rng([3, 34])
        problem = pinned_problem(rng, 3, np.diag([0.5, 1.0, 1.5]).astype(complex))
        other = sdp.pose(problem.structure, linalg.random_hermitian(rng, 3), problem.constraint_vals)
        verdicts, certificates, factors = [], [], []
        accepted, certify, qr = sdp._accepted, sdp.certify, np.linalg.qr
        monkeypatch.setattr(sdp, "_accepted", lambda *a: verdicts.append(a) or accepted(*a))
        monkeypatch.setattr(sdp, "certify", lambda *a: certificates.append(a) or certify(*a))
        monkeypatch.setattr(np.linalg, "qr", lambda a, *r, **k: factors.append(k) or qr(a, *r, **k))
        assert all(sdp.solve(p).iterations == 0 for p in (problem, other))
        # the start's verdict, its certificate, is the verdict of iteration 0
        assert len(verdicts) == len(certificates) == 2
        # one QR for the rank decision and one for the pinned point, both held
        # on the structure that the two problems share
        assert factors == [{"mode": "r"}, {}]

    @pytest.mark.parametrize("diagonal,iterations", [([1.0, -1.0], 12), ([2.0, -0.5, 1.0], 12)])
    def test_unique_solution_outside_the_cone_keeps_the_identity_start(self, diagonal, iterations):
        n = len(diagonal)
        problem = pinned_problem(np.random.default_rng([n, 33]), n, np.diag(diagonal))
        sol = sdp.solve(problem)
        tau = max(1.0, float(np.abs(problem.objective).max()))
        assert sol.trace[0]["mu"] == tau**2  # X = S = tau I
        assert sol.reason == "reclassified_infeasible" and sol.iterations == iterations


TRACE_KEYS = {"mu", "rp", "rd", "gap"}
STEP_KEYS = {"schur_ratio", "ap", "ad", "sigma", "step_fallbacks", "ritz_steps"}
# a stepping row's Schur route and whether its factor was shifted
ROUTE_KEYS = {"route", "shifted"}


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
            assert set(row) == TRACE_KEYS | (STEP_KEYS | ROUTE_KEYS if stepped else set())
            assert all(type(row[key]) is float for key in set(row) - ROUTE_KEYS)
            if stepped:
                assert row["route"] in ("slot", "qr", "switched")
                assert type(row["shifted"]) is bool

    @pytest.mark.parametrize(
        "build,tol,reason",
        [(small_transport_problem, sdp.TOL, "converged"),
         (structured_problem, sdp.TOL, "converged"),
         (small_transport_problem, 1e-30, "mu_floor"),
         # cost entries near 1e8: the tol clauses pass at iteration 40 on a
         # dual slack eigenvalue of -1.6e-8, which certify fails; any reason
         # but an uncertified optimal will do
         (ill_scaled_d6, sdp.TOL, None)],
        ids=["converged-small", "converged-structured", "mu_floor", "ill-scaled-d6"],
    )
    def test_last_row_is_the_reported_state(self, build, tol, reason):
        problem = build()
        sol = sdp.solve(problem, tol=tol)
        assert reason is None or sol.reason == reason
        # the stop test is certify's verdict: no optimal solve fails it
        certificate = sdp.certify(sol, problem)
        assert not (sol.optimal and not certificate.passed)
        assert sol.certificate == certificate
        # the report is the certificate, and the last row measured the same point
        last = sol.trace[-1]
        assert (last["rp"], last["rd"], last["gap"]) == (
            certificate.max_equality_residual, certificate.dual_residual, certificate.gap
        )

    def test_timings_name_each_phase(self):
        inconsistent = sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 2.0)])
        for problem in (small_transport_problem(), inconsistent):
            sol = sdp.solve(problem)
            assert tuple(sol.timings) == ("preprocess", "iterate", "certify")
            assert all(v >= 0.0 for v in sol.timings.values())
            # the certificate the solve read is the one certify recomputes
            assert sol.certificate == sdp.certify(sol, problem)

    @pytest.mark.parametrize("reason,build,patches", STOPS)
    def test_phases_split_the_iterate_time(self, monkeypatch, reason, build, patches):
        for name, value in patches.items():
            monkeypatch.setattr(sdp, name, value)
        problem = build()
        sol = sdp.solve(problem)
        assert sol.reason == reason
        assert tuple(sol.phases) == sdp.PHASES
        assert all(v >= 0.0 for v in sol.phases.values())
        assert math.isclose(sum(sol.phases.values()), sol.timings["iterate"], rel_tol=1e-9,
                            abs_tol=1e-15)
        # certifying runs off the phase clock, under its own key of timings,
        # whose sum stays the whole solve; every stop, converged or not,
        # certifies once (test_each_stop_names_its_reason)
        assert tuple(sol.timings) == ("preprocess", "iterate", "certify")
        assert sol.timings["certify"] > 0.0
        assert sol.certificate.passed or not sol.optimal
        if any("ap" in row for row in sol.trace):
            assert all(sol.phases[phase] > 0.0 for phase in sdp.PHASES)


def assert_same_solution(got, alone):
    """Bitwise the same point, stop, trace and certificate."""
    for name in ("x", "y", "s"):
        a, b = getattr(got, name), getattr(alone, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.reason, got.iterations) == (alone.reason, alone.iterations)
    # repr reads every float exactly, a nan too
    assert repr(got.trace) == repr(alone.trace)
    assert repr(got.certificate) == repr(alone.certificate)


def twins(problem):
    """Two other problems posed on ``problem``'s structure: its objective
    scaled by 2 and a random Hermitian objective of the same scale."""
    rng = np.random.default_rng(problem.dim)
    scale = max(1.0, float(np.abs(problem.objective).max()))
    other = scale * linalg.random_hermitian(rng, problem.dim)
    return [sdp.pose(problem.structure, c, problem.constraint_vals, interior=problem.interior)
            for c in (2.0 * problem.objective, other)]


def orders(problems):
    """Every batch and sub-batch of ``problems`` that holds the first, in
    every order."""
    first, rest = problems[0], problems[1:]
    for size in range(len(rest) + 1):
        for others in itertools.combinations(rest, size):
            for batch in itertools.permutations((first, *others)):
                yield list(batch)


def qubit_faces():
    """Full-rank qubit transport problems on one face shape, whose solves
    take 6, 7 and 8 iterations."""
    instances = [transport.symm_instance(rho_z(a), rho_z(b), 2.0)
                 for a, b in [(0.5, -0.5), (0.9, 0.1), (0.0, 0.3), (0.95, 0.95)]]
    instances += [transport.z_instance(rho_z(0.2), state_x(0.7), 1.0),
                  transport.z_instance(rho_z(0.99), state_x(0.2), 2.0)]
    return [transport.build_primal(instance) for instance in instances]


class TestBatch:
    """``solve_batch`` runs one iteration over a stack of problems on one
    structure, and each member's solution is bitwise its solution alone."""

    @pytest.mark.parametrize("reason,build,patches", STOPS)
    def test_each_member_is_bitwise_itself_in_any_batch(self, monkeypatch, reason, build, patches):
        tol = 1e-30 if "solve" in patches else sdp.TOL
        for name, value in patches.items():
            if name != "solve":
                monkeypatch.setattr(sdp, name, value)
        problem = build()
        problems = [problem, *twins(problem)]
        alone = {id(p): sdp.solve_batch([p], tol=tol)[0] for p in problems}
        assert alone[id(problem)].reason == reason
        for batch in orders(problems):
            for member, solution in zip(batch, sdp.solve_batch(batch, tol=tol)):
                assert_same_solution(solution, alone[id(member)])
                assert solution.batch == len(batch)

    def test_a_pinned_member_stops_at_its_start_beside_one_that_iterates(self):
        # the fixture of the identity-start test, and on its structure the
        # values of a plan inside the cone
        refused = pinned_problem(np.random.default_rng([3, 33]), 3, np.diag([2.0, -0.5, 1.0]))
        inside = np.diag([0.5, 1.0, 1.5]).astype(complex)
        values = np.einsum("kab,ba->k", refused.constraint_ops, inside).real
        pinned = sdp.pose(refused.structure, refused.objective, values)
        alone = {id(p): sdp.solve(p) for p in (refused, pinned)}
        assert [alone[id(p)].iterations for p in (refused, pinned)] == [12, 0]
        for batch in orders([refused, pinned]):
            for member, solution in zip(batch, sdp.solve_batch(batch)):
                assert_same_solution(solution, alone[id(member)])

    def test_a_member_whose_cholesky_breaks_down_takes_the_fallback_alone(self, monkeypatch):
        # a factorization refused on every matrix above 50 in magnitude: the
        # scaled twin's dual side from its start on (tau = 200), the other
        # member never; the stacked call fails for the batch, and each
        # member then takes the path it takes alone
        problem = qubit_faces()[0]
        scaled = sdp.pose(problem.structure, 100.0 * problem.objective, problem.constraint_vals,
                          interior=problem.interior)
        cholesky = np.linalg.cholesky

        def breaking(a):
            if np.abs(a).max() > 50.0:
                raise np.linalg.LinAlgError("refused")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", breaking)
        alone = {id(p): sdp.solve(p) for p in (problem, scaled)}
        for batch in orders([problem, scaled]):
            for member, solution in zip(batch, sdp.solve_batch(batch)):
                assert_same_solution(solution, alone[id(member)])

    def test_a_member_refused_by_preprocess_beside_a_feasible_one(self):
        # one dependent row: values 1, 2 are inconsistent, 1, 1 are not
        refused = sdp.sdp_problem(EYE2, [(EYE2, 1.0), (EYE2, 2.0)])
        feasible = sdp.pose(refused.structure, np.diag([1.0, 2.0]), [1.0, 1.0])
        alone = {id(p): sdp.solve(p) for p in (refused, feasible)}
        assert [alone[id(p)].reason for p in (refused, feasible)] == [
            "preprocess_infeasible", "converged"]
        for batch in orders([refused, feasible]):
            for member, solution in zip(batch, sdp.solve_batch(batch)):
                assert_same_solution(solution, alone[id(member)])

    def test_members_converging_at_different_iterations(self):
        problems = qubit_faces()
        alone = [sdp.solve(p) for p in problems]
        assert len({s.iterations for s in alone}) > 2 and all(s.optimal for s in alone)
        rng = np.random.default_rng(0)
        for _ in range(4):
            order = rng.permutation(len(problems))
            batch = sdp.solve_batch([problems[k] for k in order])
            for k, solution in zip(order, batch):
                assert_same_solution(solution, alone[k])
            # the sub-batch of the first three of this order
            for k, solution in zip(order[:3], sdp.solve_batch([problems[k] for k in order[:3]])):
                assert_same_solution(solution, alone[k])

    def test_a_members_clock_is_its_share_of_the_batch(self):
        problems = qubit_faces()
        start = time.perf_counter()
        solutions = sdp.solve_batch(problems)
        wall = time.perf_counter() - start
        # the shares add up to no more than the batch's time
        assert sum(sum(solution.timings.values()) for solution in solutions) <= wall
        for solution in solutions:
            assert tuple(solution.phases) == sdp.PHASES
            assert tuple(solution.timings) == ("preprocess", "iterate", "certify")
            assert math.isclose(sum(solution.phases.values()), solution.timings["iterate"],
                                rel_tol=1e-9)
            assert all(v > 0.0 for v in solution.phases.values())
            assert solution.timings["certify"] > 0.0
        # a member that runs longer is owed more of the shared laps
        longest = max(solutions, key=lambda s: s.iterations)
        shortest = min(solutions, key=lambda s: s.iterations)
        assert longest.timings["iterate"] > shortest.timings["iterate"]

    def test_problems_on_different_structures_are_refused(self):
        one, other = small_transport_problem(), small_transport_problem()
        assert one.structure is not other.structure
        with pytest.raises(ValueError, match="one SlotStructure"):
            sdp.solve_batch([one, other])
        assert sdp.solve_batch([]) == []

    def test_solve_is_a_batch_of_one(self, monkeypatch):
        batches = []
        solve_batch = sdp.solve_batch
        monkeypatch.setattr(sdp, "solve_batch",
                            lambda problems, **kw: batches.append(len(problems)) or solve_batch(problems, **kw))
        assert sdp.solve(small_transport_problem()).batch == 1
        assert batches == [1]


def farkas_margins(problem, y):
    """``(b . v, lambda_min(-sum_i v_i A_i))`` for ``v = y / max|y|``, from the
    dense stack."""
    v = y / np.abs(y).max()
    combination = np.tensordot(v, problem.constraint_ops, axes=1)
    return float(problem.constraint_vals @ v), linalg.min_eigenvalue(-combination)


def full_space_problem(instance):
    """The transport SDP of ``instance`` on the whole plan space, without the
    reduction of ``transport.build_primal`` to the support face."""
    # its minima set only the start of build_primal, which this problem skips
    whole = transport.SupportFace(instance.omega, instance.rho, instance.pairs, (0.0, 0.0))
    return sdp.pose(
        transport._face_constraints(whole.shape)[0], instance.cost,
        transport._marginal_values(whole),
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
        assert sol.status == sdp.STATUS_NUMERICAL
        # whatever residual the run stops at, its multipliers are no Farkas
        # ray, by the rule's own test and from the dense stack
        _, adjoint = sdp._constraint_maps(problem)
        assert not sdp._farkas_ray(sol.y, problem.constraint_vals, adjoint)
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
        # feasible set has no interior and these runs stop short; a plan of
        # unit trace bounds b.v by TOL, so whatever residual they stop at,
        # their multipliers are no Farkas ray
        problem = full_space_problem(instance)
        sol = sdp.solve(problem)
        assert sol.status != sdp.STATUS_INFEASIBLE
        reduced, report = sdp.preprocess(problem)
        _, adjoint = sdp._constraint_maps(reduced)
        y = sol.y[list(report.kept)]
        assert not sdp._farkas_ray(y, reduced.constraint_vals, adjoint)


def eigenbasis_step(m, delta):
    """Largest ``alpha`` keeping ``m + alpha delta`` PSD, from the eigenvalues
    of ``delta`` whitened by the eigen factor of ``m``."""
    w, q = np.linalg.eigh(m)
    t = (q.conj().T @ delta @ q) / np.sqrt(np.outer(w, w))
    return sdp._boundary_step(float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[0]))


class TestScaledFrameStep:
    """Each side's step length is read from its step whitened by its own
    Cholesky factor, ``Lx^-1 dX Lx^-*`` and ``Ls^-1 dS Ls^-*``."""

    @pytest.mark.parametrize("n", [4, 9, 16, 25, 36, 64])
    def test_scaled_frame_step_matches_the_eigenbasis_step(self, n):
        rng = np.random.default_rng(n)
        pair = np.stack([random_pd(rng, n), random_pd(rng, n)])
        _, inverses = sdp._cholesky_pair(pair)
        for _ in range(5):
            d = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
            steps, fallbacks = sdp._step_lengths(d, inverses, pair)
            assert fallbacks == 0
            for k in range(2):
                np.testing.assert_allclose(steps[k], eigenbasis_step(pair[k], d[k]), rtol=1e-10)

    def test_cholesky_factor_falls_back_to_the_eigen_factor(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        rank_two = v @ v.conj().T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rank_two)
        f, inv = sdp._cholesky_factor(rank_two)
        np.testing.assert_allclose(f @ f.conj().T, rank_two, rtol=0, atol=1e-12)
        # the eigen factor Q diag(sqrt(w)) is not triangular, and its inverse
        # is diag(1 / sqrt(w)) Q*, whose columns the floor scales by up to
        # sqrt(w_max / w_min)
        assert np.abs(np.triu(f, 1)).max() > 0.1
        np.testing.assert_allclose(f @ inv, np.eye(6), rtol=0, atol=1e-14)
        norms = np.linalg.norm(f, axis=0)
        np.testing.assert_allclose(inv @ f, np.eye(6), rtol=0, atol=1e-14 * norms.max() / norms.min())
        pd = random_pd(rng, 6)
        f, inv = sdp._cholesky_factor(pd)
        np.testing.assert_array_equal(f, np.linalg.cholesky(pd))
        assert not np.triu(inv, 1).any()
        np.testing.assert_allclose(inv @ f, np.eye(6), rtol=0, atol=1e-12)


def planted_spectrum(rng, eigenvalues, orthogonal_to=None):
    """``Q diag(eigenvalues) Q*`` for a random unitary ``Q``; with
    ``orthogonal_to``, the eigenvector of ``eigenvalues[0]`` is orthogonal
    to that vector."""
    n = len(eigenvalues)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if orthogonal_to is not None:
        z[:, 0] -= orthogonal_to * (orthogonal_to.conj() @ z[:, 0])
    q, _ = np.linalg.qr(z)
    t = (q * np.asarray(eigenvalues)) @ q.conj().T
    return 0.5 * (t + t.conj().T)


def exact_steps(t):
    """Boundary steps of the stack ``t`` of whitened steps from full spectra."""
    return [sdp._boundary_step(float(lam)) for lam in np.linalg.eigvalsh(t)[:, 0]]


def identities(t):
    """Factor inverses that whiten each matrix of the stack ``t`` to itself."""
    return np.stack([np.eye(t.shape[-1], dtype=complex)] * len(t))


def separated(rng, n, low=-3.0, high=3.0):
    """Ends ``low`` and ``high`` apart from a bulk uniform in [-1, 1]."""
    return np.concatenate([[low], np.sort(rng.uniform(-1.0, 1.0, n - 2)), [high]])


def qubit_linearized(k, seed):
    """A linearized plan over ``k`` qubit pairs (``n = 4^k``) with random
    states and observables."""
    rng = np.random.default_rng(seed)
    rho, omega = linalg.random_density(rng, 2), linalg.random_density(rng, 2)
    obs = cost.observable_set([linalg.random_hermitian(rng, 2) for _ in range(k)])
    return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_LINEARIZED)


def z_xy_point():
    """A point of the z-xy grid: x-polarized qubit states under the sigma_z
    cost at p = 2."""
    return transport.z_instance(state_x(-0.95), state_x(0.95), 2.0)


def rank_mix_base(dim, ranks, tag):
    """perfbench's unrotated base instance of the rank-deficient pair drawn
    from ``default_rng([BASE_SEED, tag])``: states of ``ranks`` (rho, omega)
    and two random observables, nonlinear at p = 2."""
    rng = np.random.default_rng([20251030, tag])
    rho, omega = (
        (lambda g: g @ g.conj().T / np.trace(g @ g.conj().T).real)(
            rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        )
        for r in ranks
    )
    obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
    return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)


def one_thread(expression):
    """The JSON value of ``expression``, an expression in this module's
    helpers, evaluated in a child Python with one BLAS thread: the thread
    count changes the rounding of BLAS kernels, so values pinned at one
    thread hold whatever count this process runs with."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(transport.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = f"import json\nfrom test_sdp import *\nprint(json.dumps({expression}))\n"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def solve_digest(instance):
    """``[n, step fallbacks, status, iterations, dp.hex()]`` of the transport
    solve of ``instance``."""
    r = transport.wasserstein_distance(instance)
    sol = r.solution
    fallbacks = sorted({row.get("step_fallbacks", 0.0) for row in sol.trace})
    return [len(sol.x), fallbacks, r.status, sol.iterations, r.dp.hex()]


def one_thread_solve(build):
    """:func:`solve_digest` of the instance ``build``, an expression in this
    module's helpers, at one BLAS thread (:func:`one_thread`)."""
    return one_thread(f"solve_digest({build})")


def ill_conditioned_case(low):
    """X with eigenvalues 10^low ... 1 in a random frame and a random S as a
    stacked pair, their factor inverses, four random step pairs scaled by
    1e-12 ... 1, and a step pair whose whitened form has its smallest
    eigenvector, 0.1 below the bulk, orthogonal to the Lanczos start."""
    n = 128
    rng = np.random.default_rng(0)
    pair = np.stack([planted_spectrum(rng, np.logspace(low, 0, n)), random_pd(rng, n)])
    factors, inverses = sdp._cholesky_pair(pair)
    steps = [factor * np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
             for factor in (1e-12, 1e-8, 1e-4, 1.0)]
    missed = np.concatenate([[-1.1], rng.uniform(-1.0, 1.0, n - 1)])
    t = planted_spectrum(rng, missed, sdp._lanczos_start(n))
    d = factors @ t @ factors.conj().swapaxes(-1, -2)
    return pair, inverses, steps, 0.5 * (d + d.conj().swapaxes(-1, -2))


def missed_step_fallbacks(low):
    """The corrector's fallback count on the missed step of
    :func:`ill_conditioned_case`."""
    pair, inverses, _, d = ill_conditioned_case(low)
    return sdp._step_lengths(d, inverses, pair)[1]


class TestLanczosStep:
    """Plans of at least ``4 * LANCZOS_STEPS`` read step lengths from Ritz
    values, checked by a Cholesky factorization; smaller plans from full
    spectra."""

    @pytest.mark.parametrize("tol", [5e-3, 1e-3])
    @pytest.mark.parametrize("case", ["separated", "random", "clustered"])
    def test_stopped_ritz_value_is_within_its_bound(self, case, tol):
        n = 128
        rng = np.random.default_rng([n, len(case)])
        if case == "separated":
            t = np.stack([planted_spectrum(rng, separated(rng, n)) for _ in range(2)])
        elif case == "clustered":
            # ten eigenvalues within 1e-4 at the bottom of the spectrum
            lam = np.concatenate([-1.0 - 1e-4 * rng.uniform(size=10), rng.uniform(-0.5, 1, n - 10)])
            t = np.stack([planted_spectrum(rng, lam) for _ in range(2)])
        else:
            t = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        exact = np.linalg.eigvalsh(t)[:, 0]
        runs = []
        low, high, bound = sdp._ritz_ends(t, identities(t), tol, runs=runs).T
        slack = 1e-12 * np.abs(exact).max()
        assert np.all(low >= exact - slack)
        assert np.all(low - exact <= bound + slack)
        assert np.all(low <= high)
        # the run stops once both sides' bounds meet the tolerance, else at the cap
        assert len(runs) == 1 and 1 <= runs[0] <= sdp.LANCZOS_STEPS
        converged = bound <= tol * np.maximum(np.abs(low), 1.0)
        assert converged.all() or runs[0] == sdp.LANCZOS_STEPS
        if case == "separated":
            assert converged.all() and runs[0] < sdp.LANCZOS_STEPS

    def test_start_vector_is_drawn_once_a_dimension(self):
        start = sdp._lanczos_start(100)
        assert start is sdp._lanczos_start(100) and not start.flags.writeable
        assert abs(np.linalg.norm(start) - 1.0) <= 1e-15

    def test_slowly_converging_spectrum_runs_to_the_cap(self):
        # evenly spaced eigenvalues: the gap at the bottom is 1 / (n - 1) of
        # the spread, so 20 steps do not bring the residual down to 1e-3
        n = 256
        rng = np.random.default_rng(n)
        t = planted_spectrum(rng, np.linspace(-1.0, 1.0, n))[None]
        runs = []
        low, _, bound = sdp._ritz_ends(t, identities(t), 1e-3, runs=runs)[0]
        assert runs == [sdp.LANCZOS_STEPS]
        assert bound > 1e-3 and -1.0 < low <= -1.0 + bound
        # neither run nor check may take a step past the fraction of the boundary
        steps, _ = sdp._step_lengths(t, identities(t), identities(t))
        assert min(1.0, sdp.STEP_FRACTION * steps[0]) <= sdp.STEP_FRACTION * exact_steps(t)[0]

    @pytest.mark.parametrize("case", ["random-96", "random-128", "random-256", "cluster-128"])
    def test_ritz_ends_lie_inside_the_spectrum(self, case):
        kind, n = case.split("-")
        n = int(n)
        rng = np.random.default_rng(n)
        if kind == "cluster":
            # late in a solve: most of the spectrum within 0.02 of -1, so
            # |T q| / beta is large and one Gram-Schmidt pass a step loses
            # orthogonality once the smallest Ritz value has converged
            lam = np.concatenate([[-1.07], rng.uniform(-1.02, -0.98, n - 3), [0.3, 1.6]])
            t = np.stack([planted_spectrum(rng, lam) for _ in range(2)])
        else:
            t = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        exact = np.linalg.eigvalsh(t)
        ends = sdp._ritz_ends(t, identities(t))
        slack = 1e-12 * np.abs(exact).max()
        assert np.all(ends[:, 0] >= exact[:, 0] - slack)
        assert np.all(ends[:, 1] <= exact[:, -1] + slack)
        assert np.all(ends[:, 0] <= ends[:, 1])

    def test_unformed_whitening_gives_the_formed_ritz_ends(self):
        # Lanczos runs on L^-1 D L^-* through three products a step; a run on
        # the formed matrix, whitened by identities, has the same Ritz values
        n = 96
        rng = np.random.default_rng(n)
        _, inverses = sdp._cholesky_pair(np.stack([random_pd(rng, n), random_pd(rng, n)]))
        d = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        formed = sdp._ritz_ends(sdp._whitened(inverses, d), identities(d))
        np.testing.assert_allclose(sdp._ritz_ends(d, inverses), formed, rtol=1e-10)

    @pytest.mark.parametrize("case", ["random-96", "random-128", "random-256", "clustered"])
    def test_guarded_step_never_passes_the_fraction_of_the_boundary(self, case):
        rng = np.random.default_rng(len(case))
        if case == "clustered":
            # ten eigenvalues within 1e-4 at the bottom of the spectrum
            n = 128
            lam = np.concatenate([-1.0 - 1e-4 * rng.uniform(size=10), rng.uniform(-0.5, 1, n - 10)])
            t = np.stack([planted_spectrum(rng, lam) for _ in range(2)])
        else:
            n = int(case.split("-")[1])
            t = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        for factor in (0.1, 1.0, 10.0):
            steps, fallbacks = sdp._step_lengths(factor * t, identities(t), identities(t))
            exact = exact_steps(factor * t)
            assert 0 <= fallbacks <= 2
            for step, boundary in zip(steps, exact):
                assert min(1.0, sdp.STEP_FRACTION * step) <= sdp.STEP_FRACTION * boundary

    def test_separated_frames_take_the_ritz_step(self):
        rng = np.random.default_rng(7)
        t = np.stack([planted_spectrum(rng, separated(rng, 128, -6.0)) for _ in range(2)])
        exact = np.array(exact_steps(t))
        runs = []
        steps, fallbacks = sdp._step_lengths(t, identities(t), identities(t), runs=runs)
        # a stopped run, its step shortened by the margin and kept by the check
        assert fallbacks == 0 and runs[0] < sdp.LANCZOS_STEPS
        assert np.all((1 - sdp.LANCZOS_MARGIN) * exact <= steps)
        taken = np.minimum(1.0, sdp.STEP_FRACTION * np.array(steps))
        assert np.all(taken <= sdp.STEP_FRACTION * exact)
        # unchecked, as the predictor reads them: the Ritz steps themselves,
        # at least the boundary step and within the margin of it
        steps, fallbacks = sdp._step_lengths(t, identities(t), runs=runs)
        assert fallbacks == 0 and runs[1] < sdp.LANCZOS_STEPS
        assert np.all(exact <= steps) and np.all(steps <= (1 + sdp.LANCZOS_MARGIN) * exact)

    def test_a_missed_eigenvector_falls_back_to_the_exact_step(self):
        n = 128
        rng = np.random.default_rng(n)
        start = sdp._lanczos_start(n)
        # the smallest eigenvector is orthogonal to the start vector and close
        # to the bulk, so rounding does not bring it into reach in 20 steps
        missed = np.concatenate([[-1.1], rng.uniform(-1.0, 1.0, n - 1)])
        t = np.stack([planted_spectrum(rng, missed, start),
                      planted_spectrum(rng, separated(rng, n))])
        assert sdp._ritz_ends(t[:1], identities(t[:1]))[0, 0] > -1.0 + 1e-6
        steps, fallbacks = sdp._step_lengths(t, identities(t), identities(t))
        exact = exact_steps(t)
        assert fallbacks == 1 and steps[0] == exact[0]
        assert steps[1] < exact[1]

    @pytest.mark.parametrize("low", [-10, -16])
    def test_check_on_an_ill_conditioned_iterate_keeps_the_fraction_of_the_boundary(self, low):
        # X with eigenvalues 10^low ... 1 in a random frame: the check factors
        # X + beta dX, congruent to I + beta T through a factor of condition
        # 10^(-low/2), and an accepted step stays below STEP_FRACTION times
        # the boundary read from eigvalsh of the formed T
        pair, inverses, steps, missed = ill_conditioned_case(low)

        def assert_inside(d):
            steps, fallbacks = sdp._step_lengths(d, inverses, pair)
            for step, boundary in zip(steps, exact_steps(sdp._whitened(inverses, d))):
                assert min(1.0, sdp.STEP_FRACTION * step) <= sdp.STEP_FRACTION * boundary
            return steps, fallbacks

        refused = 0
        for d in steps:
            lengths, fallbacks = assert_inside(d)
            assert fallbacks == 0
            for k, step in enumerate(lengths):
                beta = min(1.0, sdp.STEP_FRACTION * step) / sdp.STEP_FRACTION
                refused += not sdp._positive_definite(pair[k] + beta * d[k])
        # at condition 1e16 the rounding of X refuses a safe step, which the
        # factorization of the formed I + beta T accepts
        assert (refused > 0) == (low == -16)
        # a whitened step whose smallest eigenvector, 0.1 below the bulk, is
        # orthogonal to the start vector.  At condition 1e10 the run misses
        # it, and both checks refuse the Ritz step on both sides; at 1e16 the
        # rounding of the unformed products brings it into reach of the X
        # side's run (-1.096 against -1.100 at one BLAS thread), whose step
        # the checks keep, and only the S side falls back
        assert (sdp._ritz_ends(missed, inverses)[0, 0] > -1.0) == (low == -10)
        assert_inside(missed)
        assert one_thread(f"missed_step_fallbacks({low})") == (2 if low == -10 else 1)

    def test_breakdown_reads_full_spectra(self):
        # two distinct eigenvalues: the Krylov space is invariant after two steps
        n = 96
        rng = np.random.default_rng(n)
        t = planted_spectrum(rng, np.repeat([-2.0, 1.0], n // 2))
        t = np.stack([t, t])
        assert np.isnan(sdp._ritz_ends(t, identities(t))).all()
        for pair in (identities(t), None):
            assert sdp._step_lengths(t, identities(t), pair) == (exact_steps(t), 2)

    def test_plans_below_the_gate_read_full_spectra(self):
        n = 4 * sdp.LANCZOS_STEPS - 1
        rng = np.random.default_rng(n)
        t = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        for pair in (identities(t), None):
            assert sdp._step_lengths(t, identities(t), pair) == (exact_steps(t), 0)

    def test_k4_solve_is_bitwise_repeatable_and_matches_the_decomposition(self):
        instance = qubit_linearized(4, 23)
        first, again = (transport.wasserstein_distance(instance) for _ in range(2))
        a, b = first.solution, again.solution
        assert a.x.shape[0] == 256 >= 4 * sdp.LANCZOS_STEPS
        assert first.status == "optimal" and first.certificate.passed
        assert a.trace == b.trace
        for name in ("x", "y", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert all(row["step_fallbacks"] <= 2 for row in a.trace[:-1])
        decomposed = transport.solve_linearized_decomposed(instance)
        assert abs(first.primal_objective - decomposed.total) <= 1e-5

    @pytest.mark.parametrize("build,digest", [
        ("nonlinear_instance(8)", ["optimal", 12, "0x1.bd4b0efff656dp+3"]),
        ("pauli_triple_k3()", ["optimal", 9, "0x1.11651e564c18fp+1"]),
    ], ids=["d8", "K3"])
    def test_plans_below_the_gate_keep_their_digests(self, build, digest):
        # the digests of these n = 64 solves at one BLAS thread, which no
        # Lanczos step length reaches (13 and 10 iterations under the
        # Nesterov-Todd direction); K3's last bits of dp moved when its six
        # qubit slots were grouped into (8, 8) instead of (4, 4, 4) for the
        # Schur matrix (SCHUR_GROUP_DIM), both when X dS Z became X rd Z - X
        # (A*(dy) Z), K3's when its constraint maps read the groups, and
        # both when their 64-row Cholesky factors were inverted by blocks of
        # 32 (TRIANGULAR_LEAF)
        n, fallbacks, *result = one_thread_solve(build)
        assert n < 4 * sdp.LANCZOS_STEPS
        assert result == digest
        assert fallbacks == [0.0]

    @pytest.mark.parametrize("build,digest", [
        ("z_xy_point()", [4, "optimal", 7, "0x1.6020c80b9aa22p+0"]),
        ("rank_mix_base(3, (2, 3), 206)", [6, "optimal", 8, "0x1.df735e39aea0cp+1"]),
        ("rank_mix_base(3, (1, 3), 203)", [3, "optimal", 0, "0x1.4a864389290a4p+3"]),
    ], ids=["z-xy", "rank-2/full", "pinned"])
    def test_small_plans_keep_their_digests(self, build, digest):
        # qubit and rank-deficient plans, whose targets, potentials, QR
        # factor and spectra are read through stacked calls: the digests at
        # one BLAS thread before those calls replaced their per-term loops
        # and wrappers.  The d = 3 pure/mixed pair is pinned on its (3, 1)
        # face and ends at iteration 0
        n, fallbacks, *result = one_thread_solve(build)
        assert [n, *result] == digest
        assert fallbacks == [0.0]


class TestStackedPair:
    """X and S are one stacked pair in ``solve``; each stacked call must
    round exactly as the per-matrix calls it replaced."""

    @pytest.mark.parametrize("n", [4, 9, 16, 36])
    def test_stacked_pair_is_bitwise_the_per_matrix_calls(self, n):
        rng = np.random.default_rng(n)
        pair = np.stack([random_pd(rng, n), random_pd(rng, n)])
        _, inverses = sdp._cholesky_pair(pair)
        d = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        t = sdp._whitened(inverses, d)
        for k in range(2):
            np.testing.assert_array_equal(t[k], sdp._whitened(inverses[k], d[k]))
        # both steps, bitwise those measured one side at a time
        assert sdp._step_lengths(d, inverses, pair)[0] == [
            sdp._step_lengths(d[k:k + 1], inverses[k:k + 1], pair[k:k + 1])[0][0] for k in (0, 1)
        ]

    @pytest.mark.parametrize("n", [4, 9, 16, 36, 128])
    def test_stacked_cholesky_is_bitwise_the_per_matrix_factors(self, n):
        # 128 is inverted by blocks (TRIANGULAR_LEAF)
        rng = np.random.default_rng(n)
        pair = np.stack([random_pd(rng, n), random_pd(rng, n)])
        factors, inverses = sdp._cholesky_pair(pair)
        for k in range(2):
            np.testing.assert_array_equal(factors[k], np.linalg.cholesky(pair[k]))
            np.testing.assert_array_equal(inverses[k], sdp._cholesky_factor(pair[k])[1])
            assert not np.triu(inverses[k], 1).any()
            np.testing.assert_allclose(inverses[k] @ factors[k], np.eye(n), rtol=0, atol=1e-11)

    def test_singular_side_falls_back_to_the_per_side_factors(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        pair = np.stack([v @ v.conj().T, random_pd(rng, 6)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(pair)
        factors, inverses = sdp._cholesky_pair(pair)
        for k in range(2):
            f, inv = sdp._cholesky_factor(pair[k])
            np.testing.assert_array_equal(factors[k], f)
            np.testing.assert_array_equal(inverses[k], inv)
        np.testing.assert_array_equal(factors[1], np.linalg.cholesky(pair[1]))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_raw_qr_factor_is_bitwise_mode_r(self, dim):
        # the QR route's rows at n = 4, 9, 16: R from the raw output, the
        # same C-ordered array as np.linalg.qr(rows.T, mode="r") returns
        problem = transport.build_primal(nonlinear_instance(dim))
        assert sdp._slot_reads(problem) is None
        rng = np.random.default_rng(dim)
        for _ in range(3):
            _, _, lx, inv_s = hkm_pair(rng, dim * dim)
            rows = sdp._scaled_rows(problem.constraint_ops, lx, inv_s)
            assert rows.shape == (problem.n_constraints, 2 * dim**4)
            expected = np.linalg.qr(rows.T, mode="r")
            got = sdp._qr_factor(rows)
            assert (got.shape, got.strides, got.dtype) == (
                expected.shape, expected.strides, expected.dtype)
            assert got.tobytes() == expected.tobytes()
        mask = sdp._strictly_lower(problem.n_constraints)
        assert mask is sdp._strictly_lower(problem.n_constraints) and not mask.flags.writeable

    def test_dense_adjoint_is_bitwise_tensordot(self):
        problem = qubit_transport_problem(cost.cost_symm(2.0), rho_z(0.5), rho_z(-0.3))
        y = np.random.default_rng(2).standard_normal(problem.n_constraints)
        _, adjoint = sdp._constraint_maps(problem)
        np.testing.assert_array_equal(
            adjoint(y[None, :, None])[0], np.tensordot(y, problem.constraint_ops, axes=1)
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

    @pytest.mark.parametrize("build", [small_transport_problem, structured_problem],
                             ids=["qr", "cholesky"])
    def test_no_optimal_solution_fails_the_cone_threshold(self, monkeypatch, build):
        # the stop rule reads certify's cone threshold: asked for eigenvalues
        # above 1e-6, which the optimal faces of these plans do not have
        # (converged, their smallest are below 1e-8), no solve is optimal
        monkeypatch.setattr(sdp, "CERT_PSD_TOL", -1e-6)
        problem = build()
        sol = sdp.solve(problem)
        assert not sdp.certify(sol, problem).passed
        assert not sol.optimal

    @pytest.mark.parametrize("build", [small_transport_problem, structured_problem],
                             ids=["qr", "cholesky"])
    def test_cone_minima_are_the_per_matrix_calls(self, build):
        # one stacked eigvalsh of (X, S), bitwise the calls on each
        problem = build()
        sol = sdp.solve(problem)
        cert = sdp.certify(sol, problem)
        for side, low in ((sol.x, cert.min_eig_x), (sol.s, cert.min_eig_s)):
            assert low == linalg.min_eigenvalue(0.5 * (side + side.conj().T))

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
    """The same problem declared on one slot: its iteration and ``certify``
    read the dense stack, which ``constraint_ops`` builds from the slots."""
    constraints = list(zip(problem.constraint_ops, problem.constraint_vals))
    return sdp.sdp_problem(problem.objective, constraints)


def nonlinear_instance(d):
    rng = np.random.default_rng(40 + d)
    rho, omega = linalg.random_density(rng, d), linalg.random_density(rng, d)
    obs = cost.observable_set([linalg.random_hermitian(rng, d) for _ in range(2)])
    return transport.factorized_instance(rho, omega, obs, 2.0, transport.MODE_NONLINEAR)


def nonlinear_d6():
    return nonlinear_instance(6)


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

    def test_dense_stack_is_the_embedded_local_operators(self):
        for dims in [(2, 3, 2), (5,)]:
            shape = linalg.FactorShape(dims)
            rows = random_slot_rows(np.random.default_rng(3), shape)
            problem = posed(np.eye(shape.total_dim), shape, rows)
            np.testing.assert_array_equal(
                problem.constraint_ops, [linalg.embed_at_slot(op, s, shape) for s, op, _ in rows]
            )
            assert not problem.constraint_ops.flags.writeable

    @pytest.mark.parametrize("case", ["2-1", "2-2", "2-3", "2-4", "3-2", "rank-1x3", "rank-2x3"])
    def test_dense_stack_from_groups_is_the_per_slot_embedding(self, case):
        # an operator is lifted into its group by a write into zeros, so that
        # every entry, signed zeros included, is that of its embedding at its
        # declared slot
        _, objective, shape, rows = slot_declaration(case)
        problem = posed(objective, shape, rows)
        embedded = np.stack(
            [linalg.embed_at_slot(linalg.hermitian(op), s, shape) for s, op, _ in rows]
        )
        ops = problem.constraint_ops
        np.testing.assert_array_equal(ops, embedded)
        for part in ("real", "imag"):
            np.testing.assert_array_equal(
                np.signbit(getattr(ops, part)), np.signbit(getattr(embedded, part))
            )

    @pytest.mark.parametrize("build", [
        lambda: random_slot_problem(np.random.default_rng(4), linalg.FactorShape((5,))),
        lambda: transport.build_primal(nonlinear_instance(3)),
        lambda: transport.build_primal(pauli_triple_k3()),
        lambda: slot_case("rank-1x3")[1],
        lambda: slot_case("rank-2x3")[1],
        lambda: slot_case("2-2")[1],
        lambda: slot_case("2-4")[1],
        lambda: slot_case("3-2")[1],
    ], ids=["one-slot", "pair-9", "K3-64", "rank-1x3", "rank-2x3", "qubit-K2", "K4-256",
            "qutrit-K2"])
    def test_compressed_constraints_match_the_dense_stack(self, build):
        """``V* A_i V`` from the groups, on one slot spanning the space, on a
        pair plan below ``STRUCTURED_MIN_DIM``, on faces whose slots merge
        into one group and on multipartite plans."""
        problem = build()
        rng = np.random.default_rng(problem.dim)
        v = rng.standard_normal((problem.dim, 3)) + 1j * rng.standard_normal((problem.dim, 3))
        dense = np.matmul(np.matmul(v.conj().T[None], problem.constraint_ops), v)
        np.testing.assert_allclose(
            sdp.compressed_constraints(problem, v), dense,
            rtol=0, atol=1e-13 * np.abs(dense).max(),
        )


class TestNewtonDirection:
    """The HKM direction meets ``A(dX) = rp`` and ``dS + A*(dy) = rd``, so a
    step of lengths ``(ap, ad)`` scales the primal residual by ``1 - ap``
    and the dual residual by ``1 - ad``, on either Schur route."""

    @pytest.mark.parametrize("build,breakdown", [
        (small_transport_problem, None),
        (lambda: transport.build_primal(nonlinear_instance(3)), None),
        (lambda: transport.build_primal(nonlinear_d6()), None),
        (lambda: transport.build_primal(pauli_triple_k3()), None),
        (lambda: transport.build_primal(nonlinear_d6()), "switched"),
        (lambda: transport.build_primal(pauli_triple_k3()), "switched"),
        (lambda: transport.build_primal(nonlinear_instance(9)), "shifted"),
    ], ids=[
        "dense-4", "dense-9", "slots-36", "slots-K3", "slots-36-switched", "slots-K3-switched",
        "slots-81-shifted",
    ])
    def test_each_step_scales_both_residuals(self, monkeypatch, build, breakdown):
        # started at tau I, so that both residuals are far from zero
        problem = dataclasses.replace(build(), interior=None)
        reduced, report = sdp.preprocess(problem)
        apply, adjoint = sdp._constraint_maps(reduced)
        kept = list(report.kept)
        # whether each Schur Cholesky factorization (the real matrices
        # factored) was forced to break down
        attempts = []
        cholesky = np.linalg.cholesky

        def breaking(a, *args, **kwargs):
            if np.isrealobj(a):
                # below the gate the fourth factorization breaks down and the
                # solve takes the QR route from that iteration on, with no
                # further attempt; above it the first attempt of each
                # iteration breaks down and the shifted one succeeds
                if breakdown == "switched":
                    attempts.append(len(attempts) == 3)
                elif breakdown == "shifted":
                    attempts.append(len(attempts) % 2 == 0)
                else:
                    attempts.append(False)
                if attempts[-1]:
                    raise np.linalg.LinAlgError("forced breakdown")
            return cholesky(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "cholesky", breaking)

        def residuals(sol):
            rp = reduced.constraint_vals - apply(sol.x[None])[0, :, 0]
            rd = reduced.objective - sol.s - adjoint(sol.y[kept][None, :, None])[0]
            return rp, rd

        before = None
        # the first ten steps: without the corrector's refinement a shifted
        # d=6 plan missed the invariant by 2e-12 at the ninth and 1e-11 at
        # the tenth, and the unshifted plans by 2e-12 from the twelfth on
        for stop in range(11):
            monkeypatch.setattr(sdp, "MAX_ITER", stop)
            attempts.clear()
            sol = sdp.solve(problem)
            if breakdown == "switched":
                assert attempts == [False] * min(stop, 3) + [True] * (stop > 3)
            elif breakdown == "shifted":
                assert attempts == [True, False] * stop
            elif sdp._slot_reads(reduced) is not None:
                assert attempts == [False] * stop
            rp, rd = residuals(sol)
            if before is not None:
                row = sol.trace[-2]
                scale = max(1.0, np.abs(before[0]).max(), np.abs(before[1]).max())
                np.testing.assert_allclose(
                    rp, (1.0 - row["ap"]) * before[0], rtol=0, atol=1e-12 * scale
                )
                np.testing.assert_allclose(
                    rd, (1.0 - row["ad"]) * before[1], rtol=0, atol=1e-12 * scale
                )
            else:
                assert np.abs(rp).max() > 1e-3 and np.abs(rd).max() > 1e-3
            before = rp, rd
        # each stepping row names its Schur route and whether the factor
        # was shifted
        stepping = [(row["route"], row["shifted"]) for row in sol.trace if "ap" in row]
        if breakdown == "switched":
            expected = [("slot", False)] * 3 + [("switched", False)] + [("qr", False)] * 6
        elif breakdown == "shifted":
            expected = [("slot", True)] * 10
        else:
            route = "qr" if sdp._slot_reads(reduced) is None else "slot"
            expected = [(route, False)] * len(stepping)
        assert stepping == expected and len(stepping) >= 5

    def test_an_iteration_takes_no_eigen_or_singular_value_factorization(self, monkeypatch):
        # the K=3 plan (n=64, below the Lanczos gate): Cholesky factors, their
        # triangular inverses and eigvalsh for the step lengths
        problem = transport.build_primal(pauli_triple_k3())

        def refused(*args, **kwargs):
            raise AssertionError("solve called an eigen or singular value factorization")
        monkeypatch.setattr(np.linalg, "svd", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        assert sdp.solve(problem).optimal

    @pytest.mark.parametrize("n", [36, 96])
    def test_guarded_step_never_passes_the_fraction_of_the_eigenbasis_step(self, n):
        # 96 reads Ritz values checked by Cholesky, 36 full spectra
        rng = np.random.default_rng(n)
        pair = np.stack([random_pd(rng, n), random_pd(rng, n)])
        _, inverses = sdp._cholesky_pair(pair)
        for factor in (0.01, 0.1, 1.0):
            d = factor * np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
            steps, _ = sdp._step_lengths(d, inverses, pair)
            for k in range(2):
                taken = min(1.0, sdp.STEP_FRACTION * steps[k])
                assert taken <= sdp.STEP_FRACTION * eigenbasis_step(pair[k], d[k]) * (1 + 1e-12)


def assert_exactly_hermitian(a):
    np.testing.assert_array_equal(a, 0.5 * (a + a.conj().T))


class TestExactlyHermitian:
    """``solve`` symmetrizes neither the residual, the dual step nor the
    updated iterates: each is exactly Hermitian by construction, provided the
    adjoint of every constraint route is."""

    ROUTES = [
        pytest.param(functools.partial(nonlinear_instance, 2), 4, id="dense-4"),
        pytest.param(functools.partial(nonlinear_instance, 3), 9, id="dense-9"),
        pytest.param(functools.partial(nonlinear_instance, 4), 16, id="dense-16"),
        pytest.param(nonlinear_d6, 36, id="slots-36"),
        pytest.param(pauli_triple_k3, 64, id="slots-K3"),
    ]

    @pytest.mark.parametrize("build,n", ROUTES)
    def test_adjoint_is_exactly_hermitian(self, build, n):
        problem = transport.build_primal(build())
        assert problem.dim == n
        assert (sdp._slot_reads(problem) is not None) == (n >= sdp.STRUCTURED_MIN_DIM)
        _, adjoint = sdp._constraint_maps(problem)
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            y = scale * rng.standard_normal((1, problem.n_constraints, 1))
            assert_exactly_hermitian(adjoint(y)[0])

    @pytest.mark.parametrize("build", [functools.partial(nonlinear_instance, 3), nonlinear_d6],
                             ids=["dense", "slots"])
    def test_transport_solve_returns_exactly_hermitian_iterates(self, build):
        sol = sdp.solve(transport.build_primal(build()))
        assert sol.optimal
        assert_exactly_hermitian(sol.x)
        assert_exactly_hermitian(sol.s)


class TestSlotProblemValidation:
    SHAPE = linalg.FactorShape((2, 3))

    def build(self, constraints, objective=None):
        if objective is None:
            objective = np.eye(self.SHAPE.total_dim, dtype=complex)
        return posed(objective, self.SHAPE, constraints)

    def test_valid_problem_is_accepted(self):
        # both slots fall in one group of dimension 6
        problem = self.build([(0, EYE2, 1.0), (1, np.eye(3, dtype=complex), 1.0)])
        [(group, rows, ops)] = problem.structure.blocks
        assert problem.structure.shape.dims == (6,) and group == 0
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(ops, [np.eye(6).reshape(-1)] * 2)

    @pytest.mark.parametrize("slot", [2, -1])
    def test_bad_slot_index(self, slot):
        with pytest.raises(ValueError, match="does not fit slot"):
            self.build([(slot, EYE2, 1.0)])

    def test_operator_shape_must_match_its_slot(self):
        with pytest.raises(ValueError, match="does not fit slot"):
            self.build([(0, np.eye(3, dtype=complex), 1.0)])

    def test_non_hermitian_operator(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            self.build([(0, bad, 1.0)])
        # alone or among the other operators of its slot, validated as one stack
        with pytest.raises(ValueError, match="not Hermitian"):
            self.build([(0, EYE2, 1.0), (1, np.eye(3), 1.0), (0, bad, 0.0), (0, EYE2, 1.0)])

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
        problem = posed(
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
            posed(np.eye(6), self.SHAPE, [(0, EYE2, 1.0), (0, b, 0.0)], interior=point)

    def test_plan_above_the_cap(self):
        d = math.isqrt(sdp.MAX_VARIABLE_DIM) + 1
        shape = linalg.FactorShape((d, d))
        with pytest.raises(ValueError, match="exceeds"):
            posed(np.eye(d * d, dtype=complex), shape, [(0, np.eye(d), 1.0)])
