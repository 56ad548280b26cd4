"""Tests for couplings, problem builders, distances and divergences."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from qot import cost, linalg, sdp, transport
from qot.closedform import (
    d_monge,
    d_symm_commuting,
    d_symm_general,
    state_from_bloch,
    state_x,
    state_z,
)
from qot.transport import (
    MODE_LINEARIZED,
    MODE_NONLINEAR,
    build_primal,
    divergence_parts,
    factorized_instance,
    gap_demo,
    general_instance,
    is_coupling,
    joint_instance,
    potential_objective,
    potential_slack,
    potentials_from_multipliers,
    purification_coupling,
    solve_linearized_decomposed,
    symm_instance,
    trivial_coupling,
    wasserstein_distance,
    z_instance,
)

SQRT3 = math.sqrt(3.0)


class TestCouplings:
    def test_trivial_maximally_mixed(self):
        c = trivial_coupling(np.eye(2) / 2, np.eye(2) / 2)
        np.testing.assert_allclose(c.matrix, np.eye(4) / 4, atol=1e-14)
        assert c.check().ok

    def test_trivial_marginals_recover_inputs(self):
        rho, omega = state_z(0.5), state_z(-0.5)
        c = trivial_coupling(rho, omega)
        check = c.check(tol=1e-14)
        assert check.ok and check.max_marginal_deviation == 0.0

    def test_trivial_objective_by_trace_arithmetic(self):
        # tr[C (omega (x) rho.T)] = 2^(p+1) - 2^p tr(rho omega): here 8 - 4*0.375
        rho, omega = state_z(0.5), state_z(-0.5)
        value = trivial_coupling(rho, omega).objective(cost.cost_symm(2.0))
        np.testing.assert_allclose(value, 6.5, atol=1e-12)
        np.testing.assert_allclose(
            value, 8.0 - 4.0 * np.trace(rho @ omega).real, atol=1e-12
        )

    def test_purification_of_maximally_mixed(self):
        c = purification_coupling(np.eye(2) / 2)
        np.testing.assert_allclose(c.matrix, 0.5 * linalg.outer_vec(np.eye(2)), atol=1e-14)

    def test_purification_of_pure_state_is_product(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        c = purification_coupling(proj)
        np.testing.assert_allclose(c.matrix, linalg.kron(proj, proj.T), atol=1e-12)

    def test_purification_objective_identity(self):
        # tr[C_symm,2 |sqrt(rho)>><<sqrt(rho)|] = 8 - 4 (tr sqrt(rho))^2
        rng = np.random.default_rng(1)
        quad = cost.cost_symm(2.0)
        for _ in range(100):
            rho = linalg.random_density(rng, 2)
            value = purification_coupling(rho).objective(quad)
            expected = 8.0 - 4.0 * np.trace(linalg.sqrt_psd(rho)).real ** 2
            np.testing.assert_allclose(value, expected, atol=1e-9)

    def test_is_coupling_diagnostics(self):
        rho, omega = state_z(0.3), state_z(-0.2)
        lo, hi = -0.2, 0.3
        corner = math.sqrt((1 + lo) * (1 - hi))
        plan = 0.5 * np.array(
            [
                [1 + lo, 0, 0, corner],
                [0, 0, 0, 0],
                [0, 0, hi - lo, 0],
                [corner, 0, 0, 1 - hi],
            ],
            dtype=complex,
        )
        assert is_coupling(plan, rho, omega).ok
        # declaring the marginals swapped must fail
        assert not is_coupling(plan, omega, rho).ok


class TestBuilders:
    def test_single_pair_constraint_count(self):
        problem = build_primal(z_instance(state_z(0.3), state_z(-0.1), 2.0))
        assert problem.dim == 4
        assert problem.n_constraints == 7

    def test_three_pair_constraint_count(self):
        inst = factorized_instance(
            state_z(0.3), state_z(-0.1), cost.pauli_triple(), 2.0, MODE_LINEARIZED
        )
        problem = build_primal(inst)
        assert problem.dim == 64
        assert problem.n_constraints == 19

    def test_factorized_instances_share_their_set_factor_costs(self):
        obs = cost.pauli_triple()
        a = factorized_instance(state_z(0.3), state_z(-0.1), obs, 2.0)
        b = factorized_instance(state_x(0.2), state_x(0.0), obs, 2.0, MODE_LINEARIZED)
        assert a.factor_costs is b.factor_costs is obs.factor_costs(2.0)

    def test_non_state_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            symm_instance(2 * state_z(0.1), state_z(0.0), 2.0)

    def test_multiplier_decode_reproduces_slack_and_objective(self):
        inst = z_instance(state_x(0.4), state_x(-0.2), 2.0)
        problem = build_primal(inst)
        sol = sdp.solve(problem)
        pots = potentials_from_multipliers(inst, sol.y)
        np.testing.assert_allclose(
            potential_objective(inst.rho, inst.omega, pots), sol.certificate.dual_objective,
            atol=1e-10,
        )
        slack = potential_slack(problem.objective, pots)
        np.testing.assert_allclose(slack, sol.s, atol=1e-8)

    @pytest.mark.parametrize("count", [6, 8])
    def test_multiplier_count_checked(self, count):
        inst = z_instance(state_x(0.4), state_x(-0.2), 2.0)
        with pytest.raises(ValueError, match=f"{count} multipliers for 7 constraints"):
            potentials_from_multipliers(inst, np.zeros(count))

    def test_known_potentials_are_dual_feasible(self):
        # the classical pair (diag(2^p, 0), -itself) against the sigma_z cost
        p = 2.0
        x = np.diag([2.0**p, 0.0]).astype(complex)
        pots = transport.DualPotentials((x,), (-x,))
        slack = potential_slack(cost.cost_z(p), pots)
        np.testing.assert_allclose(slack, np.diag([0, 2.0 ** (p + 1), 0, 0]), atol=1e-12)
        alpha, beta = 0.7, -0.1
        value = potential_objective(state_z(alpha), state_z(beta), pots)
        np.testing.assert_allclose(value, 2.0 ** (p - 1) * (alpha - beta), atol=1e-12)

    def test_zero_potentials_feasible_for_psd_cost(self):
        zero = np.zeros((2, 2), dtype=complex)
        pots = transport.DualPotentials((zero,), (zero,))
        slack = potential_slack(cost.cost_symm(1.5), pots)
        assert linalg.min_eigenvalue(slack) >= -1e-12
        assert potential_objective(state_z(0.2), state_z(0.1), pots) == 0.0


class TestDistance:
    def test_symm_opposite_half_polarization(self):
        for p in (1.0, 2.0, 3.0):
            res = wasserstein_distance(symm_instance(state_z(0.5), state_z(-0.5), p))
            assert res.status == "optimal"
            np.testing.assert_allclose(res.dp, 2.0**p, atol=1e-6)
            np.testing.assert_allclose(res.distance, 2.0, atol=1e-6)
            assert res.certificate.passed
            assert res.coupling.check().ok

    def test_timings_add_each_unit_when_it_runs(self):
        # the solve returns once certified; the decode and the face probe
        # each add their phase on the first read of one of their values
        res = wasserstein_distance(symm_instance(state_z(0.5), state_z(-0.5), 2.0))
        solved = ["build", "preprocess", "iterate", "certify"]
        assert list(res.timings) == solved
        assert res.timings["iterate"] == res.solution.timings["iterate"]
        assert not res.degenerate_face
        assert list(res.timings) == solved + ["face_probe"]
        assert res.potentials.n_factors == 1
        assert list(res.timings) == solved + ["face_probe", "decode"]
        assert all(v >= 0.0 for v in res.timings.values())
        # each unit runs once
        seconds = dict(res.timings)
        assert res.coupling.check().ok and res.dual_attained and not res.degenerate_face
        assert res.timings == seconds

    @pytest.mark.parametrize("alpha,beta", [(0.095, -0.95), (0.95, -0.095)])
    def test_weak_duality_stop_scales_with_the_objective(self, alpha, beta):
        # dobj - pobj settles at a few 1e-9 here, the rounding floor of an
        # objective near 2.6; an absolute 5e-10 stop ran these into mu_floor
        res = wasserstein_distance(symm_instance(state_z(alpha), state_z(beta), 1.0))
        assert res.status == "optimal" and res.solution.reason == "converged"
        assert res.solution.iterations <= 9
        assert res.certificate.passed
        gap = res.dual_objective - res.primal_objective
        assert gap <= 5e-10 * max(1.0, abs(res.primal_objective))
        np.testing.assert_allclose(res.dp, d_symm_commuting(alpha, beta, 1.0), rtol=1e-7)

    def test_identical_pure_z_eigenstate_costs_nothing(self):
        pure = state_z(1.0)
        res = wasserstein_distance(z_instance(pure, pure, 2.0))
        assert abs(res.dp) <= 1e-5

    def test_no_closed_form_case_certified_sandwich(self):
        # x-polarized vs z-polarized under the sigma_z cost: pin the optimum
        # between the feasible-coupling upper bound and the feasible-potential
        # lower bound, both recomputed from the returned data alone.
        inst = z_instance(state_from_bloch([0.5, 0, 0]), state_from_bloch([0, 0, 0.5]), 2.0)
        problem = build_primal(inst)
        res = wasserstein_distance(inst)
        assert res.status == "optimal"
        check = res.coupling.check(tol=1e-7)
        assert check.ok
        upper = res.coupling.objective(problem.objective)
        slack_min = linalg.min_eigenvalue(
            potential_slack(problem.objective, res.potentials)
        )
        assert slack_min >= -1e-8
        lower = potential_objective(inst.rho, inst.omega, res.potentials)
        assert lower - 1e-7 <= res.dp <= upper + 1e-7
        assert upper - lower <= 1e-6
        # frozen regression value, certified by the sandwich above
        np.testing.assert_allclose(res.dp, 1.0000000001215124, atol=1e-6)

    def test_distance_symmetry_for_swap_invariant_costs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = state_from_bloch(linalg.random_bloch(rng, 0.9))
            omega = state_from_bloch(linalg.random_bloch(rng, 0.9))
            for make in (symm_instance, z_instance):
                forward = wasserstein_distance(make(rho, omega, 2.0)).dp
                backward = wasserstein_distance(make(omega, rho, 2.0)).dp
                np.testing.assert_allclose(forward, backward, atol=1e-7)

    def test_rotating_out_sigma_y_preserves_z_cost_distance(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            r1, r2 = linalg.random_bloch(rng, 0.9), linalg.random_bloch(rng, 0.9)
            flat = lambda r: np.array([np.hypot(r[0], r[1]), 0.0, r[2]])
            original = wasserstein_distance(
                z_instance(state_from_bloch(r1), state_from_bloch(r2), 2.0)
            ).dp
            rotated = wasserstein_distance(
                z_instance(state_from_bloch(flat(r1)), state_from_bloch(flat(r2)), 2.0)
            ).dp
            np.testing.assert_allclose(original, rotated, atol=1e-6)

    def test_returned_witnesses_always_feasible(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            rho = state_from_bloch(linalg.random_bloch(rng, 0.95))
            omega = state_from_bloch(linalg.random_bloch(rng, 0.95))
            for make in (symm_instance, z_instance):
                inst = make(rho, omega, 2.0)
                res = wasserstein_distance(inst)
                assert res.coupling.check(tol=1e-7).ok
                slack = potential_slack(build_primal(inst).objective, res.potentials)
                assert linalg.min_eigenvalue(slack) >= -1e-8

    def test_degenerate_face_flag(self):
        # symmetric cost pins the plan's corner entry: unique minimizer
        unique = wasserstein_distance(symm_instance(state_z(0.5), state_z(0.5), 2.0))
        assert not unique.degenerate_face
        # the sigma_z cost never sees the corner entry: a free direction
        # in the optimal face, hence multiple minimizers
        free = wasserstein_distance(z_instance(state_z(0.6), state_z(-0.2), 2.0))
        assert free.degenerate_face

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_face_probe_through_slots_matches_the_dense_stack(self, degenerate):
        if degenerate:  # only the pair marginals of the K=3 plan are pinned
            inst = factorized_instance(
                state_z(0.3), state_z(-0.5), cost.pauli_triple(), 2.0, MODE_LINEARIZED
            )
        else:
            rng = np.random.default_rng(46)
            rho, omega = linalg.random_density(rng, 6), linalg.random_density(rng, 6)
            obs = cost.observable_set([linalg.random_hermitian(rng, 6) for _ in range(2)])
            inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        problem = build_primal(inst)
        assert problem.dim >= sdp.STRUCTURED_MIN_DIM
        result = wasserstein_distance(inst)
        slots = transport._optimal_face_dimension(result.solution, problem)
        assert "constraint_ops" not in vars(problem)
        # the same probe with V* A_i V formed from the dense stack
        vals, vecs = np.linalg.eigh(result.solution.s)
        kernel = vecs[:, vals < transport.FACE_RANK_TOL * max(1.0, vals[-1])]
        k = kernel.shape[1]
        assert k > 0  # a nonzero optimal plan lies in the kernel of S
        compressed = kernel.conj().T[None] @ problem.constraint_ops @ kernel
        flat = compressed.reshape(problem.n_constraints, k * k)
        singular = np.linalg.svd(np.hstack([flat.real, flat.imag]), compute_uv=False)
        rank = int(np.sum(singular > 1e-8 * max(1.0, singular[0])))
        assert k * k - rank == slots
        assert (slots > 0) == degenerate == result.degenerate_face

    def test_d12_solve_never_holds_the_dense_stack(self):
        rng = np.random.default_rng(52)
        rho, omega = linalg.random_density(rng, 12), linalg.random_density(rng, 12)
        obs = cost.observable_set([linalg.random_hermitian(rng, 12) for _ in range(2)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        n, m = 144, 287
        stack_bytes = m * n * n * 16  # 95 MB of complex128
        tracemalloc.start()
        try:
            result = wasserstein_distance(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.solution.x.shape == (n, n) and len(result.solution.y) == m
        assert result.status == sdp.STATUS_OPTIMAL
        assert peak < 0.5 * stack_bytes


class TestModes:
    def test_linearized_below_nonlinear(self):
        rng = np.random.default_rng(12)
        observables = cost.pauli_triple()
        for _ in range(10):
            rho = state_from_bloch(linalg.random_bloch(rng, 0.9))
            omega = state_from_bloch(linalg.random_bloch(rng, 0.9))
            nonlinear = wasserstein_distance(
                factorized_instance(rho, omega, observables, 2.0, MODE_NONLINEAR)
            ).primal_objective
            relaxed = solve_linearized_decomposed(
                factorized_instance(rho, omega, observables, 2.0, MODE_LINEARIZED)
            ).total
            assert relaxed <= nonlinear + 1e-7

    def test_full_linearized_equals_decomposed(self):
        inst = factorized_instance(
            state_z(0.5), state_z(-0.5), cost.pauli_triple(), 2.0, MODE_LINEARIZED
        )
        full = wasserstein_distance(inst)
        decomposed = solve_linearized_decomposed(inst)
        np.testing.assert_allclose(full.primal_objective, decomposed.total, atol=1e-6)
        assert full.coupling.check(tol=1e-7).ok

    def test_general_cost_linearized_matches_factorized_route(self):
        rho, omega = state_z(0.4), state_z(-0.3)
        obs = cost.observable_set([linalg.PAULI_X, linalg.PAULI_Z])
        general = general_instance(rho, omega, obs, cost.lp_power_cost(2, 2.0), 2.0)
        factorized = factorized_instance(rho, omega, obs, 2.0, MODE_LINEARIZED)
        a = wasserstein_distance(general).primal_objective
        b = wasserstein_distance(factorized).primal_objective
        np.testing.assert_allclose(a, b, atol=1e-7)

    @pytest.mark.parametrize("dim", [3, 6, 8, 12])
    def test_certified_on_each_side_of_the_schur_crossover(self, dim):
        # n = 9 QR-factors the dense scaled constraints; n = 36, 64 and 144
        # Cholesky-factor the Schur matrix formed from slot Gram blocks
        rng = np.random.default_rng(40 + dim)
        rho, omega = linalg.random_density(rng, dim), linalg.random_density(rng, dim)
        obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        result = wasserstein_distance(inst)
        assert result.status == sdp.STATUS_OPTIMAL and result.certificate.passed
        assert abs(result.solution.iterations - {3: 10, 6: 12, 8: 12, 12: 12}[dim]) <= 1
        assert result.gap <= 1e-6 * max(1.0, abs(result.primal_objective))
        product = trivial_coupling(rho, omega).objective(inst.plan_cost())
        assert result.dp <= product + 1e-6 * max(1.0, abs(product))
        assert result.dual_attained

    def test_three_pair_linearized_symm_is_certified(self):
        # n = 64: Cholesky factors and scaled-frame step lengths
        inst = factorized_instance(
            state_z(0.3), state_z(-0.5), cost.pauli_triple(), 2.0, MODE_LINEARIZED
        )
        result = wasserstein_distance(inst)
        assert result.status == sdp.STATUS_OPTIMAL and result.certificate.passed
        assert abs(result.solution.iterations - 9) <= 1

    def test_d8_pair_converges_from_the_product_coupling(self):
        # started at tau I, this pair stopped at the mu floor after 22
        # iterations with one BLAS thread, its gap 1.3806e-7 against a stop of
        # 1.3751e-7, all of it dobj - pobj (the y.rp knife edge of the stop)
        rng = np.random.default_rng([7, 8, 0])
        rho, omega = linalg.random_density(rng, 8), linalg.random_density(rng, 8)
        obs = cost.observable_set([linalg.random_hermitian(rng, 8) for _ in range(2)])
        result = wasserstein_distance(factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR))
        assert (result.solution.reason, result.certificate.passed) == ("converged", True)
        assert abs(result.solution.iterations - 12) <= 1

    @pytest.mark.parametrize("pure_side", ["rho", "omega"])
    def test_pure_against_mixed_on_a_large_plan_is_the_product_value(self, pure_side):
        # the plan lives on supp(omega) (x) supp(rho^T), 5-dimensional here,
        # and the product plan is the only coupling
        rng = np.random.default_rng(7)
        u = linalg.random_unitary(rng, 5)
        pure = np.outer(u[:, 0], u[:, 0].conj())
        mixed = linalg.random_density(rng, 5)
        rho, omega = (pure, mixed) if pure_side == "rho" else (mixed, pure)
        obs = cost.observable_set([linalg.random_hermitian(rng, 5)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        assert inst.plan_shape.total_dim == sdp.STRUCTURED_MIN_DIM
        result = wasserstein_distance(inst)
        assert result.status == sdp.STATUS_OPTIMAL and result.certificate.passed
        assert result.solution.x.shape == (5, 5)
        product = trivial_coupling(rho, omega).objective(inst.plan_cost())
        assert abs(result.dp - product) <= 1e-7 * max(1.0, product)

    def test_joint_equals_nonlinear_for_summed_cost(self):
        rho, omega = state_x(0.3), state_z(-0.2)
        via_matrix = wasserstein_distance(
            joint_instance(rho, omega, cost.cost_symm(2.0), 2.0)
        ).dp
        via_factors = wasserstein_distance(
            factorized_instance(rho, omega, cost.pauli_triple(), 2.0, MODE_NONLINEAR)
        ).dp
        np.testing.assert_allclose(via_matrix, via_factors, atol=1e-7)


def rank_state(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def scaled_rank_instance(dim, ranks, scale):
    """A nonlinear p=2 pair of states of ``ranks`` (rho, omega) with two
    random observables times ``scale``; the draws do not depend on it."""
    rng = np.random.default_rng([dim, *ranks, 0])
    rho, omega = (rank_state(rng, dim, r) for r in ranks)
    obs = cost.observable_set([scale * linalg.random_hermitian(rng, dim) for _ in range(2)])
    return factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)


def solved_on_the_face(inst):
    """The result of a solve that must end optimal and certified, with a
    lifted plan that couples the original states."""
    result = wasserstein_distance(inst)
    assert result.status == sdp.STATUS_OPTIMAL and result.certificate.passed
    assert is_coupling(result.coupling.matrix, inst.rho, inst.omega, inst.pairs).ok
    return result


def assert_matches(value, oracle):
    assert abs(value - oracle) <= 1e-7 * max(1.0, abs(oracle))


class TestSupportFace:
    """Rank-deficient states are solved on ``supp(omega) (x) supp(rho^T)``."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "ranks_of", [lambda d: (1, 1), lambda d: (1, d), lambda d: (d, 1)],
        ids=["pure/pure", "pure/mixed", "mixed/pure"],
    )
    def test_pure_inputs_give_the_product_value(self, dim, ranks_of):
        # a pure marginal leaves the product plan as the only coupling
        ranks = ranks_of(dim)
        rng = np.random.default_rng([dim, *ranks])
        rho, omega = (rank_state(rng, dim, r) for r in ranks)
        obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        result = solved_on_the_face(inst)
        assert result.solution.x.shape[0] == ranks[0] * ranks[1]
        product = trivial_coupling(rho, omega).objective(inst.plan_cost())
        assert_matches(result.dp, product)
        # the face's r^2 constraints pin the plan: the solve starts at it
        assert result.solution.iterations == 0
        assert abs(result.dp - product) <= 1e-12 * abs(product)

    @pytest.mark.parametrize("ranks", [(1, 3), (2, 3)], ids=["1,3", "2,3"])
    def test_ill_scaled_faces_are_solved(self, ranks):
        # observables x100 put cost entries near 3e5, where the rounding of
        # V* C V breaks its symmetry past linalg.HERMITIAN_ATOL
        inst, unscaled = (scaled_rank_instance(3, ranks, scale) for scale in (100.0, 1.0))
        cost_r = inst.support.restrict(inst.plan_cost())
        np.testing.assert_array_equal(cost_r, cost_r.conj().T)
        result = solved_on_the_face(inst)
        assert_matches(result.dp / 100.0**2, solved_on_the_face(unscaled).dp)

    def test_pinned_face_with_a_large_cost_keeps_the_product_start(self):
        # cost entries near 3e7: the rounding of S0 = C - A*(y0) fails the
        # stop test's cone clause, so the solve starts at the product coupling
        inst = scaled_rank_instance(3, (1, 3), 1000.0)
        problem = build_primal(inst)
        assert problem.n_constraints == problem.dim**2
        result = solved_on_the_face(inst)
        assert result.solution.iterations > 0
        assert_matches(result.dp, trivial_coupling(inst.rho, inst.omega).objective(inst.plan_cost()))

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize(
        "ranks_of", [lambda d: (1, d), lambda d: (d - 1, 2), lambda d: (2, d)],
        ids=["1,d", "d-1,2", "2,d"],
    )
    def test_qudit_pairs_in_both_modes(self, dim, ranks_of):
        r_rho, r_omega = ranks_of(dim)
        rng = np.random.default_rng([dim, r_rho, r_omega])
        rho, omega = rank_state(rng, dim, r_rho), rank_state(rng, dim, r_omega)
        obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
        nonlinear = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        linearized = factorized_instance(rho, omega, obs, 2.0, MODE_LINEARIZED)
        joint = solved_on_the_face(nonlinear)
        relaxed = solved_on_the_face(linearized)
        assert relaxed.solution.x.shape[0] == (r_rho * r_omega) ** 2
        # the K=2 plan only enters through its pair marginals
        assert_matches(relaxed.dp, solve_linearized_decomposed(linearized).total)
        product = trivial_coupling(rho, omega).objective(nonlinear.plan_cost())
        if r_rho == 1:
            assert_matches(joint.dp, product)
            assert_matches(relaxed.dp, product)
        else:
            assert relaxed.dp <= joint.dp + 1e-7 * max(1.0, joint.dp)
            assert joint.dp <= product + 1e-7 * max(1.0, product)

    @pytest.mark.parametrize("t", [-1.0, -0.6, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_boundary_collinear_symm_pairs(self, t, p):
        rng = np.random.default_rng([int(10 * t) + 10, int(p)])
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        inst = symm_instance(state_from_bloch(axis), state_from_bloch(t * axis), p)
        result = solved_on_the_face(inst)
        assert_matches(result.dp, d_symm_general(axis, t * axis, p))

    def test_near_pure_collinear_symm_pairs_are_exact(self):
        # Bloch radius 1 - 1e-6 runs on the whole plan space (the eigenvalue
        # 5e-7 is above the support cut); a random axis, a partner radius
        # uniform in (-0.9, 0.9) and p = 1, 2, 3 in turn, from the seed
        # [d, -log10 eps].  Under the Nesterov-Todd direction 34 of these 40
        # ended optimal (the rest numerical, mu_floor or diverged)
        rng = np.random.default_rng([2, 6])
        for i in range(40):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            near, partner = (1.0 - 1e-6) * axis, rng.uniform(-0.9, 0.9) * axis
            p = (1.0, 2.0, 3.0)[i % 3]
            inst = symm_instance(state_from_bloch(near), state_from_bloch(partner), p)
            assert inst.support.isometry is None
            result = solved_on_the_face(inst)
            assert_matches(result.dp, d_symm_general(near, partner, p))

    @pytest.mark.parametrize("dim,eps,floor", [
        (5, 1e-6, 8), (6, 1e-6, 8), (7, 1e-6, 8), (8, 1e-6, 8),
        (5, 1e-8, 8), (6, 1e-8, 8), (5, 1e-9, 0), (6, 1e-9, 0),
    ])
    def test_near_pure_qudit_pairs_on_the_slot_route(self, dim, eps, floor):
        # one eigenvalue 1 - (d-1) eps and d-1 eigenvalues eps in a random
        # basis, against a random mixed state with two random observables, p
        # = 2, from the seed [d, -log10 eps]: plans of 25-64 on the slot
        # route, whose Schur Cholesky breaks down and hands the solve to the
        # QR of the scaled rows.  Every pair certifies; with the diagonal
        # shift in place of the QR, 6, 7, 8 and 7 of 8 at eps = 1e-6 and none
        # at 1e-8 and 1e-9.  At 1e-9 variants of the step's rounding
        # certified 6-8, so that row gates only the rule below
        rng = np.random.default_rng([dim, round(-math.log10(eps))])
        certified = 0
        for _ in range(8):
            u = linalg.random_unitary(rng, dim)
            near = (u * np.array([1.0 - (dim - 1) * eps] + [eps] * (dim - 1))) @ u.conj().T
            partner = linalg.random_density(rng, dim)
            obs = cost.observable_set([linalg.random_hermitian(rng, dim) for _ in range(2)])
            result = wasserstein_distance(factorized_instance(near, partner, obs, 2.0, MODE_NONLINEAR))
            assert sdp.STRUCTURED_MIN_DIM <= result.solution.x.shape[0] < 4 * sdp.LANCZOS_STEPS
            # no wrong number behind an optimal status
            assert result.certificate.passed or result.status != "optimal"
            certified += result.certificate.passed
        assert certified >= floor

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_commuting_rank_deficient_data_meet_the_monge_value(self, dim):
        # states and observables diagonal in one random basis, the
        # observables monotone functions of one spectrum
        rng = np.random.default_rng(60 + dim)
        u = linalg.random_unitary(rng, dim)
        lam = np.sort(rng.standard_normal(dim))
        points = np.array([lam, np.exp(-lam)])
        weights = []
        for rank in (dim - 1, 2):
            w = np.zeros(dim)
            w[rng.choice(dim, rank, replace=False)] = rng.uniform(0.1, 1.0, rank)
            weights.append(w / w.sum())
        rho, omega = (u @ np.diag(w) @ u.conj().T for w in weights)
        obs = cost.observable_set([u @ np.diag(row) @ u.conj().T for row in points])
        for p in (1.0, 2.0, 3.0):
            inst = factorized_instance(rho, omega, obs, p, MODE_NONLINEAR)
            result = solved_on_the_face(inst)
            assert result.solution.x.shape[0] == 2 * (dim - 1)
            assert_matches(result.dp, d_monge(*weights, points, p))

    def test_full_rank_plans_are_not_conjugated(self):
        rng = np.random.default_rng(43)
        rho, omega = linalg.random_density(rng, 3), linalg.random_density(rng, 3)
        obs = cost.observable_set([linalg.random_hermitian(rng, 3) for _ in range(2)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        assert inst.support.isometry is None
        problem = build_primal(inst)
        assert problem.structure.shape == inst.plan_shape
        np.testing.assert_array_equal(problem.objective, linalg.hermitian(inst.plan_cost()))
        # the digest of this solve from the product coupling on the whole space
        result = wasserstein_distance(inst)
        assert (result.status, result.solution.iterations, result.dp.hex()) == (
            "optimal", 10, "0x1.b3b294189f5fbp+2"
        )

    def test_dual_slack_is_read_on_the_face(self):
        rng = np.random.default_rng(5)
        rho, omega = rank_state(rng, 3, 2), rank_state(rng, 3, 3)
        obs = cost.observable_set([linalg.random_hermitian(rng, 3) for _ in range(2)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        result = solved_on_the_face(inst)
        assert result.dual_attained
        slack = potential_slack(inst.plan_cost(), result.potentials)
        assert linalg.min_eigenvalue(inst.support.restrict(slack)) >= -1e-8
        assert abs(
            potential_objective(rho, omega, result.potentials) - result.dual_objective
        ) <= 1e-7 * max(1.0, abs(result.dual_objective))


    def test_cut_mass_is_the_spectrum_left_off_the_face(self):
        # rho's eigenvalue 4e-11 is below DENSITY_ATOL: the face drops it
        rho = np.diag([1.0 - 4e-11, 4e-11]).astype(complex)
        inst = symm_instance(rho, state_x(0.4), 2.0)
        result = solved_on_the_face(inst)
        assert result.solution.x.shape[0] == 2
        assert (result.cut_rho, result.cut_omega) == (inst.support.cut_rho, 0.0)
        assert abs(result.cut_rho - 4e-11) <= 1e-20
        full = solved_on_the_face(full_rank_pair())
        assert (full.cut_rho, full.cut_omega) == (0.0, 0.0)


def full_rank_pair():
    rng = np.random.default_rng(43)
    rho, omega = linalg.random_density(rng, 3), linalg.random_density(rng, 3)
    obs = cost.observable_set([linalg.random_hermitian(rng, 3) for _ in range(2)])
    return factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)


def rank_deficient_pair():
    rng = np.random.default_rng(5)
    rho, omega = rank_state(rng, 3, 2), rank_state(rng, 3, 1)
    obs = cost.observable_set([linalg.random_hermitian(rng, 3) for _ in range(2)])
    return factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)


def three_pair_linearized():
    return factorized_instance(
        state_z(0.3), state_z(-0.5), cost.pauli_triple(), 2.0, MODE_LINEARIZED
    )


def general_cost_pair():
    obs = cost.observable_set([linalg.PAULI_X, linalg.PAULI_Z])
    return general_instance(state_x(0.4), state_z(-0.3), obs, cost.lp_power_cost(2, 2.0), 2.0)


class TestInteriorStart:
    """Every transport problem declares the product coupling on its support
    face as the interior point where the solve starts."""

    @pytest.mark.parametrize(
        "build", [full_rank_pair, rank_deficient_pair, three_pair_linearized, general_cost_pair]
    )
    def test_start_is_a_positive_definite_coupling(self, build):
        inst = build()
        face = inst.support
        problem = build_primal(inst)
        point = problem.interior
        np.testing.assert_allclose(
            point, linalg.kron_all([face.omega, face.rho.T] * inst.pairs), rtol=0, atol=1e-15
        )
        assert linalg.min_eigenvalue(point) > 0.0
        solution = sdp.solve(problem)
        assert solution.trace[0]["rp"] <= 1e-14
        np.testing.assert_array_equal(sdp.preprocess(problem)[0].interior, point)

    def test_face_states_have_unit_trace(self):
        # density admits a trace off by DENSITY_ATOL; the face renormalises
        # it, so the marginal values and the point read the same states
        rho, omega = (state_z(0.2) * (1.0 + 5e-11), state_x(-0.4))
        inst = symm_instance(rho, omega, 2.0)
        assert abs(inst.support.rho.trace().real - 1.0) <= 1e-15
        problem = build_primal(inst)
        assert abs(problem.interior.trace().real - 1.0) <= 1e-15
        assert sdp.solve(problem).trace[0]["rp"] <= 1e-14

    def test_non_commuting_near_pure_pair_starts_at_tau_identity(self):
        # lambda_min 2e-10 on each side: the coupling's 4e-20 is below the
        # rounding of its entries, so no point is declared and the solve runs
        inst = symm_instance(state_z(1 - 4e-10), state_x(1 - 4e-10), 2.0)
        assert build_primal(inst).interior is None
        assert math.isfinite(wasserstein_distance(inst).dp)

    def test_near_pure_three_pair_plan_starts_at_tau_identity(self):
        # (1e-3 * 1e-3)^3 = 1e-18 on the K=3 Pauli plan
        inst = factorized_instance(
            state_z(0.998), state_x(0.998), cost.pauli_triple(), 2.0, MODE_LINEARIZED
        )
        assert build_primal(inst).interior is None
        result = wasserstein_distance(inst)
        assert result.status == "optimal" and result.certificate.passed


def pure_mixed_qubit_pair():
    return symm_instance(state_x(0.4), np.diag([1.0, 0.0]).astype(complex), 2.0)


class TestSharedStructure:
    """Problems on one face shape are posed on one declared structure, which
    carries the rank decision of ``sdp.preprocess``."""

    def test_two_solves_on_one_face_shape_read_one_structure(self, monkeypatch):
        transport._face_structure.cache_clear()
        structures, qr_calls, inside = [], [], []
        qr, preprocess = np.linalg.qr, sdp.preprocess

        def counted_qr(*args, **kwargs):
            qr_calls.extend(inside)
            return qr(*args, **kwargs)

        def recorded_preprocess(problem):
            structures.append(problem.structure)
            inside.append(problem)
            try:
                return preprocess(problem)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(sdp, "preprocess", recorded_preprocess)
        for r in (0.2, 0.5):
            assert wasserstein_distance(symm_instance(state_z(r), state_x(-r), 2.0)).status == "optimal"
        first, second = structures
        assert first is second
        assert len(qr_calls) == 1

    @pytest.mark.parametrize(
        "build",
        [lambda: symm_instance(state_z(0.3), state_x(-0.2), 2.0), pure_mixed_qubit_pair,
         full_rank_pair, three_pair_linearized],
        ids=["qubit-symm", "qubit-pure-mixed", "nonlinear-d3", "linearized-K3"],
    )
    def test_a_solve_on_the_shared_structure_is_bitwise_one_on_a_fresh_one(self, build):
        inst = build()
        shape = inst.support.shape
        shared = build_primal(inst)
        assert shared.structure is transport._face_structure(shape)
        shared.structure.rank_decision  # decided before the solve reads it
        fresh = sdp.pose(
            sdp.slot_structure(shape, transport._marginal_operators(shape)),
            shared.objective, shared.constraint_vals, interior=shared.interior,
        )
        assert fresh.structure is not shared.structure
        a, b = sdp.solve(shared), sdp.solve(fresh)
        assert a.optimal and a.reason == b.reason and a.iterations == b.iterations
        assert a.trace == b.trace
        for name in ("x", "y", "s"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def face_instance(case):
    """An instance whose support face has the shape ``case``: ``r_omega x
    r_rho`` states on one pair, or the K=4 qubit linearized plan."""
    if case == "K=4":
        rng = np.random.default_rng(4)
        rho, omega = linalg.random_density(rng, 2), linalg.random_density(rng, 2)
        obs = cost.observable_set([linalg.random_hermitian(rng, 2) for _ in range(4)])
        return factorized_instance(rho, omega, obs, 2.0, MODE_LINEARIZED)
    r_omega, r_rho = (int(r) for r in case.split("x"))
    dim = max(r_omega, r_rho, 2)
    return scaled_rank_instance(dim, (r_rho, r_omega), 1.0)


def loop_marginal_values(face):
    """The targets term by term, as one ``np.trace`` of each product."""
    states = (face.omega, face.rho)
    terms = transport._marginal_terms(face.shape)
    return np.array([1.0] + [float(np.trace(states[slot % 2] @ b).real) for slot, b in terms])


def loop_potentials(face, y):
    """The potentials term by term, each added to a zero matrix in turn."""
    r_omega, r_rho = len(face.omega), len(face.rho)
    ys = [np.zeros((r_omega, r_omega), dtype=complex) for _ in range(face.pairs)]
    xs = [np.zeros((r_rho, r_rho), dtype=complex) for _ in range(face.pairs)]
    for coef, (slot, b) in zip(y[1:], transport._marginal_terms(face.shape)):
        (xs if slot % 2 else ys)[slot // 2] += coef * b
    xs[0] += y[0] * np.eye(r_rho)
    return xs, ys


class TestStackedMarginals:
    """The targets and the potentials read one basis stack a side: bitwise
    the term-by-term loop, signed zeros included."""

    CASES = ["1x1", "1x3", "2x2", "2x3", "3x3", "8x8", "K=4"]

    @pytest.mark.parametrize("case", CASES)
    def test_targets_are_the_loops(self, case):
        face = face_instance(case).support
        if case != "K=4":
            assert face.shape.dims == tuple(int(r) for r in case.split("x"))
        values = transport._marginal_values(face)
        assert values.tobytes() == loop_marginal_values(face).tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_potentials_are_the_loops(self, case):
        inst = face_instance(case)
        face = inst.support
        m = 1 + len(transport._marginal_terms(face.shape))
        rng = np.random.default_rng(m)
        # zeros and negative multipliers give signed zeros in the products
        y = rng.standard_normal(m) * rng.integers(0, 2, m)
        for multipliers in (y, -np.abs(y), np.zeros(m)):
            pots = potentials_from_multipliers(inst, multipliers)
            xs, ys = loop_potentials(face, multipliers)
            assert len(pots.xs) == len(xs) == face.pairs
            for got, expected in zip(pots.xs + pots.ys, xs + ys):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_stacks_are_views_of_the_basis_built_once_a_shape(self):
        shape = face_instance("2x3").support.shape
        stacks = transport._marginal_stacks(shape)
        assert stacks is transport._marginal_stacks(shape)
        for d, (basis, rows) in zip(shape.dims, stacks):
            assert not basis.flags.writeable and not rows.flags.writeable
            assert np.shares_memory(basis, linalg.hermitian_basis(d))


def certified_dp(rho, omega, observables, p):
    result = wasserstein_distance(
        factorized_instance(rho, omega, cost.observable_set(observables), p, MODE_NONLINEAR)
    )
    assert result.status == sdp.STATUS_OPTIMAL and result.certificate.passed
    return result.dp


@functools.lru_cache(maxsize=None)
def metamorphic_base(dim, p):
    """A random full-rank pair at ``dim`` with two random observables, a
    random unitary, and the pair's certified D^p."""
    rng = np.random.default_rng([dim, int(p)])
    rho, omega = linalg.random_density(rng, dim), linalg.random_density(rng, dim)
    observables = [linalg.random_hermitian(rng, dim) for _ in range(2)]
    u = linalg.random_unitary(rng, dim)
    return rho, omega, observables, u, certified_dp(rho, omega, observables, p)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("dim", [3, 5, 8])
class TestMetamorphic:
    """Relations between solves that hold whatever path the iteration takes:
    each transformed instance is checked against the base instance's D^p."""

    def test_unitary_covariance(self, dim, p):
        rho, omega, observables, u, base = metamorphic_base(dim, p)
        conj = lambda a: u @ a @ u.conj().T
        value = certified_dp(conj(rho), conj(omega), [conj(o) for o in observables], p)
        assert_matches(value, base)

    def test_scaled_observables_scale_the_cost_by_the_pth_power(self, dim, p):
        rho, omega, observables, _, base = metamorphic_base(dim, p)
        assert_matches(certified_dp(rho, omega, [1.7 * o for o in observables], p), 1.7**p * base)

    def test_swapped_states(self, dim, p):
        rho, omega, observables, _, base = metamorphic_base(dim, p)
        assert_matches(certified_dp(omega, rho, observables, p), base)


class TestGapDemo:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_values_and_strictness(self, p):
        result = gap_demo(p)
        np.testing.assert_allclose(result.nonlinear, 2.0**p, atol=1e-6)
        np.testing.assert_allclose(
            result.linearized, 2.0**p * (1 - (SQRT3 - 1) / 2), atol=1e-6
        )
        assert result.linearized < result.nonlinear
        # the two xy-type factors agree and the commuting factor is classical
        fx, fy, fz = result.factor_values
        np.testing.assert_allclose(fx, fy, atol=1e-6)
        np.testing.assert_allclose(fz, 2.0 ** (p - 1), atol=1e-6)


class TestDivergence:
    def test_identical_states_vanish(self):
        rho = state_z(0.4)
        assert divergence_parts(rho, rho, cost.pauli_triple()).d <= 1e-5

    def test_commuting_pair_symmetric_cost(self):
        parts = divergence_parts(state_z(0.5), state_z(-0.5), cost.pauli_triple())
        np.testing.assert_allclose(parts.d_squared, 2 * SQRT3, atol=1e-6)

    def test_xy_pair_z_cost(self):
        parts = divergence_parts(state_x(0.0), state_x(0.5), cost.sigma_z_observable())
        np.testing.assert_allclose(parts.d_squared, 1 - SQRT3 / 2, atol=1e-6)


def eager_diagnostics(inst):
    """The decode and the face probe of a fresh solve of ``inst``, taken at
    once from the posed problem: the coupling matrix, the lifted
    potentials, ``dual_attained`` and ``degenerate_face``."""
    problem = build_primal(inst)
    solution = sdp.solve(problem)
    face = inst.support
    pots = potentials_from_multipliers(inst, solution.y)
    pot_obj = potential_objective(face.rho, face.omega, pots)
    dual = solution.certificate.dual_objective
    attained = (
        abs(pot_obj - dual) <= 1e-7 * max(1.0, abs(dual))
        and linalg.min_eigenvalue(potential_slack(problem.objective, pots)) >= -transport.SLACK_TOL
    )
    degenerate = transport._optimal_face_dimension(solution, problem) > 0
    return face.lift(solution.x), face.lift_potentials(pots), attained, degenerate


def k3_linearized():
    return factorized_instance(
        state_z(0.3), state_z(-0.5), cost.pauli_triple(), 2.0, MODE_LINEARIZED
    )


def nonlinear_d8():
    rng = np.random.default_rng(48)
    rho, omega = linalg.random_density(rng, 8), linalg.random_density(rng, 8)
    obs = cost.observable_set([linalg.random_hermitian(rng, 8) for _ in range(2)])
    return factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)


class TestDiagnosticsOnRead:
    """The decode and the face probe run on the first read of one of their
    values, from the solve's own data, and give what an eager run gives."""

    def test_unread_diagnostics_are_never_computed(self, monkeypatch):
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("potentials_from_multipliers", "potential_objective", "potential_slack"):
            counted(transport, name)
        counted(np.linalg, "svd")
        # a (2, 3) face: not pinned, so its probe takes an SVD
        result = wasserstein_distance(scaled_rank_instance(3, (2, 3), 1.0))
        assert result.status == "optimal" and result.certificate.passed
        assert result.dp > 0 and result.gap >= 0 and abs(result.cut_rho) < 1e-12
        assert calls == {}
        result.degenerate_face
        assert calls == {"svd": 1}
        result.coupling
        result.potentials
        result.dual_attained
        assert calls == {"svd": 1, "potentials_from_multipliers": 1, "potential_objective": 1,
                         "potential_slack": 1}

    @pytest.mark.parametrize("make", [
        lambda: symm_instance(state_from_bloch([0.3, 0.2, 0.5]),
                              state_from_bloch([-0.4, 0.1, 0.2]), 2.0),
        lambda: scaled_rank_instance(3, (1, 3), 1.0),
        lambda: scaled_rank_instance(3, (2, 3), 1.0),
        nonlinear_d8,
        k3_linearized,
    ], ids=["qubit-symm", "pinned-1,3", "face-2,3", "nonlinear-d8", "linearized-K3"])
    def test_read_values_are_the_eager_values(self, make):
        inst = make()
        coupling, pots, attained, degenerate = eager_diagnostics(inst)
        # read in both orders, each from a solve of its own
        decode_first, probe_first = wasserstein_distance(inst), wasserstein_distance(inst)
        read = [decode_first.coupling, decode_first.degenerate_face,
                probe_first.degenerate_face, probe_first.coupling]
        for result in (decode_first, probe_first):
            assert result.coupling.matrix.tobytes() == coupling.tobytes()
            assert result.coupling.rho is inst.rho and result.coupling.omega is inst.omega
            assert result.coupling.shape == inst.plan_shape
            for got, expected in zip((*result.potentials.xs, *result.potentials.ys),
                                     (*pots.xs, *pots.ys)):
                assert got.tobytes() == expected.tobytes()
            assert result.dual_attained is attained
            assert result.degenerate_face is degenerate
        # each unit ran once: a second read returns the same object
        assert read[0] is decode_first.coupling and read[3] is probe_first.coupling

    def test_the_result_holds_no_start(self):
        inst = k3_linearized()
        assert build_primal(inst).interior is not None
        result = wasserstein_distance(inst)
        assert result._problem.interior is None
        assert result._problem.objective is not None and result._problem.structure is not None


class TestStateSpectra:
    """Each instance validates both states from one stacked spectrum and its
    support test reads those minima."""

    @pytest.mark.parametrize("make", [
        lambda: symm_instance(state_z(0.5), state_x(0.2), 2.0),
        lambda: scaled_rank_instance(3, (2, 3), 1.0),
        k3_linearized,
    ], ids=["full-rank", "rank-deficient", "linearized"])
    def test_each_state_is_factored_once(self, monkeypatch, make):
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: shapes.append(np.shape(a)) or eigvalsh(a, *args))
        inst = make()
        inst.support
        d = inst.dim
        assert shapes == [(2, d, d)]
        monkeypatch.undo()
        assert inst.minima == tuple(linalg.min_eigenvalues((inst.rho, inst.omega)))
        # the face is bitwise the one taken from the states' own spectra
        again = dataclasses.replace(inst, minima=None).support
        for name in ("omega", "rho", "v_omega", "v_rho", "cut_omega", "cut_rho"):
            a, b = getattr(inst.support, name), getattr(again, name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
