"""Tests for couplings, problem builders, distances and divergences."""

import math
import tracemalloc

import numpy as np
import pytest

from qot import cost, linalg, sdp, transport
from qot.closedform import d_symm_commuting, state_from_bloch, state_x, state_z
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

    def test_non_state_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            symm_instance(2 * state_z(0.1), state_z(0.0), 2.0)

    def test_multiplier_decode_reproduces_slack_and_objective(self):
        inst = z_instance(state_x(0.4), state_x(-0.2), 2.0)
        problem = build_primal(inst)
        sol = sdp.solve(problem)
        pots = potentials_from_multipliers(inst, sol.y)
        np.testing.assert_allclose(
            potential_objective(inst.rho, inst.omega, pots), sol.dual_objective, atol=1e-10
        )
        slack = potential_slack(problem.objective, pots, 2)
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
        slack = potential_slack(cost.cost_z(p), pots, 2)
        np.testing.assert_allclose(slack, np.diag([0, 2.0 ** (p + 1), 0, 0]), atol=1e-12)
        alpha, beta = 0.7, -0.1
        value = potential_objective(state_z(alpha), state_z(beta), pots)
        np.testing.assert_allclose(value, 2.0 ** (p - 1) * (alpha - beta), atol=1e-12)

    def test_zero_potentials_feasible_for_psd_cost(self):
        zero = np.zeros((2, 2), dtype=complex)
        pots = transport.DualPotentials((zero,), (zero,))
        slack = potential_slack(cost.cost_symm(1.5), pots, 2)
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
            potential_slack(problem.objective, res.potentials, 2)
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
                slack = potential_slack(build_primal(inst).objective, res.potentials, 2)
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
        constraints = list(zip(problem.constraint_ops, problem.constraint_vals))
        dense = sdp.sdp_problem(problem.objective, constraints)
        assert transport._optimal_face_dimension(result.solution, dense) == slots
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
        assert abs(result.solution.iterations - {3: 13, 6: 17, 8: 18, 12: 18}[dim]) <= 1
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
        assert abs(result.solution.iterations - 14) <= 1

    @pytest.mark.parametrize("pure_side", ["rho", "omega"])
    def test_pure_against_mixed_on_a_large_plan_returns_a_status(self, pure_side):
        # no interior: the plan lives on supp(omega) (x) supp(rho^T)
        rng = np.random.default_rng(7)
        u = linalg.random_unitary(rng, 5)
        pure = np.outer(u[:, 0], u[:, 0].conj())
        mixed = linalg.random_density(rng, 5)
        rho, omega = (pure, mixed) if pure_side == "rho" else (mixed, pure)
        obs = cost.observable_set([linalg.random_hermitian(rng, 5)])
        inst = factorized_instance(rho, omega, obs, 2.0, MODE_NONLINEAR)
        assert inst.plan_shape.total_dim == sdp.STRUCTURED_MIN_DIM
        result = wasserstein_distance(inst)
        assert result.status in (
            sdp.STATUS_OPTIMAL, sdp.STATUS_NUMERICAL, sdp.STATUS_MAX_ITER, sdp.STATUS_INFEASIBLE
        )

    def test_joint_equals_nonlinear_for_summed_cost(self):
        rho, omega = state_x(0.3), state_z(-0.2)
        via_matrix = wasserstein_distance(
            joint_instance(rho, omega, cost.cost_symm(2.0), 2.0)
        ).dp
        via_factors = wasserstein_distance(
            factorized_instance(rho, omega, cost.pauli_triple(), 2.0, MODE_NONLINEAR)
        ).dp
        np.testing.assert_allclose(via_matrix, via_factors, atol=1e-7)


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
