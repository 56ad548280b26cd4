"""Tests for the closed-form qubit results."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qot import closedform as cf
from qot import cost, linalg, transport

SQRT3 = math.sqrt(3.0)


def classical_two_point_cost(alpha, beta, p):
    """Independent oracle: optimal transport between two-point spectral laws.

    The sigma_z spectral distribution of a commuting qubit puts mass
    (1 +/- a)/2 on the points +/-1.  Minimize the |x - y|^p cost over joint
    laws with those marginals by scanning the one free parameter.
    """
    mu = (1 + alpha) / 2
    nu = (1 + beta) / 2
    lo = max(0.0, mu + nu - 1.0)
    hi = min(mu, nu)
    best = np.inf
    for a in np.linspace(lo, hi, 20001):
        moved = (mu - a) + (nu - a)
        best = min(best, moved * 2.0**p)
    return best


class TestStates:
    def test_center_is_maximally_mixed(self):
        np.testing.assert_array_equal(cf.state_from_bloch([0, 0, 0]), np.eye(2) / 2)

    def test_z_axis_is_diagonal(self):
        alpha = 0.4
        np.testing.assert_allclose(
            cf.state_from_bloch([0, 0, alpha]),
            np.diag([(1 + alpha) / 2, (1 - alpha) / 2]),
            atol=1e-15,
        )

    def test_x_axis_form(self):
        alpha = 0.4
        np.testing.assert_allclose(
            cf.state_from_bloch([alpha, 0, 0]),
            0.5 * np.array([[1, alpha], [alpha, 1]]),
            atol=1e-15,
        )

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            cf.state_from_bloch([1, 1, 0])

    @pytest.mark.parametrize("r", [[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf]])
    def test_non_finite_rejected(self, r):
        with pytest.raises(ValueError, match="not finite"):
            cf.state_from_bloch(r)

    def test_all_outputs_are_states(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            linalg.density(cf.state_from_bloch(linalg.random_bloch(rng, 1.0)))


class TestSymmCommuting:
    def test_opposite_half_polarization(self):
        for p in (1.0, 2.0, 3.0):
            assert cf.d_symm_commuting(0.5, -0.5, p) == pytest.approx(2.0**p)

    def test_identical_maximally_mixed(self):
        assert cf.d_symm_commuting(0.0, 0.0, 2.0) == 0.0

    def test_nonzero_self_distance(self):
        for alpha in (0.3, -0.7):
            expected = 2.0**2 * (1 - math.sqrt(1 - alpha**2))
            assert cf.d_symm_commuting(alpha, alpha, 2.0) == pytest.approx(expected)

    def test_general_form_reduces_to_axis_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 2)
            p = rng.uniform(1, 3)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            general = cf.d_symm_general(a * axis, b * axis, p)
            np.testing.assert_allclose(general, cf.d_symm_commuting(a, b, p), atol=1e-12)

    def test_general_form_center(self):
        assert cf.d_symm_general([0, 0, 0], [0, 0, 0], 2.0) == 0.0

    def test_general_form_rejects_non_collinear(self):
        with pytest.raises(ValueError, match="collinear"):
            cf.d_symm_general([0.5, 0, 0], [0, 0.5, 0], 2.0)

    def test_rotational_invariance_via_sdp(self):
        along_x = transport.wasserstein_distance(
            transport.symm_instance(cf.state_x(0.5), cf.state_x(-0.5), 2.0)
        ).dp
        np.testing.assert_allclose(along_x, 4.0, atol=1e-6)
        np.testing.assert_allclose(
            cf.d_symm_general([0.5, 0, 0], [-0.5, 0, 0], 2.0), 4.0, atol=1e-12
        )

    def test_coupling_marginals_and_center_case(self):
        c = cf.coupling_symm_commuting(0.0, 0.0)
        np.testing.assert_allclose(
            c.matrix, transport.purification_coupling(np.eye(2) / 2).matrix, atol=1e-14
        )
        for a, b in [(0.5, -0.5), (0.3, 0.9), (-1.0, 1.0)]:
            assert cf.coupling_symm_commuting(a, b).check(tol=1e-12).ok

    def test_coupling_objective_matches_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, 2)
            p = rng.uniform(1, 3)
            value = cf.coupling_symm_commuting(a, b).objective(cost.cost_symm(p))
            np.testing.assert_allclose(value, cf.d_symm_commuting(a, b, p), atol=1e-10)

    def test_potentials_at_center(self):
        first, _ = cf.potentials_symm_commuting(0.0, 0.0, 2.0)
        np.testing.assert_array_equal(first.xs[0], np.diag([-8.0, 0.0]))
        np.testing.assert_array_equal(first.ys[0], np.diag([8.0, 0.0]))
        assert transport.potential_objective(cf.state_z(0), cf.state_z(0), first) == 0.0

    def test_potentials_feasible_and_attaining(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b = rng.uniform(-0.99, 0.99, 2)
            p = rng.uniform(1, 3)
            pairs = cf.potentials_symm_commuting(a, b, p)
            matrix = cost.cost_symm(p)
            for pair in pairs:
                slack = transport.potential_slack(matrix, pair)
                assert linalg.min_eigenvalue(slack) >= -1e-10
            best = max(
                transport.potential_objective(cf.state_z(a), cf.state_z(b), pair)
                for pair in pairs
            )
            np.testing.assert_allclose(best, cf.d_symm_commuting(a, b, p), atol=1e-10)

    def test_potentials_reject_pure_states(self):
        with pytest.raises(ValueError, match="mixed"):
            cf.potentials_symm_commuting(1.0, 0.0, 2.0)


class TestZxy:
    def test_values(self):
        assert cf.d_z_xy(0.0, 0.0, 2.0) == 0.0
        assert cf.d_z_xy(0.5, 0.0, 2.0) == pytest.approx(2.0 - SQRT3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 2)
            p = rng.uniform(1, 3)
            assert cf.d_z_xy(a, b, p) == cf.d_z_xy(b, a, p)

    def test_coupling_branches(self):
        np.testing.assert_array_equal(
            cf.coupling_z_xy(0.0, 0.0).matrix, np.diag([0.5, 0, 0, 0.5])
        )
        for a, b in [(0.5, 0.25), (0.25, 0.5), (-0.6, 0.4), (0.3, -0.8), (0.5, 0.0), (0.0, 0.5)]:
            c = cf.coupling_z_xy(a, b)
            assert c.check(tol=1e-12).ok, (a, b)

    def test_dominant_plan_is_psd_by_structure(self):
        c = cf.coupling_z_xy(0.5, 0.25)
        assert linalg.min_eigenvalue(c.matrix) >= -1e-14
        assert np.linalg.matrix_rank(c.matrix, tol=1e-10) == 2

    def test_coupling_objective_matches_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, 2)
            p = rng.uniform(1, 3)
            value = cf.coupling_z_xy(a, b).objective(cost.cost_z(p))
            np.testing.assert_allclose(value, cf.d_z_xy(a, b, p), atol=1e-10)

    def test_potential_entries_at_half(self):
        x = cf.potentials_z_xy(0.5, 0.25, 2.0)[0].xs[0]
        np.testing.assert_allclose(np.diag(x).real, [2 * (1 - 2 / SQRT3)] * 2, atol=1e-12)
        np.testing.assert_allclose(x[0, 1].real, 2 / SQRT3, atol=1e-12)

    def test_potentials_zero_at_center(self):
        for cand in cf.potentials_z_xy(0.0, 0.0, 2.0):
            assert transport.potential_objective(cf.state_x(0), cf.state_x(0), cand) == 0.0

    def test_potentials_feasible_in_both_orders(self):
        matrix = cost.cost_z(2.0)
        for top in np.linspace(0.0, 0.95, 20):
            for cand in cf.potentials_z_xy(top, top / 2, 2.0):
                slack = transport.potential_slack(matrix, cand)
                assert linalg.min_eigenvalue(slack) >= -1e-10

    def test_best_potential_attains_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = rng.uniform(-0.99, 0.99, 2)
            p = rng.uniform(1, 3)
            best = max(
                transport.potential_objective(cf.state_x(a), cf.state_x(b), cand)
                for cand in cf.potentials_z_xy(a, b, p)
            )
            np.testing.assert_allclose(best, cf.d_z_xy(a, b, p), atol=1e-10)

    def test_potentials_reject_pure_radius(self):
        with pytest.raises(ValueError, match="radii"):
            cf.potentials_z_xy(1.0, 0.2, 2.0)


class TestZCommuting:
    def test_values(self):
        assert cf.d_z_commuting(0.3, 0.3, 1.7) == 0.0
        assert cf.d_z_commuting(1.0, -1.0, 1.0) == pytest.approx(2.0)

    def test_matches_classical_two_point_transport(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, 2)
            p = rng.choice([1.0, 2.0])
            oracle = classical_two_point_cost(a, b, p)
            np.testing.assert_allclose(cf.d_z_commuting(a, b, p), oracle, atol=1e-4)

    def test_coupling_and_potentials(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 2)
            p = rng.uniform(1, 3)
            coupling = cf.coupling_z_commuting(a, b)
            assert coupling.check(tol=1e-12).ok
            value = coupling.objective(cost.cost_z(p))
            np.testing.assert_allclose(value, cf.d_z_commuting(a, b, p), atol=1e-12)
            best = max(
                transport.potential_objective(cf.state_z(a), cf.state_z(b), cand)
                for cand in cf.potentials_z_commuting(p)
            )
            np.testing.assert_allclose(best, cf.d_z_commuting(a, b, p), atol=1e-12)

    def test_potential_slacks_as_displayed(self):
        p = 1.5
        first, second = cf.potentials_z_commuting(p)
        slack1 = transport.potential_slack(cost.cost_z(p), first)
        np.testing.assert_allclose(slack1, np.diag([0, 2.0 ** (p + 1), 0, 0]), atol=1e-12)
        slack2 = transport.potential_slack(cost.cost_z(p), second)
        np.testing.assert_allclose(slack2, np.diag([0, 0, 2.0 ** (p + 1), 0]), atol=1e-12)


class TestDivergences:
    def test_symm_self_divergence_vanishes(self):
        for r in (0.0, 0.3, 0.9):
            axis = np.array([0, 0, r])
            assert cf.divergence_symm_commuting(axis, axis) == pytest.approx(0.0, abs=1e-12)

    def test_symm_spot_value(self):
        value = cf.divergence_symm_commuting([0, 0, 0.5], [0, 0, -0.5])
        np.testing.assert_allclose(value, 2 * SQRT3, atol=1e-12)

    def test_symm_consistency_with_distances_and_purification(self):
        # d2 = D2(cross) - (purification values): rebuild from the pieces
        rng = np.random.default_rng(23)
        quad = cost.cost_symm(2.0)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 2)
            cross = cf.d_symm_commuting(a, b, 2.0)
            selfs = [
                transport.purification_coupling(cf.state_z(v)).objective(quad) for v in (a, b)
            ]
            rebuilt = cross - 0.5 * sum(selfs)
            expected = cf.divergence_symm_commuting([0, 0, a], [0, 0, b])
            np.testing.assert_allclose(rebuilt, expected, atol=1e-9)

    def test_z_spot_value_and_symmetry(self):
        np.testing.assert_allclose(cf.divergence_z_xy(0.0, 0.5), 1 - SQRT3 / 2, atol=1e-12)
        assert cf.divergence_z_xy(0.2, 0.7) == cf.divergence_z_xy(0.7, 0.2)
        assert cf.divergence_z_xy(0.4, 0.4) == 0.0

    def test_z_equals_half_self_distance_difference(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            r1, r2 = rng.uniform(0, 1, 2)
            d_self = lambda r: cf.d_z_xy(r, r, 2.0)
            lo, hi = min(r1, r2), max(r1, r2)
            np.testing.assert_allclose(
                cf.divergence_z_xy(r1, r2), 0.5 * (d_self(hi) - d_self(lo)), atol=1e-12
            )


class TestTriangles:
    def test_degenerate_triples_vanish(self):
        assert cf.triangle_margin_symm(0.4, 0.4, 0.4) == pytest.approx(0.0, abs=1e-12)
        assert cf.triangle_margin_z(0.3, 0.3, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_ordered_radii_give_zero_z_margin(self):
        for r in itertools.combinations(np.linspace(0.05, 0.95, 6), 3):
            assert cf.triangle_margin_z(*sorted(r)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
    )
    def test_symm_margin_nonnegative(self, a, b, c):
        assert cf.triangle_margin_symm(a, b, c) >= -1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_z_margin_nonnegative(self, a, b, c):
        assert cf.triangle_margin_z(a, b, c) >= -1e-9


class TestMonge:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_north_west_corner_meets_the_best_assignment(self, p):
        # weights in sevenths: split each basis vector into copies of mass
        # 1/7; the problem is then an assignment, optimal at a permutation
        # (Birkhoff), so brute force over the 5040 permutations is exact
        rng = np.random.default_rng(int(p))
        lam = np.sort(rng.standard_normal(5))
        points = np.array([lam, -(lam**3), np.exp(lam)])
        counts_rho, counts_omega = [2, 1, 3, 0, 1], [0, 3, 1, 2, 1]
        cost_matrix = (np.abs(points[:, :, None] - points[:, None, :]) ** p).sum(axis=0)
        src, dst = (np.repeat(np.arange(5), c) for c in (counts_rho, counts_omega))
        perms = np.array(list(itertools.permutations(range(7))))
        best = cost_matrix[src[None, :], dst[perms]].sum(axis=1).min() / 7
        value = cf.d_monge(np.array(counts_rho) / 7, np.array(counts_omega) / 7, points, p)
        np.testing.assert_allclose(value, best, rtol=1e-12)

    def test_two_points_move_all_mass(self):
        assert cf.d_monge([1.0, 0.0], [0.0, 1.0], [[0.0, 2.0]], 3.0) == 8.0

    def test_non_monotone_observable_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            cf.d_monge([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [[0.0, 2.0, 1.0]], 2.0)
