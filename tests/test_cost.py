"""Tests for cost operator construction."""

import itertools

import numpy as np
import pytest

from qot import cost, linalg
from qot.cost import (
    ClassicalCost,
    abs_power,
    abs_power_evaluator,
    check_unitary_invariance,
    cost_operator_factorized,
    cost_operator_general,
    cost_symm,
    cost_z,
    embedded_cost_sum,
    lp_power_cost,
    observable_set,
    pauli_triple,
    sigma_z_observable,
)
from qot.linalg import PAULI_X, PAULI_Z, kron

EYE2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def brute_force_cost(observables, classical, k):
    """Independent tuple-sum oracle: plain loops, no shared code path."""
    decs = [np.linalg.eigh(np.asarray(a)) for a in observables]
    dim2 = observables[0].shape[0] ** 2
    out = np.zeros((dim2**k, dim2**k), dtype=complex)
    index_sets = [range(len(vals)) for vals, _ in decs]
    for xs in itertools.product(*index_sets):
        for ys in itertools.product(*index_sets):
            x_vals = [decs[i][0][xs[i]] for i in range(k)]
            y_vals = [decs[i][0][ys[i]] for i in range(k)]
            weight = classical(x_vals, y_vals)
            term = np.eye(1, dtype=complex)
            for i in range(k):
                vecs = decs[i][1]
                proj_y = np.outer(vecs[:, ys[i]], vecs[:, ys[i]].conj())
                proj_x = np.outer(vecs[:, xs[i]], vecs[:, xs[i]].conj())
                term = np.kron(term, np.kron(proj_y, proj_x.T))
            out += weight * term
    return out


def rotated_degenerate_d3():
    u = linalg.random_unitary(np.random.default_rng(3), 3)
    return u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T


class TestDistinguishedCosts:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_symm_matrix_as_printed(self, p):
        t = 2.0**p
        expected = np.array(
            [[t, 0, 0, -t], [0, 2 * t, 0, 0], [0, 0, 2 * t, 0], [-t, 0, 0, t]], dtype=complex
        )
        np.testing.assert_array_equal(cost_symm(p), expected)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_z_matrix_as_printed(self, p):
        np.testing.assert_array_equal(cost_z(p), np.diag([0, 2.0**p, 2.0**p, 0]))

    def test_symm_eigenvalues_at_p2(self):
        vals = np.linalg.eigvalsh(cost_symm(2.0))
        np.testing.assert_allclose(vals, [0.0, 8.0, 8.0, 8.0], atol=1e-12)

    def test_z_identity_corner_vanishes(self):
        vec_eye = linalg.vectorize(EYE2)
        assert abs(np.vdot(vec_eye, cost_z(2.0) @ vec_eye)) < 1e-14

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_symm_closed_form_equals_functional_calculus(self, p):
        total = np.zeros((4, 4), dtype=complex)
        for sigma in linalg.PAULI:
            total += abs_power(kron(sigma, EYE2) - kron(EYE2, sigma.T), p)
        np.testing.assert_allclose(total, cost_symm(p), atol=1e-10)

    @pytest.mark.parametrize("builder", [cost_symm, cost_z])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    def test_built_once_an_exponent_and_read_only(self, builder, p):
        matrix = builder(p)
        assert builder(p) is matrix
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            matrix += 1.0

    @pytest.mark.parametrize("builder", [cost_symm, cost_z])
    def test_exponent_below_one_rejected(self, builder):
        with pytest.raises(ValueError, match="p must be >= 1"):
            builder(0.5)

    @pytest.mark.parametrize(
        "builder",
        [cost_symm, cost_z, abs_power_evaluator, lambda p: lp_power_cost(2, p),
         lambda p: abs_power(PAULI_Z, p)],
    )
    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_exponent_rejected(self, builder, p):
        with pytest.raises(ValueError, match="p must be >= 1 and finite"):
            builder(p)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_swap_transpose_symmetry(self, p):
        for matrix in (cost_symm(p), cost_z(p)):
            np.testing.assert_allclose(linalg.swap_transpose(matrix, 2), matrix, atol=1e-12)


class TestGeneralBuilder:
    def test_single_sigma_z_abs_power(self):
        for p in (1.0, 2.0):
            out = cost_operator_general(sigma_z_observable(), lp_power_cost(1, p))
            np.testing.assert_allclose(out, cost_z(p), atol=1e-12)

    def test_zero_cost_gives_zero_matrix(self):
        zero = ClassicalCost(1, lambda x, y: 0.0)
        out = cost_operator_general(observable_set([PAULI_X]), zero)
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_k2_matches_brute_force_and_kron_sum(self):
        obs = observable_set([PAULI_Z, PAULI_Z])
        classical = ClassicalCost(2, lambda x, y: abs(x[0] - y[0]) + abs(x[1] - y[1]))
        out = cost_operator_general(obs, classical)
        oracle = brute_force_cost([PAULI_Z, PAULI_Z], lambda x, y: abs(x[0] - y[0]) + abs(x[1] - y[1]), 2)
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        kron_sum = kron(cost_z(1.0), np.eye(4)) + kron(np.eye(4), cost_z(1.0))
        np.testing.assert_allclose(out, kron_sum, atol=1e-12)

    def test_random_k2_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            mats = [linalg.random_hermitian(rng, 2) for _ in range(2)]
            obs = observable_set(mats)
            fn = lambda x, y: (x[0] - y[0]) ** 2 + abs(x[1] - y[1])
            out = cost_operator_general(obs, ClassicalCost(2, fn))
            np.testing.assert_allclose(out, brute_force_cost(mats, fn, 2), atol=1e-10)

    def test_psd_for_nonnegative_cost(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            mats = [linalg.random_hermitian(rng, 2) for _ in range(2)]
            out = cost_operator_general(
                observable_set(mats), ClassicalCost(2, lambda x, y: (x[0] - y[1]) ** 2)
            )
            assert linalg.min_eigenvalue(out) >= -1e-10

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            cost_operator_general(pauli_triple(), lp_power_cost(1, 2.0))

    def test_dimension_budget(self):
        obs = observable_set([PAULI_Z] * 7)
        with pytest.raises(ValueError, match="budget"):
            cost_operator_general(obs, lp_power_cost(7, 1.0))

    def test_negative_cost_rejected(self):
        bad = ClassicalCost(1, lambda x, y: x[0] - y[0])
        with pytest.raises(ValueError, match="nonnegative"):
            cost_operator_general(sigma_z_observable(), bad)


class TestFactorizedBuilder:
    def test_sigma_z_factor(self):
        for p in (1.0, 2.0):
            [out] = cost_operator_factorized(sigma_z_observable(), [abs_power_evaluator(p)])
            np.testing.assert_allclose(out, cost_z(p), atol=1e-12)

    def test_constant_factor_is_identity_pair(self):
        [out] = cost_operator_factorized(sigma_z_observable(), [lambda x, y: 1.0])
        np.testing.assert_allclose(out, np.eye(4), atol=1e-12)

    def test_sigma_x_factor_is_hadamard_conjugation(self):
        for p in (1.0, 2.0):
            [out] = cost_operator_factorized(observable_set([PAULI_X]), [abs_power_evaluator(p)])
            conj = kron(HADAMARD, HADAMARD.T)
            np.testing.assert_allclose(out, conj @ cost_z(p) @ conj.conj().T, atol=1e-12)

    def test_embedded_sum_equals_general(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            mats = [linalg.random_hermitian(rng, 2) for _ in range(k)]
            obs = observable_set(mats)
            powers = [float(rng.uniform(1, 3)) for _ in range(k)]
            factors = cost_operator_factorized(obs, [abs_power_evaluator(p) for p in powers])
            embedded = embedded_cost_sum(factors, 2)
            summed = ClassicalCost(
                k, lambda x, y: sum(abs(a - b) ** p for a, b, p in zip(x, y, powers))
            )
            np.testing.assert_allclose(embedded, cost_operator_general(obs, summed), atol=1e-10)

    @pytest.mark.parametrize(
        "observable",
        [rotated_degenerate_d3(), linalg.random_hermitian(np.random.default_rng(5), 5)],
        ids=["d3-repeated-eigenvalue", "d5-random"],
    )
    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_both_builders_match_brute_force(self, observable, p):
        fn = abs_power_evaluator(p)
        oracle = brute_force_cost([observable], lambda x, y: fn(x[0], y[0]), 1)
        obs = observable_set([observable])
        [factor] = cost_operator_factorized(obs, [fn])
        np.testing.assert_allclose(factor, oracle, atol=1e-10)
        general = cost_operator_general(obs, lp_power_cost(1, p))
        np.testing.assert_allclose(general, oracle, atol=1e-10)

    def test_negative_factor_cost_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cost_operator_factorized(sigma_z_observable(), [lambda x, y: x - y])

    def test_wrong_factor_shape_rejected(self):
        with pytest.raises(ValueError):
            embedded_cost_sum([np.eye(4), np.eye(3)], 2)

    def test_embedded_sum_builds_each_kron(self):
        rng = np.random.default_rng(9)
        factors = [linalg.random_hermitian(rng, 4) for _ in range(3)]
        eye = np.eye(4, dtype=complex)
        expected = (
            linalg.kron_all([factors[0], eye, eye])
            + linalg.kron_all([eye, factors[1], eye])
            + linalg.kron_all([eye, eye, factors[2]])
        )
        np.testing.assert_array_equal(embedded_cost_sum(factors, 2), expected)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="factor costs"):
            cost_operator_factorized(pauli_triple(), [abs_power_evaluator(1.0)])

    def test_set_builds_its_factor_costs_once_an_exponent(self, monkeypatch):
        obs = pauli_triple()
        expected = cost_operator_factorized(obs, [abs_power_evaluator(2.0)] * 3)
        builds = []
        factorized = cost.cost_operator_factorized
        monkeypatch.setattr(
            cost, "cost_operator_factorized", lambda *a: builds.append(a) or factorized(*a)
        )
        first = obs.factor_costs(2.0)
        assert obs.factor_costs(2.0) is first and len(builds) == 1
        for built, held in zip(expected, first, strict=True):
            np.testing.assert_array_equal(held, built)
            assert not held.flags.writeable
        obs.factor_costs(1.0)
        assert len(builds) == 2 and "_factor_costs" not in repr(obs)


class TestUnitaryInvariance:
    def test_symm_invariant_under_random_unitaries(self):
        rng = np.random.default_rng(17)
        matrix = cost_symm(2.0)
        for _ in range(25):
            u = linalg.random_unitary(rng, 2)
            assert check_unitary_invariance(matrix, u) <= 1e-10

    def test_z_invariant_under_z_rotations(self):
        for phi in (0.3, 1.1, 2.9):
            u = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
            assert check_unitary_invariance(cost_z(2.0), u) <= 1e-10

    def test_z_not_invariant_under_hadamard(self):
        np.testing.assert_allclose(check_unitary_invariance(cost_z(2.0), HADAMARD), 4.0, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary_invariance(cost_z(2.0), 2 * EYE2)
