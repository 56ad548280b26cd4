"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qot import linalg
from qot.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    FactorShape,
    eig_hermitian,
    embed_at_slot,
    hermitian_basis,
    kron,
    outer_vec,
    partial_trace,
    sqrt_psd,
    swap_transpose,
    vectorize,
)

EYE2 = np.eye(2, dtype=complex)


def rho_z(alpha):
    return np.diag([(1 + alpha) / 2, (1 - alpha) / 2]).astype(complex)


class TestValidators:
    def test_hermitian_symmetrizes_small_noise(self):
        m = PAULI_X + 1e-13 * np.array([[0, 1], [0, 0]])
        out = linalg.hermitian(m)
        np.testing.assert_allclose(out, out.conj().T)

    def test_hermitian_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hermitian_accepts_transposed_basis_elements(self, dim):
        # a transpose is not contiguous along its last axis
        for b in hermitian_basis(dim):
            np.testing.assert_array_equal(linalg.hermitian(b.T), b.T)

    def test_hermitian_rejects_non_finite_entries_in_any_layout(self):
        m = np.array([[1.0, 0.0], [0.0, np.nan]], dtype=complex)
        for layout in (m, m.T, np.asfortranarray(m)):
            with pytest.raises(ValueError, match="non-finite"):
                linalg.hermitian(layout)

    def test_hermitian_stack_rejects_one_non_hermitian_member(self):
        stack = np.stack([PAULI_X, PAULI_Z, np.array([[0, 1], [0, 0]]), PAULI_Y])
        with pytest.raises(ValueError, match="not Hermitian: asymmetry 1.000e"):
            linalg.hermitian(stack)
        # a Hermitian stack is returned as it is, each member as hermitian returns it
        np.testing.assert_array_equal(linalg.hermitian(stack[[0, 1, 3]]), stack[[0, 1, 3]])

    def test_single_matrix_validators_reject_a_stack(self):
        stack = np.stack([rho_z(0.3)] * 2)
        for validate in (linalg.density, linalg.eig_hermitian, linalg.sqrt_psd):
            with pytest.raises(ValueError, match="expected a square matrix"):
                validate(stack)

    def test_density_accepts_states_and_rejects_non_states(self):
        linalg.density(rho_z(0.3))
        with pytest.raises(ValueError, match="trace"):
            linalg.density(2 * rho_z(0.3))
        with pytest.raises(ValueError, match="not PSD"):
            linalg.density(np.diag([1.5, -0.5]).astype(complex))


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(EYE2, EYE2), np.eye(4))

    def test_diagonal_case(self):
        np.testing.assert_array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_sigma_x_pair_is_antidiagonal(self):
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        np.testing.assert_array_equal(kron(PAULI_X, PAULI_X), expected)

    def test_vectorization_identity(self):
        # kron(A, B.T) @ vec(X) == vec(A X B) in the row-major convention
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, x = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
            lhs = kron(a, b.T) @ vectorize(x)
            np.testing.assert_allclose(lhs, vectorize(a @ x @ b), atol=1e-12)


def assert_same_array(a, b):
    """The same dtype, shape, strides and bytes."""
    assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
    assert a.tobytes() == b.tobytes()


def isometry(rng, dim, rank):
    """Orthonormal columns: the support isometry of a rank-``rank`` state."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return np.linalg.qr(g)[0]


class TestKronIsNumpys:
    """``kron`` multiplies broadcast views: bitwise ``np.kron``."""

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2), (8, 8)])
    def test_square_inputs(self, dims):
        rng = np.random.default_rng(list(dims))
        a, b = (linalg.random_hermitian(rng, d) for d in dims)
        assert_same_array(kron(a, b), np.kron(a, b))
        # a transposed view, as the product start reads rho.T
        assert_same_array(kron(a, b.T), np.kron(a, b.T))

    @pytest.mark.parametrize("dim,ranks", [(3, (1, 3)), (3, (2, 3)), (4, (2, 3)), (4, (1, 1))])
    def test_support_isometries(self, dim, ranks):
        rng = np.random.default_rng([dim, *ranks])
        v_omega, v_rho = (isometry(rng, dim, r) for r in ranks)
        assert_same_array(kron(v_omega, v_rho.conj()), np.kron(v_omega, v_rho.conj()))
        chained = linalg.kron_all([v_omega, v_rho.conj()] * 2)
        expected = np.kron(np.kron(np.kron(v_omega, v_rho.conj()), v_omega), v_rho.conj())
        assert_same_array(chained, expected)

    def test_k4_product_start(self):
        # kron_all([omega, rho.T] * 4): factors of 2 x 2 onto products up to 128 x 128
        rng = np.random.default_rng(4)
        omega, rho = linalg.random_density(rng, 2), linalg.random_density(rng, 2)
        expected = np.eye(1, dtype=complex)
        for factor in [omega, rho.T] * 4:
            expected = np.kron(expected, factor)
        assert_same_array(linalg.kron_all([omega, rho.T] * 4), expected)

    def test_real_inputs_are_made_complex(self):
        out = kron(np.eye(2), np.array([[1, 2], [3, 4]]))
        assert out.dtype == complex
        np.testing.assert_array_equal(out, np.kron(np.eye(2), [[1, 2], [3, 4]]))


class TestStackedEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16, 64])
    def test_stacked_minima_are_bitwise_the_per_matrix_calls(self, n):
        rng = np.random.default_rng(n)
        pair = np.stack([linalg.random_hermitian(rng, n) for _ in range(2)])
        expected = [linalg.min_eigenvalue(m) for m in pair]
        assert linalg.min_eigenvalues(pair) == expected
        assert linalg.min_eigenvalues(list(pair)) == expected

    def test_different_shapes_are_taken_one_by_one(self):
        rng = np.random.default_rng(0)
        ms = [linalg.random_density(rng, 1), linalg.random_density(rng, 3)]
        assert linalg.min_eigenvalues(ms) == [linalg.min_eigenvalue(m) for m in ms]

    def test_densities_validate_as_density_from_one_stacked_spectrum(self, monkeypatch):
        rng = np.random.default_rng(3)
        ms = [linalg.random_density(rng, 3) for _ in range(2)]
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: shapes.append(np.shape(a)) or eigvalsh(a, *args))
        states, lows = linalg.densities(ms)
        assert shapes == [(2, 3, 3)]
        for state, m, low in zip(states, ms, lows):
            assert state.tobytes() == linalg.density(m).tobytes()
            assert low == float(eigvalsh(state)[0])
        with pytest.raises(ValueError, match="not PSD"):
            linalg.densities([ms[0], np.diag([1.5, -0.5, 0.0]).astype(complex)])
        with pytest.raises(ValueError, match="trace"):
            linalg.densities([2 * ms[0], ms[1]])


class TestPartialTrace:
    def test_traceless_factor(self):
        shape = FactorShape((2, 2))
        out = partial_trace(kron(PAULI_X, PAULI_Z), shape, [0])
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-14)

    def test_product_state_marginal(self):
        rho, omega = rho_z(0.5), rho_z(-0.5)
        out = partial_trace(kron(omega, rho.T), FactorShape((2, 2)), [0])
        np.testing.assert_allclose(out, omega, atol=1e-14)

    def test_optimal_plan_marginal(self):
        # commuting-qubit plan: the kept second slot carries rho(alpha).T
        alpha, beta = 0.3, -0.2
        corner = np.sqrt((1 + min(alpha, beta)) * (1 - max(alpha, beta)))
        plan = 0.5 * np.array(
            [
                [1 + min(alpha, beta), 0, 0, corner],
                [0, max(beta - alpha, 0), 0, 0],
                [0, 0, max(alpha - beta, 0), 0],
                [corner, 0, 0, 1 - max(alpha, beta)],
            ],
            dtype=complex,
        )
        out = partial_trace(plan, FactorShape((2, 2)), [1])
        np.testing.assert_allclose(out, rho_z(alpha).T, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(4, dtype=complex), FactorShape((2, 3)), [0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_composition_any_order(self, seed):
        # tracing factors one at a time, in any order, equals the joint trace
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2)
        n = int(np.prod(dims))
        m = linalg.random_hermitian(rng, n)
        shape = FactorShape(dims)
        joint = partial_trace(m, shape, [1])
        step = partial_trace(m, shape, [0, 1])
        step = partial_trace(step, FactorShape((2, 3)), [1])
        np.testing.assert_allclose(step, joint, atol=1e-12)
        other = partial_trace(m, shape, [1, 2])
        other = partial_trace(other, FactorShape((3, 2)), [0])
        np.testing.assert_allclose(other, joint, atol=1e-12)

    @pytest.mark.parametrize("keep", [[0, 2], [2, 0], [1]])
    def test_matches_an_index_loop(self, keep):
        dims = (2, 3, 2)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        t = m.reshape(dims + dims)
        kept = sorted(keep)
        kept_dims = [dims[k] for k in kept]
        ref = np.zeros(kept_dims * 2, dtype=complex)
        for row in np.ndindex(*dims):
            for col in np.ndindex(*dims):
                if all(row[k] == col[k] for k in range(3) if k not in kept):
                    ref[tuple(row[k] for k in kept) + tuple(col[k] for k in kept)] += t[row + col]
        kept_dim = int(np.prod(kept_dims))
        out = partial_trace(m, FactorShape(dims), keep)
        np.testing.assert_allclose(out, ref.reshape(kept_dim, kept_dim), rtol=0, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        m = linalg.random_hermitian(rng, 8)
        out = partial_trace(m, FactorShape((2, 2, 2)), [2])
        np.testing.assert_allclose(out.trace(), m.trace(), atol=1e-12)


class TestTranspose:
    def test_swap_transpose_reverses_product_plans(self):
        rho, omega = rho_z(0.4), rho_z(-0.1)
        np.testing.assert_allclose(
            swap_transpose(kron(omega, rho.T), 2), kron(rho, omega.T), atol=1e-14
        )


def assert_frame_matches(dec, m):
    """``V diag(column_values) V*`` is ``m``; each projector is ``V_c V_c*``."""
    vecs, values = dec.vectors, np.array(dec.column_values)
    np.testing.assert_allclose((vecs * values) @ vecs.conj().T, m, atol=1e-10)
    for lam, proj in zip(dec.eigenvalues, dec.projectors):
        block = vecs[:, values == lam]
        np.testing.assert_allclose(block @ block.conj().T, proj, atol=1e-12)


class TestEig:
    def test_sigma_z(self):
        dec = eig_hermitian(PAULI_Z)
        assert dec.eigenvalues == (-1.0, 1.0)
        np.testing.assert_allclose(dec.projectors[0], np.diag([0, 1]), atol=1e-14)
        np.testing.assert_allclose(dec.projectors[1], np.diag([1, 0]), atol=1e-14)

    def test_degenerate_merge(self):
        dec = eig_hermitian(EYE2)
        assert len(dec.eigenvalues) == 1
        np.testing.assert_allclose(dec.projectors[0], EYE2, atol=1e-14)

    def test_repeated_eigenvalue_shares_one_cluster(self):
        u = linalg.random_unitary(np.random.default_rng(3), 3)
        m = u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T
        dec = eig_hermitian(m)
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
        assert dec.column_values == (dec.eigenvalues[0],) + (dec.eigenvalues[1],) * 2
        assert_frame_matches(dec, m)

    def test_sigma_x_projectors(self):
        dec = eig_hermitian(PAULI_X)
        np.testing.assert_allclose(dec.projectors[0], 0.5 * (EYE2 - PAULI_X), atol=1e-12)
        np.testing.assert_allclose(dec.projectors[1], 0.5 * (EYE2 + PAULI_X), atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            m = linalg.random_hermitian(rng, dim)
            dec = eig_hermitian(m)
            np.testing.assert_allclose(dec.apply(lambda lam: lam), m, atol=1e-10)
            assert_frame_matches(dec, m)
            total = sum(dec.projectors)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
            for i, p in enumerate(dec.projectors):
                np.testing.assert_allclose(p @ p, p, atol=1e-10)
                for q in dec.projectors[i + 1 :]:
                    np.testing.assert_allclose(p @ q, np.zeros_like(p), atol=1e-10)


class TestSqrtPsd:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(sqrt_psd(EYE2 / 2), EYE2 / np.sqrt(2), atol=1e-14)

    def test_diagonal_state(self):
        alpha = 0.6
        expected = np.diag([np.sqrt((1 + alpha) / 2), np.sqrt((1 - alpha) / 2)])
        np.testing.assert_allclose(sqrt_psd(rho_z(alpha)), expected, atol=1e-14)

    def test_pure_projector_fixed_point(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        np.testing.assert_allclose(sqrt_psd(proj), proj, atol=1e-12)

    def test_square_reconstructs_and_scales(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = linalg.random_density(rng, 4)
            root = sqrt_psd(rho)
            np.testing.assert_allclose(root @ root, rho, atol=1e-9)
            np.testing.assert_allclose(sqrt_psd(0.5 * rho), np.sqrt(0.5) * root, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            sqrt_psd(PAULI_Z)


class TestVectorization:
    def test_outer_vec_identity_corners(self):
        out = outer_vec(EYE2) / 2
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_array_equal(out, expected)

    def test_purification_marginals(self):
        root = sqrt_psd(EYE2 / 2)
        pur = outer_vec(root)
        shape = FactorShape((2, 2))
        np.testing.assert_allclose(partial_trace(pur, shape, [0]), EYE2 / 2, atol=1e-14)
        np.testing.assert_allclose(partial_trace(pur, shape, [1]), (EYE2 / 2).T, atol=1e-14)

    def test_inner_product_recovers_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            alpha = rng.uniform(-0.99, 0.99)
            root = sqrt_psd(rho_z(alpha))
            inner = np.vdot(vectorize(EYE2), vectorize(root))
            np.testing.assert_allclose(inner.real, np.trace(root).real, atol=1e-12)

    def test_random_purification_marginals(self):
        rng = np.random.default_rng(13)
        shape = FactorShape((3, 3))
        for _ in range(20):
            rho = linalg.random_density(rng, 3)
            pur = outer_vec(sqrt_psd(rho))
            np.testing.assert_allclose(partial_trace(pur, shape, [0]), rho, atol=1e-10)
            np.testing.assert_allclose(partial_trace(pur, shape, [1]), rho.T, atol=1e-10)
            np.testing.assert_allclose(pur.trace().real, 1.0, atol=1e-12)


class TestHermitianBasis:
    def test_qubit_basis_is_normalized_pauli(self):
        basis = hermitian_basis(2)
        root2 = np.sqrt(2)
        np.testing.assert_allclose(basis[0], EYE2 / root2)
        np.testing.assert_allclose(basis[1], PAULI_X / root2)
        np.testing.assert_allclose(basis[2], PAULI_Y / root2)
        np.testing.assert_allclose(basis[3], PAULI_Z / root2)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_one_read_only_stack_a_dimension(self, dim):
        basis = hermitian_basis(dim)
        assert basis is hermitian_basis(dim)
        assert basis.shape == (dim * dim, dim, dim) and basis.dtype == complex
        assert not basis.flags.writeable and not basis[1:].flags.writeable

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_gram_matrix_is_identity(self, dim):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        gram = np.array(
            [[np.trace(a @ b).real for b in basis] for a in basis]
        )
        np.testing.assert_allclose(gram, np.eye(dim * dim), atol=1e-12)


class TestEmbedding:
    def test_embed_matches_kron(self):
        shape = FactorShape((2, 2, 2))
        np.testing.assert_array_equal(
            embed_at_slot(PAULI_X, 1, shape), kron(EYE2, kron(PAULI_X, EYE2))
        )

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_embed_is_bitwise_the_kron_chain(self, slot):
        shape = FactorShape((2, 3, 2))
        rng = np.random.default_rng(slot)
        d = shape.dims[slot]
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        factors = [np.eye(k, dtype=complex) for k in shape.dims]
        factors[slot] = op
        np.testing.assert_array_equal(embed_at_slot(op, slot, shape), linalg.kron_all(factors))

    def test_slot_view_writes_a_stack_in_place(self):
        shape = FactorShape((2, 3, 2))
        rng = np.random.default_rng(7)
        ops = [linalg.random_hermitian(rng, 3) for _ in range(2)]
        stack = np.zeros((2, 12, 12), dtype=complex)
        view = linalg.slot_view(stack, 1, shape)
        assert view.shape == (2, 2, 2, 3, 3) and np.shares_memory(view, stack)
        view[...] = np.stack(ops)[:, None, None]
        for out, op in zip(stack, ops):
            np.testing.assert_array_equal(out, embed_at_slot(op, 1, shape))

    @pytest.mark.parametrize("slot,frame", [(0, (1, 2, 6)), (1, (2, 3, 2)), (2, (6, 2, 1))])
    def test_frame_is_the_row_major_slot_layout(self, slot, frame):
        assert FactorShape((2, 3, 2)).frame(slot) == frame

    def test_factor_shape_validation(self):
        with pytest.raises(ValueError):
            FactorShape((2, 0))
