"""Cost operators built from observables by finite functional calculus.

A classical cost ``c(x, y) >= 0`` on the joint spectra of a collection of
observables induces a PSD cost operator on the multipartite pair space.
Each pair carries the arrival variable ``y`` on its first slot and the
departure variable ``x``, transposed, on its second slot:

    C = sum over eigenvalue tuples  c(x, y) *  (x)_k  P_k(y_k) (x) P_k(x_k).T

Two distinguished qubit costs have explicit 4x4 forms and are exposed
directly: the symmetric three-Pauli cost and the single-``sigma_z`` cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg, sdp
from .linalg import SpectralDecomposition

__all__ = [
    "ClassicalCost",
    "ObservableSet",
    "observable_set",
    "pauli_triple",
    "sigma_z_observable",
    "abs_power",
    "cost_operator_general",
    "cost_operator_factorized",
    "embedded_cost_sum",
    "cost_symm",
    "cost_z",
    "check_unitary_invariance",
    "lp_power_cost",
    "abs_power_evaluator",
]


@dataclass(frozen=True)
class ClassicalCost:
    """Nonnegative classical transport cost on K-tuples of spectral points."""

    arity: int
    evaluator: Callable[[Sequence[float], Sequence[float]], float]

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        value = float(self.evaluator(x, y))
        if value < 0.0:
            raise ValueError(f"classical cost must be nonnegative, got {value} at {x}, {y}")
        return value


def lp_power_cost(arity: int, p: float) -> ClassicalCost:
    """The cost ``||x - y||_p^p`` on K-tuples."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")

    def evaluate(x: Sequence[float], y: Sequence[float]) -> float:
        return float(sum(abs(a - b) ** p for a, b in zip(x, y)))

    return ClassicalCost(arity, evaluate)


def abs_power_evaluator(p: float) -> Callable[[float, float], float]:
    """Single-factor cost ``|x - y|^p``."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    return lambda x, y: abs(x - y) ** p


@dataclass(frozen=True)
class ObservableSet:
    """A finite collection of observables with cached spectral decompositions."""

    observables: tuple[np.ndarray, ...]
    decompositions: tuple[SpectralDecomposition, ...]

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.observables)


def observable_set(matrices: Sequence[np.ndarray]) -> ObservableSet:
    if not matrices:
        raise ValueError("observable set must be nonempty")
    mats = tuple(linalg.hermitian(m) for m in matrices)
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValueError("all observables must share one dimension")
    for m in mats:
        m.setflags(write=False)
    return ObservableSet(mats, tuple(linalg.eig_hermitian(m) for m in mats))


def pauli_triple() -> ObservableSet:
    return observable_set(linalg.PAULI)


def sigma_z_observable() -> ObservableSet:
    return observable_set([linalg.PAULI_Z])


def abs_power(m: np.ndarray, p: float) -> np.ndarray:
    """``|M|^p`` of a Hermitian matrix by eigendecomposition."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    dec = linalg.eig_hermitian(m)
    return dec.apply(lambda lam: abs(lam) ** p)


def _pair_term(decomposition: SpectralDecomposition, x_index: int, y_index: int) -> np.ndarray:
    proj_y = decomposition.projectors[y_index]
    proj_x = decomposition.projectors[x_index]
    return linalg.kron(proj_y, proj_x.T)


def cost_operator_general(obs: ObservableSet, c: ClassicalCost) -> np.ndarray:
    """Full cost operator on ``(H (x) H*)^(x K)`` for a joint classical cost."""
    if c.arity != obs.size:
        raise ValueError(f"cost arity {c.arity} does not match {obs.size} observables")
    k = obs.size
    dim2 = obs.dim**2
    total = dim2**k
    if total > sdp.MAX_VARIABLE_DIM:
        raise ValueError(f"cost operator dimension {total} exceeds budget {sdp.MAX_VARIABLE_DIM}")

    out = np.zeros((total, total), dtype=complex)
    ranges = [range(len(d.eigenvalues)) for d in obs.decompositions]
    for x_idx in itertools.product(*ranges):
        for y_idx in itertools.product(*ranges):
            xs = [obs.decompositions[i].eigenvalues[x_idx[i]] for i in range(k)]
            ys = [obs.decompositions[i].eigenvalues[y_idx[i]] for i in range(k)]
            weight = c(xs, ys)
            if weight == 0.0:
                continue
            term = linalg.kron_all(
                _pair_term(obs.decompositions[i], x_idx[i], y_idx[i]) for i in range(k)
            )
            out += weight * term
    return 0.5 * (out + out.conj().T)


def cost_operator_factorized(
    obs: ObservableSet, per_factor: Sequence[Callable[[float, float], float]]
) -> list[np.ndarray]:
    """Per-factor cost operators ``C_k`` on the single pair space ``H (x) H*``."""
    if len(per_factor) != obs.size:
        raise ValueError(f"{len(per_factor)} factor costs for {obs.size} observables")
    dim2 = obs.dim**2
    out = []
    for dec, fk in zip(obs.decompositions, per_factor):
        ck = np.zeros((dim2, dim2), dtype=complex)
        for xi, x in enumerate(dec.eigenvalues):
            for yi, y in enumerate(dec.eigenvalues):
                weight = float(fk(x, y))
                if weight < 0.0:
                    raise ValueError(f"factor cost must be nonnegative, got {weight}")
                if weight != 0.0:
                    ck += weight * _pair_term(dec, xi, yi)
        out.append(0.5 * (ck + ck.conj().T))
    return out


def embedded_cost_sum(factor_costs: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """``sum_k I (x) ... (x) C_k (x) ... (x) I`` on ``(H (x) H*)^(x K)``.

    Each ``C_k`` acts on the k-th pair of slots; equals the general cost
    operator of the summed classical cost.
    """
    k = len(factor_costs)
    pair_dim = dim * dim
    total = pair_dim**k
    if total > sdp.MAX_VARIABLE_DIM:
        raise ValueError(f"cost operator dimension {total} exceeds budget {sdp.MAX_VARIABLE_DIM}")
    out = np.zeros((total, total), dtype=complex)
    for idx, ck in enumerate(factor_costs):
        if ck.shape != (pair_dim, pair_dim):
            raise ValueError(f"factor cost {idx} has shape {ck.shape}, expected {(pair_dim, pair_dim)}")
        factors = [np.eye(pair_dim, dtype=complex)] * k
        factors[idx] = np.asarray(ck, dtype=complex)
        out += linalg.kron_all(factors)
    return out


def cost_symm(p: float) -> np.ndarray:
    """Symmetric qubit cost ``2^(p+1) I - 2^p |I>><<I|`` on the 4-dim pair space.

    Coincides with the functional-calculus sum of ``|s_k (x) I - I (x) s_k.T|^p``
    over the three Pauli observables and is invariant under simultaneous
    basis changes of both slots.
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    eye2 = np.eye(2, dtype=complex)
    return 2.0 ** (p + 1) * np.eye(4, dtype=complex) - 2.0**p * linalg.outer_vec(eye2)


def cost_z(p: float) -> np.ndarray:
    """Single-``sigma_z`` qubit cost ``diag(0, 2^p, 2^p, 0)``."""
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    return 2.0 ** (p - 1) * (
        np.eye(4, dtype=complex) - linalg.kron(linalg.PAULI_Z, linalg.PAULI_Z.T)
    )


def check_unitary_invariance(c: np.ndarray, u: np.ndarray, tol: float = 1e-10) -> float:
    """Spectral-norm deviation of a pair-space cost under a joint basis change.

    Conjugates by ``U (x) conj(U)``, which rebuilds the cost from the rotated
    observables, and returns ``||rotated - original||_2``.
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    defect = np.abs(u @ u.conj().T - np.eye(dim)).max()
    if defect > tol:
        raise ValueError(f"matrix is not unitary: ||U U* - I|| = {defect:.3e}")
    v = linalg.kron(u, u.conj())
    rotated = v @ np.asarray(c, dtype=complex) @ v.conj().T
    return float(np.linalg.norm(rotated - c, 2))
