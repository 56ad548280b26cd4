"""Cost operators built from observables by finite functional calculus.

A classical cost ``c(x, y) >= 0`` on the joint spectra of a collection of
observables induces a PSD cost operator on the multipartite pair space.
Each pair carries the arrival variable ``y`` on its first slot and the
departure variable ``x``, transposed, on its second slot:

    C = sum over eigenvalue tuples  c(x, y) *  (x)_k  P_k(y_k) (x) P_k(x_k).T

Summed over eigenvector columns instead of clusters, this is one conjugation
``C = U diag(w) U*`` with ``U = (x)_k V_k (x) conj(V_k)``, and ``w`` the cost at
the columns' cluster eigenvalues; every cost operator here is built that way.

Two distinguished qubit costs have explicit 4x4 forms and are exposed
directly: the symmetric three-Pauli cost and the single-``sigma_z`` cost.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
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
    "check_exponent",
]

# Largest entry of ``U U* - I`` that check_unitary_invariance accepts.
UNITARY_TOL = 1e-10


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


def check_exponent(p: float) -> float:
    """Return ``p`` if it is a finite exponent ``>= 1``; raise ``ValueError`` otherwise."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"exponent p must be >= 1 and finite, got {p}")
    return p


def lp_power_cost(arity: int, p: float) -> ClassicalCost:
    """The cost ``||x - y||_p^p`` on K-tuples."""
    check_exponent(p)

    def evaluate(x: Sequence[float], y: Sequence[float]) -> float:
        return float(sum(abs(a - b) ** p for a, b in zip(x, y)))

    return ClassicalCost(arity, evaluate)


def abs_power_evaluator(p: float) -> Callable[[float, float], float]:
    """Single-factor cost ``|x - y|^p``."""
    check_exponent(p)
    return lambda x, y: abs(x - y) ** p


@dataclass(frozen=True)
class ObservableSet:
    """A finite collection of observables with cached spectral decompositions."""

    observables: tuple[np.ndarray, ...]
    decompositions: tuple[SpectralDecomposition, ...]
    _factor_costs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.observables)

    def factor_costs(self, p: float) -> tuple[np.ndarray, ...]:
        """The cost operators ``|x - y|^p`` of :func:`cost_operator_factorized`,
        one an observable, built once an exponent and read-only."""
        if p not in self._factor_costs:
            ops = cost_operator_factorized(self, [abs_power_evaluator(p)] * self.size)
            for op in ops:
                op.setflags(write=False)
            self._factor_costs[p] = tuple(ops)
        return self._factor_costs[p]


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
    check_exponent(p)
    dec = linalg.eig_hermitian(m)
    return dec.apply(lambda lam: abs(lam) ** p)


def _spectral_operator(decs: Sequence[SpectralDecomposition], c: ClassicalCost) -> np.ndarray:
    """``U diag(w) U*`` with ``U = (x)_k V_k (x) conj(V_k)`` and ``w = c(xs, ys)``.

    Column ``(i_k, j_k)_k`` of ``U`` is ``(x)_k v_i (x) conj(v_j)``: ``ys`` holds
    the cluster eigenvalues of the ``i_k`` (arrival), ``xs`` those of the ``j_k``.
    """
    u = linalg.kron_all(linalg.kron(d.vectors, d.vectors.conj()) for d in decs)
    columns = itertools.product(*[d.column_values for d in decs for _ in "yx"])
    w = np.array([c(t[1::2], t[0::2]) for t in columns])
    out = (u * w) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def cost_operator_general(obs: ObservableSet, c: ClassicalCost) -> np.ndarray:
    """Full cost operator on ``(H (x) H*)^(x K)`` for a joint classical cost."""
    if c.arity != obs.size:
        raise ValueError(f"cost arity {c.arity} does not match {obs.size} observables")
    total = obs.dim ** (2 * obs.size)
    if total > sdp.MAX_VARIABLE_DIM:
        raise ValueError(f"cost operator dimension {total} exceeds budget {sdp.MAX_VARIABLE_DIM}")
    return _spectral_operator(obs.decompositions, c)


def cost_operator_factorized(
    obs: ObservableSet, per_factor: Sequence[Callable[[float, float], float]]
) -> list[np.ndarray]:
    """Per-factor cost operators ``C_k`` on the single pair space ``H (x) H*``."""
    if len(per_factor) != obs.size:
        raise ValueError(f"{len(per_factor)} factor costs for {obs.size} observables")
    return [
        _spectral_operator([dec], ClassicalCost(1, lambda x, y, fk=fk: fk(x[0], y[0])))
        for dec, fk in zip(obs.decompositions, per_factor)
    ]


def embedded_cost_sum(factor_costs: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """``sum_k I (x) ... (x) C_k (x) ... (x) I`` on ``(H (x) H*)^(x K)``.

    Each ``C_k`` acts on the k-th pair of slots; equals the general cost
    operator of the summed classical cost.
    """
    total = (dim * dim) ** len(factor_costs)
    if total > sdp.MAX_VARIABLE_DIM:
        raise ValueError(f"cost operator dimension {total} exceeds budget {sdp.MAX_VARIABLE_DIM}")
    shape = linalg.FactorShape((dim * dim,) * len(factor_costs))
    return sum(linalg.embed_at_slot(ck, k, shape) for k, ck in enumerate(factor_costs))


@functools.cache
def cost_symm(p: float) -> np.ndarray:
    """Symmetric qubit cost ``2^(p+1) I - 2^p |I>><<I|`` on the 4-dim pair space.

    Coincides with the functional-calculus sum of ``|s_k (x) I - I (x) s_k.T|^p``
    over the three Pauli observables and is invariant under simultaneous
    basis changes of both slots.  Built once an exponent and read-only.
    """
    check_exponent(p)
    eye2 = np.eye(2, dtype=complex)
    out = 2.0 ** (p + 1) * np.eye(4, dtype=complex) - 2.0**p * linalg.outer_vec(eye2)
    out.setflags(write=False)
    return out


@functools.cache
def cost_z(p: float) -> np.ndarray:
    """Single-``sigma_z`` qubit cost ``diag(0, 2^p, 2^p, 0)``, built once an
    exponent and read-only."""
    check_exponent(p)
    out = 2.0 ** (p - 1) * (
        np.eye(4, dtype=complex) - linalg.kron(linalg.PAULI_Z, linalg.PAULI_Z.T)
    )
    out.setflags(write=False)
    return out


def check_unitary_invariance(c: np.ndarray, u: np.ndarray) -> float:
    """Spectral-norm deviation of a pair-space cost under a joint basis change.

    Conjugates by ``U (x) conj(U)``, which rebuilds the cost from the rotated
    observables, and returns ``||rotated - original||_2``.
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0]
    defect = np.abs(u @ u.conj().T - np.eye(dim)).max()
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: ||U U* - I|| = {defect:.3e}")
    v = linalg.kron(u, u.conj())
    rotated = v @ np.asarray(c, dtype=complex) @ v.conj().T
    return float(np.linalg.norm(rotated - c, 2))
