"""Couplings, transport problems as SDP data, and distances from solver output.

A coupling of states ``rho`` and ``omega`` is a state on the pair space
``H (x) H*`` whose first-slot marginal is ``omega`` and whose second-slot
marginal is ``rho.T``.  The multipartite relaxation replaces the K-fold
product of one coupling by a single correlated plan on ``(H (x) H*)^(x K)``
constrained to have the coupling marginals on every pair of slots.

The primal (minimize the cost against the plan) and its operator-potential
dual (maximize ``sum_k tr(omega Y_k) + tr(rho X_k)`` under the joint slack
inequality) are assembled in one standard conic form and solved together by
the primal-dual interior-point engine, which yields the plan, the
potentials, and a duality-gap certificate in a single run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost as cost_mod
from . import linalg, sdp
from .linalg import FactorShape

__all__ = [
    "MODE_JOINT",
    "MODE_LINEARIZED",
    "MODE_NONLINEAR",
    "TransportInstance",
    "Coupling",
    "CouplingCheck",
    "DualPotentials",
    "TransportResult",
    "DecomposedResult",
    "GapDemoResult",
    "SolverFailure",
    "joint_instance",
    "factorized_instance",
    "general_instance",
    "symm_instance",
    "z_instance",
    "trivial_coupling",
    "purification_coupling",
    "is_coupling",
    "build_primal",
    "potentials_from_multipliers",
    "potential_objective",
    "potential_slack",
    "wasserstein_distance",
    "solve_linearized_decomposed",
    "divergence_parts",
    "gap_demo",
]

MODE_JOINT = "joint"
MODE_LINEARIZED = "linearized"
MODE_NONLINEAR = "nonlinear"

MARGINAL_TOL = 1e-8
COUPLING_TOL = 1e-7
SLACK_TOL = 1e-8
# Eigenvalue cut used when probing the optimal face for extra minimizers.
FACE_RANK_TOL = 1e-6


class SolverFailure(RuntimeError):
    """Raised when a transport solve does not produce a usable optimum."""


@dataclass(frozen=True)
class TransportInstance:
    """States plus a resolved cost: one primal/dual pair.

    ``joint_cost`` is a cost operator on the full plan space; ``factor_costs``
    are per-pair costs.  Mode ``joint`` solves one plan on H (x) H*;
    ``nonlinear`` sums factorized costs into a single-pair plan; and
    ``linearized`` uses a correlated plan over ``pairs`` pair factors (from
    either factorized or joint multipartite cost data).  The exponent ``p``
    only enters through the root applied to the optimum.
    """

    rho: np.ndarray
    omega: np.ndarray
    p: float
    mode: str
    pairs: int = 1
    joint_cost: np.ndarray | None = None
    factor_costs: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in (MODE_JOINT, MODE_LINEARIZED, MODE_NONLINEAR):
            raise ValueError(f"unknown mode {self.mode!r}")
        cost_mod.check_exponent(self.p)
        if self.mode in (MODE_JOINT, MODE_NONLINEAR) and self.pairs != 1:
            raise ValueError(f"{self.mode} mode uses a single-pair plan")
        if self.mode == MODE_JOINT and self.joint_cost is None:
            raise ValueError("joint mode requires joint_cost")
        if self.mode == MODE_NONLINEAR and not self.factor_costs:
            raise ValueError("nonlinear mode requires factor_costs")
        if self.mode == MODE_LINEARIZED:
            if self.factor_costs:
                if self.pairs != len(self.factor_costs):
                    raise ValueError("pairs must equal the number of factor costs")
            elif self.joint_cost is None:
                raise ValueError("linearized mode requires factor_costs or a joint cost")
        # Reject before any plan-sized array (cost sum, constraints) is built.
        total = self.plan_shape.total_dim
        if total > sdp.MAX_VARIABLE_DIM:
            raise ValueError(f"plan dimension {total} exceeds {sdp.MAX_VARIABLE_DIM}")
        if self.joint_cost is not None:
            if self.joint_cost.shape != (total, total):
                raise ValueError(
                    f"joint cost shape {self.joint_cost.shape} does not match "
                    f"{self.pairs} pairs of dim {self.dim}"
                )

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def plan_shape(self) -> FactorShape:
        return FactorShape.pair_space(self.dim, self.pairs)

    def plan_cost(self) -> np.ndarray:
        """Cost operator acting on the plan variable of this mode."""
        if self.mode == MODE_NONLINEAR:
            return sum(self.factor_costs)
        if self.factor_costs and self.mode == MODE_LINEARIZED:
            return cost_mod.embedded_cost_sum(self.factor_costs, self.dim)
        return self.joint_cost


def _states(rho: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho = linalg.density(rho)
    omega = linalg.density(omega)
    if rho.shape != omega.shape:
        raise ValueError("states must share one dimension")
    return rho, omega


def joint_instance(rho, omega, cost: np.ndarray, p: float = 1.0) -> TransportInstance:
    rho, omega = _states(rho, omega)
    cost = linalg.hermitian(cost)
    if cost.shape[0] != rho.shape[0] ** 2:
        raise ValueError("joint cost must act on the pair space of the states")
    return TransportInstance(rho, omega, p, MODE_JOINT, joint_cost=cost)


def factorized_instance(
    rho, omega, observables: cost_mod.ObservableSet, p: float, mode: str = MODE_NONLINEAR
) -> TransportInstance:
    """Per-observable cost ``|x - y|^p``; modes ``nonlinear`` or ``linearized``."""
    rho, omega = _states(rho, omega)
    if observables.dim != rho.shape[0]:
        raise ValueError("state dims must equal the observable dim")
    factors = cost_mod.cost_operator_factorized(
        observables, [cost_mod.abs_power_evaluator(p)] * observables.size
    )
    pairs = observables.size if mode == MODE_LINEARIZED else 1
    return TransportInstance(rho, omega, p, mode, pairs=pairs, factor_costs=tuple(factors))


def general_instance(
    rho,
    omega,
    observables: cost_mod.ObservableSet,
    classical: cost_mod.ClassicalCost,
    p: float = 1.0,
    mode: str = MODE_LINEARIZED,
) -> TransportInstance:
    """Joint classical cost over K observables; one multipartite SDP."""
    rho, omega = _states(rho, omega)
    matrix = cost_mod.cost_operator_general(observables, classical)
    if observables.size == 1 or mode == MODE_JOINT:
        if observables.size != 1:
            raise ValueError("joint mode needs a single observable")
        return TransportInstance(rho, omega, p, MODE_JOINT, joint_cost=matrix)
    if mode != MODE_LINEARIZED:
        raise ValueError("a non-factorized cost only supports joint or linearized mode")
    return TransportInstance(
        rho, omega, p, MODE_LINEARIZED, pairs=observables.size, joint_cost=matrix
    )


def symm_instance(rho, omega, p: float) -> TransportInstance:
    """Symmetric three-Pauli qubit cost; the distance is the K=1 optimum."""
    rho, omega = _states(rho, omega)
    if rho.shape[0] != 2:
        raise ValueError("the symmetric cost is a qubit cost")
    return TransportInstance(rho, omega, p, MODE_JOINT, joint_cost=cost_mod.cost_symm(p))


def z_instance(rho, omega, p: float) -> TransportInstance:
    """Single-``sigma_z`` qubit cost."""
    rho, omega = _states(rho, omega)
    if rho.shape[0] != 2:
        raise ValueError("the sigma_z cost is a qubit cost")
    return TransportInstance(rho, omega, p, MODE_JOINT, joint_cost=cost_mod.cost_z(p))


@dataclass(frozen=True)
class Coupling:
    """A plan matrix with its factor shape and the declared marginals."""

    matrix: np.ndarray
    shape: FactorShape
    rho: np.ndarray
    omega: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.shape.n_factors // 2

    def objective(self, cost: np.ndarray) -> float:
        return float(np.einsum("ab,ba->", cost, self.matrix).real)

    def check(self, tol: float = COUPLING_TOL) -> "CouplingCheck":
        return is_coupling(self.matrix, self.rho, self.omega, self.n_pairs, tol)


@dataclass(frozen=True)
class CouplingCheck:
    ok: bool
    max_marginal_deviation: float
    min_eigenvalue: float
    trace_error: float


def is_coupling(
    pi: np.ndarray, rho: np.ndarray, omega: np.ndarray, factors: int = 1, tol: float = MARGINAL_TOL
) -> CouplingCheck:
    """PSD, unit-trace and all 2K marginal checks; returns diagnostics."""
    dim = rho.shape[0]
    shape = FactorShape.pair_space(dim, factors)
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != (shape.total_dim, shape.total_dim):
        raise ValueError(f"plan shape {pi.shape} does not match {factors} pairs of dim {dim}")
    min_eig = linalg.min_eigenvalue(0.5 * (pi + pi.conj().T))
    trace_err = abs(float(pi.trace().real) - 1.0)
    rho_t = rho.T
    dev = 0.0
    for k in range(factors):
        first = linalg.partial_trace(pi, shape, [2 * k])
        second = linalg.partial_trace(pi, shape, [2 * k + 1])
        dev = max(dev, float(np.abs(first - omega).max()), float(np.abs(second - rho_t).max()))
    ok = min_eig >= -tol and trace_err <= tol and dev <= tol
    return CouplingCheck(ok, dev, min_eig, trace_err)


def trivial_coupling(rho: np.ndarray, omega: np.ndarray) -> Coupling:
    """The product plan ``omega (x) rho.T``; always feasible."""
    rho, omega = _states(rho, omega)
    return Coupling(linalg.kron(omega, rho.T), FactorShape.pair_space(rho.shape[0]), rho, omega)


def purification_coupling(rho: np.ndarray) -> Coupling:
    """Rank-one plan ``|sqrt(rho)>><<sqrt(rho)|`` with marginals (rho, rho.T)."""
    rho = linalg.density(rho)
    return Coupling(
        linalg.outer_vec(linalg.sqrt_psd(rho)), FactorShape.pair_space(rho.shape[0]), rho, rho
    )


def _marginal_constraints(instance: TransportInstance) -> list[tuple[int, np.ndarray, float]]:
    """One global trace constraint plus the traceless marginal functionals.

    Each entry is ``(slot, local operator, value)``; the trace constraint is
    the identity at slot 0.  The identity component of every marginal
    encodes the same unit-trace condition; keeping a single copy leaves a
    full-row-rank system.
    """
    dim = instance.dim
    basis = linalg.hermitian_basis(dim)
    constraints: list[tuple[int, np.ndarray, float]] = [(0, np.eye(dim, dtype=complex), 1.0)]
    for k in range(instance.pairs):
        for b in basis[1:]:
            constraints.append((2 * k, b, float(np.trace(instance.omega @ b).real)))
            constraints.append((2 * k + 1, b.T, float(np.trace(instance.rho @ b).real)))
    return constraints


def build_primal(instance: TransportInstance) -> sdp.SdpProblem:
    """Minimize the plan cost over PSD plans with the coupling marginals.

    The same data also poses the potential problem: maximize
    ``sum_k tr(omega Y_k) + tr(rho X_k)`` under the slack inequality.  The
    potentials expand in the Hermitian basis: the multiplier of each
    traceless marginal functional is a coefficient of ``Y_k`` (first slot)
    or ``X_k`` (second slot, transposed basis), and the single trace
    multiplier carries the shared identity component, whose split between
    the potentials is a gauge freedom of the constraint.  The conic dual of
    the returned problem is therefore the potential problem, and the
    interior-point engine reports both sides of the pair from one run.
    """
    return sdp.slot_problem(
        instance.plan_cost(), instance.plan_shape, _marginal_constraints(instance)
    )


def potentials_from_multipliers(instance: TransportInstance, y: np.ndarray) -> "DualPotentials":
    """Decode multipliers into operator potentials (X_k, Y_k).

    The gauge is fixed by assigning the whole identity component to the
    departure-side potential of the first factor; this does not change the
    dual objective because both states have unit trace.
    """
    dim = instance.dim
    basis = linalg.hermitian_basis(dim)
    expected = 1 + 2 * instance.pairs * (len(basis) - 1)
    if len(y) != expected:
        raise ValueError(f"{len(y)} multipliers for {expected} constraints")
    xs, ys = [], []
    pos = 1
    for k in range(instance.pairs):
        y_k = np.zeros((dim, dim), dtype=complex)
        x_k = np.zeros((dim, dim), dtype=complex)
        for b in basis[1:]:
            y_k += y[pos] * b
            x_k += y[pos + 1] * b
            pos += 2
        if k == 0:
            x_k += y[0] * np.eye(dim)
        ys.append(y_k)
        xs.append(x_k)
    return DualPotentials(tuple(xs), tuple(ys))


@dataclass(frozen=True)
class DualPotentials:
    """Operator potentials; ``xs[k]`` pairs with rho, ``ys[k]`` with omega."""

    xs: tuple[np.ndarray, ...]
    ys: tuple[np.ndarray, ...]

    @property
    def n_factors(self) -> int:
        return len(self.xs)


def potential_objective(rho: np.ndarray, omega: np.ndarray, pots: DualPotentials) -> float:
    total = 0.0
    for x_k, y_k in zip(pots.xs, pots.ys):
        total += float(np.trace(rho @ x_k).real + np.trace(omega @ y_k).real)
    return total


def potential_slack(plan_cost: np.ndarray, pots: DualPotentials, dim: int) -> np.ndarray:
    """``C - sum_k embed(Y_k (x) I + I (x) X_k.T)``; PSD iff feasible."""
    k = pots.n_factors
    shape = FactorShape.pair_space(dim, k)
    slack = np.asarray(plan_cost, dtype=complex).copy()
    for idx in range(k):
        slack -= linalg.embed_at_slot(pots.ys[idx], 2 * idx, shape)
        slack -= linalg.embed_at_slot(pots.xs[idx].T, 2 * idx + 1, shape)
    return slack


@dataclass(frozen=True)
class TransportResult:
    distance: float
    dp: float
    coupling: Coupling
    potentials: DualPotentials
    primal_objective: float
    dual_objective: float
    gap: float
    status: str
    dual_attained: bool
    degenerate_face: bool
    solution: sdp.SdpSolution
    certificate: sdp.Certificate


def wasserstein_distance(
    instance: TransportInstance,
    *,
    tol: float = sdp.TOL,
    verbose: bool = False,
) -> TransportResult:
    """Solve the primal/dual pair; the distance is the optimum to the 1/p."""
    problem = build_primal(instance)
    solution = sdp.solve(problem, tol=tol, verbose=verbose)
    if solution.status == sdp.STATUS_INFEASIBLE:
        raise SolverFailure("transport problem reported infeasible marginals")
    certificate = sdp.certify(solution, problem)
    coupling = Coupling(solution.x, instance.plan_shape, instance.rho, instance.omega)
    potentials = potentials_from_multipliers(instance, solution.y)
    dp = max(solution.primal_objective, 0.0)
    pot_obj = potential_objective(instance.rho, instance.omega, potentials)
    attained = (
        abs(pot_obj - solution.dual_objective) <= 1e-7 * max(1.0, abs(solution.dual_objective))
        and linalg.min_eigenvalue(potential_slack(problem.objective, potentials, instance.dim))
        >= -SLACK_TOL
    )
    return TransportResult(
        distance=dp ** (1.0 / instance.p),
        dp=dp,
        coupling=coupling,
        potentials=potentials,
        primal_objective=solution.primal_objective,
        dual_objective=solution.dual_objective,
        gap=solution.gap,
        status=solution.status,
        dual_attained=attained,
        degenerate_face=_optimal_face_dimension(solution, problem) > 0,
        solution=solution,
        certificate=certificate,
    )


def _optimal_face_dimension(solution: sdp.SdpSolution, problem: sdp.SdpProblem) -> int:
    """Dimension of the primal optimal face around the returned plan.

    Optimal plans are the PSD matrices supported on the kernel of the dual
    slack that satisfy the equality constraints; the face is a single point
    exactly when the constraints restricted to that kernel block have full
    rank.  A positive dimension flags multiple minimizers.
    """
    vals, vecs = np.linalg.eigh(solution.s)
    scale = max(1.0, float(vals[-1]))
    kernel = vecs[:, vals < FACE_RANK_TOL * scale]
    k = kernel.shape[1]
    if k == 0:
        return 0
    flat = sdp.compressed_constraints(problem, kernel).reshape(problem.n_constraints, -1)
    singular = np.linalg.svd(np.hstack([flat.real, flat.imag]), compute_uv=False)
    rank = int(np.sum(singular > 1e-8 * max(1.0, float(singular[0]))))
    return k * k - rank


@dataclass(frozen=True)
class DecomposedResult:
    """Linearized multipartite optimum computed factor by factor."""

    total: float
    factor_values: tuple[float, ...]
    factor_results: tuple[TransportResult, ...]


def solve_linearized_decomposed(instance: TransportInstance) -> DecomposedResult:
    """Sum of independent single-pair optima, one per factor cost.

    For factorized costs this equals the full multipartite linearized
    optimum: the plan only enters through its pair marginals, each of which
    ranges over all couplings independently.
    """
    if instance.factor_costs is None:
        raise ValueError("decomposition requires factorized costs")
    results = []
    for ck in instance.factor_costs:
        sub = joint_instance(instance.rho, instance.omega, ck, instance.p)
        results.append(wasserstein_distance(sub))
    values = tuple(r.primal_objective for r in results)
    return DecomposedResult(float(sum(values)), values, tuple(results))


@dataclass(frozen=True)
class DivergenceParts:
    d: float
    d_squared: float
    cross: float
    self_rho: float
    self_omega: float
    gap: float
    max_equality_residual: float
    status: str


def divergence_parts(
    rho: np.ndarray, omega: np.ndarray, observables: cost_mod.ObservableSet
) -> DivergenceParts:
    """Quadratic divergence pieces: cross term and both self-distances.

    All three squared distances come from the same SDP with the quadratic
    summed cost; a radicand below -1e-9 flags a solver or model bug, while
    roundoff-level negatives clamp to zero.  The reported gap and residual
    are the worst over the three solves.
    """
    def d2(a, b):
        return wasserstein_distance(factorized_instance(a, b, observables, 2.0, MODE_NONLINEAR))

    results = [d2(rho, omega), d2(rho, rho), d2(omega, omega)]
    cross, self_rho, self_omega = (r.dp for r in results)
    radicand = cross - 0.5 * (self_rho + self_omega)
    if radicand < -1e-9:
        raise SolverFailure(f"negative squared divergence {radicand:.3e}")
    d_squared = max(radicand, 0.0)
    non_optimal = [r.status for r in results if r.status != sdp.STATUS_OPTIMAL]
    return DivergenceParts(
        d=math.sqrt(d_squared),
        d_squared=d_squared,
        cross=cross,
        self_rho=self_rho,
        self_omega=self_omega,
        gap=max(r.gap for r in results),
        max_equality_residual=max(r.certificate.max_equality_residual for r in results),
        status=non_optimal[0] if non_optimal else sdp.STATUS_OPTIMAL,
    )


@dataclass(frozen=True)
class GapDemoResult:
    nonlinear: float
    linearized: float
    factor_values: tuple[float, ...]
    gap: float
    status: str

    @property
    def difference(self) -> float:
        return self.nonlinear - self.linearized


def gap_demo(p: float) -> GapDemoResult:
    """Strict gap between the independent-plan and correlated-plan optima.

    Fixed demonstration instance: Pauli-triple observables with per-factor
    cost ``|x - y|^p`` between the commuting states of opposite z-polarization
    one half.  The independent (nonlinear) optimum is one SDP with the summed
    cost; the relaxed optimum is the sum of three single-pair SDPs and is
    strictly smaller.
    """
    rho = np.diag([0.75, 0.25]).astype(complex)
    omega = np.diag([0.25, 0.75]).astype(complex)
    observables = cost_mod.pauli_triple()
    joint = wasserstein_distance(factorized_instance(rho, omega, observables, p, MODE_NONLINEAR))
    decomposed = solve_linearized_decomposed(
        factorized_instance(rho, omega, observables, p, MODE_LINEARIZED)
    )
    results = [joint, *decomposed.factor_results]
    non_optimal = [r.status for r in results if r.status != sdp.STATUS_OPTIMAL]
    return GapDemoResult(
        nonlinear=joint.primal_objective,
        linearized=decomposed.total,
        factor_values=decomposed.factor_values,
        gap=max(r.gap for r in results),
        status=non_optimal[0] if non_optimal else sdp.STATUS_OPTIMAL,
    )
