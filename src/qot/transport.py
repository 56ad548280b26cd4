"""Couplings, transport problems as SDP data, and distances from solver output.

A coupling of states ``rho`` and ``omega`` is a state on the pair space
``H (x) H*`` whose first-slot marginal is ``omega`` and whose second-slot
marginal is ``rho.T``.  The multipartite relaxation replaces the K-fold
product of one coupling by a single correlated plan on ``(H (x) H*)^(x K)``
constrained to have the coupling marginals on every pair of slots.  Every
coupling lives on ``supp(omega) (x) supp(rho^T)`` of each pair, so the
problem is posed on that face (:class:`SupportFace`) and its plan and
potentials are lifted back; with full-rank states the face is the space.

The primal (minimize the cost against the plan) and its operator-potential
dual (maximize ``sum_k tr(omega Y_k) + tr(rho X_k)`` under the joint slack
inequality) are assembled in one standard conic form and solved together by
the primal-dual interior-point engine, which yields the plan, the
potentials, and a duality-gap certificate in a single run, with its trace
(``result.solution.trace``) and the seconds of each phase (``timings``).
The result returns once certified; the plan and potentials are decoded, and
the optimal face probed, on first read (:class:`TransportResult`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import cost as cost_mod
from . import linalg, sdp
from .linalg import FactorShape

__all__ = [
    "MODE_JOINT",
    "MODE_LINEARIZED",
    "MODE_NONLINEAR",
    "TransportInstance",
    "SupportFace",
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
    "solve_log",
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
# Least eigenvalue of a declared start: 100 times the rounding n eps at n = 400.
INTERIOR_FLOOR = 1e-11


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
    # the least eigenvalues of (rho, omega) that validated them, which
    # ``support`` reads instead of factoring the states again; None when
    # the states were not validated here
    minima: tuple[float, float] | None = field(default=None, repr=False, compare=False)

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

    @functools.cached_property
    def support(self) -> "SupportFace":
        """The face of the plan space that holds every coupling (:class:`SupportFace`)."""
        states = (self.omega, self.rho)
        minima = linalg.min_eigenvalues(states) if self.minima is None else self.minima[::-1]
        if all(lam > linalg.DENSITY_ATOL for lam in minima):
            shifts = [(1 - s.trace().real) / len(s) for s in states]
            unit = [s + shift * np.eye(len(s)) for s, shift in zip(states, shifts)]
            lows = tuple(lam + shift for lam, shift in zip(minima, shifts))
            return SupportFace(*unit, self.pairs, lows)
        restricted = []
        for s in states:
            vals, vecs = np.linalg.eigh(s)
            kept = vals > linalg.DENSITY_ATOL
            v = vecs[:, kept]
            r = linalg.hermitian(v.conj().T @ s @ v)
            trace = r.trace().real
            restricted.append((r / trace, v, float(vals[~kept].sum()), float(vals[kept][0] / trace)))
        (omega, v_omega, cut_omega, low_omega), (rho, v_rho, cut_rho, low_rho) = restricted
        return SupportFace(
            omega, rho, self.pairs, (low_omega, low_rho), v_omega, v_rho, cut_omega, cut_rho
        )

    def plan_cost(self) -> np.ndarray:
        """Cost operator acting on the plan variable of this mode."""
        if self.mode == MODE_NONLINEAR:
            return sum(self.factor_costs)
        if self.factor_costs and self.mode == MODE_LINEARIZED:
            return cost_mod.embedded_cost_sum(self.factor_costs, self.dim)
        return self.joint_cost


def _states(
    rho: np.ndarray, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """The validated states and their least eigenvalues, from one stacked
    spectrum (:func:`linalg.densities`); an error names the state."""
    (rho, omega), minima = linalg.densities([rho, omega], names=("rho", "omega"))
    if rho.shape != omega.shape:
        raise ValueError("states must share one dimension")
    return rho, omega, tuple(minima)


def joint_instance(rho, omega, cost: np.ndarray, p: float = 1.0) -> TransportInstance:
    rho, omega, minima = _states(rho, omega)
    cost = linalg.hermitian(cost)
    if cost.shape[0] != rho.shape[0] ** 2:
        raise ValueError("joint cost must act on the pair space of the states")
    return TransportInstance(rho, omega, p, MODE_JOINT, joint_cost=cost, minima=minima)


def factorized_instance(
    rho, omega, observables: cost_mod.ObservableSet, p: float, mode: str = MODE_NONLINEAR
) -> TransportInstance:
    """Per-observable cost ``|x - y|^p``; modes ``nonlinear`` or ``linearized``."""
    rho, omega, minima = _states(rho, omega)
    if observables.dim != rho.shape[0]:
        raise ValueError("state dims must equal the observable dim")
    pairs = observables.size if mode == MODE_LINEARIZED else 1
    return TransportInstance(
        rho, omega, p, mode, pairs=pairs, factor_costs=observables.factor_costs(p), minima=minima
    )


def general_instance(
    rho,
    omega,
    observables: cost_mod.ObservableSet,
    classical: cost_mod.ClassicalCost,
    p: float = 1.0,
    mode: str = MODE_LINEARIZED,
) -> TransportInstance:
    """Joint classical cost over K observables; one multipartite SDP."""
    rho, omega, minima = _states(rho, omega)
    matrix = cost_mod.cost_operator_general(observables, classical)
    if observables.size == 1 or mode == MODE_JOINT:
        if observables.size != 1:
            raise ValueError("joint mode needs a single observable")
        return TransportInstance(rho, omega, p, MODE_JOINT, joint_cost=matrix, minima=minima)
    if mode != MODE_LINEARIZED:
        raise ValueError("a non-factorized cost only supports joint or linearized mode")
    return TransportInstance(
        rho, omega, p, MODE_LINEARIZED, pairs=observables.size, joint_cost=matrix,
        minima=minima,
    )


def symm_instance(rho, omega, p: float) -> TransportInstance:
    """Symmetric three-Pauli qubit cost; the distance is the K=1 optimum."""
    rho, omega, minima = _states(rho, omega)
    if rho.shape[0] != 2:
        raise ValueError("the symmetric cost is a qubit cost")
    return TransportInstance(
        rho, omega, p, MODE_JOINT, joint_cost=cost_mod.cost_symm(p), minima=minima
    )


def z_instance(rho, omega, p: float) -> TransportInstance:
    """Single-``sigma_z`` qubit cost."""
    rho, omega, minima = _states(rho, omega)
    if rho.shape[0] != 2:
        raise ValueError("the sigma_z cost is a qubit cost")
    return TransportInstance(
        rho, omega, p, MODE_JOINT, joint_cost=cost_mod.cost_z(p), minima=minima
    )


@dataclass(frozen=True)
class SupportFace:
    """The face ``(supp(omega) (x) supp(rho^T))^(x pairs)`` that holds every coupling.

    A coupling ``X`` has ``tr(X (vv* (x) I)) = <v, omega v>`` on each pair, so
    ``X >= 0`` vanishes on ``v (x) .`` for ``v`` outside ``supp(omega)``, and
    likewise on the second slot: with a rank-deficient state the feasible set
    has no interior.  ``v_omega`` and ``v_rho`` are isometries onto the
    supports, the eigenvectors whose eigenvalues exceed
    ``linalg.DENSITY_ATOL`` (the validator's zero), and ``omega`` and ``rho``
    are the states restricted to them, renormalised to unit trace.
    ``cut_omega`` and ``cut_rho`` are the mass the restriction cuts from each
    state, the sum of the eigenvalues it drops.  When both states have full
    rank the face is the whole space: the isometries are None, nothing is
    conjugated, nothing is cut and a multiple of the identity sets the
    traces to 1.  ``minima`` holds the least eigenvalues of ``omega`` and
    ``rho`` as the face holds them, from the spectra that found the face:
    on the whole space the validated states' minima plus that multiple, on a
    cut face the least kept eigenvalue over the restricted trace.
    """

    omega: np.ndarray
    rho: np.ndarray
    pairs: int
    minima: tuple[float, float]
    v_omega: np.ndarray | None = None
    v_rho: np.ndarray | None = None
    cut_omega: float = 0.0
    cut_rho: float = 0.0

    @functools.cached_property
    def shape(self) -> FactorShape:
        return FactorShape((len(self.omega), len(self.rho)) * self.pairs)

    @functools.cached_property
    def isometry(self) -> np.ndarray | None:
        """``V = (V_omega (x) conj(V_rho))^(x pairs)``, or None on the whole space."""
        if self.v_omega is None:
            return None
        return linalg.kron_all([self.v_omega, self.v_rho.conj()] * self.pairs)

    def restrict(self, m: np.ndarray) -> np.ndarray:
        """The Hermitian part of ``V* m V``: a Hermitian plan-space operator
        read on the face.  The product's rounding breaks its symmetry in
        proportion to ``|m|``, past ``linalg.HERMITIAN_ATOL`` once cost
        entries reach about 1e4 (observables scaled by 30 at d = 3), so it is
        repaired here, where it arises."""
        v = self.isometry
        if v is None:
            return m
        r = v.conj().T @ m @ v
        return 0.5 * (r + r.conj().T)

    def lift(self, m: np.ndarray) -> np.ndarray:
        """``V m V*``: an operator on the face as one on the plan space."""
        v = self.isometry
        return m if v is None else v @ m @ v.conj().T

    def lift_potentials(self, pots: "DualPotentials") -> "DualPotentials":
        """``(V_rho X_k V_rho*, V_omega Y_k V_omega*)``: zero off the supports."""
        if self.v_omega is None:
            return pots
        return DualPotentials(
            tuple(self.v_rho @ x @ self.v_rho.conj().T for x in pots.xs),
            tuple(self.v_omega @ y @ self.v_omega.conj().T for y in pots.ys),
        )


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
    rho, omega, _ = _states(rho, omega)
    return Coupling(linalg.kron(omega, rho.T), FactorShape.pair_space(rho.shape[0]), rho, omega)


def purification_coupling(rho: np.ndarray) -> Coupling:
    """Rank-one plan ``|sqrt(rho)>><<sqrt(rho)|`` with marginals (rho, rho.T)."""
    rho = linalg.density(rho)
    return Coupling(
        linalg.outer_vec(linalg.sqrt_psd(rho)), FactorShape.pair_space(rho.shape[0]), rho, rho
    )


# Each face shape's constraints are built once and kept for the life of the
# process, shared read-only by every problem posed on that shape.  The key is
# ``face.shape``: plans up to sdp.MAX_VARIABLE_DIM have 424 face shapes (and
# ``(1, 1) * pairs`` of one-dimensional states, 1 x 1 each).  A structure
# takes about 16 (r_omega^4 + r_rho^4) bytes, 5.1 MB at ranks 20 x 20, so a
# process that solved every shape would hold 0.46 GB, and one whose ranks
# stay at most 8 (every bench and perfbench workload) 2.6 MB.


@functools.cache
def _marginal_terms(shape: FactorShape) -> tuple[tuple[int, np.ndarray], ...]:
    """``(slot, Hermitian basis element)`` of each traceless marginal
    functional on a face of ``shape`` in constraint order: per pair, the two
    slots' elements alternate while both last."""
    first, second = (linalg.hermitian_basis(d)[1:] for d in shape.dims[:2])
    terms = []
    for k in range(shape.n_factors // 2):
        for pair in itertools.zip_longest(first, second):
            terms += [(2 * k + side, b) for side, b in enumerate(pair) if b is not None]
    return tuple(terms)


@functools.cache
def _marginal_stacks(shape: FactorShape) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per side of a pair, first slot then second: ``(basis, rows)``, the
    side's elements of :func:`_marginal_terms` as one stack ``(k, r, r)``, a
    view of ``linalg.hermitian_basis`` (no copy: at r = 20 a stack takes
    2.6 MB), and the indices ``(pairs, k)`` of their functionals among the
    constraints of :func:`_marginal_operators` (the trace first), each
    pair's in basis order.  Read-only, built once a shape."""
    slots = np.array([slot for slot, _ in _marginal_terms(shape)], dtype=int)
    out = []
    for side in (0, 1):
        basis = linalg.hermitian_basis(shape.dims[side])[1:]
        rows = 1 + np.flatnonzero(slots % 2 == side).reshape(shape.n_factors // 2, len(basis))
        rows.setflags(write=False)
        out.append((basis, rows))
    return tuple(out)


def _marginal_operators(shape: FactorShape) -> list[tuple[int, np.ndarray]]:
    """``(slot, local operator)`` of one global trace constraint, the identity
    at slot 0, and of the traceless marginal functionals.

    The identity component of every marginal encodes the same unit-trace
    condition; keeping a single copy leaves a full-row-rank system.  A second
    slot reads its state transposed, so its operators are the transposed
    basis elements.
    """
    trace = (0, np.eye(shape.dims[0], dtype=complex))
    return [trace] + [(slot, b.T if slot % 2 else b) for slot, b in _marginal_terms(shape)]


@functools.cache
def _face_structure(shape: FactorShape) -> sdp.SlotStructure:
    """The validated, lifted constraints of every plan on a face of ``shape``
    (:func:`_marginal_operators`), declared once a shape."""
    return sdp.slot_structure(shape, _marginal_operators(shape))


def _marginal_values(face: SupportFace) -> np.ndarray:
    """The targets of :func:`_marginal_operators` on ``face``: the unit trace,
    then ``Re tr(state b)`` of each basis element with the state of its slot,
    one stacked product and trace a side (:func:`_marginal_stacks`)."""
    stacks = _marginal_stacks(face.shape)
    values = np.empty(1 + sum(rows.size for _, rows in stacks))
    values[0] = 1.0
    for state, (basis, rows) in zip((face.omega, face.rho), stacks):
        values[rows] = (state @ basis).trace(axis1=1, axis2=2).real
    return values


def build_primal(instance: TransportInstance) -> sdp.SdpProblem:
    """Minimize the plan cost over PSD plans with the coupling marginals,
    posed on the support face (``instance.support``).

    On the face the plan is ``X_r`` with ``X = V X_r V*``, the cost is
    ``V* C V`` and the marginals are the restricted states, on slots
    ``(r_omega, r_rho)`` per pair; there the feasible set has an interior.
    When both states have full rank this is the problem on the whole space.
    The solve starts at the product coupling ``(omega_r (x) rho_r^T)^(x pairs)``,
    positive definite on the face; when its least eigenvalue, the product of
    the states', is below ``INTERIOR_FLOOR``, it starts at ``tau I`` instead.

    The constraints are the face shape's, declared once a shape and shared
    (:func:`_face_structure`); per problem only the cost, the marginal values
    and the start are computed and checked (:func:`sdp.pose`).

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
    face = instance.support
    low_omega, low_rho = face.minima
    floor = (low_omega * low_rho) ** face.pairs
    x0 = linalg.kron_all([face.omega, face.rho.T] * face.pairs) if floor > INTERIOR_FLOOR else None
    return sdp.pose(
        _face_structure(face.shape), face.restrict(instance.plan_cost()), _marginal_values(face),
        interior=x0,
    )


def potentials_from_multipliers(instance: TransportInstance, y: np.ndarray) -> "DualPotentials":
    """Decode the multipliers of ``build_primal(instance)`` into operator
    potentials (X_k, Y_k) on the support face; ``instance.support.lift_potentials``
    carries them to the whole space.

    The gauge is fixed by assigning the whole identity component to the
    departure-side potential of the first factor; this does not change the
    dual objective because both states have unit trace.
    """
    face = instance.support
    stacks = _marginal_stacks(face.shape)
    m = 1 + sum(rows.size for _, rows in stacks)
    if len(y) != m:
        raise ValueError(f"{len(y)} multipliers for {m} constraints")
    ys, xs = (
        # the sum over axis 0 adds term by term in basis order, as a loop
        # would; 0.0 + turns a sum of signed zeros into the loop's +0.0
        [0.0 + (y[pair, None, None] * basis).sum(axis=0) for pair in rows]
        for basis, rows in stacks
    )
    xs[0] += y[0] * np.eye(len(face.rho))
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


def potential_slack(plan_cost: np.ndarray, pots: DualPotentials) -> np.ndarray:
    """``C - sum_k embed(Y_k (x) I + I (x) X_k.T)``; PSD iff feasible.  The
    slots take their dimensions from the potentials."""
    k = pots.n_factors
    shape = FactorShape(tuple(len(m) for pair in zip(pots.ys, pots.xs) for m in pair))
    slack = np.asarray(plan_cost, dtype=complex).copy()
    for idx in range(k):
        slack -= linalg.embed_at_slot(pots.ys[idx], 2 * idx, shape)
        slack -= linalg.embed_at_slot(pots.xs[idx].T, 2 * idx + 1, shape)
    return slack


@dataclass(frozen=True)
class TransportResult:
    """One solved instance.  ``solution`` and ``certificate`` belong to the
    SDP that was solved, the one posed on the support face
    (:class:`SupportFace`); ``primal_objective``, ``dual_objective`` and
    ``gap`` are ``certificate``'s, and ``dp`` is the primal objective floored
    at 0; ``cut_rho`` and ``cut_omega`` are the mass of each state left off
    the face, 0.0 on full rank.

    The diagnostics are two units, each computed once, on its first read,
    from the solve's own data, and each adds its seconds to ``timings`` when
    it runs:

    - the decode: ``coupling`` and ``potentials``, on the whole plan space,
      lifted from the face, and ``dual_attained``, read on the face
      (``timings["decode"]``);
    - the face probe: ``degenerate_face``, read on the face
      (``timings["face_probe"]``).

    A value read is bitwise the value an eager computation gives, in any
    order of reads.  For them the result holds the instance and the posed
    problem without its start (the face cost, the values and the structure),
    no other array."""

    distance: float
    dp: float
    primal_objective: float
    dual_objective: float
    gap: float
    status: str
    cut_rho: float
    cut_omega: float
    solution: sdp.SdpSolution
    certificate: sdp.Certificate
    timings: dict  # seconds per phase that ran; their sum is the solve so far
    _instance: TransportInstance = field(repr=False)
    _problem: sdp.SdpProblem = field(repr=False)

    @functools.cached_property
    def _decoded(self) -> tuple[Coupling, DualPotentials, bool]:
        start = time.perf_counter()
        instance, problem, solution = self._instance, self._problem, self.solution
        face = instance.support
        coupling = Coupling(face.lift(solution.x), instance.plan_shape, instance.rho, instance.omega)
        potentials = potentials_from_multipliers(instance, solution.y)
        pot_obj = potential_objective(face.rho, face.omega, potentials)
        dual = self.certificate.dual_objective
        attained = (
            abs(pot_obj - dual) <= 1e-7 * max(1.0, abs(dual))
            and linalg.min_eigenvalue(potential_slack(problem.objective, potentials)) >= -SLACK_TOL
        )
        decoded = coupling, face.lift_potentials(potentials), attained
        self.timings["decode"] = time.perf_counter() - start
        return decoded

    @property
    def coupling(self) -> Coupling:
        return self._decoded[0]

    @property
    def potentials(self) -> DualPotentials:
        return self._decoded[1]

    @property
    def dual_attained(self) -> bool:
        return self._decoded[2]

    @functools.cached_property
    def degenerate_face(self) -> bool:
        start = time.perf_counter()
        degenerate = _optimal_face_dimension(self.solution, self._problem) > 0
        self.timings["face_probe"] = time.perf_counter() - start
        return degenerate


_SOLVE_LOG: contextvars.ContextVar[list | None] = contextvars.ContextVar("solve_log", default=None)


@contextlib.contextmanager
def solve_log() -> Iterator[list[tuple[str, str]]]:
    """A list that receives ``(status, reason)`` of every
    :func:`wasserstein_distance` solve made inside the block, infeasible ones
    included."""
    log: list[tuple[str, str]] = []
    token = _SOLVE_LOG.set(log)
    try:
        yield log
    finally:
        _SOLVE_LOG.reset(token)


def wasserstein_distance(instance: TransportInstance, *, tol: float = sdp.TOL) -> TransportResult:
    """Solve the primal/dual pair; the distance is the optimum to the 1/p.

    The result is returned once the solve is certified: ``timings`` then
    holds ``build``, ``preprocess``, ``iterate`` and ``certify``.  The decode
    and the face probe run on the first read of one of their values
    (:class:`TransportResult`), and add ``decode`` and ``face_probe``."""
    start = time.perf_counter()
    problem = build_primal(instance)
    built = time.perf_counter()
    solution = sdp.solve(problem, tol=tol)
    log = _SOLVE_LOG.get()
    if log is not None:
        log.append((solution.status, solution.reason))
    if solution.status == sdp.STATUS_INFEASIBLE:
        raise SolverFailure("transport problem reported infeasible marginals")
    timings = {"build": built - start, **solution.timings}
    face = instance.support
    certificate = solution.certificate
    dp = max(certificate.primal_objective, 0.0)
    return TransportResult(
        distance=dp ** (1.0 / instance.p),
        dp=dp,
        primal_objective=certificate.primal_objective,
        dual_objective=certificate.dual_objective,
        gap=certificate.gap,
        status=solution.status,
        cut_rho=face.cut_rho,
        cut_omega=face.cut_omega,
        solution=solution,
        certificate=certificate,
        timings=timings,
        _instance=instance,
        # the posed problem without its start, which only the solve reads
        _problem=sdp.SdpProblem(problem.objective, problem.constraint_vals, problem.structure),
    )


def _optimal_face_dimension(solution: sdp.SdpSolution, problem: sdp.SdpProblem) -> int:
    """Dimension of the primal optimal face around the returned plan.

    Optimal plans are the PSD matrices supported on the kernel of the dual
    slack that satisfy the equality constraints; the face is a single point
    exactly when the constraints restricted to that kernel block have full
    rank.  A positive dimension flags multiple minimizers.  When the kept
    constraints number ``n^2`` they pin the plan, and a point has no other
    minimizer: no factorization is taken.
    """
    if len(problem.structure.rank_decision[0]) == problem.dim ** 2:
        return 0
    vals, vecs = np.linalg.eigh(solution.s)
    scale = max(1.0, float(vals[-1]))
    kernel = vecs[:, vals < FACE_RANK_TOL * scale]
    k = kernel.shape[1]
    if k == 0:
        return 0
    flat = sdp.compressed_constraints(problem, kernel).reshape(problem.n_constraints, -1)
    singular = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1), compute_uv=False)
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


def _status_and_gap(results: list[TransportResult]) -> tuple[str, float]:
    """The first non-optimal status of several solves, else optimal, and
    their largest gap."""
    optimal = sdp.STATUS_OPTIMAL
    status = next((r.status for r in results if r.status != optimal), optimal)
    return status, max(r.gap for r in results)


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
    cross = factorized_instance(rho, omega, observables, 2.0, MODE_NONLINEAR)
    low_rho, low_omega = cross.minima
    instances = [cross, replace(cross, omega=cross.rho, minima=(low_rho, low_rho)),
                 replace(cross, rho=cross.omega, minima=(low_omega, low_omega))]
    results = [wasserstein_distance(instance) for instance in instances]
    cross, self_rho, self_omega = (r.dp for r in results)
    radicand = cross - 0.5 * (self_rho + self_omega)
    if radicand < -1e-9:
        raise SolverFailure(f"negative squared divergence {radicand:.3e}")
    d_squared = max(radicand, 0.0)
    status, gap = _status_and_gap(results)
    return DivergenceParts(
        d=math.sqrt(d_squared),
        d_squared=d_squared,
        cross=cross,
        self_rho=self_rho,
        self_omega=self_omega,
        gap=gap,
        max_equality_residual=max(r.certificate.max_equality_residual for r in results),
        status=status,
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
    status, gap = _status_and_gap([joint, *decomposed.factor_results])
    return GapDemoResult(
        nonlinear=joint.primal_objective,
        linearized=decomposed.total,
        factor_values=decomposed.factor_values,
        gap=gap,
        status=status,
    )
