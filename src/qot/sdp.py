"""Dense semidefinite programming over the complex Hermitian cone.

Standard form:

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..m),    X >= 0 (PSD),

with ``<A, B> = Re tr(A* B)`` on Hermitian matrices.  The solver is a
primal-dual path-following interior-point method with Nesterov-Todd
symmetric scaling and Mehrotra predictor-corrector steps; the Newton
system is reduced to a dense Schur complement of size ``m``.  One iteration
serves every plan size: it factors the iterates by Cholesky and takes step
lengths from eigenvalues in the scaled frame, where both iterates are
diagonal.  Constraints are declared once, as local operators on tensor slots
(:func:`slot_problem`; :func:`sdp_problem` declares one slot spanning the
space), and :func:`_slot_reads` makes the one size decision: multi-slot
plans of at least ``STRUCTURED_MIN_DIM`` read everything through the slots
(rank test on slot coordinates, constraints and adjoint through slot
marginals and embeddings, and a Schur matrix formed from partial-trace
contractions of the scaling matrix, Cholesky-factored, shifted if the
factorization breaks down, and refined against the formed matrix); other
problems read the dense stack, built from the slots on first read, and
QR-factor the scaled constraints.  A run that stops short with a large
primal residual is labelled infeasible when its multipliers point along a
Farkas ray (:func:`_farkas_ray`).  The iteration starts at ``y = 0``, ``S = tau I`` and
``X`` at the declared ``SdpProblem.interior``, else at ``tau I``.  The dual

    maximize    b . y
    subject to  S = C - sum_i y_i A_i >= 0

is solved simultaneously; a solution therefore carries a primal matrix,
dual multipliers, a dual slack and a duality-gap certificate, and its
record as data: a trace row per iteration and the seconds of each phase.

The Hermitian cone is handled natively over the real vector space of
Hermitian matrices (no real-symmetric doubling), which halves the Newton
system size and avoids eigenvalue duplication artifacts.  The method is
deterministic at a fixed BLAS thread count: fixed iteration schedule, no
randomized pivoting (the thread count changes the rounding of BLAS kernels).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg

__all__ = [
    "SdpProblem",
    "SlotStructure",
    "SdpSolution",
    "PreprocessReport",
    "Certificate",
    "sdp_problem",
    "slot_problem",
    "preprocess",
    "solve",
    "certify",
    "MAX_VARIABLE_DIM",
]

MAX_VARIABLE_DIM = 400

# Interior-point iteration: one tolerance bounds the primal and dual
# residuals and the relative duality gap.
TOL = 1e-8
MAX_ITER = 200
STEP_FRACTION = 0.98
MU_FLOOR = 1e-12
SCHUR_COND_LIMIT = 1e14
# An entry of X, S or y above this stops the run before a product of two
# entries can overflow.
DIVERGENCE_LIMIT = math.sqrt(np.finfo(float).max)
# Multi-slot plans of at least this dimension are read slot by slot
# (_slot_reads); smaller ones read the dense stack and QR-factor the scaled
# constraints.  Measured with perfbench seed 3, two runs per side, one BLAS
# thread on a 2-core x86_64 host: with slot reads on every plan, qubit-sweep
# instances_per_s fell from 245 to 161 and rank-deficient from 172 to 130, its
# certified_frac from 0.987 to 0.909; with slot constraint maps but the QR
# kept, qubit-sweep fell from 241 to 194; with a Cholesky-formed Schur matrix
# on small plans, qubit-sweep was unchanged but rank-deficient certified_frac
# fell to 0.909 (21 of 231 solves uncertified, against 3).  The dense maps
# save call overhead; the QR is the accurate route on small plans.
STRUCTURED_MIN_DIM = 25
# Refinement steps of a Schur solve; fixed, so solves stay deterministic.  The
# Cholesky factor of a formed Schur matrix takes two, which also remove a
# breakdown shift's bias; the QR factor of the scaled constraints takes one
# (strong-duality solves of perfbench qubit-sweep seeds 1-24 ended uncertified
# 6 times without refinement, 2 with one step, 3 with two).
SCHUR_REFINEMENT_STEPS = 2
QR_REFINEMENT_STEPS = 1
# preprocess: relative rank threshold of a constraint row, and the relative
# residue of a dependent row's value that marks the system inconsistent.
PREPROCESS_RANK_TOL = 1e-10
PREPROCESS_CONSISTENCY_TOL = 1e-8
INTERIOR_TOL = 1e-12  # a declared interior point meets its constraints to this, relative

# Certification thresholds (independent recomputation of the solution).
CERT_EQ_TOL = 1e-8
CERT_DUAL_TOL = 1e-8
CERT_PSD_TOL = 1e-9
CERT_GAP_TOL = 1e-7

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible"
STATUS_NUMERICAL = "numerical"

# Why a solve stopped (``SdpSolution.reason``), and the status it reports.
REASON_STATUS = {
    "converged": STATUS_OPTIMAL,
    "max_iter": STATUS_MAX_ITER,
    "mu_floor": STATUS_NUMERICAL,
    "schur_conditioning": STATUS_NUMERICAL,
    "stalled_step": STATUS_NUMERICAL,
    "diverged": STATUS_NUMERICAL,
    "preprocess_infeasible": STATUS_INFEASIBLE,
    # a max-iter or numerical stop with a large primal residual whose
    # multipliers point along a Farkas ray (_farkas_ray)
    "reclassified_infeasible": STATUS_INFEASIBLE,
}


@dataclass(frozen=True)
class SlotStructure:
    """Constraint ``i`` is ``embed_at_slot(local_ops[i], slots[i], shape)``."""

    shape: linalg.FactorShape
    slots: tuple[int, ...]
    local_ops: tuple[np.ndarray, ...]

    def rows(self, keep: Sequence[int]) -> "SlotStructure":
        return SlotStructure(
            self.shape, tuple(self.slots[i] for i in keep), tuple(self.local_ops[i] for i in keep)
        )

    @functools.cached_property
    def groups(self) -> tuple[tuple[int, np.ndarray, np.ndarray, tuple[int, int, int]], ...]:
        """``(slot, rows, ops, (outer, d, inner))`` per occupied slot: the
        constraint indices at the slot, their operators flattened to
        ``(len(rows), d*d)``, and the dimensions before, at and after it."""
        slots = np.array(self.slots)
        out = []
        for slot in np.unique(slots):
            rows = np.flatnonzero(slots == slot)
            ops = np.stack([self.local_ops[i].reshape(-1) for i in rows])
            out.append((int(slot), rows, ops, self.shape.frame(int(slot))))
        return tuple(out)

    def coordinates(self) -> np.ndarray:
        """Rows ``(m, 1 + sum d_s^2)`` with the Gram matrix of the constraints.

        ``embed_at_slot(B, s)`` is ``tr(B)/d_s`` times the identity plus the
        embedded traceless part ``B0``; the embedded traceless parts of
        different slots are orthogonal to each other and to the identity, and
        their norms scale by ``sqrt(n/d_s)``.  The coordinates are therefore
        ``sqrt(n) tr(B)/d_s`` on one identity axis and ``sqrt(n/d_s)`` times
        the Hermitian coordinates of ``B0`` in slot ``s``'s block.
        """
        dims = self.shape.dims
        n = self.shape.total_dim
        offsets = np.cumsum([1] + [d * d for d in dims])
        out = np.zeros((len(self.slots), offsets[-1]))
        for slot, rows, ops, (_, d, _) in self.groups:
            mean = ops[:, :: d + 1].sum(axis=1).real / d
            traceless = ops.copy()
            traceless[:, :: d + 1] -= mean[:, None]
            traceless = traceless.reshape(-1, d, d)
            out[rows, 0] = math.sqrt(n) * mean
            out[rows, offsets[slot]:offsets[slot + 1]] = (
                math.sqrt(n / d) * _hermitian_coords(traceless)
            )
        return out


@dataclass(frozen=True)
class SdpProblem:
    """Conic program data: objective, targets and constraints, declared once as
    local operators on tensor slots (:func:`sdp_problem` has one slot spanning
    the space).  ``constraint_ops``, their dense stack, is built on first read
    and cached.
    """

    objective: np.ndarray        # (n, n) Hermitian
    constraint_vals: np.ndarray  # (m,) real
    structure: SlotStructure
    interior: np.ndarray | None = None  # positive definite, A(X) = b: solve's start

    @functools.cached_property
    def constraint_ops(self) -> np.ndarray:
        st = self.structure
        n = st.shape.total_dim
        ops = np.zeros((len(st.slots), n, n), dtype=complex)
        for slot, rows, local, (_, d, _) in st.groups:
            linalg.slot_view(ops, slot, st.shape)[rows] = local.reshape(-1, 1, 1, d, d)
        ops.setflags(write=False)
        return ops

    @property
    def dim(self) -> int:
        return self.objective.shape[0]

    @property
    def n_constraints(self) -> int:
        return len(self.constraint_vals)


def sdp_problem(
    objective: np.ndarray, constraints: Sequence[tuple[np.ndarray, float]]
) -> SdpProblem:
    """Validate and pack a minimize-form problem: one slot spans the space."""
    c = linalg.hermitian(objective)
    return slot_problem(c, linalg.FactorShape((len(c),)), [(0, a, b) for a, b in constraints])


def slot_problem(
    objective: np.ndarray,
    shape: linalg.FactorShape,
    constraints: Sequence[tuple[int, np.ndarray, float]],
    *, interior: np.ndarray | None = None,
) -> SdpProblem:
    """Validate and pack a problem whose constraints ``(slot, op, b)`` read
    ``<embed_at_slot(op, slot, shape), X> = b``.  It keeps only the objective,
    the values and the slot structure, each local operator validated and
    symmetrized once; ``constraint_ops`` derives the dense stack on demand.
    A declared ``interior`` must be Cholesky-positive definite and meet the constraints to rounding.
    """
    c = linalg.hermitian(objective)
    if c.shape[0] > MAX_VARIABLE_DIM:
        raise ValueError(f"variable dimension {c.shape[0]} exceeds {MAX_VARIABLE_DIM}")
    if c.shape[0] != shape.total_dim:
        raise ValueError(f"objective dimension {c.shape[0]} does not match the slots {shape.dims}")
    if not constraints:
        raise ValueError("at least one equality constraint is required")
    slots = tuple(int(slot) for slot, _, _ in constraints)
    local_ops = []
    for slot, (_, op, _) in zip(slots, constraints):
        op = linalg.hermitian(op)
        if not 0 <= slot < shape.n_factors or op.shape[0] != shape.dims[slot]:
            raise ValueError(f"operator shape {op.shape} does not fit slot {slot} of {shape.dims}")
        local_ops.append(op)
    vals = np.array([float(b) for _, _, b in constraints])
    structure = SlotStructure(shape, slots, tuple(local_ops))
    if interior is not None:
        interior = linalg.hermitian(interior)
        if interior.shape != c.shape:
            raise ValueError(f"interior point shape {interior.shape} does not match {c.shape}")
        try:
            np.linalg.cholesky(interior)
        except np.linalg.LinAlgError:
            raise ValueError("interior point is not positive definite") from None
        miss = float(np.abs(_slot_applied(interior, structure) - vals).max())
        if miss > INTERIOR_TOL * max(1.0, float(np.abs(vals).max())):
            raise ValueError(f"interior point misses the constraints by {miss:.3e}")
    for arr in (c, vals, *local_ops, *([] if interior is None else [interior])):
        arr.setflags(write=False)
    if shape.n_factors > 1:
        return SdpProblem(c, vals, structure, interior)
    # one slot: the local operators are the dense ones, kept once as a stack
    stack = np.stack(local_ops)
    stack.setflags(write=False)
    problem = SdpProblem(c, vals, SlotStructure(shape, slots, tuple(stack)), interior)
    return _with_stack(problem, stack)


def _with_stack(problem: SdpProblem, ops: np.ndarray) -> SdpProblem:
    """``problem`` with ``ops``, a dense stack already built, as its cached
    ``constraint_ops``."""
    vars(problem)["constraint_ops"] = ops
    return problem


@dataclass(frozen=True)
class PreprocessReport:
    kept: tuple[int, ...]
    removed: tuple[int, ...]
    infeasible: bool
    max_inconsistency: float


def preprocess(problem: SdpProblem) -> tuple[SdpProblem, PreprocessReport]:
    """Drop linearly dependent constraint rows; detect inconsistent duplicates.

    Row ``k`` is kept when the norm of its component orthogonal to the kept
    rows before it exceeds ``PREPROCESS_RANK_TOL * max(|row k|, 1)``.  With
    every row before ``k`` kept, that norm is ``|R_kk|`` of an unpivoted QR of
    the rows, so a system without dependent rows takes one QR.  The QR would count a
    dependent row's rounding residue as a direction, so each dependent row
    found is dropped and the remaining rows are factorized again.  Slot reads
    (:func:`_slot_reads`) use the short coordinates of
    :meth:`SlotStructure.coordinates`, with the Gram matrix of the
    real-vectorized dense rows; other problems use those rows.  A
    dependent row whose target value disagrees with the induced combination
    of the kept rows signals an infeasible system.
    """
    vals = problem.constraint_vals
    m = len(vals)
    structure = _slot_reads(problem)
    if structure is not None:
        rows = structure.coordinates()
    else:
        flat = problem.constraint_ops.reshape(m, -1)
        rows = np.hstack([flat.real, flat.imag])
    thresholds = PREPROCESS_RANK_TOL * np.maximum(np.linalg.norm(rows, axis=1), 1.0)

    kept = np.ones(m, dtype=bool)
    while True:
        cols = np.flatnonzero(kept)
        r_diag = np.zeros(len(cols))
        r = np.linalg.qr(rows[cols].T, mode="r")
        r_diag[: len(r)] = np.abs(np.diag(r))
        # rows past the coordinate length are dependent on the rows before
        dependent = np.flatnonzero(r_diag <= thresholds[cols])
        if not len(dependent):
            break
        kept[cols[dependent[0]]] = False
    removed = np.flatnonzero(~kept)
    kept = np.flatnonzero(kept)

    max_inconsistency = 0.0
    infeasible = False
    reduced = problem
    if len(removed):
        coeffs, *_ = np.linalg.lstsq(rows[kept].T, rows[removed].T, rcond=None)
        predicted = coeffs.T @ vals[kept]
        residues = np.abs(vals[removed] - predicted)
        max_inconsistency = float(residues.max())
        infeasible = bool(
            np.any(residues > PREPROCESS_CONSISTENCY_TOL * np.maximum(1.0, np.abs(vals[removed])))
        )
        # a declared interior point meets the kept rows, and so the dropped ones
        reduced = SdpProblem(
            problem.objective, vals[kept], problem.structure.rows(kept), problem.interior
        )
        if structure is None:
            reduced = _with_stack(reduced, problem.constraint_ops[kept])
    report = PreprocessReport(
        tuple(int(i) for i in kept), tuple(int(i) for i in removed), infeasible, max_inconsistency
    )
    return reduced, report


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    reason: str  # a key of REASON_STATUS
    iterations: int
    mu: float
    primal_residual: float
    dual_residual: float
    trace: tuple[dict, ...]  # one row per iteration; see solve
    timings: dict  # seconds of preprocess and iterate

    @property
    def status(self) -> str:
        return REASON_STATUS[self.reason]

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Cholesky factor ``L`` with ``L L* = m``; when ``m`` is not numerically
    positive definite, the eigen factor ``Q diag(sqrt(w))`` with the
    eigenvalues floored at ``1e-15 max(1, w_max)``."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(m)
        w = np.maximum(w, 1e-15 * max(1.0, float(w[-1])))
        return q * np.sqrt(w)


def _nt_scaling(fx: np.ndarray, fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nesterov-Todd scaling ``(R, sig)`` of ``X = Fx Fx*`` and ``S = Fs Fs*``.

    With ``Fs* Fx = U diag(sig) V*`` and ``R = Fx V / sqrt(sig)``, both
    ``R^-1 X R^-*`` and ``R* S R`` are ``diag(sig)``; ``W = R R*`` does not
    depend on which factors are given.
    """
    _, sig, vh = np.linalg.svd(fs.conj().T @ fx)
    sig = np.maximum(sig, 1e-150)
    return fx @ vh.conj().T / np.sqrt(sig), sig


def _frame_eigvals(b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``diag(w)^-1/2 b diag(w)^-1/2`` for Hermitian
    ``b``, or for each matrix of a stack ``b`` with ``w`` one row per matrix
    or one row shared."""
    t = b / np.sqrt(w[..., :, None] * w[..., None, :])
    # 0.5 (t + t*), in place: on large stacks a third temporary would raise
    # the peak memory of a solve
    t += t.conj().swapaxes(-1, -2)
    t *= 0.5
    return np.linalg.eigvalsh(t)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re tr(a b)``."""
    return float(np.einsum("ab,ba->", a, b).real)


def _boundary_step(lam: float) -> float:
    """Largest ``alpha`` with ``1 + alpha * lam >= 0``."""
    if lam >= 0.0:
        return np.inf
    return 1.0 / (-lam)


def _max_steps(deltas: np.ndarray, w: np.ndarray) -> list[float]:
    """Largest ``alpha`` keeping ``diag(w) + alpha * delta`` PSD, for each
    ``delta`` of the stack ``deltas`` (``w`` as in :func:`_frame_eigvals`)."""
    return [_boundary_step(float(lam)) for lam in _frame_eigvals(deltas, w)[:, 0]]


def _hermitian_coords(mat: np.ndarray) -> np.ndarray:
    """Real coordinates of the Hermitian part of ``mat`` (or of a stack of
    them): the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper
    triangle.  For Hermitian ``A`` and ``B`` the dot product of the coordinate
    vectors is ``Re tr(A* B)``."""
    rows, cols = np.triu_indices(mat.shape[-1], 1)
    diag = np.diagonal(mat, axis1=-2, axis2=-1).real
    upper = math.sqrt(2.0) * (0.5 * (mat[..., rows, cols] + mat[..., cols, rows].conj()))
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def _slot_schur(w: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """Schur matrix ``M_ij = Re tr(A_i W A_j W)`` of slot-structured constraints.

    With ``E_ab`` the unit operator ``|a><b|`` embedded at slot ``s`` and
    ``E_ce`` at slot ``t``, ``T_st[(a,b),(c,e)] = tr(E_ab W E_ce W)`` is the
    product ``Y Y*`` of ``W`` reshaped so that its rows are indexed by the
    row index at ``s`` and the column index at ``t``, which costs
    ``d_s d_t n^2``.  The block of the constraints at ``s`` against those at
    ``t`` is ``Re(B_s T_st B_t^T)`` with the flattened operators as rows.
    """
    dims = structure.shape.dims
    k = len(dims)
    tensor = w.reshape(dims + dims)
    groups = structure.groups
    m = len(structure.slots)
    out = np.empty((m, m))
    for g, (s, rows_s, ops_s, _) in enumerate(groups):
        for t, rows_t, ops_t, _ in groups[g:]:
            ds, dt = dims[s], dims[t]
            y = np.moveaxis(tensor, (s, k + t), (0, 1)).reshape(ds * dt, -1)
            gram = (y @ y.conj().T).reshape(ds, dt, ds, dt)
            coupling = gram.transpose(2, 0, 1, 3).reshape(ds * ds, dt * dt)
            block = (ops_s @ coupling @ ops_t.T).real
            if s == t:
                block = 0.5 * (block + block.T)
            out[np.ix_(rows_s, rows_t)] = block
            out[np.ix_(rows_t, rows_s)] = block.T
    return out


def _slot_applied(z: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """``Re tr(A_i Z)`` for every constraint, from the slot marginals of ``Z``."""
    out = np.empty(len(structure.slots))
    for _, rows, ops, (outer, d, inner) in structure.groups:
        marginal = np.einsum("iajibj->ab", z.reshape(outer, d, inner, outer, d, inner))
        # Re tr(A Z) = Re sum_ab B[a, b] marginal[b, a]
        out[rows] = (ops @ marginal.T.reshape(-1)).real
    return out


def _slot_adjoint(y: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """``sum_i y_i A_i``: per slot, the combination of its local operators
    embedded as identity on the other slots."""
    n = structure.shape.total_dim
    out = np.zeros((n, n), dtype=complex)
    for slot, rows, ops, (_, d, _) in structure.groups:
        linalg.slot_view(out, slot, structure.shape)[...] += (y[rows] @ ops).reshape(d, d)
    return out


def _slot_reads(problem: SdpProblem) -> SlotStructure | None:
    """The structure to read ``problem`` through, or None for the dense stack
    (one slot, or a plan below ``STRUCTURED_MIN_DIM``); the solver's only
    size test."""
    large = problem.dim >= STRUCTURED_MIN_DIM
    return problem.structure if large and problem.structure.shape.n_factors > 1 else None


def _constraint_maps(problem: SdpProblem) -> tuple[Callable, Callable]:
    """``Z -> (Re tr(A_i Z))_i`` and its adjoint ``y -> sum_i y_i A_i``."""
    structure = _slot_reads(problem)
    if structure is not None:
        return (lambda z: _slot_applied(z, structure)), (lambda y: _slot_adjoint(y, structure))
    flat = problem.constraint_ops.reshape(problem.n_constraints, -1)
    n = problem.dim
    # a (1, m) row: y @ flat takes a matrix-vector kernel that rounds differently
    return (lambda z: (flat @ np.conj(z.reshape(-1))).real), (
        lambda y: (y[None, :] @ flat).reshape(n, n)
    )


def compressed_constraints(problem: SdpProblem, v: np.ndarray) -> np.ndarray:
    """``V* A_i V`` for every constraint, for ``V`` of shape ``(n, k)``.  Per
    slot, ``V* A_i V = sum_ab B_i[a,b] G[a,:,b,:]`` with the Gram product
    ``G[a,c,b,e] = sum_{o,i} conj(V[o,a,i,c]) V[o,b,i,e]``, at ``d k^2 n``."""
    structure = _slot_reads(problem)
    if structure is None:
        return np.matmul(np.matmul(v.conj().T[None], problem.constraint_ops), v)
    k = v.shape[1]
    out = np.empty((len(structure.slots), k, k), dtype=complex)
    for _, rows, ops, (outer, d, inner) in structure.groups:
        y = v.reshape(outer, d, inner, k).transpose(1, 3, 0, 2).reshape(d * k, -1)
        gram = (y.conj() @ y.T).reshape(d, k, d, k).transpose(0, 2, 1, 3)
        out[rows] = (ops @ gram.reshape(d * d, k * k)).reshape(-1, k, k)
    return out


def _farkas_ray(y: np.ndarray, b: np.ndarray, adjoint: Callable) -> bool:
    """Whether ``y`` points along a Farkas ray of ``A(X) = b, X >= 0``.

    With ``v = y / max|y|``, the test is ``b . v > TOL`` and
    ``lambda_min(-sum_i v_i A_i) >= -TOL``.  Every PSD ``X`` with ``A(X) = b``
    has ``b . v = <sum_i v_i A_i, X> <= TOL tr X``, so no feasible plan has
    a trace below ``(b . v) / TOL``; with ``-sum_i v_i A_i`` PSD, none exists.
    """
    scale = float(np.abs(y).max())
    if not scale > 0.0:
        return False
    ray = y / scale
    return float(b @ ray) > TOL and linalg.min_eigenvalue(-adjoint(ray)) >= -TOL


def _refined_solver(
    upper: np.ndarray, product: Callable[[np.ndarray], np.ndarray], steps: int
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Solver of ``M v = rhs`` from an upper triangular ``U`` with
    ``U^T U ~ M`` and the product ``v -> M v``, and the diagonal ratio of
    ``U``, which estimates ``sqrt(cond(M))``.

    ``U`` is inverted once, so that a solve is two products, and every solve
    takes ``steps`` steps of iterative refinement against ``M`` itself, which
    remove the rounding of the factor and of its inverse.
    """
    diag = np.abs(upper.diagonal())
    # upper triangular, so the LU inside inv meets no pivot: back substitution
    inv = np.linalg.inv(upper)

    def solve(rhs: np.ndarray) -> np.ndarray:
        v = inv @ (inv.T @ rhs)
        for _ in range(steps):
            v = v + inv @ (inv.T @ (rhs - product(v)))
        return v

    return solve, float(diag.max() / diag.min())


def _schur_solver(mat: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """:func:`_refined_solver` of a formed Schur matrix, from its Cholesky
    factor.  When the factorization breaks down (near a degenerate optimal
    face the matrix is numerically singular), the diagonal is shifted by
    ``eps m max(diag)`` and factored once more; refinement removes the
    shift's bias."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        shift = np.finfo(float).eps * len(mat) * float(mat.diagonal().max())
        chol = np.linalg.cholesky(mat + shift * np.eye(len(mat)))
    return _refined_solver(chol.T, lambda v: mat @ v, SCHUR_REFINEMENT_STEPS)


def solve(problem: SdpProblem, *, tol: float = TOL) -> SdpSolution:
    """Run the interior-point iteration; deterministic for identical inputs
    at a fixed BLAS thread count.
    It starts at ``(problem.interior or tau I, tau I)`` with ``y = 0``.
    A ``trace`` row holds ``mu``, ``rp``, ``rd`` and ``gap``, and on an
    iteration that steps also ``schur_ratio``, ``ap``, ``ad`` and ``sigma``."""
    start = time.perf_counter()
    reduced, report = preprocess(problem)
    iterate_start = time.perf_counter()
    timings = {"preprocess": iterate_start - start, "iterate": 0.0}
    if report.infeasible:
        n = problem.dim
        zero = np.zeros((n, n), dtype=complex)
        return SdpSolution(
            x=zero, y=np.zeros(problem.n_constraints), s=zero,
            primal_objective=np.nan, dual_objective=np.nan, gap=np.nan,
            reason="preprocess_infeasible", iterations=0, mu=np.nan,
            primal_residual=report.max_inconsistency, dual_residual=np.nan,
            trace=(), timings=timings,
        )

    c = reduced.objective
    b = reduced.constraint_vals
    n = reduced.dim
    m = len(b)
    structure = _slot_reads(reduced)
    apply, adjoint = _constraint_maps(reduced)

    tau = max(1.0, float(np.abs(c).max()))
    # X and S as one stacked pair, so that each side's factor, update and step
    # length is one call for both
    pair = tau * np.stack([np.eye(n, dtype=complex)] * 2)
    if reduced.interior is not None:
        pair[0] = reduced.interior
    y = np.zeros(m)

    eye = np.eye(n)

    reason = "max_iter"
    mu = np.nan
    primal_res = np.nan
    dual_res = np.nan
    pobj = np.nan
    dobj = np.nan
    trace = []

    for iterations in range(MAX_ITER + 1):
        x, s = pair
        if max(float(np.abs(pair).max()), float(np.abs(y).max())) > DIVERGENCE_LIMIT:
            reason = "diverged"
            break
        rd = c - s - adjoint(y)
        rd = 0.5 * (rd + rd.conj().T)
        rp = b - apply(x)
        mu = _trace_product(x, s) / n
        pobj = _trace_product(c, x)
        dobj = float(b @ y)
        gap = abs(pobj - dobj)
        # absolute measures, matching the certification invariants
        primal_res = float(np.abs(rp).max())
        dual_res = float(np.abs(rd).max())
        # one row per measured iteration; a stepping iteration completes it
        row = {"mu": mu, "rp": primal_res, "rd": dual_res, "gap": gap}
        trace.append(row)

        if (
            primal_res <= tol
            and dual_res <= tol
            and gap <= tol * max(1.0, abs(pobj))
            # keep weak duality in the reported pair: residual-induced
            # crossover of the objectives must stay below roundoff scale,
            # which grows with the objective
            and dobj - pobj <= 5e-10 * max(1.0, abs(pobj))
        ):
            reason = "converged"
            break
        if iterations == MAX_ITER:
            break
        if mu < MU_FLOOR:
            # tr(XS) >= 0 while both iterates are in the cone: a negative mu
            # is rounding on diverging iterates, not a barrier at its floor
            reason = "mu_floor" if mu >= 0 else "diverged"
            break

        # Nesterov-Todd scaling point W = R R* (_nt_scaling).  In the scaled
        # frame both variables become diag(sig), so the linearized
        # central-path equation is a cheap elementwise Lyapunov solve.  As
        # X + a dX = R (diag(sig) + a dX~) R*, the step to the boundary of
        # the cone is read from diag(sig)^-1/2 dX~ diag(sig)^-1/2 (and the
        # same for S), which needs no eigen factor of X and S: they are
        # factored by Cholesky.
        fx, fs = (_cholesky_factor(side) for side in pair)
        r, sig = _nt_scaling(fx, fs)
        rh = r.conj().T

        # The Schur complement is the Gram matrix M = F F* of the scaled
        # constraints F_i = R* A_i R.  With slot structure, M is formed from
        # slot contractions of W = R R* (d_s d_t n^2 per slot pair, no F_i)
        # and Cholesky-factored, with a diagonal shift if that breaks down
        # (_schur_solver).  Problems read through the dense stack QR-factor
        # the scaled constraint matrix instead, M = R_f^T R_f, and never form
        # M.  Either triangular factor is inverted once and every solve is
        # refined against M (_refined_solver); its diagonal ratio estimates
        # sqrt(cond(M)).
        try:
            if structure is not None:
                schur_solve, ratio = _schur_solver(_slot_schur(r @ rh, structure))

                def applied_scaled(mat: np.ndarray) -> np.ndarray:
                    return apply(r @ mat @ rh)
            else:
                scaled_ops = np.matmul(np.matmul(rh[None, :, :], reduced.constraint_ops), r)
                f = scaled_ops.reshape(m, -1)
                rows = np.hstack([f.real, f.imag])
                schur_solve, ratio = _refined_solver(
                    np.linalg.qr(rows.T, mode="r"), lambda v: rows @ (rows.T @ v),
                    QR_REFINEMENT_STEPS,
                )

                def applied_scaled(mat: np.ndarray) -> np.ndarray:
                    return (f @ np.conj(mat.reshape(-1))).real
        except np.linalg.LinAlgError:  # a singular factor, even shifted
            ratio = np.inf
        if ratio > SCHUR_COND_LIMIT:
            reason = "schur_conditioning"
            break

        rd_scaled = rh @ rd @ r

        def direction(chat: np.ndarray) -> tuple[np.ndarray, ...]:
            """Newton direction ``(dy, dS, dS~, dX~)`` whose scaled steps
            meet the target: ``dX~ + dS~ = chat``."""
            dy = schur_solve(rp + applied_scaled(rd_scaled - chat))
            ds = rd - adjoint(dy)
            ds = 0.5 * (ds + ds.conj().T)
            ds_scaled = rh @ ds @ r
            return dy, ds, ds_scaled, chat - ds_scaled

        # Predictor (affine direction, sigma = 0): scaled target -diag(sig).
        chat_aff = -np.diag(sig)
        _, _, ds_aff_scaled, dx_aff_scaled = direction(chat_aff)
        # diag(sig)^-1/2 chat_aff diag(sig)^-1/2 = -I, so the X-side
        # eigenvalues are -1 minus the S-side ones; the probes stay in the
        # scaled frame, where tr(X S) is the same
        lam = _frame_eigvals(ds_aff_scaled, sig)
        ap = min(1.0, _boundary_step(-1.0 - float(lam[-1])))
        ad = min(1.0, _boundary_step(float(lam[0])))
        probe_product = _trace_product(
            -chat_aff + ap * dx_aff_scaled, -chat_aff + ad * ds_aff_scaled
        )
        mu_aff = max(probe_product / n, 0.0)
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0
        if min(ap, ad) < 0.2:
            # Heavily truncated affine steps (empty or near-empty interior):
            # bias toward centering instead of trusting the Mehrotra probe.
            sigma = max(sigma, 0.5)

        # Corrector with Mehrotra second-order term, solved in the scaled
        # frame where the Lyapunov operator is elementwise division.  Of two
        # Hermitian matrices, ds dx is the adjoint of dx ds.
        product = dx_aff_scaled @ ds_aff_scaled
        correction = 0.5 * (product + product.conj().T)
        rhs_scaled = sigma * mu * eye - np.diag(sig**2) - correction
        # Hermitian bit for bit: the divisor is symmetric, rhs_scaled a real
        # diagonal minus the exactly Hermitian correction
        chat = 2.0 * rhs_scaled / (sig[:, None] + sig[None, :])
        dy, ds, ds_scaled, dx_scaled = direction(chat)
        dx = r @ dx_scaled @ rh
        # the step (dX, dS) as one stacked pair; dropping the per-side copies
        # keeps the peak memory of large plans where it was
        d = np.stack([0.5 * (dx + dx.conj().T), ds])
        del dx, ds

        steps = _max_steps(np.stack([dx_scaled, ds_scaled]), sig)
        ap, ad = (min(1.0, STEP_FRACTION * a) for a in steps)
        if ap < 1e-13 and ad < 1e-13:
            reason = "stalled_step"
            break
        row.update(schur_ratio=ratio, ap=ap, ad=ad, sigma=sigma)

        pair = pair + np.array([ap, ad])[:, None, None] * d
        pair += pair.conj().swapaxes(1, 2)
        pair *= 0.5
        y = y + ad * dy

    # Map multipliers back to the original constraint indexing; dropped
    # redundant rows keep a zero multiplier.
    y_full = np.zeros(problem.n_constraints)
    y_full[list(report.kept)] = y

    if reason != "converged" and primal_res > 1e-4 and _farkas_ray(y, b, adjoint):
        reason = "reclassified_infeasible"
    timings["iterate"] = time.perf_counter() - iterate_start

    return SdpSolution(
        x=x, y=y_full, s=s,
        primal_objective=pobj, dual_objective=dobj, gap=abs(pobj - dobj),
        reason=reason, iterations=iterations, mu=mu,
        primal_residual=primal_res, dual_residual=dual_res,
        trace=tuple(trace), timings=timings,
    )


@dataclass(frozen=True)
class Certificate:
    max_equality_residual: float
    dual_residual: float
    min_eig_x: float
    min_eig_s: float
    primal_objective: float
    dual_objective: float
    gap: float
    passed: bool
    failures: tuple[str, ...] = field(default=())


def certify(solution: SdpSolution, problem: SdpProblem) -> Certificate:
    """Recompute all residuals of a solution directly from (X, y, S).

    Independent of solver internals: equality residuals, the dual identity
    ``C - S - sum y_i A_i``, cone membership of both matrices and the
    primal-dual gap are re-derived from the returned data alone.
    """
    x, y, s = solution.x, solution.y, solution.s
    apply, adjoint = _constraint_maps(problem)
    eq_res = float(np.abs(apply(x) - problem.constraint_vals).max())
    dual_res = float(np.abs(problem.objective - s - adjoint(y)).max())
    min_x = linalg.min_eigenvalue(0.5 * (x + x.conj().T))
    min_s = linalg.min_eigenvalue(0.5 * (s + s.conj().T))
    pobj = _trace_product(problem.objective, x)
    dobj = float(problem.constraint_vals @ y)
    gap = abs(pobj - dobj)

    failures = []
    if eq_res > CERT_EQ_TOL:
        failures.append(f"equality residual {eq_res:.3e} > {CERT_EQ_TOL:.1e}")
    if dual_res > CERT_DUAL_TOL:
        failures.append(f"dual residual {dual_res:.3e} > {CERT_DUAL_TOL:.1e}")
    if min_x < -CERT_PSD_TOL:
        failures.append(f"primal matrix min eig {min_x:.3e} < -{CERT_PSD_TOL:.1e}")
    if min_s < -CERT_PSD_TOL:
        failures.append(f"dual slack min eig {min_s:.3e} < -{CERT_PSD_TOL:.1e}")
    if gap > CERT_GAP_TOL * max(1.0, abs(pobj)):
        failures.append(f"duality gap {gap:.3e} too large")

    return Certificate(
        max_equality_residual=eq_res,
        dual_residual=dual_res,
        min_eig_x=min_x,
        min_eig_s=min_s,
        primal_objective=pobj,
        dual_objective=dobj,
        gap=gap,
        passed=not failures,
        failures=tuple(failures),
    )
