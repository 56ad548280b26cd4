"""Dense semidefinite programming over the complex Hermitian cone.

Standard form:

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..m),    X >= 0 (PSD),

with ``<A, B> = Re tr(A* B)`` on Hermitian matrices.  The solver is a
primal-dual path-following interior-point method with Nesterov-Todd
symmetric scaling and Mehrotra predictor-corrector steps; the Newton
system is reduced to a dense Cholesky-factorizable Schur complement of
size ``m``.  The dual

    maximize    b . y
    subject to  S = C - sum_i y_i A_i >= 0

is solved simultaneously; a solution therefore carries a primal matrix,
dual multipliers, a dual slack and a duality-gap certificate.

The Hermitian cone is handled natively over the real vector space of
Hermitian matrices (no real-symmetric doubling), which halves the Newton
system size and avoids eigenvalue duplication artifacts.  The method is
deterministic: fixed iteration schedule, no randomized pivoting.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

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

MAX_VARIABLE_DIM = 256

# Interior-point iteration: one tolerance bounds the primal and dual
# residuals and the relative duality gap.
TOL = 1e-8
MAX_ITER = 200
STEP_FRACTION = 0.98
MU_FLOOR = 1e-12
SCHUR_COND_LIMIT = 1e14
# Plans of at least this dimension with declared slot structure form the
# scaled constraints from per-slot Gram blocks; smaller plans form them
# densely, which is faster there (numpy call overhead) and keeps their
# results bitwise unchanged.
STRUCTURED_MIN_DIM = 25

# Certification thresholds (independent recomputation of the solution).
CERT_EQ_TOL = 1e-8
CERT_DUAL_TOL = 1e-8
CERT_PSD_TOL = 1e-9
CERT_GAP_TOL = 1e-7

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible"
STATUS_NUMERICAL = "numerical"


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


@dataclass(frozen=True)
class SdpProblem:
    """Conic program data: objective, stacked constraint operators, targets.

    ``structure``, when present, declares every constraint as a local operator
    on one tensor slot of the variable; ``constraint_ops`` is its dense form.
    """

    objective: np.ndarray        # (n, n) Hermitian
    constraint_ops: np.ndarray   # (m, n, n) Hermitian stack
    constraint_vals: np.ndarray  # (m,) real
    structure: SlotStructure | None = None

    @property
    def dim(self) -> int:
        return self.objective.shape[0]

    @property
    def n_constraints(self) -> int:
        return len(self.constraint_vals)


def sdp_problem(
    objective: np.ndarray, constraints: Sequence[tuple[np.ndarray, float]]
) -> SdpProblem:
    """Validate and pack a minimize-form problem."""
    c = linalg.hermitian(objective)
    n = c.shape[0]
    if n > MAX_VARIABLE_DIM:
        raise ValueError(f"variable dimension {n} exceeds {MAX_VARIABLE_DIM}")
    if not constraints:
        raise ValueError("at least one equality constraint is required")
    ops = np.stack([linalg.hermitian(a) for a, _ in constraints])
    vals = np.array([float(b) for _, b in constraints])
    if ops.shape[1:] != (n, n):
        raise ValueError("constraint operators must match the objective dimension")
    for arr in (c, ops, vals):
        arr.setflags(write=False)
    return SdpProblem(c, ops, vals)


def slot_problem(
    objective: np.ndarray,
    shape: linalg.FactorShape,
    constraints: Sequence[tuple[int, np.ndarray, float]],
) -> SdpProblem:
    """Pack a problem whose constraints ``(slot, op, b)`` read
    ``<embed_at_slot(op, slot, shape), X> = b``.

    The dense operators are built from the declared pairs, and the pairs are
    kept for the solver's structured Schur formation.
    """
    problem = sdp_problem(
        objective, [(linalg.embed_at_slot(op, slot, shape), b) for slot, op, b in constraints]
    )
    local_ops = tuple(np.array(op, dtype=complex) for _, op, _ in constraints)
    for op in local_ops:
        op.setflags(write=False)
    slots = tuple(int(slot) for slot, _, _ in constraints)
    return dataclasses.replace(problem, structure=SlotStructure(shape, slots, local_ops))


@dataclass(frozen=True)
class PreprocessReport:
    kept: tuple[int, ...]
    removed: tuple[int, ...]
    infeasible: bool
    max_inconsistency: float


def preprocess(
    problem: SdpProblem, rank_tol: float = 1e-10, consistency_tol: float = 1e-8
) -> tuple[SdpProblem, PreprocessReport]:
    """Drop linearly dependent constraint rows; detect inconsistent duplicates.

    Rank decisions use Gram-Schmidt orthogonalization of the real-vectorized
    rows with the given relative tolerance.  A dependent row whose target
    value disagrees with the induced combination of the kept rows signals an
    infeasible system.
    """
    ops = problem.constraint_ops
    vals = problem.constraint_vals
    m = len(vals)
    flat = ops.reshape(m, -1)
    rows = np.hstack([flat.real, flat.imag])

    kept: list[int] = []
    removed: list[int] = []
    basis: list[np.ndarray] = []
    for i in range(m):
        v = rows[i]
        r = v.copy()
        for _ in range(2):  # re-orthogonalize once for stability
            for q in basis:
                r -= (q @ r) * q
        norm_r = np.linalg.norm(r)
        if norm_r > rank_tol * max(np.linalg.norm(v), 1.0):
            kept.append(i)
            basis.append(r / norm_r)
        else:
            removed.append(i)

    max_inconsistency = 0.0
    infeasible = False
    if removed:
        coeffs, *_ = np.linalg.lstsq(rows[kept].T, rows[removed].T, rcond=None)
        predicted = coeffs.T @ vals[kept]
        residues = np.abs(vals[removed] - predicted)
        max_inconsistency = float(residues.max())
        infeasible = bool(
            np.any(residues > consistency_tol * np.maximum(1.0, np.abs(vals[removed])))
        )

    structure = problem.structure.rows(kept) if problem.structure is not None else None
    reduced = SdpProblem(problem.objective, ops[kept], vals[kept], structure)
    report = PreprocessReport(tuple(kept), tuple(removed), infeasible, max_inconsistency)
    return reduced, report


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    status: str
    iterations: int
    mu: float
    primal_residual: float
    dual_residual: float

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _psd_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-based factor ``F`` with ``F F* = m`` plus (Q, w) for reuse."""
    w, q = np.linalg.eigh(m)
    w = np.maximum(w, 1e-15 * max(1.0, float(w[-1])))
    return q * np.sqrt(w), q, w


def _max_step(q: np.ndarray, w: np.ndarray, delta: np.ndarray) -> float:
    """Largest step keeping ``m + alpha * delta`` PSD, given ``m = Q diag(w) Q*``."""
    b = q.conj().T @ delta @ q
    t = b / np.sqrt(np.outer(w, w))
    lam = float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[0])
    if lam >= 0.0:
        return np.inf
    return 1.0 / (-lam)


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the diagonal, the strict upper and the strict lower
    triangle of an ``n x n`` matrix; ``upper[k]`` and ``lower[k]`` mirror."""
    rows, cols = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), rows * n + cols, cols * n + rows


def _coords(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices from their diagonal and strict
    upper triangle: the diagonal, then sqrt(2) Re and sqrt(2) Im of the upper
    entries.  For Hermitian ``A`` and ``B`` the dot product of the coordinate
    vectors is ``Re tr(A* B)``."""
    upper = math.sqrt(2.0) * upper
    return np.concatenate([diag.real, upper.real, upper.imag], axis=-1)


def _hermitian_coords(mat: np.ndarray) -> np.ndarray:
    """Coordinates of the Hermitian part of ``mat``."""
    diag, upper, lower = _triangle(mat.shape[0])
    flat = mat.reshape(-1)
    return _coords(flat[diag], 0.5 * (flat[upper] + flat[lower].conj()))


def _slot_scaled_constraints(r: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """Hermitian coordinates ``(m, n*n)`` of every scaled constraint ``R* A_i R``.

    Let ``R_a`` be the rows of ``R`` whose index at a slot is ``a``.  An
    operator ``B`` embedded at that slot scales to ``sum_ab B[a, b] G_ab`` with
    Gram blocks ``G_ab = R_a* R_b``.  The blocks with ``a <= b`` are products
    and ``G_ba = G_ab*``, so a slot costs O(d n^3), shared by all of its
    constraints.
    """
    n = r.shape[0]
    dims = structure.shape.dims
    slots = np.array(structure.slots)
    diag, upper, _ = _triangle(n)
    triangle = np.concatenate([diag, upper])
    out = np.empty((len(slots), n * n))
    for slot in np.unique(slots):
        d = dims[slot]
        inner = math.prod(dims[slot + 1:])
        # blocks[a] = R_a, and wide = [R_0 | R_1 | ... | R_(d-1)]
        blocks = r.reshape(-1, d, inner, n).transpose(1, 0, 2, 3).reshape(d, n // d, n)
        wide = blocks.transpose(1, 0, 2).reshape(n // d, d * n)
        gram = np.empty((d, d, n, n), dtype=complex)
        for a in range(d):
            row = (blocks[a].conj().T @ wide[:, a * n:]).reshape(n, d - a, n)
            gram[a, a:] = row.transpose(1, 0, 2)
            gram[a + 1:, a] = row[:, 1:].conj().transpose(1, 2, 0)
        rows = np.flatnonzero(slots == slot)
        ops = np.stack([structure.local_ops[i] for i in rows]).reshape(len(rows), d * d)
        # diagonal and upper triangle of sum_ab B[a, b] G_ab for every B of the slot
        scaled = ops @ gram.reshape(d * d, n * n)[:, triangle]
        out[rows] = _coords(scaled[:, :n], scaled[:, n:])
    return out


def solve(
    problem: SdpProblem,
    *,
    tol: float = TOL,
    verbose: bool = False,
) -> SdpSolution:
    """Run the interior-point iteration; deterministic for identical inputs."""
    reduced, report = preprocess(problem)
    if report.infeasible:
        n = problem.dim
        zero = np.zeros((n, n), dtype=complex)
        return SdpSolution(
            x=zero, y=np.zeros(problem.n_constraints), s=zero,
            primal_objective=np.nan, dual_objective=np.nan, gap=np.nan,
            status=STATUS_INFEASIBLE, iterations=0, mu=np.nan,
            primal_residual=report.max_inconsistency, dual_residual=np.nan,
        )

    c = reduced.objective
    ops = reduced.constraint_ops
    b = reduced.constraint_vals
    n = reduced.dim
    m = len(b)
    flat_ops = ops.reshape(m, -1)
    structure = reduced.structure if n >= STRUCTURED_MIN_DIM else None

    tau = max(1.0, float(np.abs(c).max()))
    x = tau * np.eye(n, dtype=complex)
    s = tau * np.eye(n, dtype=complex)
    y = np.zeros(m)

    eye = np.eye(n)

    status = STATUS_MAX_ITER
    iterations = 0
    mu = np.nan
    primal_res = np.nan
    dual_res = np.nan
    pobj = np.nan
    dobj = np.nan

    for it in range(MAX_ITER + 1):
        iterations = it
        rd = c - s - np.tensordot(y, ops, axes=1)
        rd = 0.5 * (rd + rd.conj().T)
        applied = (flat_ops @ np.conj(x.reshape(-1))).real
        rp = b - applied
        mu = float(np.einsum("ab,ba->", x, s).real) / n
        pobj = float(np.einsum("ab,ba->", c, x).real)
        dobj = float(b @ y)
        gap = abs(pobj - dobj)
        # absolute measures, matching the certification invariants
        primal_res = float(np.abs(rp).max())
        dual_res = float(np.abs(rd).max())

        if verbose:
            print(
                f"iter {it:3d}  mu {mu:.3e}  rp {primal_res:.3e}  rd {dual_res:.3e}  "
                f"gap {gap:.3e}",
                file=sys.stderr,
            )

        if (
            primal_res <= tol
            and dual_res <= tol
            and gap <= tol * max(1.0, abs(pobj))
            # keep weak duality in the reported pair: residual-induced
            # crossover of the objectives must stay below roundoff scale
            and dobj - pobj <= 5e-10
        ):
            status = STATUS_OPTIMAL
            break
        if it == MAX_ITER:
            status = STATUS_MAX_ITER
            break
        if mu < MU_FLOOR:
            status = STATUS_NUMERICAL
            break

        # Nesterov-Todd scaling point: W = R R* with R = Fx V / sqrt(sig),
        # where Fs* Fx = U diag(sig) V*.  In the scaled frame both variables
        # become diag(sig), so the linearized central-path equation is a
        # cheap elementwise Lyapunov solve.
        fx, qx, wx = _psd_factor(x)
        fs, qs, ws = _psd_factor(s)
        _, sig, vh = np.linalg.svd(fs.conj().T @ fx)
        sig = np.maximum(sig, 1e-150)
        r = fx @ vh.conj().T / np.sqrt(sig)
        rh = r.conj().T

        # The Schur complement is the Gram matrix F F* = R_f^T R_f of the
        # scaled constraints F_i = R* A_i R.  Working with the QR factor of
        # the scaled constraint matrix instead of the explicit Gram keeps
        # twice the digits near a degenerate face; the diagonal ratio of R_f
        # estimates the conditioning of the system that is actually
        # factorized and solved.
        if structure is None:
            scaled_ops = np.matmul(np.matmul(rh[None, :, :], ops), r)
            f = scaled_ops.reshape(m, -1)
            f_real = np.hstack([f.real, f.imag])

            def applied_scaled(mat: np.ndarray) -> np.ndarray:
                return (f @ np.conj(mat.reshape(-1))).real
        else:
            # n*n real Hermitian coordinates: half the rows of [Re f, Im f]
            f_real = _slot_scaled_constraints(r, structure)

            def applied_scaled(mat: np.ndarray) -> np.ndarray:
                return f_real @ _hermitian_coords(mat)

        r_f = np.linalg.qr(f_real.T, mode="r")
        r_diag = np.abs(np.diag(r_f))
        if r_diag.min() <= 0.0 or r_diag.max() / r_diag.min() > SCHUR_COND_LIMIT:
            status = STATUS_NUMERICAL
            break

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            t = np.linalg.solve(r_f.T, rhs)
            return np.linalg.solve(r_f, t)

        rd_scaled = rh @ rd @ r

        # Predictor (affine direction, sigma = 0): scaled target -diag(sig).
        chat_aff = -np.diag(sig)
        dy_aff = schur_solve(rp + applied_scaled(rd_scaled - chat_aff))
        ds_aff = rd - np.tensordot(dy_aff, ops, axes=1)
        ds_aff = 0.5 * (ds_aff + ds_aff.conj().T)
        ds_aff_scaled = rh @ ds_aff @ r
        dx_aff_scaled = chat_aff - ds_aff_scaled
        dx_aff = r @ dx_aff_scaled @ rh
        dx_aff = 0.5 * (dx_aff + dx_aff.conj().T)

        ap = min(1.0, _max_step(qx, wx, dx_aff))
        ad = min(1.0, _max_step(qs, ws, ds_aff))
        x_probe = x + ap * dx_aff
        s_probe = s + ad * ds_aff
        mu_aff = max(float(np.einsum("ab,ba->", x_probe, s_probe).real) / n, 0.0)
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0
        if min(ap, ad) < 0.2:
            # Heavily truncated affine steps (empty or near-empty interior):
            # bias toward centering instead of trusting the Mehrotra probe.
            sigma = max(sigma, 0.5)

        # Corrector with Mehrotra second-order term, solved in the scaled
        # frame where the Lyapunov operator is elementwise division.
        correction = 0.5 * (
            dx_aff_scaled @ ds_aff_scaled + ds_aff_scaled @ dx_aff_scaled
        )
        rhs_scaled = sigma * mu * eye - np.diag(sig**2) - correction
        chat = 2.0 * rhs_scaled / (sig[:, None] + sig[None, :])
        chat = 0.5 * (chat + chat.conj().T)

        dy = schur_solve(rp + applied_scaled(rd_scaled - chat))
        ds = rd - np.tensordot(dy, ops, axes=1)
        ds = 0.5 * (ds + ds.conj().T)
        ds_scaled = rh @ ds @ r
        dx = r @ (chat - ds_scaled) @ rh
        dx = 0.5 * (dx + dx.conj().T)

        ap = min(1.0, STEP_FRACTION * _max_step(qx, wx, dx))
        ad = min(1.0, STEP_FRACTION * _max_step(qs, ws, ds))
        if ap < 1e-13 and ad < 1e-13:
            status = STATUS_NUMERICAL
            break

        x = x + ap * dx
        x = 0.5 * (x + x.conj().T)
        s = s + ad * ds
        s = 0.5 * (s + s.conj().T)
        y = y + ad * dy

    # Map multipliers back to the original constraint indexing; dropped
    # redundant rows keep a zero multiplier.
    y_full = np.zeros(problem.n_constraints)
    y_full[list(report.kept)] = y

    # A run that stalls on feasible data but with a huge, still-violated
    # primal residual is flagged infeasible rather than merely unconverged.
    if status in (STATUS_MAX_ITER, STATUS_NUMERICAL):
        x_growth = float(np.abs(x).max()) / tau
        if primal_res > 1e-4 and x_growth > 1e8:
            status = STATUS_INFEASIBLE

    return SdpSolution(
        x=x, y=y_full, s=s,
        primal_objective=pobj, dual_objective=dobj, gap=abs(pobj - dobj),
        status=status, iterations=iterations, mu=mu,
        primal_residual=primal_res, dual_residual=dual_res,
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
    ops = problem.constraint_ops
    m = problem.n_constraints
    applied = (ops.reshape(m, -1) @ np.conj(x.reshape(-1))).real
    eq_res = float(np.abs(applied - problem.constraint_vals).max())
    dual_mat = problem.objective - s - np.tensordot(y, ops, axes=1)
    dual_res = float(np.abs(dual_mat).max())
    min_x = linalg.min_eigenvalue(0.5 * (x + x.conj().T))
    min_s = linalg.min_eigenvalue(0.5 * (s + s.conj().T))
    pobj = float(np.einsum("ab,ba->", problem.objective, x).real)
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
