"""Dense semidefinite programming over the complex Hermitian cone.

Standard form:

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..m),    X >= 0 (PSD),

with ``<A, B> = Re tr(A* B)`` on Hermitian matrices.  The solver is a
primal-dual path-following interior-point method with the HKM direction
(Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) and Mehrotra
predictor-corrector steps, centered with ``sigma = min(1, (mu_aff / mu) **
2)`` (``CENTERING_EXPONENT``), where ``mu_aff`` is the barrier parameter
after the predictor's step; the Newton system is reduced to the dense Schur
complement ``M_ij = Re tr(A_i X A_j S^-1)`` of size ``m``.  One iteration
serves every plan size: it factors the iterates by Cholesky, inverts the
triangular factors, and needs no eigen or singular value factorization of
X or S.  Each side's step length is read from the smallest eigenvalue of
its step whitened by its factor.  Plans below ``4 * LANCZOS_STEPS`` read it
from full spectra; larger ones from the smallest Ritz value of a Lanczos run
on the whitened step without forming it, stopped once the value's residual
bound shows it converged and after ``LANCZOS_STEPS`` steps at most, each
corrector step proved inside the cone by a Cholesky factorization of the
iterate plus the step (:func:`_step_lengths`), else measured from the full
spectrum.  Both sides step in place, ``d *= [ap, ad]; pair += d``, which
rounds as ``pair + [ap, ad] d`` does.
Constraints are declared once per shape, as local operators on tensor slots
(:func:`slot_structure`; :func:`sdp_problem` declares one slot spanning the
space), and stored once, one block per group of adjacent slots
(:class:`SlotStructure`), which every reader reads, the dense stack
included.  A problem poses its objective, values and start on a declared
structure (:func:`pose`), so problems of one shape share its blocks, the
rank decision of :func:`preprocess` and the factor of a pinned start.  Four
size decisions remain, each measured where its constant stands: the ``4 *
LANCZOS_STEPS`` gate above, ``TRIANGULAR_LEAF``, up to which a triangular
factor is inverted by ``np.linalg.inv`` and above by blocks,
``GRAM_LEAF``, above which ``Z = S^-1`` is formed from the triangular
blocks of ``Ls^-1`` (:func:`_inverse_gram`), and :func:`_slot_reads`,
which picks the route the iteration reads the constraints through.  Plans
of at least ``STRUCTURED_MIN_DIM`` on more than one group apply the
constraints and their adjoint through group marginals and embeddings and
form the Schur matrix from partial-trace contractions of X and S^-1 over
the groups,
Cholesky-factored; other problems read the dense stack
``SdpProblem.constraint_ops`` and QR-factor the scaled constraints ``Ls^-1
A_i Lx``.  Either triangular factor is inverted once, so that a Schur solve
is two triangular products, and the corrector takes one refinement step
against the operator ``v -> A(X A*(v) S^-1)``, the only refinement of a
solve.  Every plan writes ``X dS S^-1`` as ``X (rd S^-1) - X (A*(dy)
S^-1)``.
The gate means one thing: below it a plan forms its matrices (full spectra,
``A*(v)`` before its product with ``S^-1``, and the dense stack for the QR
from a slot-route plan's first Schur Cholesky breakdown on); above it
nothing is formed (Ritz values, the slot product ``A*(v) S^-1`` of
:func:`_slot_adjoint_product`, the refinement's ``A(X A*(v) S^-1)`` read
from group marginals by :func:`_slot_applied_product`, a diagonal shift at
a breakdown).  An iteration takes 6 n x n products above the gate on the
slot route (10 on a dense-stack plan above it, 18 below it, where the
Mehrotra term is one).
A run that stops short with a large primal residual is labelled infeasible
when its multipliers point along a Farkas ray (:func:`_farkas_ray`).  The
iteration starts at ``y = 0``, ``S = tau I`` and ``X`` at the declared
``SdpProblem.interior``, else at ``tau I``.  When the kept constraints number
``n^2`` they pin the plan: it starts instead at the exact ``X0`` and ``y0``
of :func:`_pinned_point` with ``S = C - A*(y0)`` if the stop test accepts
that point, and so ends at iteration 0 on the start's measurement and
certificate.
The dual

    maximize    b . y
    subject to  S = C - sum_i y_i A_i >= 0

is solved simultaneously; a solution therefore carries a primal matrix,
dual multipliers, a dual slack and a duality-gap certificate, and its
record as data: a trace row per iteration and the seconds of each phase.
Its objectives, gap and residuals are its certificate's, whatever the stop.

The Hermitian cone is handled natively over the real vector space of
Hermitian matrices (no real-symmetric doubling), which halves the Newton
system size and avoids eigenvalue duplication artifacts.  The iterates
``X`` and ``S``, the dual residual ``C - S - sum_i y_i A_i`` and the dual
step ``rd - sum_i dy_i A_i`` are exactly Hermitian by construction, so
nothing symmetrizes them: the objective, the interior point and every local
operator are symmetrized once when the problem is built, both adjoints
(dense stack and slot embeddings) return exactly Hermitian matrices for
real multipliers, and differences and real-scaled sums of exactly Hermitian
matrices are exactly Hermitian.  Should an adjoint ever lose this, the fix
belongs at its source, the d x d local combination of a slot read, not in
n x n passes over the iterates.  Symmetrization stays where a product of
non-commuting factors breaks it: the primal step ``dX``, whose products
``X dS S^-1`` and ``dX_aff dS_aff S^-1`` are not Hermitian and whose
Hermitian part is taken once (the constraint maps read ``Re tr(A_i .)``
correctly on any matrix), and the whitened steps, of which ``eigvalsh`` and
Cholesky read one triangle and Lanczos the whole.  The method is
deterministic at a fixed BLAS thread count: fixed iteration schedule, no
randomized pivoting, a fixed Lanczos start vector (the thread count changes
the rounding of BLAS kernels).
"""

from __future__ import annotations

import functools
import math
import time
import types
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
    "slot_structure",
    "pose",
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
# Mehrotra centering parameter sigma = min(1, (mu_aff / mu) ** CENTERING_EXPONENT).
# The LP rule's cube (Mehrotra 1992) overshoots here: the primal steps stall
# near 0.6 and the gap falls 2-5x per iteration late in a solve.  Measured with
# one BLAS thread on a 2-core x86_64 host, cube against square: perfbench
# pair-dense d=6/7/8 16/18/16-17 against 12/15/14 iterations; nonlinear
# d=12/16/20 18/18/19 against 14/15/16; K=3 16 against 14, K=4 15 both;
# strong duality at samples=640 (2,560 solves) 22,393 against 20,432
# iterations, uncertified 1 against 0.  Of 224 rotations of perfbench's
# near-pure rank-deficient pair, 25 ended uncertified with the cube, none
# with the square, 6 with exponent 1.5.
CENTERING_EXPONENT = 2
# An entry of X, S or y above this stops the run before a product of two
# entries can overflow.
DIVERGENCE_LIMIT = math.sqrt(np.finfo(float).max)
# The iteration reads multi-slot plans of at least this dimension group by
# group (_slot_reads); smaller ones read the dense stack and QR-factor the
# scaled constraints.  Measured with perfbench seed 3, two runs per side, one
# BLAS thread on a 2-core x86_64 host: with slot reads on every plan, qubit-sweep
# instances_per_s fell from 245 to 161 and rank-deficient from 172 to 130, its
# certified_frac from 0.987 to 0.909; with slot constraint maps but the QR
# kept, qubit-sweep fell from 241 to 194; with a Cholesky-formed Schur matrix
# on small plans, qubit-sweep was unchanged but rank-deficient certified_frac
# fell to 0.909 (21 of 231 solves uncertified, against 3).  The dense maps
# save call overhead; the QR is the accurate route on small plans.
STRUCTURED_MIN_DIM = 25
# slot_structure groups adjacent slots while a group's dimension stays at most
# this (a slot above it stays alone), and every reader of the constraints
# reads the groups.  _slot_schur copies X and S^-1 into a new layout once per
# pair of groups and then takes D_g D_h n^2, so merging trades copies for
# flops.  Forming the Schur matrix of random states with one BLAS thread on a
# 2-core x86_64 host, best of 5, two runs, with the cap at 1 (no groups) / 4
# / 8 / 16: K=4 qubit plan (n=256, groups (8, 8, 4) at 8) 24.1-25.2 /
# 7.7-8.4 / 6.6-7.1 / 13.4-13.5 ms, K=3 (n=64, groups (8, 8)) 1.65 / 0.51 /
# 0.46-0.50 / 1.0 ms, and the K=2 d=4 plan (n=256), whose slots merge only
# at 16, 8.0 / 8.1-8.4 / 7.7-8.2 / 13.5-14.8 ms.  The K=2 qutrit plan (n=81)
# merges only from 9, at 0.67 against 1.1 ms, and no bench case runs it.
# The maps read one marginal or embedding a group: against slot by slot,
# same host, best of 5, two runs, _slot_applied / _slot_adjoint / coordinates
# took 68-69 -> 15-29 / 87-89 -> 22-39 / 113-117 -> 33-58 us on K=3 and
# 77-97 -> 47-48 / 159-161 -> 92-103 / 90-187 -> 44-61 us on K=4.
SCHUR_GROUP_DIM = 8
# Plans of dimension at least 4 * LANCZOS_STEPS read step lengths from the
# smallest Ritz value of a Lanczos run (_ritz_ends) instead of full spectra
# (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 1992; Toh, Comput.
# Optim. Appl. 2002), which pays only while the step count is small against
# n.  A run stops once that value meets its residual bound (LANCZOS_MARGIN
# comment), and LANCZOS_STEPS caps it.  The gate: a corrector's stacked step
# pair, on the corrector inputs of whole solves, one BLAS thread on a 2-core
# x86_64 host, best of 7, whitened by 4 products and read by eigvalsh
# against a stopped run on the unformed pair and both Cholesky checks of X +
# beta dX and S + beta dS: d=8 (n=64) 0.71 against 1.28 ms, d=9 and the K=2
# qutrit plan (n=81) 1.27 against 1.56 ms, d=10 (n=100) 2.07 against 1.90
# ms, d=12 (n=144) 5.5 against 3.8 ms, at 14.7-17.4 steps a run.  The
# crossover lies between n=81 and n=100, so the two n=81 plans pay about
# 0.3 ms a corrector; the gate stays at 80, where every qubit,
# rank-deficient and pair-dense plan (n <= 64) and K=3 (n=64) keep eigvalsh.
# With fixed 20-step runs the crossover was at n=81 (1.93-2.07 against
# 1.99-2.18 ms) and n=256 took 39-40 against 12.3-15.6 ms; below n=100 the
# run's numpy calls, not its products, set its cost.  With a cap of 10 / 15
# / 20 / 30 / 40 steps the K=4 plan (n=256) fell back 6 / 2 / 1 / 1 / 1
# times a solve in 12 iterations, a d=12 plan 6 / 4 / 1 / 1 / 1 times in 13
# / 13 / 12 / 12 / 12 and a d=16 plan 8 / 5 / 2 / 1 / 1 times in 14; their
# runs took 8.7 / 11.2 / 12.6 / 13.5 / 13.9, 9.7 / 12.5 / 14.5 / 15.4 /
# 15.8 and 8.6 / 11.7 / 14.1 / 15.7 / 16.1 steps on average.  20 is the
# fewest steps with at most two fallbacks a solve on all three.  At 20 only
# the first corrector, from the product coupling, falls back: on one side
# on K=4 and d=12 and on both on d=16 and d=20.
LANCZOS_STEPS = 20
# A corrector side's Ritz step is shortened by this fraction before its
# Cholesky check (_step_lengths), so that a Ritz value that has converged
# passes.  The smallest Ritz value is at least the smallest eigenvalue, so an
# accepted step is at least (1 - LANCZOS_MARGIN) times the exact one.  The
# corrector's run stops once the residual bound of that value is a fifth of
# the margin, relative to max(|theta|, 1); the predictor's, whose lengths
# only set sigma, at the margin.  One BLAS thread: on the K=4, d=12 and d=16
# plans and the eight K=4 multipartite solves of perfbench seed 1, a
# corrector bound of the margin raised fallbacks from 1 / 1 / 2 and 1 a
# solve to 3 / 2 / 5 and 3-6, a predictor bound of 4 or 10 times the margin
# added an iteration to d=12 (and to K=4 at 10 times), and one of 1 or 2
# times kept every outcome, 1 at 4% more steps.  On the near-pure qudit rows
# above the gate (d = 9, 10 at eps = 1e-6, default_rng([d, 6]) and [d, 6,
# s] for s = 1-6, 112 solves, whose Schur factor takes the diagonal shift),
# a predictor bound of 1 / 2 times the margin certified 110 / 105, fixed
# 20-step runs 109.
LANCZOS_MARGIN = 0.005
# A Schur solve is two products with the inverted triangular factor, not
# refined against M (_triangular_solver): the corrector's step against the
# operator is the only refinement.  Strong-duality solves of perfbench
# qubit-sweep seeds 1-24 (the 64 sweep seeds of each, 5 samples: 30,720
# solves, one BLAS thread) end 0 uncertified, as with two refinement steps
# on the Cholesky route and one on the QR route, in the same 229,020
# iterations.
# Triangular factors up to this order are inverted by np.linalg.inv, larger
# ones by blocks (_triangular_inverse), to the same residual.  One BLAS thread
# on a 2-core x86_64 host, best of 5, two runs, leaves of 32 / 64 against
# np.linalg.inv, in ms: the stacked complex Cholesky pair of an iteration at
# n = 36 0.08 / 0.12 against 0.11-0.13, n = 64 0.27 / 0.43 against 0.43, n =
# 100 0.50 / 0.71 against 1.38, n = 144 0.91 / 1.04-1.22 against 3.4-4.4, n =
# 256 3.7-3.9 / 4.4-5.1 against 14.7-18.5 and n = 400 11.2-14.8 / 11.6-12.3
# against 43.5-56.5; a real Schur factor at m = 36 0.037 / 0.034-0.056
# against 0.034-0.057, m = 64 0.071 / 0.10 against 0.10-0.13, m = 127 0.21 /
# 0.29-0.40 against 0.55, m = 287 0.91-0.94 / 0.92-0.94 against 5.5 and m =
# 400 1.86-1.91 / 1.92-1.99 against 11.3-11.7.  At 32 every factor of a
# qubit or rank-deficient plan (n <= 16, m <= 31) and of a pinned face is
# inverted by np.linalg.inv, as before.
TRIANGULAR_LEAF = 32
# Z = S^-1 = Ls^-* Ls^-1 is formed by 2 x 2 blocks of the triangular Ls^-1
# above this order (_inverse_gram), by one product up to it.  The blocks skip
# the products with the zero block: at each level two full products of half
# order and two Grams of half order, about 1/3 of the flops of one product.
# One BLAS thread on a 2-core x86_64 host, best of 5, one product against
# leaves of 32 / 64 / 128, in ms: n = 81 0.090 against 0.133 / 0.095 / -, n =
# 100 0.149 against 0.178 / 0.139 / -, n = 128 0.29 against 0.26 / 0.24 / -,
# n = 144 0.41 against 0.41 / 0.32 / 0.30, n = 256 2.44 against 1.36 / 1.33 /
# 1.48 and n = 400 9.0 against 4.5 / 4.3 / 4.4.
GRAM_LEAF = 64
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

# The phases of solve's clock (SdpSolution.phases): the Cholesky pair, its
# inverses and Z = S^-1; forming and factoring the Schur matrix; the
# predictor and corrector directions; their step lengths, with the centering
# the predictor's lengths set; and the rest (residuals, stop test, updates).
PHASES = ("factor", "schur", "direction", "step", "other")

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
    """Constraints on groups of adjacent tensor slots (:func:`slot_structure`):
    ``shape`` holds the group dimensions, and a block ``(group, rows, ops)``
    the ascending indices of the constraints on one group and their operators
    there, flattened to ``(len(rows), D*D)``: constraint ``rows[j]`` is
    ``embed_at_slot(ops[j].reshape(D, D), group, shape)``.  Its arrays are
    read-only, and every problem posed on it shares it."""

    shape: linalg.FactorShape
    blocks: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    @property
    def n_constraints(self) -> int:
        return sum(len(rows) for _, rows, _ in self.blocks)

    def rows(self, keep: Sequence[int]) -> "SlotStructure":
        """The constraints ``keep`` (ascending), numbered in that order."""
        kept = [(g, rows, ops, np.isin(rows, keep)) for g, rows, ops in self.blocks]
        blocks = tuple(
            (g, np.searchsorted(keep, rows[k]), ops[k]) for g, rows, ops, k in kept if k.any()
        )
        for _, rows, ops in blocks:
            rows.setflags(write=False)
            ops.setflags(write=False)
        return SlotStructure(self.shape, blocks)

    @functools.cached_property
    def rank_decision(self) -> tuple[np.ndarray, np.ndarray, "SlotStructure"]:
        """``(kept, removed, reduced)``: the ascending indices of the
        independent and of the dependent constraints, and the structure of the
        kept ones (this one when none is dependent).

        Row ``k`` is kept when the norm of its component orthogonal to the
        kept rows before it exceeds ``PREPROCESS_RANK_TOL * max(|row k|, 1)``.
        With every row before ``k`` kept, that norm is ``|R_kk|`` of an
        unpivoted QR of the rows, so a system without dependent rows takes one
        QR.  The QR would count a dependent row's rounding residue as a
        direction, so each dependent row found is dropped and the remaining
        rows are factorized again.  The rows are the short coordinates of
        :meth:`coordinates`, whose Gram matrix is that of the real-vectorized
        dense constraints.  Decided on first read and held: every problem
        posed on this structure reads the same decision (:func:`preprocess`).
        """
        rows = self.coordinates()
        thresholds = PREPROCESS_RANK_TOL * np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        kept = np.ones(len(rows), dtype=bool)
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
        for indices in (kept, removed):
            indices.setflags(write=False)
        return kept, removed, (self.rows(kept) if len(removed) else self)

    @functools.cached_property
    def pinned_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Q, U^-1)`` of the QR ``R^T = Q U`` of the real rows ``R = (Re
        A_i, Im A_i)`` of the dense stack, which :func:`_pinned_point` reads
        on structures whose ``n^2`` constraints are independent.  Factored on
        first read and held, as the rank decision is: every problem posed on
        this structure reads the same factor."""
        flat = self.dense().reshape(self.n_constraints, -1)
        q, upper = np.linalg.qr(np.concatenate([flat.real, flat.imag], axis=1).T)
        inv = _triangular_inverse(upper)
        for a in (q, inv):
            a.setflags(write=False)
        return q, inv

    def dense(self) -> np.ndarray:
        """The dense stack ``(m, n, n)`` of the constraints: each group's
        operators written into zeros at their group."""
        n = self.shape.total_dim
        ops = np.zeros((self.n_constraints, n, n), dtype=complex)
        for group, rows, local in self.blocks:
            d = self.shape.dims[group]
            linalg.slot_view(ops, group, self.shape)[rows] = local.reshape(-1, 1, 1, d, d)
        return ops

    def coordinates(self) -> np.ndarray:
        """Rows ``(m, 1 + sum D_g^2)`` with the Gram matrix of the constraints.

        ``embed_at_slot(B, g)`` is ``tr(B)/D_g`` times the identity plus the
        embedded traceless part ``B0``; the embedded traceless parts of
        different groups are orthogonal to each other and to the identity,
        and their norms scale by ``sqrt(n/D_g)``.  The coordinates are
        therefore ``sqrt(n) tr(B)/D_g`` on one identity axis and ``sqrt(n/D_g)
        (Re B0 + Im B0)`` in group ``g``'s block: of a Hermitian matrix the
        real part is symmetric and the imaginary part antisymmetric, so the
        cross terms of the dot product cancel and it is ``Re tr(A0* B0)``.
        """
        dims = self.shape.dims
        n = self.shape.total_dim
        offsets = np.cumsum([1] + [d * d for d in dims])
        out = np.zeros((self.n_constraints, offsets[-1]))
        for group, rows, ops in self.blocks:
            d = dims[group]
            mean = ops[:, :: d + 1].sum(axis=1).real / d
            # Re B0 + Im B0: the diagonal of a symmetrized operator is real
            traceless = ops.real + ops.imag
            traceless[:, :: d + 1] -= mean[:, None]
            out[rows, 0] = math.sqrt(n) * mean
            out[rows, offsets[group]:offsets[group + 1]] = math.sqrt(n / d) * traceless
        return out


@dataclass(frozen=True)
class SdpProblem:
    """Conic program data: objective, targets and constraints, the last
    declared once per shape as local operators on tensor slots and stored as
    one block per group of slots (:class:`SlotStructure`), which problems of
    that shape share (:func:`pose`; :func:`sdp_problem` has one slot spanning
    the space).  ``constraint_ops``, their dense stack, is built from the
    blocks on first read and cached on the problem, not on the structure, so
    that no stack outlives its problem.
    """

    objective: np.ndarray        # (n, n) Hermitian
    constraint_vals: np.ndarray  # (m,) real
    structure: SlotStructure
    interior: np.ndarray | None = None  # positive definite, A(X) = b: solve's start

    @functools.cached_property
    def constraint_ops(self) -> np.ndarray:
        ops = self.structure.dense()
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
    shape = linalg.FactorShape((len(objective),))
    structure = slot_structure(shape, [(0, a) for a, _ in constraints])
    return pose(structure, objective, [b for _, b in constraints])


def slot_structure(
    shape: linalg.FactorShape, operators: Sequence[tuple[int, np.ndarray]]
) -> SlotStructure:
    """Declare the constraints ``(slot, op)``, which read ``<embed_at_slot(op,
    slot, shape), X>``, as a :class:`SlotStructure`: each slot's operators are
    validated and symmetrized as one stack, adjacent slots are grouped while a
    group's dimension stays at most ``SCHUR_GROUP_DIM``, and each stack is
    lifted into its group (``I (x) B (x) I``) by a write into zeros.  The
    structure holds no objective or value: one declared per shape of problem
    is shared, read-only, by every problem posed on it (:func:`pose`), and so
    is the rank decision of :func:`preprocess` that it carries."""
    if shape.total_dim > MAX_VARIABLE_DIM:
        raise ValueError(f"variable dimension {shape.total_dim} exceeds {MAX_VARIABLE_DIM}")
    if not operators:
        raise ValueError("at least one equality constraint is required")
    slots = np.array([int(slot) for slot, _ in operators])
    for slot, (_, op) in zip(slots, operators):
        size = np.shape(op)
        if not 0 <= slot < shape.n_factors or size != (shape.dims[slot],) * 2:
            raise ValueError(f"operator shape {size} does not fit slot {slot} of {shape.dims}")
    dims = shape.dims
    starts = [0]  # the first slot of each group
    for slot in range(1, len(dims)):
        if math.prod(dims[starts[-1]:slot + 1]) > SCHUR_GROUP_DIM:
            starts.append(slot)
    bounds = list(zip(starts, starts[1:] + [len(dims)]))
    blocks = []
    for g, (lo, hi) in enumerate(bounds):
        rows = np.flatnonzero((lo <= slots) & (slots < hi))
        if not len(rows):
            continue
        local = linalg.FactorShape(dims[lo:hi])
        lifted = np.zeros((len(rows), local.total_dim, local.total_dim), dtype=complex)
        for slot in np.unique(slots[rows]):
            at = np.flatnonzero(slots[rows] == slot)
            stack = linalg.hermitian([operators[i][1] for i in rows[at]])
            linalg.slot_view(lifted, slot - lo, local)[at] = stack[:, None, None]
        lifted.setflags(write=False)
        rows.setflags(write=False)
        blocks.append((g, rows, lifted.reshape(len(rows), -1)))
    group_dims = linalg.FactorShape(tuple(math.prod(dims[lo:hi]) for lo, hi in bounds))
    return SlotStructure(group_dims, tuple(blocks))


def pose(
    structure: SlotStructure,
    objective: np.ndarray,
    values: Sequence[float],
    *, interior: np.ndarray | None = None,
) -> SdpProblem:
    """The problem ``minimize <objective, X>`` subject to ``<A_i, X> =
    values[i]`` on the constraints of a declared ``structure``
    (:func:`slot_structure`), which it shares and does not copy.  The
    objective is validated and symmetrized; a declared ``interior`` must be
    Cholesky-positive definite and meet the constraints to ``INTERIOR_TOL``,
    relative."""
    c = linalg.hermitian(objective)
    n = structure.shape.total_dim
    if c.shape != (n, n):
        raise ValueError(f"objective shape {c.shape} does not match the constraints on {n}")
    vals = np.array([float(b) for b in values])
    if len(vals) != structure.n_constraints:
        raise ValueError(f"{len(vals)} values for {structure.n_constraints} constraints")
    if interior is not None:
        interior = linalg.hermitian(interior)
        if interior.shape != c.shape:
            raise ValueError(f"interior point shape {interior.shape} does not match {c.shape}")
        if not _positive_definite(interior):
            raise ValueError("interior point is not positive definite")
        miss = float(np.abs(_slot_applied(interior, structure) - vals).max())
        if miss > INTERIOR_TOL * max(1.0, float(np.abs(vals).max())):
            raise ValueError(f"interior point misses the constraints by {miss:.3e}")
    for arr in (c, vals, *([] if interior is None else [interior])):
        arr.setflags(write=False)
    return SdpProblem(c, vals, structure, interior)


@dataclass(frozen=True)
class PreprocessReport:
    kept: tuple[int, ...]
    removed: tuple[int, ...]
    infeasible: bool
    max_inconsistency: float


def preprocess(problem: SdpProblem) -> tuple[SdpProblem, PreprocessReport]:
    """Drop linearly dependent constraint rows; detect inconsistent duplicates.

    Which rows are dependent depends only on the constraints: the structure
    decides it once (:attr:`SlotStructure.rank_decision`, one unpivoted QR of
    its coordinates when no row is dependent), and every problem posed on it
    reads that decision and its reduced structure.  Per problem, a dependent
    row whose target value disagrees with the induced combination of the kept
    rows (a least-squares fit of the coordinates) signals an infeasible
    system.
    """
    vals = problem.constraint_vals
    kept, removed, structure = problem.structure.rank_decision
    max_inconsistency = 0.0
    infeasible = False
    reduced = problem
    if len(removed):
        rows = problem.structure.coordinates()
        coeffs, *_ = np.linalg.lstsq(rows[kept].T, rows[removed].T, rcond=None)
        predicted = coeffs.T @ vals[kept]
        residues = np.abs(vals[removed] - predicted)
        max_inconsistency = float(residues.max())
        infeasible = bool(
            np.any(residues > PREPROCESS_CONSISTENCY_TOL * np.maximum(1.0, np.abs(vals[removed])))
        )
        # a declared interior point meets the kept rows, and so the dropped ones
        reduced = SdpProblem(problem.objective, vals[kept], structure, problem.interior)
    report = PreprocessReport(
        tuple(int(i) for i in kept), tuple(int(i) for i in removed), infeasible, max_inconsistency
    )
    return reduced, report


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    reason: str  # a key of REASON_STATUS
    iterations: int
    trace: tuple[dict, ...]  # one row per measured iteration; see solve
    timings: dict  # seconds of preprocess, iterate and certify
    phases: dict  # seconds of each of PHASES; their sum is timings["iterate"]
    certificate: Certificate  # certify's verdict on (x, y, s): the solve's report

    @property
    def status(self) -> str:
        return REASON_STATUS[self.reason]

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _cholesky_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(L, L^-1)`` with ``L L* = m``: the Cholesky factor and its
    triangular inverse; when ``m`` is not numerically positive definite, the
    eigen factor ``Q diag(sqrt(w))`` with the eigenvalues floored at
    ``1e-15 max(1, w_max)``, which is not triangular: its inverse is
    ``diag(1 / sqrt(w)) Q*``."""
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(m)
        root = np.sqrt(np.maximum(w, 1e-15 * max(1.0, float(w[-1]))))
        return q * root, (q / root).conj().T
    return low, _lower_inverse(low)


def _cholesky_pair(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors and their inverses, each a stacked pair, of the stacked pair
    ``(X, S)``: one Cholesky call and one inversion for both, else each
    side's :func:`_cholesky_factor`."""
    try:
        low = np.linalg.cholesky(pair)
    except np.linalg.LinAlgError:
        factors, inverses = zip(*(_cholesky_factor(side) for side in pair))
        return np.stack(factors), np.stack(inverses)
    return low, _lower_inverse(low)


def _whitened(inverses: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``L^-1 D L^-*``, exactly Hermitian, for each factor inverse and
    Hermitian ``D`` of the stacked pairs: ``X + alpha D`` stays PSD while
    ``I + alpha L^-1 D L^-*`` does."""
    t = inverses @ d @ inverses.conj().swapaxes(-1, -2)
    # 0.5 (t + t*), in place: on large stacks a third temporary would raise
    # the peak memory of a solve
    t += t.conj().swapaxes(-1, -2)
    t *= 0.5
    return t


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re tr(a b)``."""
    return float(np.einsum("ab,ba->", a, b).real)


def _boundary_step(lam: float) -> float:
    """Largest ``alpha`` with ``1 + alpha * lam >= 0``."""
    if lam >= 0.0:
        return np.inf
    return 1.0 / (-lam)


@functools.cache
def _lanczos_start(n: int) -> np.ndarray:
    """The fixed unit start vector of :func:`_ritz_ends` at dimension ``n``:
    pseudo-random, so that no structure of a plan makes it orthogonal to an
    extreme eigenvector, and fixed, so that solves stay deterministic.  Drawn
    once a dimension (at most 6.4 kB each, n <= MAX_VARIABLE_DIM) and
    read-only: a K=4 solve reads it 24 times, and a draw takes about 20 us
    (timeit, n = 256, 2-core x86_64 host)."""
    v = np.random.default_rng(n).standard_normal((2, n))
    v = v[0] + 1j * v[1]
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


def _ritz_ends(
    t: np.ndarray, inverses: np.ndarray, tol: float = 0.0, runs: list[int] | None = None
) -> np.ndarray:
    """Smallest and largest Ritz values and the residual bound of the
    smallest, ``(len(t), 3)``, of Lanczos with full reorthogonalization on
    each ``L^-1 t L^-*`` of :func:`_whitened`, for the stack ``t`` of
    Hermitian matrices and the stacked factor inverses ``L^-1``, from
    :func:`_lanczos_start`, without forming it: three matrix-vector products
    a step in place of two matrix products, ``L^-* q`` read as ``conj(L^-T
    conj(q))`` so that no conjugate copy of the inverses is made.  The basis
    stays orthonormal, so the Ritz values lie inside the spectrum and a step
    length read from them is never too short.  The stacked run stops once every side's smallest
    Ritz value ``theta`` has its residual bound ``|beta_{j+1} s_j|`` (``s``
    its eigenvector of the tridiagonal matrix) at most ``tol * max(|theta|,
    1)``: an eigenvalue lies within the bound of ``theta`` (Parlett, The
    Symmetric Eigenvalue Problem, 1998, section 13.2), and ``theta`` falls
    toward the smallest eigenvalue at a rate that its gap to the rest of the
    spectrum sets (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl.
    1992).  ``LANCZOS_STEPS`` caps the run (``tol = 0`` runs to it), and
    ``runs``, when given, receives the number of steps taken.  A side whose
    run breaks down reads nan: a residual at or below ``sqrt(eps)`` times
    ``|T q|`` (the Krylov space is numerically invariant) or a non-finite
    one."""
    sides, n = len(t), t.shape[-1]
    transposed = inverses.swapaxes(-1, -2)

    def product(q: np.ndarray) -> np.ndarray:
        return np.matmul(inverses, np.matmul(t, np.matmul(transposed, q.conj()).conj()))
    k = LANCZOS_STEPS
    basis = np.empty((sides, k, n), dtype=complex)
    dual = np.empty_like(basis)  # the conjugate basis, read by each projection
    tri = np.zeros((sides, k, k))
    broken = np.zeros(sides, dtype=bool)
    q = np.broadcast_to(_lanczos_start(n), (sides, n))
    for j in range(k):
        basis[:, j] = q
        np.conj(q, out=dual[:, j])
        w = product(q[:, :, None])[:, :, 0]
        reach = np.linalg.norm(w, axis=1)
        # the three-term recurrence, as w's projection on the whole basis,
        # taken twice: once a Ritz value converges, one pass leaves rounding
        # along its vector that grows by |T q| / beta a step
        for _ in range(2):
            coef = np.matmul(dual[:, : j + 1], w[:, :, None])
            w -= np.matmul(coef.transpose(0, 2, 1), basis[:, : j + 1])[:, 0]
            tri[:, j, j] += coef[:, j, 0].real
        beta = np.linalg.norm(w, axis=1)
        broken |= ~(beta > math.sqrt(np.finfo(float).eps) * reach)
        tri[broken] = 0.0  # a broken side may hold non-finite entries
        ritz, vectors = np.linalg.eigh(tri[:, : j + 1, : j + 1])
        bound = beta * np.abs(vectors[:, j, 0])
        if j + 1 == k or np.all(broken | (bound <= tol * np.maximum(np.abs(ritz[:, 0]), 1.0))):
            break
        beta[broken] = 1.0
        tri[:, j + 1, j] = beta
        q = w / beta[:, None]
    if runs is not None:
        runs.append(j + 1)
    ends = np.stack([ritz[:, 0], ritz[:, -1], bound], axis=1)
    ends[broken] = np.nan
    return ends


def _positive_definite(a: np.ndarray) -> bool:
    """Whether the Cholesky factorization of ``a`` succeeds."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _step_lengths(
    d: np.ndarray, inverses: np.ndarray, pair: np.ndarray | None = None,
    runs: list[int] | None = None,
) -> tuple[list[float], int]:
    """Boundary steps ``a`` of the stacked steps ``d`` whitened by the stacked
    factor inverses (:func:`_whitened`), the largest ``alpha`` with ``I +
    alpha T`` PSD, and the number of sides read from full spectra on a plan
    that reads Ritz values.  Below ``4 * LANCZOS_STEPS`` each is read from
    ``eigvalsh``, with none counted.  Above, a side takes the smallest Ritz
    value ``theta`` of :func:`_ritz_ends`, from a run on the unformed ``T``
    that stops once the residual bound of ``theta`` is at most ``LANCZOS_MARGIN
    / 5`` times ``max(|theta|, 1)`` (``LANCZOS_MARGIN`` times for the
    predictor); ``runs``, when given, receives its number of steps.
    Without the stacked iterates ``pair`` (the predictor's lengths, which
    only set sigma) the step is ``1 / (-theta)``, unchecked.  With them (the
    corrector's) it is ``a = (1 - LANCZOS_MARGIN) / (-theta)``, kept when
    ``I + beta T`` is positive definite for ``beta = alpha /
    STEP_FRACTION``, with ``alpha = min(1, STEP_FRACTION a)`` the step that
    ``solve`` takes: then ``alpha`` is below ``STEP_FRACTION`` times the true
    boundary step.  The proof is a Cholesky factorization of ``P + beta D``
    for the side's iterate ``P``, congruent to ``I + beta T`` through the
    side's factor ``L`` (``P + beta D = L (I + beta T) L*``), so ``T`` is not
    formed.  That factorization carries the rounding of ``P``, absolute, and
    refuses safe steps on an iterate of condition near ``1 / eps``, which
    near-pure plans reach; a side it refuses forms ``T`` and factors ``I +
    beta T``, whose rounding is relative.  A side whose checks fail, whose
    run breaks down or whose Ritz value is not finite is read from
    ``eigvalsh`` of its formed ``T``.  A stopped run's ``theta`` still lies
    above the smallest eigenvalue, so the check keeps every step it accepts
    inside the fraction of the boundary; a run stopped short of the margin
    only costs a fallback."""
    n = d.shape[-1]
    if n < 4 * LANCZOS_STEPS:
        lows = np.linalg.eigvalsh(_whitened(inverses, d))[:, 0]
        return [_boundary_step(float(lam)) for lam in lows], 0
    # measured at the LANCZOS_MARGIN comment
    tol = LANCZOS_MARGIN / 5 if pair is not None else LANCZOS_MARGIN
    steps = []
    formed = {}
    for k, theta in enumerate(_ritz_ends(d, inverses, tol, runs)[:, 0]):
        step = np.nan
        if math.isfinite(theta):
            step = _boundary_step(float(theta))
            if pair is not None:
                step *= 1.0 - LANCZOS_MARGIN
                beta = min(1.0, STEP_FRACTION * step) / STEP_FRACTION
                if not _positive_definite(pair[k] + beta * d[k]):
                    formed[k] = _whitened(inverses[k], d[k])
                    check = beta * formed[k]
                    check.flat[:: n + 1] += 1.0
                    if not _positive_definite(check):
                        step = np.nan
        steps.append(step)
    fallen = [k for k, step in enumerate(steps) if math.isnan(step)]
    if fallen:
        t = np.stack([formed[k] if k in formed else _whitened(inverses[k], d[k]) for k in fallen])
        for k, lam in zip(fallen, np.linalg.eigvalsh(t)[:, 0]):
            steps[k] = _boundary_step(float(lam))
    return steps, len(fallen)


def _slot_schur(x: np.ndarray, z: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """Schur matrix ``M_ij = Re tr(A_i X A_j Z)`` of slot-structured
    constraints, for Hermitian ``X`` and ``Z``.

    With ``E_ab`` the unit operator ``|a><b|`` embedded at group ``s`` and
    ``E_ce`` at group ``t``, ``T_st[(a,b),(c,e)] = tr(E_ab X E_ce Z)`` is the
    product ``Yx Yz*`` of ``X`` and ``Z`` reshaped so that their rows are
    indexed by the row index at ``s`` and the column index at ``t``, which
    costs ``D_s D_t n^2``.  The block of the constraints at ``s`` against
    those at ``t`` is ``Re(B_s T_st B_t^T)`` with the flattened operators as
    rows.  Each pair of groups copies ``X`` and ``Z`` into a new layout once,
    so fewer, larger groups take fewer copies (``SCHUR_GROUP_DIM``).  The
    blocks are written as slices in block order, and the matrix is permuted
    into constraint order once.
    """
    dims = structure.shape.dims
    k = len(dims)
    tensors = [a.reshape(dims + dims) for a in (x, z)]
    blocks = structure.blocks
    m = structure.n_constraints
    ends = np.cumsum([len(rows) for _, rows, _ in blocks])
    spans = [slice(end - len(rows), end) for end, (_, rows, _) in zip(ends, blocks)]
    out = np.empty((m, m))
    for g, (s, _, ops_s) in enumerate(blocks):
        for h in range(g, len(blocks)):
            t, _, ops_t = blocks[h]
            ds, dt = dims[s], dims[t]
            yx, yz = (
                np.moveaxis(a, (s, k + t), (0, 1)).reshape(ds * dt, -1) for a in tensors
            )
            gram = (yx @ yz.conj().T).reshape(ds, dt, ds, dt)
            coupling = gram.transpose(2, 0, 1, 3).reshape(ds * ds, dt * dt)
            block = (ops_s @ coupling @ ops_t.T).real
            if s == t:
                block = 0.5 * (block + block.T)
            out[spans[g], spans[h]] = block
            out[spans[h], spans[g]] = block.T
    order = np.concatenate([rows for _, rows, _ in blocks])
    if np.array_equal(order, np.arange(m)):
        return out
    ordered = np.empty_like(out)
    ordered[np.ix_(order, order)] = out
    return ordered


def _scaled_rows(ops: np.ndarray, lx: np.ndarray, inv_s: np.ndarray) -> np.ndarray:
    """Real rows ``(Re F_i, Im F_i)`` of ``F_i = Ls^-1 A_i Lx`` for the dense
    stack ``ops``: their Gram matrix is ``Re tr(A_i X A_j Z)`` with ``X = Lx
    Lx*`` and ``Z = S^-1 = Ls^-* Ls^-1``."""
    f = np.matmul(np.matmul(inv_s[None], ops), lx).reshape(len(ops), -1)
    return np.concatenate([f.real, f.imag], axis=1)


def _slot_applied(z: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """``Re tr(A_i Z)`` for every constraint, from the group marginals of ``Z``."""
    out = np.empty(structure.n_constraints)
    for group, rows, ops in structure.blocks:
        outer, d, inner = structure.shape.frame(group)
        marginal = np.einsum("iajibj->ab", z.reshape(outer, d, inner, outer, d, inner))
        # Re tr(A Z) = Re sum_ab B[a, b] marginal[b, a]
        out[rows] = (ops @ marginal.T.reshape(-1)).real
    return out


def _slot_applied_product(x: np.ndarray, w: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """``Re tr(A_i X W)`` for every constraint, without forming ``X W``: the
    group marginal of ``X W``, ``sum_{o,i,k} X[(o,a,i), k] W[k, (o,b,i)]``,
    is one batched product of ``X``'s rows at the group with a copy of
    ``W``'s columns at it, at ``D_g n^2`` a group against ``n^3`` for the
    product."""
    n = len(x)
    out = np.empty(structure.n_constraints)
    for group, rows, ops in structure.blocks:
        outer, d, inner = structure.shape.frame(group)
        rows_x = x.reshape(outer, d, inner * n)
        cols_w = w.reshape(n, outer, d, inner).transpose(1, 3, 0, 2).reshape(outer, inner * n, d)
        marginal = np.matmul(rows_x, cols_w).sum(axis=0)
        out[rows] = (ops @ marginal.T.reshape(-1)).real
    return out


def _slot_adjoint(y: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """``sum_i y_i A_i``: per group, the combination of its operators
    embedded as identity on the other groups."""
    n = structure.shape.total_dim
    out = np.zeros((n, n), dtype=complex)
    for group, rows, ops in structure.blocks:
        d = structure.shape.dims[group]
        linalg.slot_view(out, group, structure.shape)[...] += (y[rows] @ ops).reshape(d, d)
    return out


def _slot_adjoint_product(y: np.ndarray, z: np.ndarray, structure: SlotStructure) -> np.ndarray:
    """``A*(y) Z = sum_g (I (x) B_g (x) I) Z`` with ``B_g`` the combination of
    the operators of group ``g``: one batched product of ``B_g`` with the
    rows of ``Z`` at its group per group, at ``D_g n^2``, the first written
    into the result and each other added to it in place."""
    n = len(z)
    out = np.empty((n, n), dtype=complex)
    part = None
    for group, rows, ops in structure.blocks:
        outer, d, inner = structure.shape.frame(group)
        # row (o, a, i) of (I (x) B (x) I) Z is sum_b B[a, b] Z[(o, b, i), :]
        layout = (outer, d, inner * n)
        local = (y[rows] @ ops).reshape(d, d)
        if part is None:
            np.matmul(local, z.reshape(layout), out=out.reshape(layout))
            part = np.empty_like(out)
        else:
            np.matmul(local, z.reshape(layout), out=part.reshape(layout))
            out += part
    return out


def _slot_reads(problem: SdpProblem) -> SlotStructure | None:
    """The structure the iteration reads ``problem`` through, or None for the
    dense stack (one group, or a plan below ``STRUCTURED_MIN_DIM``)."""
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
    group, ``V* A_i V = sum_ab B_i[a,b] G[a,:,b,:]`` with the Gram product
    ``G[a,c,b,e] = sum_{o,i} conj(V[o,a,i,c]) V[o,b,i,e]``, at ``D k^2 n``."""
    k = v.shape[1]
    shape = problem.structure.shape
    out = np.empty((problem.n_constraints, k, k), dtype=complex)
    for group, rows, ops in problem.structure.blocks:
        outer, d, inner = shape.frame(group)
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


def _triangular_inverse(upper: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular matrix, or of each of a stack:
    ``np.linalg.inv`` up to ``TRIANGULAR_LEAF`` rows (upper triangular, so
    the LU inside it meets no pivot: back substitution), else by blocks,
    ``[[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]]``, which spends
    its work in products."""
    m = upper.shape[-1]
    if m <= TRIANGULAR_LEAF:
        return np.linalg.inv(upper)
    h = m // 2
    head = _triangular_inverse(upper[..., :h, :h])
    tail = _triangular_inverse(upper[..., h:, h:])
    out = np.zeros_like(upper)
    out[..., :h, :h] = head
    out[..., h:, h:] = tail
    out[..., :h, h:] = -(head @ upper[..., :h, h:]) @ tail
    return out


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular matrix, or of each of a stack, as the
    transpose of :func:`_triangular_inverse` of its transpose."""
    return _triangular_inverse(lower.swapaxes(-1, -2)).swapaxes(-1, -2)


def _inverse_gram(w: np.ndarray) -> np.ndarray:
    """``W* W``, by 2 x 2 blocks above ``GRAM_LEAF`` rows when ``W`` is lower
    triangular: ``[[A, 0], [B, C]]`` gives ``[[A* A + B* B, B* C], [C* B,
    C* C]]``, the diagonal blocks again triangular Grams, and no product
    with the zero block.  A ``W`` whose upper right block is not zero (the
    eigen factor of :func:`_cholesky_factor`) takes the full product."""
    m = len(w)
    h = m // 2
    if m <= GRAM_LEAF or w[:h, h:].any():
        return w.conj().T @ w
    b = w[h:, :h]
    b_adj = b.conj().T
    out = np.empty_like(w)
    out[:h, :h] = _inverse_gram(w[:h, :h])
    out[:h, :h] += b_adj @ b
    np.matmul(b_adj, w[h:, h:], out=out[:h, h:])
    out[h:, :h] = out[:h, h:].conj().T
    out[h:, h:] = _inverse_gram(w[h:, h:])
    return out


def _triangular_solver(upper: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Solver of ``M v = rhs`` from an upper triangular ``U`` with ``U^T U ~
    M``, and the diagonal ratio of ``U``, which estimates ``sqrt(cond(M))``.
    ``U`` is inverted once, so that a solve is two products."""
    diag = np.abs(upper.diagonal())
    inv = _triangular_inverse(upper)
    return (lambda rhs: inv @ (inv.T @ rhs)), float(diag.max() / diag.min())


@functools.cache
def _strictly_lower(m: int) -> np.ndarray:
    """The read-only mask of the entries below the diagonal of an ``m x m``
    matrix."""
    mask = np.tri(m, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _qr_factor(rows: np.ndarray) -> np.ndarray:
    """``R`` of the unpivoted QR of ``rows.T`` for ``m`` rows, bitwise the
    array ``np.linalg.qr(rows.T, mode="r")`` returns: the transpose of the
    ``raw`` output holds ``R`` in its upper triangle, and the entries below
    are zeroed through the mask of :func:`_strictly_lower`, where ``np.triu``
    would build one a call."""
    m = len(rows)
    householder, _ = np.linalg.qr(rows.T, mode="raw")
    return np.where(_strictly_lower(m), 0.0, householder[:, :m].T)


def _schur_solver(
    mat: np.ndarray, shift: bool
) -> tuple[Callable[[np.ndarray], np.ndarray], float, bool] | None:
    """:func:`_triangular_solver` of a formed Schur matrix, from its Cholesky
    factor, and whether the factor is of the shifted matrix.  Near a
    degenerate optimal face the factorization breaks down: then None, or
    with ``shift`` (plans at or above the Lanczos gate) the factor of the
    diagonal shifted by ``eps m max(diag)``, whose bias the corrector's
    refinement corrects.  Only near-pure plans reach the shift:
    at eps = 1e-6, 8 of 16 pairs at d = 9, 10 (4 of them 12-20 times, ending
    mu_floor) and 6 of 12 at d = 11-14 (once, all optimal).  No bench or
    perfbench solve breaks down or stops at ``SCHUR_COND_LIMIT``."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        if not shift:
            return None
        bump = np.finfo(float).eps * len(mat) * float(mat.diagonal().max())
        return *_triangular_solver(np.linalg.cholesky(mat + bump * np.eye(len(mat))).T), True
    return *_triangular_solver(chol.T), False


def _pinned_point(problem: SdpProblem) -> tuple[np.ndarray, np.ndarray]:
    """``(X0, y0)`` of a problem whose ``n^2`` independent constraints span
    the Hermitian matrices, so that ``A`` and ``A*`` are invertible: the
    unique solutions of ``A(X0) = b`` and ``A*(y0) = C``, whose dual slack
    ``C - A*(y0)`` vanishes but for rounding.  Both come from one QR ``R^T =
    Q U`` of the real rows ``R = (Re A_i, Im A_i)`` of the dense stack: ``y0
    = U^-1 Q^T (Re C, Im C)``, and ``X0`` is the Hermitian part of ``Q U^-T
    b`` read as ``Re X0 + i Im X0``, one triangular solve where ``A*(w)``
    with ``U^T U w = b`` would take two and square the conditioning."""
    n = problem.dim
    q, inv = problem.structure.pinned_factor
    c = problem.objective.reshape(-1)
    y = inv @ (q.T @ np.concatenate([c.real, c.imag]))
    v = q @ (inv.T @ problem.constraint_vals)
    x = (v[: n * n] + 1j * v[n * n:]).reshape(n, n)
    return 0.5 * (x + x.conj().T), y


def _accepted(row: dict, pobj: float, dobj: float, tol: float) -> bool:
    """The ``tol`` clauses of the stop test of :func:`solve` on the residuals
    and gap of a ``trace`` row; the cone is :func:`certify`'s to read."""
    scale = max(1.0, abs(pobj))
    return (
        row["rp"] <= tol
        and row["rd"] <= tol
        and row["gap"] <= tol * scale
        # keep weak duality in the reported pair: residual-induced crossover
        # of the objectives must stay below roundoff scale, which grows with
        # the objective
        and dobj - pobj <= 5e-10 * scale
    )


def solve(problem: SdpProblem, *, tol: float = TOL) -> SdpSolution:
    """Run the interior-point iteration (:func:`_iterate`); deterministic for
    identical inputs at a fixed BLAS thread count.
    Every stop leaves through one exit, which returns a point and its
    ``certificate``, the solve's report of objectives, gap and residuals.  An
    iterate whose trace row passes the ``tol`` clauses (:func:`_accepted`)
    ends ``converged`` when :func:`certify` passes it, and that certificate
    is returned; any other stop certifies the point it returns: the last
    iterate (on the divergence guard's stop, the refused one), or on
    ``preprocess_infeasible`` the zero point.  No ``optimal`` solve fails its
    ``certificate``.  It starts at ``(problem.interior or tau I, tau I)`` with
    ``y = 0``, unless the ``n^2`` kept constraints pin the plan and the stop
    test accepts ``(X0, C - A*(y0), y0)`` of :func:`_pinned_point`: then it
    ends there, ``converged`` at iteration 0.  Rounding in ``C - A*(y0)`` can
    fail the certificate's cone threshold (cost entries near 1e7), and such
    problems start as every other.  A ``trace`` row holds ``mu``, ``rp``,
    ``rd`` and ``gap``, and on an iteration that steps also ``schur_ratio``,
    ``ap``, ``ad``, ``sigma``, ``step_fallbacks``, the number of corrector
    sides (0-2) whose length a full spectrum gave on a plan that reads Ritz
    values, and ``ritz_steps``, the Lanczos steps of the predictor's and the
    corrector's runs (both always 0 below the gate), ``route``, the Schur
    factor's: ``slot``, ``qr``, or ``switched`` on the iteration whose
    breakdown switched a slot-route plan to QR, and ``shifted``, whether the
    factor is of the shifted matrix (:func:`_schur_solver`).  The last row
    measures the returned point, but for the divergence guard's stop, which
    refuses an iterate before measuring it, and ``preprocess_infeasible``,
    which records no row.  ``timings`` holds the seconds of ``preprocess``,
    of ``iterate``, everything after it but certifying, and of ``certify``,
    and ``phases`` splits ``iterate`` by the clock of ``PHASES``, read at
    seven laps an iteration."""
    start = time.perf_counter()
    reduced, report = preprocess(problem)
    iterate_start = mark = time.perf_counter()
    timings = {"preprocess": iterate_start - start, "iterate": 0.0, "certify": 0.0}
    phases = dict.fromkeys(PHASES, 0.0)

    def lap(phase: str, clock: dict = phases) -> None:
        """Add the seconds since the last lap to ``clock[phase]``."""
        nonlocal mark
        now = time.perf_counter()
        clock[phase] += now - mark
        mark = now

    def certified(pair: np.ndarray, y: np.ndarray) -> types.SimpleNamespace:
        """``x``, ``y`` (zero on dropped rows) and ``s`` on ``problem`` and their
        ``certificate``, whose seconds go to ``timings``, off the phases."""
        lap("other")
        point = types.SimpleNamespace(x=pair[0], y=np.zeros(problem.n_constraints), s=pair[1])
        point.y[list(report.kept)] = y
        point.certificate = certify(point, problem)
        lap("certify", timings)
        return point

    trace: list[dict] = []
    if report.infeasible:
        reason, iterations, point = "preprocess_infeasible", 0, None
        pair, y = np.zeros((2, *problem.objective.shape), dtype=complex), np.zeros(len(report.kept))
    else:
        reason, iterations, pair, y, point = _iterate(reduced, tol, trace, lap, certified)
    point = point or certified(pair, y)
    lap("other")
    timings["iterate"] = mark - iterate_start - timings["certify"]
    return SdpSolution(
        x=point.x, y=point.y, s=point.s, reason=reason, iterations=iterations,
        trace=tuple(trace), timings=timings, phases=phases, certificate=point.certificate,
    )


def _iterate(
    reduced: SdpProblem, tol: float, trace: list[dict], lap: Callable, certified: Callable
) -> tuple[str, int, np.ndarray, np.ndarray, types.SimpleNamespace | None]:
    """:func:`solve`'s iteration on the preprocessed problem, with solve's
    phase clock ``lap`` and certifier ``certified``: ``(reason, iterations,
    (X, S), y, point)``, ``point`` the certified candidate that the stop test
    accepted, else None; a row a measured iteration goes to ``trace``.  An
    iteration takes the HKM direction from the Cholesky factors of X and S,
    their triangular inverses and ``Z = S^-1 = Ls^-* Ls^-1``
    (:func:`_inverse_gram`): a predictor (affine) step and a Mehrotra
    corrector centered at ``sigma mu`` with ``sigma = min(1, (mu_aff / mu)
    ** CENTERING_EXPONENT)``, ``sigma >= 0.5`` when a predictor step is
    shorter than 0.2, where ``mu_aff = tr((X + ap dX_aff)(S + ad dS_aff)) /
    n``, each side's step length read by :func:`_step_lengths`."""
    c = reduced.objective
    b = reduced.constraint_vals
    n = reduced.dim
    m = len(b)
    structure = _slot_reads(reduced)
    apply, adjoint = _constraint_maps(reduced)
    # below the gate a plan forms its matrices (module docstring)
    formed = n < 4 * LANCZOS_STEPS
    qr = structure is None

    tau = max(1.0, float(np.abs(c).max()))
    # X and S as one stacked pair, so that each side's factor, update and step
    # length is one call for both
    pair = tau * np.stack([np.eye(n, dtype=complex)] * 2)
    if reduced.interior is not None:
        pair[0] = reduced.interior
    y = np.zeros(m)

    def measured(pair: np.ndarray, y: np.ndarray) -> tuple:
        """``(rd, rp, row, pobj, dobj)`` of the iterates: absolute residuals,
        matching the certification invariants."""
        x, s = pair
        rd = c - s - adjoint(y)
        rp = b - apply(x)
        pobj = _trace_product(c, x)
        dobj = float(b @ y)
        row = {"mu": _trace_product(x, s) / n, "rp": float(np.abs(rp).max()),
               "rd": float(np.abs(rd).max()), "gap": abs(pobj - dobj)}
        return rd, rp, row, pobj, dobj

    if m == n * n:
        x0, y0 = _pinned_point(reduced)
        pinned = np.stack([x0, c - adjoint(y0)])
        _, _, row, pobj, dobj = measured(pinned, y0)
        if _accepted(row, pobj, dobj, tol) and (point := certified(pinned, y0)).certificate.passed:
            trace.append(row)
            return "converged", 0, pinned, y0, point

    reason = "max_iter"
    for iterations in range(MAX_ITER + 1):
        x, s = pair
        if max(float(np.abs(pair).max()), float(np.abs(y).max())) > DIVERGENCE_LIMIT:
            reason = "diverged"
            break
        rd, rp, row, pobj, dobj = measured(pair, y)
        mu = row["mu"]
        # one row per measured iteration; a stepping iteration completes it
        trace.append(row)

        if _accepted(row, pobj, dobj, tol) and (point := certified(pair, y)).certificate.passed:
            return "converged", iterations, pair, y, point
        if iterations == MAX_ITER:
            break
        if mu < MU_FLOOR:
            # tr(XS) >= 0 in the cone: a negative mu is rounding, of diverging
            # iterates or of a stall on large costs (rd near eps |S|), not a floor
            reason = "mu_floor" if mu >= 0 else "diverged"
            break

        # The HKM direction (Helmberg, Rendl, Vanderbei & Wolkowicz 1996)
        # from X = Lx Lx* and S = Ls Ls*: with Z = S^-1 = Ls^-* Ls^-1, the
        # central-path equation X S = sigma mu I is linearized as
        # dX + X dS Z = sigma mu Z - X, and the Hermitian part of dX is taken.
        # It needs the Cholesky factors and their triangular inverses, which
        # also whiten the steps for their lengths, and no eigen or singular
        # value factorization.
        lap("other")
        factors, inverses = _cholesky_pair(pair)
        z = _inverse_gram(inverses[1])
        lap("factor")

        # The Schur complement is M_ij = Re tr(A_i X A_j Z), symmetric positive
        # definite, the Gram matrix of F_i = Ls^-1 A_i Lx.  With slot
        # structure, M is formed from contractions of X and Z over groups of
        # slots (D_g D_h n^2 per pair of groups, no F_i; _slot_schur) and
        # Cholesky-factored (_schur_solver).  Problems read through the dense
        # stack, and slot-route plans below the gate from their first
        # breakdown on, QR-factor the rows of F instead (_scaled_rows), M =
        # R_f^T R_f, and never square the conditioning by forming M.  Either
        # triangular factor is inverted once, so that a solve is two products
        # (_triangular_solver); its diagonal ratio estimates sqrt(cond(M)).
        route, shifted = "slot", False
        try:
            found = None if qr else _schur_solver(_slot_schur(x, z, structure), not formed)
            if found is None:
                route = "qr" if qr else "switched"
                qr = True
                rows = _scaled_rows(reduced.constraint_ops, factors[0], inverses[1])
                schur_solve, ratio = _triangular_solver(_qr_factor(rows))
            else:
                schur_solve, ratio, shifted = found
        except np.linalg.LinAlgError:  # a singular factor, even shifted
            ratio = np.inf
        lap("schur")
        del factors  # read only by the scaled rows, not held at the peak memory
        if ratio > SCHUR_COND_LIMIT:
            reason = "schur_conditioning"
            break

        # X dS Z is X rd Z - X (A*(dy) Z) and the Mehrotra term dX_aff dS_aff
        # Z is dX_aff (rd Z - A*(dy_aff) Z).  On slot-route plans above the
        # gate (marginal) A*(v) Z is the slot product at d_g n^2 a group, and
        # the corrector's refinement reads A(X A*(dy) Z) from group marginals
        # at d_g n^2 a group, so that X A*(dy) Z is formed once, after it:
        # an iteration takes 6 n x n products, Z, 2 for X rd Z and one each
        # for the predictor, the corrector and the Mehrotra term.  Other
        # plans form A*(v), which dS needs, times Z, and refine on the formed
        # dX.
        rdz = rd @ z
        xrdz = x @ rdz
        marginal = not (formed or qr)

        def adjoint_z(v: np.ndarray, back: np.ndarray) -> np.ndarray:  # back = A*(v)
            return _slot_adjoint_product(v, z, structure) if marginal else back @ z

        def direction(
            target: np.ndarray, refined: bool
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
            """``(dy, (dX, dS), A*(dy) Z)`` with ``A(dX) = rp``, ``dS + A*(dy)
            = rd`` and ``dX`` the Hermitian part of ``target - X dS Z``: the
            Schur system is ``M dy = rp - A(target) + A(X rd Z)``.
            ``refined`` takes one step of refinement against the operator ``v
            -> A(X A*(v) Z)``, the only refinement of a Schur solve, and
            returns None for ``A*(dy) Z``, which only the predictor's Mehrotra
            term reads.  The operator differs from the factored M by the
            rounding of the factor, which grows with |Z| = 1 / lambda_min(S),
            and by the breakdown shift.  Without the step, 30 nonlinear pairs
            at d = 3-8 (default_rng([d, s, 99]), s < 5) ended with equality
            residuals up to 1.0e-10 against 4.5e-14 with it, in the same 325
            iterations.  The predictor's direction only sets sigma and takes
            none."""
            rhs = rp + apply(xrdz - target)
            dy = schur_solve(rhs)
            back = adjoint(dy)
            ds = rd - back
            dyz = adjoint_z(dy, back)
            del back  # an n x n array held through dX's products raises peak memory
            if refined and marginal:
                # A(dX) = A(target - X rd Z) + A(X A*(dy) Z), read without dX
                step = schur_solve(rhs - _slot_applied_product(x, dyz, structure))
                dy = dy + step
                ds -= adjoint(step)
                dyz = _slot_adjoint_product(dy, z, structure)
            dx = target - xrdz + x @ dyz
            if refined and not marginal:
                step = schur_solve(rp - apply(dx))
                dy = dy + step
                back = adjoint(step)
                ds -= back
                dx += x @ adjoint_z(step, back)
                del back
            # the Hermitian part of dX written into the stacked pair, so that
            # no third n x n temporary raises the solve's peak memory
            d = np.empty((2, n, n), dtype=complex)
            np.add(dx, dx.conj().T, out=d[0])
            d[0] *= 0.5
            d[1] = ds
            return dy, d, None if refined else dyz

        # Predictor (affine direction, sigma = 0).  These lengths only set
        # sigma and are never taken, so Ritz values need no check.
        _, d_aff, dyz_aff = direction(-x, refined=False)
        lap("direction")
        runs: list[int] = []  # Lanczos steps of the two step-length runs
        steps, _ = _step_lengths(d_aff, inverses, runs=runs)
        ap, ad = (min(1.0, a) for a in steps)
        mu_aff = max(_trace_product(x + ap * d_aff[0], s + ad * d_aff[1]) / n, 0.0)
        sigma = min(1.0, (mu_aff / mu) ** CENTERING_EXPONENT) if mu > 0 else 0.0
        if min(ap, ad) < 0.2:
            # Heavily truncated affine steps (empty or near-empty interior):
            # bias toward centering instead of trusting the Mehrotra probe.
            sigma = max(sigma, 0.5)
        lap("step")

        # Corrector with the Mehrotra second-order term dX_aff dS_aff Z.  The
        # predictor's arrays are released first: the next iteration's
        # factorization, the peak of a solve's memory, would hold them.
        second = d_aff[0] @ (rdz - dyz_aff)
        del rdz, dyz_aff, d_aff
        dy, d, _ = direction(sigma * mu * z - x - second, refined=True)
        lap("direction")

        steps, fallbacks = _step_lengths(d, inverses, pair, runs)
        ap, ad = (min(1.0, STEP_FRACTION * a) for a in steps)
        lap("step")
        if ap < 1e-13 and ad < 1e-13:
            reason = "stalled_step"
            break
        row.update(schur_ratio=ratio, ap=ap, ad=ad, sigma=sigma, step_fallbacks=float(fallbacks),
                   ritz_steps=float(sum(runs)), route=route, shifted=shifted)

        # in place, rounding as pair + [ap, ad] d does
        d *= np.array([ap, ad])[:, None, None]
        pair += d
        y = y + ad * dy

    # the last measured row: a guarded stop records none for the refused iterate
    if trace and trace[-1]["rp"] > 1e-4 and _farkas_ray(y, b, adjoint):
        reason = "reclassified_infeasible"
    return reason, iterations, pair, y, None


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
    # the Hermitian parts 0.5 (m + m*), formed in place: on large plans a
    # stack of temporaries would raise the peak memory of a solve
    parts = np.empty((2, *x.shape), dtype=complex)
    for part, m in zip(parts, (x, s)):
        np.conj(m.T, out=part)
        part += m
        part *= 0.5
    min_x, min_s = linalg.min_eigenvalues(parts)
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
