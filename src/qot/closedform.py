"""Closed-form qubit results: distances, divergences, couplings, potentials.

These formulas cover commuting qubit pairs under the symmetric three-Pauli
cost and qubit pairs under the single-``sigma_z`` cost (both for states in
the xy plane and for states commuting with ``sigma_z``), and, in any
dimension, commuting data whose cost matrix is Monge (:func:`d_monge`).
Every formula is evaluated exactly as written, with no algebraic
simplification, so the suite can hold it against the independent SDP route.
The explicit optimal couplings and dual potentials serve as primal/dual
witnesses: a feasible coupling upper-bounds the optimum, a feasible
potential pair lower-bounds it, and here the two bounds meet.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .linalg import FactorShape
from .transport import Coupling, DualPotentials

__all__ = [
    "state_from_bloch",
    "state_z",
    "state_x",
    "d_symm_commuting",
    "d_symm_general",
    "coupling_symm_commuting",
    "potentials_symm_commuting",
    "divergence_symm_commuting",
    "d_z_xy",
    "coupling_z_xy",
    "potentials_z_xy",
    "d_z_commuting",
    "coupling_z_commuting",
    "potentials_z_commuting",
    "divergence_z_xy",
    "d_monge",
    "triangle_margin_symm",
    "triangle_margin_z",
]

_PAIR = FactorShape.pair_space(2)
# Bloch-vector components below this count as zero: in the collinearity test
# of the commuting-pair formulas and in the command line's choice of a
# closed-form family, which must agree
COLLINEAR_TOL = 1e-10


def state_from_bloch(r) -> np.ndarray:
    """Qubit state ``(I + r . sigma) / 2`` for a Bloch vector of norm <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have three components, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"Bloch vector {r.tolist()} is not finite")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    out = 0.5 * (
        np.eye(2, dtype=complex)
        + r[0] * linalg.PAULI_X
        + r[1] * linalg.PAULI_Y
        + r[2] * linalg.PAULI_Z
    )
    return out


def state_z(alpha: float) -> np.ndarray:
    """Diagonal qubit ``(I + alpha sigma_z) / 2``."""
    return state_from_bloch((0.0, 0.0, alpha))


def state_x(alpha: float) -> np.ndarray:
    """xy-plane qubit ``(I + alpha sigma_x) / 2``."""
    return state_from_bloch((alpha, 0.0, 0.0))


def _check_range(*values: float) -> None:
    for v in values:
        if abs(v) > 1.0 + 1e-12:
            raise ValueError(f"qubit parameter {v} outside [-1, 1]")


# ---------------------------------------------------------------------------
# Symmetric three-Pauli cost, commuting states.
# ---------------------------------------------------------------------------


def d_symm_commuting(alpha: float, beta: float, p: float) -> float:
    """Optimal transport cost (p-th power) between commuting qubits."""
    _check_range(alpha, beta)
    lo, hi = min(alpha, beta), max(alpha, beta)
    return 2.0**p * (1.0 + 0.5 * abs(alpha - beta) - math.sqrt((1.0 + lo) * (1.0 - hi)))


def _collinear_terms(r1, r2) -> tuple[float, float, float]:
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if np.linalg.norm(np.cross(r1, r2)) > COLLINEAR_TOL:
        raise ValueError("Bloch vectors must be collinear")
    n1, n2 = float(np.linalg.norm(r1)), float(np.linalg.norm(r2))
    top = max(n1, n2)
    dot_over_max = float(np.dot(r1, r2)) / top if top > 0 else 0.0
    return float(np.linalg.norm(r1 - r2)), dot_over_max, top


def d_symm_general(r1, r2, p: float) -> float:
    """Commuting-pair cost in Bloch form; reduces to the axis formula."""
    sep, dot_over_max, top = _collinear_terms(r1, r2)
    return 2.0**p * (1.0 + 0.5 * sep - math.sqrt((1.0 + dot_over_max) * (1.0 - top)))


def coupling_symm_commuting(alpha: float, beta: float) -> Coupling:
    """Optimal plan between commuting qubits under the symmetric cost."""
    _check_range(alpha, beta)
    lo, hi = min(alpha, beta), max(alpha, beta)
    corner = math.sqrt((1.0 + lo) * (1.0 - hi))
    matrix = 0.5 * np.array(
        [
            [1.0 + lo, 0.0, 0.0, corner],
            [0.0, max(beta - alpha, 0.0), 0.0, 0.0],
            [0.0, 0.0, max(alpha - beta, 0.0), 0.0],
            [corner, 0.0, 0.0, 1.0 - hi],
        ],
        dtype=complex,
    )
    return Coupling(matrix, _PAIR, state_z(alpha), state_z(beta))


def potentials_symm_commuting(
    alpha: float, beta: float, p: float
) -> tuple[DualPotentials, DualPotentials]:
    """Two feasible potential pairs; the better objective attains the optimum.

    Both pairs divide by ``sqrt(1 +/- alpha)`` factors, so pure states are
    rejected; for those only the coupling-side witness is available.
    """
    if abs(alpha) >= 1.0 or abs(beta) >= 1.0:
        raise ValueError("potentials require mixed states (|alpha|, |beta| < 1)")
    t = 2.0**p
    x1 = np.diag([-t * math.sqrt((1 - beta) / (1 + alpha)) - t, 0.0]).astype(complex)
    y1 = np.diag([2.0 * t, t - t * math.sqrt((1 + alpha) / (1 - beta))]).astype(complex)
    x2 = np.diag([2.0 * t, t - t * math.sqrt((1 + beta) / (1 - alpha))]).astype(complex)
    y2 = np.diag([-t * math.sqrt((1 - alpha) / (1 + beta)) - t, 0.0]).astype(complex)
    return DualPotentials((x1,), (y1,)), DualPotentials((x2,), (y2,))


def divergence_symm_commuting(r1, r2) -> float:
    """Squared quadratic divergence between commuting qubits (symmetric cost)."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    sep, dot_over_max, top = _collinear_terms(r1, r2)
    n1, n2 = float(np.linalg.norm(r1)), float(np.linalg.norm(r2))
    return 2.0 * (
        sep
        + math.sqrt(1.0 - n1**2)
        + math.sqrt(1.0 - n2**2)
        - 2.0 * math.sqrt((1.0 + dot_over_max) * (1.0 - top))
    )


# ---------------------------------------------------------------------------
# Single-observable (sigma_z) cost.
# ---------------------------------------------------------------------------


def d_z_xy(alpha: float, beta: float, p: float) -> float:
    """Cost (p-th power) between xy-plane qubits; only the larger radius enters."""
    _check_range(alpha, beta)
    return 2.0 ** (p - 1.0) * (1.0 - math.sqrt(1.0 - max(alpha**2, beta**2)))


def _plan_z_xy_dominant(alpha: float, beta: float) -> np.ndarray:
    """Plan for ``|alpha| >= |beta| > 0``; rows and columns are proportional
    in pairs, which makes positivity a two-minor check."""
    s = math.sqrt(1.0 - alpha**2)
    ratio = beta / alpha
    return 0.25 * np.array(
        [
            [1 + s, alpha, beta, (1 + s) * ratio],
            [alpha, 1 - s, (1 - s) * ratio, beta],
            [beta, (1 - s) * ratio, 1 - s, alpha],
            [(1 + s) * ratio, beta, alpha, 1 + s],
        ],
        dtype=complex,
    )


def coupling_z_xy(alpha: float, beta: float) -> Coupling:
    """Optimal plan between xy-plane qubits under the sigma_z cost.

    Branches: the dominant-radius plan when ``|alpha| >= |beta|`` (ties go
    this way for determinism), its swap-transpose when ``|alpha| < |beta|``,
    and the classical diagonal plan when both states are maximally mixed.
    """
    _check_range(alpha, beta)
    if alpha == 0.0 and beta == 0.0:
        matrix = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    elif abs(alpha) >= abs(beta):
        matrix = _plan_z_xy_dominant(alpha, beta)
    else:
        matrix = linalg.swap_transpose(_plan_z_xy_dominant(beta, alpha), 2)
    return Coupling(matrix, _PAIR, state_x(alpha), state_x(beta))


def potentials_z_xy(alpha: float, beta: float, p: float) -> tuple[DualPotentials, ...]:
    """Four feasible candidates: two off-diagonal signs, on either slot.

    The nonzero potential can sit on the departure side (paired with the
    first state) or on the arrival side (paired with the second); both
    orders are feasible, and the best of the four objectives attains
    ``2^(p-1) (1 - sqrt(1 - M^2))`` with ``M`` the larger radius.
    """
    _check_range(alpha, beta)
    top = max(abs(alpha), abs(beta))
    if top >= 1.0:
        raise ValueError("potentials require radii < 1")
    scale = 2.0 ** (p - 1.0)
    diag = 1.0 - 1.0 / math.sqrt(1.0 - top**2)
    off = math.sqrt(top**2 / (1.0 - top**2))
    zero = np.zeros((2, 2), dtype=complex)
    candidates = []
    for sign in (+1.0, -1.0):
        x = scale * np.array([[diag, sign * off], [sign * off, diag]], dtype=complex)
        candidates.append(DualPotentials((x,), (zero,)))
        candidates.append(DualPotentials((zero,), (x,)))
    return tuple(candidates)


def d_z_commuting(alpha: float, beta: float, p: float) -> float:
    """Cost between qubits commuting with sigma_z: the classical two-point value."""
    _check_range(alpha, beta)
    return 2.0 ** (p - 1.0) * abs(alpha - beta)


def coupling_z_commuting(alpha: float, beta: float) -> Coupling:
    """Diagonal (classical monotone) plan between commuting qubits."""
    _check_range(alpha, beta)
    matrix = 0.5 * np.diag(
        [
            1.0 + min(alpha, beta),
            max(beta - alpha, 0.0),
            max(alpha - beta, 0.0),
            1.0 - max(alpha, beta),
        ]
    ).astype(complex)
    return Coupling(matrix, _PAIR, state_z(alpha), state_z(beta))


def potentials_z_commuting(p: float) -> tuple[DualPotentials, DualPotentials]:
    """The two orders of the classical potential pair ``(diag(2^p, 0), -itself)``."""
    x = np.diag([2.0**p, 0.0]).astype(complex)
    return (
        DualPotentials((x,), (-x,)),
        DualPotentials((-x,), (x,)),
    )


def divergence_z_xy(r1: float, r2: float) -> float:
    """Squared quadratic divergence between xy-plane qubits of the given radii."""
    if not (0.0 <= r1 <= 1.0 and 0.0 <= r2 <= 1.0):
        raise ValueError("radii must lie in [0, 1]")
    lo, hi = min(r1, r2), max(r1, r2)
    return math.sqrt(1.0 - lo**2) - math.sqrt(1.0 - hi**2)


# ---------------------------------------------------------------------------
# Commuting data in any dimension.
# ---------------------------------------------------------------------------


def d_monge(rho_weights, omega_weights, points, p: float) -> float:
    """Optimal cost (p-th power) under ``sum_k |x_k - y_k|^p`` between states
    diagonal in the eigenbasis of observables that are monotone functions of
    one observable.

    ``points[k, i]`` is observable ``k``'s eigenvalue on basis vector ``i``,
    and the weights are the states' eigenvalues there, with the basis
    ordered so that every row of ``points`` is monotone.  Each term is then
    a convex function of a difference of monotone sequences, so the cost
    matrix is Monge and the north-west-corner coupling of the weights is
    optimal (Hoffman 1963).  Dephasing a plan in the product basis keeps its
    marginals and its cost, so no quantum plan does better.
    """
    points = np.asarray(points, dtype=float)
    steps = np.diff(points, axis=1)
    if not all(np.all(row >= 0) or np.all(row <= 0) for row in steps):
        raise ValueError("every observable must be monotone in the basis order")
    a, b = (np.array(w, dtype=float) for w in (rho_weights, omega_weights))
    if a.shape != b.shape or a.shape != points.shape[1:]:
        raise ValueError("weights must give one value per basis vector")
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        mass = min(a[i], b[j])
        total += mass * float(np.sum(np.abs(points[:, i] - points[:, j]) ** p))
        a[i] -= mass
        b[j] -= mass
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return total


# ---------------------------------------------------------------------------
# Triangle inequalities for the squared divergences.
# ---------------------------------------------------------------------------


def triangle_margin_symm(alpha: float, beta: float, gamma: float) -> float:
    """``d2(a,b) + d2(b,c) - d2(a,c)`` for commuting qubits; nonnegative."""
    axis = lambda v: np.array([0.0, 0.0, v])
    return (
        divergence_symm_commuting(axis(alpha), axis(beta))
        + divergence_symm_commuting(axis(beta), axis(gamma))
        - divergence_symm_commuting(axis(alpha), axis(gamma))
    )


def triangle_margin_z(r_rho: float, r_sigma: float, r_omega: float) -> float:
    """Triangle margin of the squared xy divergence; nonnegative."""
    return (
        divergence_z_xy(r_rho, r_sigma)
        + divergence_z_xy(r_sigma, r_omega)
        - divergence_z_xy(r_rho, r_omega)
    )
