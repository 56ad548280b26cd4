"""Dense complex linear algebra over small Hilbert spaces.

Everything operates on plain ``numpy`` arrays of ``complex128``.  The module
fixes the conventions used throughout the package:

* The dual space is identified with the primal one through the computational
  basis, so the abstract transpose is the entrywise transpose.
* A bipartite operator space ``H (x) H*`` is vectorized row-major: the first
  tensor slot carries the row (ket) index and the second slot the column
  (bra) index, so that ``kron(A, B.T) @ vectorize(X) == vectorize(A @ X @ B)``.
* Multipartite spaces are addressed through :class:`FactorShape`, never by
  implicit dimension arithmetic.

All returned arrays are fresh; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULI",
    "HERMITIAN_ATOL",
    "DENSITY_ATOL",
    "CLUSTER_TOL",
    "FactorShape",
    "SpectralDecomposition",
    "hermitian",
    "density",
    "densities",
    "min_eigenvalue",
    "min_eigenvalues",
    "kron",
    "kron_all",
    "slot_view",
    "embed_at_slot",
    "partial_trace",
    "swap_transpose",
    "eig_hermitian",
    "sqrt_psd",
    "vectorize",
    "outer_vec",
    "hermitian_basis",
    "random_hermitian",
    "random_unitary",
    "random_density",
    "random_bloch",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

for _p in PAULI:
    _p.setflags(write=False)

# Tolerances shared by the validating constructors.  DENSITY_ATOL is also the
# negative-eigenvalue slack of sqrt_psd.
HERMITIAN_ATOL = 1e-12
DENSITY_ATOL = 1e-10
CLUSTER_TOL = 1e-9


def hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized copy, of a
    matrix or of each matrix of a stack ``(..., n, n)``.

    Asymmetry up to ``HERMITIAN_ATOL`` (max absolute entry of ``m - m*``) is
    repaired by averaging with the adjoint; anything larger is rejected so
    that slack and cone checks downstream stay honest.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    adjoint = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - adjoint).max() if m.size else 0.0
    if defect > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: asymmetry {defect:.3e} > {HERMITIAN_ATOL:.1e}")
    # 0.5 (m + m*), halved in place once the adjoint is released, so that the
    # peak holds no more copies of m than forming the adjoint twice would
    out = m + adjoint
    del adjoint
    out *= 0.5
    return out


def _hermitian_matrix(m: np.ndarray) -> np.ndarray:
    """:func:`hermitian` of a single matrix: a stack is rejected."""
    m = hermitian(m)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(m)[0])


def min_eigenvalues(ms: Sequence[np.ndarray]) -> list[float]:
    """:func:`min_eigenvalue` of each Hermitian matrix of a stack or a
    sequence, from one stacked ``eigvalsh`` call when they share a shape:
    the stacked call factors each matrix as a call of its own would, bit for
    bit."""
    if not isinstance(ms, np.ndarray) and len({np.shape(m) for m in ms}) > 1:
        return [min_eigenvalue(m) for m in ms]
    return np.linalg.eigvalsh(ms)[:, 0].tolist()


def density(m: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD and unit trace within ``DENSITY_ATOL``."""
    return densities([m])[0][0]


def densities(
    ms: Sequence[np.ndarray], names: Sequence[str] | None = None
) -> tuple[list[np.ndarray], list[float]]:
    """Validate each of several matrices as :func:`density` does, their least
    eigenvalues from one stacked ``eigvalsh`` when they share a shape
    (:func:`min_eigenvalues`), and return the validated matrices and those
    eigenvalues.  With ``names``, an error names its matrix as ``state
    'name': ...``."""
    prefixes = [f"state {name!r}: " for name in names] if names else [""] * len(ms)
    checked = []
    for m, prefix in zip(ms, prefixes):
        try:
            checked.append(_hermitian_matrix(m))
        except ValueError as exc:
            raise ValueError(f"{prefix}{exc}") from exc
    lows = min_eigenvalues(checked)
    for m, lo, prefix in zip(checked, lows, prefixes):
        if lo < -DENSITY_ATOL:
            raise ValueError(f"{prefix}matrix is not PSD: min eigenvalue {lo:.3e}")
        tr = m.trace().real
        if abs(tr - 1.0) > DENSITY_ATOL:
            raise ValueError(f"{prefix}trace {tr!r} is not 1 within {DENSITY_ATOL:.1e}")
    return checked, lows


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; the first owns the slower
    (leftmost) index.  The products of ``np.kron``, taken of the same
    broadcast views, without its shape handling."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def kron_all(ops: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of operators, left to right."""
    return reduce(kron, ops)


@dataclass(frozen=True)
class FactorShape:
    """Dimensions of the tensor factors of a multipartite space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"factor dimensions must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    @staticmethod
    def pair_space(dim: int, pairs: int = 1) -> "FactorShape":
        """Shape of ``(H (x) H*)^(x pairs)`` with ``dim``-dimensional ``H``."""
        return FactorShape((dim,) * (2 * pairs))

    def frame(self, slot: int) -> tuple[int, int, int]:
        """``(outer, d, inner)``: the dimensions of the factors before, at and
        after ``slot``, so that an index of the space is ``(o, a, i)`` row-major."""
        return math.prod(self.dims[:slot]), self.dims[slot], math.prod(self.dims[slot + 1:])


def slot_view(m: np.ndarray, slot: int, shape: FactorShape) -> np.ndarray:
    """Writable view ``(..., outer, inner, d, d)`` of the blocks of a
    C-contiguous ``m`` (``(..., n, n)``) that carry an operator embedded at
    ``slot``: entry ``[o, i, a, b]`` sits at row ``(o, a, i)`` and column
    ``(o, b, i)``, with ``o`` and ``i`` the indices of the factors before and
    after the slot (a repeated einsum index gives a view of the diagonal)."""
    frame = shape.frame(slot)
    return np.einsum("...iajibj->...ijab", m.reshape(m.shape[:-2] + frame + frame))


def embed_at_slot(op: np.ndarray, slot: int, shape: FactorShape) -> np.ndarray:
    """Embed ``op`` acting on factor ``slot`` (0-based) as identity elsewhere."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (shape.dims[slot], shape.dims[slot]):
        raise ValueError(f"operator shape {op.shape} does not match factor dim {shape.dims[slot]}")
    out = np.zeros((shape.total_dim, shape.total_dim), dtype=complex)
    slot_view(out, slot, shape)[...] = op
    return out


def partial_trace(m: np.ndarray, shape: FactorShape, keep: Sequence[int]) -> np.ndarray:
    """Trace out every factor not listed in ``keep`` (ascending factor order kept).

    The trace of the input is preserved; the output dimension is the product
    of the kept factor dimensions.
    """
    m = np.asarray(m, dtype=complex)
    n = shape.n_factors
    keep_set = sorted(set(int(k) for k in keep))
    if not keep_set:
        raise ValueError("keep must be a nonempty set of factor indices")
    if keep_set[0] < 0 or keep_set[-1] >= n:
        raise ValueError(f"keep indices {keep_set} out of range for {n} factors")
    if m.shape != (shape.total_dim, shape.total_dim):
        raise ValueError(f"matrix shape {m.shape} does not match factor shape {shape.dims}")

    # factor i has row index i, and column index i when traced, n + i when kept
    cols = [n + i if i in keep_set else i for i in range(n)]
    out = np.einsum(m.reshape(shape.dims + shape.dims), [*range(n), *cols],
                    [*keep_set, *(n + i for i in keep_set)])
    kept_dim = math.prod(shape.dims[i] for i in keep_set)
    return out.reshape(kept_dim, kept_dim)


def swap_transpose(m: np.ndarray, dim: int) -> np.ndarray:
    """Exchange-and-transpose on a bipartite pair space.

    The linear extension of ``A (x) B.T  ->  B (x) A.T``; it reverses the
    direction of a coupling.  Realized as conjugation of the entrywise
    transpose by the factor-swap permutation.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim * dim, dim * dim):
        raise ValueError(f"expected a {dim * dim}x{dim * dim} matrix, got {m.shape}")
    t = m.T.reshape(dim, dim, dim, dim)
    return t.transpose(1, 0, 3, 2).reshape(dim * dim, dim * dim)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with spectral projectors onto clusters.

    Eigenvalues closer than ``CLUSTER_TOL`` are merged into a single projector
    so that functional calculus never splits a degenerate eigenspace.  Each
    eigenvector column of ``vectors`` carries its cluster's eigenvalue in
    ``column_values``.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    vectors: np.ndarray
    column_values: tuple[float, ...]

    def apply(self, fn) -> np.ndarray:
        """Sum of ``fn(eigenvalue) * projector`` over the clusters."""
        dim = self.projectors[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += fn(lam) * proj
        return out


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix with degeneracy merging."""
    m = _hermitian_matrix(m)
    vals, vecs = np.linalg.eigh(m)
    eigenvalues: list[float] = []
    projectors: list[np.ndarray] = []
    column_values: list[float] = []
    i = 0
    n = len(vals)
    while i < n:
        j = i + 1
        while j < n and vals[j] - vals[j - 1] < CLUSTER_TOL:
            j += 1
        block = vecs[:, i:j]
        proj = block @ block.conj().T
        projectors.append(0.5 * (proj + proj.conj().T))
        eigenvalues.append(float(np.mean(vals[i:j])))
        column_values += [eigenvalues[-1]] * (j - i)
        i = j
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors), vecs, tuple(column_values))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """PSD square root; eigenvalues in ``[-DENSITY_ATOL, 0)`` are clamped to zero."""
    m = _hermitian_matrix(m)
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -DENSITY_ATOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[0]:.3e}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    out = (vecs * root) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix onto the pair space."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    return x.reshape(-1).copy()


def outer_vec(x: np.ndarray) -> np.ndarray:
    """Rank-one operator ``|X>><<X|`` on the pair space; trace is ``||X||_HS^2``."""
    v = vectorize(x)
    return np.outer(v, v.conj())


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis under ``tr(A B)``; identity component first.

    For qubits this is the normalized Pauli basis ``{I, sx, sy, sz} / sqrt(2)``;
    in general the identity is followed by the generalized Gell-Mann elements
    (symmetric and antisymmetric off-diagonal pairs, then diagonal ladders).
    One read-only stack ``(dim^2, dim, dim)``, built once a dimension, so that
    its elements are read one by one or as a stack without a copy.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    mats = [np.eye(dim, dtype=complex) / math.sqrt(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[i, j] = -1j / math.sqrt(2.0)
            asym[j, i] = 1j / math.sqrt(2.0)
            mats.append(asym)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for k in range(level):
            diag[k, k] = 1.0
        diag[level, level] = -level
        diag /= math.sqrt(level * (level + 1))
        mats.append(diag)
    stack = np.array(mats)
    stack.setflags(write=False)
    return stack


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_bloch(rng: np.random.Generator, max_radius: float = 0.99) -> np.ndarray:
    """Uniform point in the Bloch ball of the given radius."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return v * max_radius * rng.uniform() ** (1.0 / 3.0)
