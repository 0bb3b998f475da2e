"""Symmetric-matrix vectorization algebra: the one home of the
upper-triangle layout and of the symmetry rule.

``vecs`` / ``mats`` vectorize the space of n-by-n symmetric matrices with
off-diagonal entries multiplied by sqrt(2). The map is an isometry for the
trace inner product: dot(vecs(A), vecs(B)) == Tr(A@B).

Entries are enumerated row-major over the upper triangle (i <= j). ``layout``
states that ordering once, per n, and every function in this module reads it;
the symmetric Kronecker product ``krons`` is its definition applied to the
basis ``mats(e_k)``. Other modules that store, fold or print a triangle read
``layout`` too, and none enumerates it in index arithmetic of its own.

A matrix is symmetric when max|a - a.T| <= SYMMETRY_TOL * max(1, max|a|)
(``is_symmetric``). ``require_symmetric`` raises ``SymmetryError`` on that
test, and problem admission refuses its input matrices on it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)

#: Symmetry tolerance of every matrix required to be symmetric, relative to
#: max(1, max|a|).
SYMMETRY_TOL = 1e-12


class DimensionError(ValueError):
    """Shapes or lengths do not conform."""


class SymmetryError(ValueError):
    """A matrix required to be symmetric is not."""


def sym_dim(n: int) -> int:
    """Length of the vectorization of an n-by-n symmetric matrix."""
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=64)
def layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The upper triangle of an n-by-n symmetric matrix in vectorization
    order, as (i, j, scale, pos): the row and column of each entry (i <= j,
    row-major), its vecs scale (1 on the diagonal, sqrt(2) off it), and the
    (n, n) map from each matrix entry, (i, j) and (j, i) alike, to its slot.

    The arrays are shared between calls, so they are returned read-only.
    """
    i, j = np.triu_indices(n)
    scale = np.where(i == j, 1.0, _SQRT2)
    pos = np.empty((n, n), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    out = (i, j, scale, pos)
    for a in out:
        a.flags.writeable = False
    return out


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exact symmetric part 0.5*(a + a.T), or of each matrix of a stack.

    Used at construction sites where a product is symmetric in exact
    arithmetic but floating-point matrix multiplication leaves residue at
    rounding level.
    """
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.swapaxes(-1, -2))


def asymmetry(a: np.ndarray) -> np.ndarray:
    """max |a - a.T| over the last two axes: one value for a matrix, one per
    matrix for a stack, 0.0 for an empty matrix; inf where a - a.T overflows
    and NaN where an infinite entry meets its mirror (inf - inf), each
    without a warning or a floating-point error."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1), initial=0.0)


def is_symmetric(a: np.ndarray) -> np.ndarray:
    """The symmetry rule, max|a - a.T| <= SYMMETRY_TOL * max(1, max|a|): one
    bool for a matrix, one per matrix for a stack. A NaN asymmetry fails."""
    a = np.asarray(a, dtype=float)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    return asymmetry(a) <= SYMMETRY_TOL * scale


def require_symmetric(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square and passes the symmetry rule.

    Returns the array unchanged. Raises SymmetryError/DimensionError. A
    finite matrix that is symmetric bit for bit, such as the output of
    ``symmetrize``, has asymmetry exactly 0 and passes without the rule's
    reductions.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    if a.tobytes() == a.T.tobytes() and np.isfinite(a).all():
        return a
    if not is_symmetric(a):
        raise SymmetryError(f"{what} is not symmetric: max |a - a.T| = {asymmetry(a):.3e}")
    return a


def vecs(M: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric matrix with sqrt(2)-scaled off-diagonals.

    The result v satisfies dot(vecs(A), vecs(B)) == Tr(A@B).
    """
    M = require_symmetric(M, what="vecs input")
    i, j, scale, _ = layout(M.shape[0])
    return M[i, j] * scale


def vecs_stack(S: np.ndarray) -> np.ndarray:
    """``vecs(symmetrize(Si))`` of every matrix Si of an (m, n, n) stack, as
    the rows of one C-contiguous (m, n(n+1)/2) array, equal bit for bit to
    stacking the rows one by one; of a single (n, n) matrix, its one row.
    Symmetry is not checked."""
    S = np.asarray(S, dtype=float)
    i, j, scale, _ = layout(S.shape[-1])
    return np.ascontiguousarray(0.5 * (S[..., i, j] + S[..., j, i]) * scale)


def mats(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``vecs``: rebuild the symmetric matrix from its vector."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != sym_dim(n):
        raise DimensionError(f"mats: expected length {sym_dim(n)} for n={n}, got {v.shape[0]}")
    _, _, scale, pos = layout(n)
    return (v / scale)[pos]


def krons(Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker product as a dense N-by-N matrix, N = n(n+1)/2.

    Defined by its action on vectorized symmetric matrices:

        krons(Q1, Q2) @ vecs(M) == vecs(0.5 * (Q1 @ M @ Q2.T + Q2 @ M @ Q1.T))

    and computed by it: column k is ``vecs_stack(Q1 @ mats(e_k) @ Q2.T)``,
    one batched product over the basis of the triangle. Q1 and Q2 must be
    square of equal dimension; they need not be symmetric.
    """
    Q1 = np.asarray(Q1, dtype=float)
    Q2 = np.asarray(Q2, dtype=float)
    if Q1.ndim != 2 or Q1.shape[0] != Q1.shape[1]:
        raise DimensionError(f"krons: Q1 must be square, got shape {Q1.shape}")
    if Q2.shape != Q1.shape:
        raise DimensionError(f"krons: Q1 {Q1.shape} and Q2 {Q2.shape} differ")
    _, _, scale, pos = layout(Q1.shape[0])
    basis = (np.eye(scale.size) / scale)[:, pos]  # basis[k] = mats(e_k)
    return vecs_stack(Q1 @ basis @ Q2.T).T
