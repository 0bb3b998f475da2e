"""Symmetric-matrix vectorization algebra.

Two isometric vectorizations of the space of n-by-n symmetric matrices are
used, differing only in how off-diagonal entries are scaled:

* ``vecs`` / ``mats`` — off-diagonals multiplied by sqrt(2). This variant is
  an isometry for the trace inner product: dot(vecs(A), vecs(B)) == Tr(A@B).
* ``svec`` / ``smat`` — off-diagonals multiplied by 2 (halved on the way
  back). This is the convention the annotation language uses.

Entries are enumerated row-major over the upper triangle (i <= j). Every
function in this module shares that ordering, including the column layout of
the symmetric Kronecker product ``krons``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


class DimensionError(ValueError):
    """Shapes or lengths do not conform."""


class SymmetryError(ValueError):
    """A matrix required to be symmetric is not."""


def sym_dim(n: int) -> int:
    """Length of the vectorization of an n-by-n symmetric matrix."""
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=64)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle indices (i, j) and the vecs and svec scales, per n.

    The arrays are shared between calls, so they are returned read-only.
    """
    i, j = np.triu_indices(n)
    scale_vecs = np.where(i == j, 1.0, _SQRT2)
    scale_svec = np.where(i == j, 1.0, 2.0)
    out = (i, j, scale_vecs, scale_svec)
    for a in out:
        a.flags.writeable = False
    return out


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exact symmetric part 0.5*(a + a.T).

    Used at construction sites where a product is symmetric in exact
    arithmetic but floating-point matrix multiplication leaves residue at
    rounding level.
    """
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def require_symmetric(a: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square and symmetric within ``tol`` (relative).

    Returns the array unchanged. Raises SymmetryError/DimensionError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if asym > tol * scale:
        raise SymmetryError(f"{what} is not symmetric: max |a - a.T| = {asym:.3e}")
    return a


def vecs(M: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric matrix with sqrt(2)-scaled off-diagonals.

    The result v satisfies dot(vecs(A), vecs(B)) == Tr(A@B).
    """
    M = require_symmetric(M, what="vecs input")
    i, j, scale, _ = _layout(M.shape[0])
    return M[i, j] * scale


def mats(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``vecs``: rebuild the symmetric matrix from its vector."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != sym_dim(n):
        raise DimensionError(f"mats: expected length {sym_dim(n)} for n={n}, got {v.shape[0]}")
    i, j, scale, _ = _layout(n)
    M = np.zeros((n, n))
    M[i, j] = v / scale
    M[j, i] = M[i, j]
    return M


def svec(M: np.ndarray) -> np.ndarray:
    """Vectorize with off-diagonals multiplied by 2 instead of sqrt(2)."""
    M = require_symmetric(M, what="svec input")
    i, j, _, scale = _layout(M.shape[0])
    return M[i, j] * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``svec``: off-diagonal vector entries are halved."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != sym_dim(n):
        raise DimensionError(f"smat: expected length {sym_dim(n)} for n={n}, got {v.shape[0]}")
    i, j, _, scale = _layout(n)
    M = np.zeros((n, n))
    M[i, j] = v / scale
    M[j, i] = M[i, j]
    return M


def krons(Q1: np.ndarray, Q2: np.ndarray, n: int | None = None) -> np.ndarray:
    """Symmetric Kronecker product as a dense N-by-N matrix, N = n(n+1)/2.

    Defined by its action on vectorized symmetric matrices:

        krons(Q1, Q2) @ vecs(M) == vecs(0.5 * (Q1 @ M @ Q2.T + Q2 @ M @ Q1.T))

    Q1 and Q2 must be square of equal dimension; they need not be symmetric.
    The optional ``n`` cross-checks the expected dimension.
    """
    Q1 = np.asarray(Q1, dtype=float)
    Q2 = np.asarray(Q2, dtype=float)
    if Q1.ndim != 2 or Q1.shape[0] != Q1.shape[1]:
        raise DimensionError(f"krons: Q1 must be square, got shape {Q1.shape}")
    if Q2.shape != Q1.shape:
        raise DimensionError(f"krons: Q1 {Q1.shape} and Q2 {Q2.shape} differ")
    if n is not None and n != Q1.shape[0]:
        raise DimensionError(f"krons: matrices are {Q1.shape[0]}x{Q1.shape[0]}, expected n={n}")
    # Column k is the image of the basis matrix mats(e_k): for the entry
    # (a, b) that is (e_a e_b' + e_b e_a') / sqrt(2) off the diagonal and
    # e_a e_a' on it. Its (i, j) entry under the product, times the vecs
    # scale of row (i, j), gives every entry in one broadcast expression.
    i, j, scale, _ = _layout(Q1.shape[0])
    a, b = i, j
    cross = (
        Q1[np.ix_(i, a)] * Q2[np.ix_(j, b)]
        + Q1[np.ix_(i, b)] * Q2[np.ix_(j, a)]
        + Q2[np.ix_(i, a)] * Q1[np.ix_(j, b)]
        + Q2[np.ix_(i, b)] * Q1[np.ix_(j, a)]
    )
    col_weight = np.where(a == b, 0.25, 0.5)
    return (scale[:, None] / scale[None, :]) * col_weight[None, :] * cross
