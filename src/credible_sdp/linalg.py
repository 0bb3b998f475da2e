"""Contracted linear-algebra primitives.

Every operation either returns a value satisfying its stated contract or
raises an error carrying the measured violation. Least-squares solves check
only their inputs; whether a solution satisfies its equation is a contract
of the catalog (``monitor``), recorded where the trace checker sees it.

Positive definiteness is decided in one place: ``min_eigenvalue`` measures
the smallest eigenvalue of the symmetric part, and a matrix is positive
definite when that exceeds ``PD_TOL``. ``require_pd`` raises on the same
test; the catalog's PD records, admission's test of F0, ``sym_sqrt`` and
``sym_inv`` all read these two functions.

``min_eigenvalue``, ``frob_norm`` and ``trace_inner`` also take a (K, n, n)
stack and then return one value per matrix, each with the bits the matrix
alone gives: one LAPACK call, one dot product or one reduction per matrix.
A stack of two or more matrices that are all equal bit for bit (the dual
iterate, which never moves) is decomposed once; nothing is memoised across
calls.

Square roots and inverses of symmetric positive-definite matrices are
computed spectrally (symmetric eigendecomposition), which yields the
symmetric PD result the contracts require and an eigenvalue witness for
free.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .symvec import DimensionError, require_symmetric, symmetrize

#: Absolute tolerance on the minimum eigenvalue for "positive definite".
PD_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""

    def __init__(self, what: str, min_eigenvalue: float, tolerance: float):
        super().__init__(
            f"{what} is not positive definite: min eigenvalue "
            f"{min_eigenvalue:.6e} <= tolerance {tolerance:.1e}"
        )
        self.what = what
        self.min_eigenvalue = min_eigenvalue
        self.tolerance = tolerance


def min_eigenvalue(S: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of the symmetric part of S, or of each matrix of a
    stack; never raises on asymmetry. A stack whose matrices are all equal
    bit for bit is decomposed once."""
    S = np.asarray(S, dtype=float)
    if S.ndim == 3 and len(S) > 1 and (S.view(np.int64) == S[:1].view(np.int64)).all():
        return np.repeat(min_eigenvalue(S[:1]), len(S))
    lam = np.linalg.eigvalsh(symmetrize(S))[..., 0]
    return float(lam) if lam.ndim == 0 else lam


@functools.lru_cache(maxsize=64)
def identity(n: int) -> np.ndarray:
    """The n-by-n identity, shared between calls and so read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def require_pd(S: np.ndarray, what: str = "matrix") -> float:
    """``min_eigenvalue(S)`` if it exceeds PD_TOL; NotPositiveDefiniteError otherwise."""
    lam = min_eigenvalue(S)
    if not lam > PD_TOL:
        raise NotPositiveDefiniteError(what, lam, PD_TOL)
    return lam


def sym_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PD square root T of a symmetric PD matrix: T @ T == S."""
    S = require_symmetric(S, what="sym_sqrt input")
    require_pd(S, what="sym_sqrt input")
    w, V = np.linalg.eigh(S)
    return symmetrize((V * np.sqrt(w)) @ V.T)


def sym_inv(S: np.ndarray) -> np.ndarray:
    """Symmetric PD inverse of a symmetric PD matrix."""
    S = require_symmetric(S, what="sym_inv input")
    require_pd(S, what="sym_inv input")
    w, V = np.linalg.eigh(S)
    return symmetrize((V / w) @ V.T)


def lsqr_solve(
    A: np.ndarray,
    b: np.ndarray,
    *,
    equation: str = "lsqr",
) -> np.ndarray:
    """Minimum-2-norm least-squares solution of A @ x = b.

    A and b must agree in shape and be finite. The residual is not checked
    here: the callers' equations are contracts of the catalog. A solution
    beyond the float range raises FloatingPointError naming the equation,
    since LAPACK returns it without a floating-point error.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise DimensionError(f"lsqr_solve: A is {A.shape}, b has length {b.shape[0]}")
    if not np.all(np.isfinite(b)) or not np.all(np.isfinite(A)):
        raise ValueError(f"lsqr_solve({equation}): non-finite input")
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    if not np.isfinite(x).all():
        raise FloatingPointError(f"overflow encountered in lsqr_solve ({equation})")
    return x


def frob_norm(M: np.ndarray) -> float | np.ndarray:
    """Frobenius norm (a vector's 2-norm), computed as ``np.linalg.norm(M)``
    computes it for a 1-d or 2-d float array (same bits), without its
    dispatch. Of a (K, a, b) stack, the norm of each matrix: a (1, N) @
    (N, 1) matmul is the same one dot product."""
    x = np.asarray(M, dtype=float)
    if x.ndim == 3:
        x = x.reshape(len(x), -1)
        return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def trace_inner(A: np.ndarray, B: np.ndarray) -> float | np.ndarray:
    """Trace inner product Tr(B.T @ A), i.e. the entrywise dot product,
    computed as ``(A * B).sum()`` computes it (same bits), without its
    dispatch; of two stacks, that of each pair of matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError(f"trace_inner: shapes {A.shape} and {B.shape} differ")
    if A.ndim == 3:
        return np.add.reduce(A * B, axis=(1, 2))
    return float(np.add.reduce(A * B, axis=None))
