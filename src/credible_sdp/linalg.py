"""Contracted linear-algebra primitives.

Every operation either returns a value satisfying its stated contract or
raises an error carrying the measured violation: positive-definiteness
failures report the offending minimum eigenvalue, least-squares consistency
failures report the residual.

Square roots and inverses of symmetric positive-definite matrices are
computed spectrally (symmetric eigendecomposition), which yields the
symmetric PD result the contracts require and an eigenvalue witness for
free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symvec import DimensionError, require_symmetric, symmetrize

#: Absolute tolerance on the minimum eigenvalue for "positive definite".
PD_TOL = 1e-12

#: Consistency tolerance for least-squares solves of consistent systems,
#: scaled by max(1, ||b||).
LSQR_TOL = 1e-9


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


class LsqrContractViolation(RuntimeError):
    """A least-squares solve expected to be consistent left a residual."""

    def __init__(self, equation: str, residual: float, tolerance: float):
        super().__init__(
            f"least-squares contract failed for {equation}: "
            f"residual {residual:.6e} > tolerance {tolerance:.3e}"
        )
        self.equation = equation
        self.residual = residual
        self.tolerance = tolerance


@dataclass(frozen=True)
class PdCertificate:
    """Outcome of a positive-definiteness check.

    ``ok`` is True exactly when min_eigenvalue > tolerance; a failed check is
    a value, not an exception.
    """

    min_eigenvalue: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.min_eigenvalue > self.tolerance

    def __bool__(self) -> bool:
        return self.ok


def min_eigenvalue(S: np.ndarray) -> float:
    S = require_symmetric(S, what="eigenvalue input")
    return float(np.linalg.eigvalsh(S)[0])


def is_pd(S: np.ndarray) -> PdCertificate:
    """Check positive definiteness of a symmetric matrix.

    Returns a certificate whose ``ok`` flag reflects min_eigenvalue > PD_TOL.
    """
    return PdCertificate(min_eigenvalue=min_eigenvalue(S), tolerance=PD_TOL)


def require_pd(S: np.ndarray, what: str = "matrix") -> PdCertificate:
    cert = is_pd(S)
    if not cert.ok:
        raise NotPositiveDefiniteError(what, cert.min_eigenvalue, cert.tolerance)
    return cert


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

    The residual ||A@x - b|| must not exceed LSQR_TOL * max(1, ||b||);
    otherwise LsqrContractViolation is raised naming the equation.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise DimensionError(f"lsqr_solve: A is {A.shape}, b has length {b.shape[0]}")
    if not np.all(np.isfinite(b)) or not np.all(np.isfinite(A)):
        raise ValueError(f"lsqr_solve({equation}): non-finite input")
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    require_consistent(A, x, b, equation=equation)
    return x


def require_consistent(
    A: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    *,
    equation: str,
) -> None:
    """Raise LsqrContractViolation unless ||A@x - b|| <= LSQR_TOL * max(1, ||b||).

    This is the consistency contract of ``lsqr_solve``, for solutions
    obtained some other way.
    """
    tol = LSQR_TOL * max(1.0, float(np.linalg.norm(b)))
    residual = float(np.linalg.norm(A @ x - b))
    if residual > tol:
        raise LsqrContractViolation(equation, residual, tol)


def frob_norm(M: np.ndarray) -> float:
    """Frobenius norm, computed as ``np.linalg.norm(M, "fro")`` computes it
    for a 2-d float array (same bits), without its dispatch."""
    x = np.asarray(M, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


def trace_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Trace inner product Tr(B.T @ A), i.e. the entrywise dot product."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError(f"trace_inner: shapes {A.shape} and {B.shape} differ")
    return float(np.sum(A * B))
