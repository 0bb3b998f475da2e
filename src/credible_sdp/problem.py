"""Semidefinite-program data and derived quantities.

A problem instance is the dual-form SDP

    maximize    trace(F0 @ Z)
    subject to  trace(Fi @ Z) + b[i] == 0   for i = 1..m,
                Z positive semidefinite,

together with its primal

    minimize    b . p
    subject to  F0 + sum_i p[i] * Fi + X == 0,
                X positive semidefinite.

``SdpProblem`` itself is a plain record: direct construction performs no
validation, so checkers can be exercised on deliberately broken data.
``build_problem`` and ``load_problem`` are the validating entry points.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Any

import numpy as np

from . import symvec
from .linalg import is_pd, require_pd, trace_inner
from .symvec import require_symmetric, sym_dim, symmetrize, vecs

#: Tolerance for symmetry of matrices arriving from files.
LOAD_SYMMETRY_TOL = 1e-12


class ProblemFormatError(ValueError):
    """Problem data is malformed: wrong shapes, asymmetry, or bad scalars."""


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """An SDP instance with pre-assembled constraint matrix.

    ``fmat`` is the m x (n(n+1)/2) matrix whose i-th row is vecs(Fi), so the
    dual feasibility constraint reads fmat @ vecs(Z) + b == 0.

    ``x0`` is an optional primal warm start; ``epsilon`` the convergence
    threshold on trace(X @ Z); ``nu`` an optional potential-function weight.
    """

    n: int
    m: int
    f0: np.ndarray
    fs: tuple[np.ndarray, ...]
    b: np.ndarray
    fmat: np.ndarray
    x0: np.ndarray | None = None
    epsilon: float = 1e-8
    nu: float | None = None
    problem_hash: str = field(default="")

    @cached_property
    def text_hash(self) -> str:
        """The problem hash a ``cts-1`` trace carries: SHA-256 of the
        constraint data written as ``.17g`` text. Computed on first use, since
        only the check of a ``cts-1`` trace needs it."""
        parts = [f"n={self.n}", f"m={self.m}"]
        named = [("F0", self.f0), *((f"F{i}", Fi) for i, Fi in enumerate(self.fs, 1))]
        for name, M in [*named, ("b", self.b)]:
            values = tuple(np.asarray(M, dtype=float).ravel().tolist())
            parts.append(f"{name}=[" + ("%.17g," * len(values) % values)[:-1] + "]")
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # -- potentials ---------------------------------------------------------

    def potential_tanabe(self, X: np.ndarray, Z: np.ndarray, nu: float) -> float:
        """Weighted Tanabe-Todd-Ye potential for weight nu > 0."""
        n = self.n
        gap = trace_inner(X, Z)
        return float(
            (n + nu * np.sqrt(n)) * np.log(gap)
            - _logdet(X, "potential X")
            - _logdet(Z, "potential Z")
            - n * np.log(n)
        )


def _logdet(S: np.ndarray, what: str) -> float:
    require_pd(S, what=what)
    return float(np.sum(np.log(np.linalg.eigvalsh(S))))


# -- construction ----------------------------------------------------------


def compute_problem_hash(
    n: int, m: int, f0: np.ndarray, fs: tuple[np.ndarray, ...], b: np.ndarray
) -> str:
    """SHA-256 of n and m as little-endian int64, followed by the
    little-endian float64 bytes of F0, F1..Fm and b (matrices row by row).

    Covers exactly the constraint data — not warm starts or options — so a
    trace made from one file can be checked against a re-load of the same
    constraints. Equal hashes mean equal bit patterns: 0.0 and -0.0 differ.
    """
    digest = hashlib.sha256(np.array([n, m], dtype="<i8").tobytes())
    for M in (f0, *fs, b):
        digest.update(np.asarray(M, dtype="<f8").tobytes())
    return digest.hexdigest()


def build_problem(
    f0: np.ndarray,
    fs: list[np.ndarray] | tuple[np.ndarray, ...],
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    epsilon: float = 1e-8,
    nu: float | None = None,
    validate: bool = True,
) -> SdpProblem:
    """Validate and assemble an SdpProblem from its constituent arrays."""
    f0 = np.array(f0, dtype=float)
    fs_t = tuple(np.array(Fi, dtype=float) for Fi in fs)
    b = np.array(b, dtype=float).ravel()
    if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
        raise ProblemFormatError(f"F0 must be square, got shape {f0.shape}")
    n = f0.shape[0]
    m = len(fs_t)

    if validate:
        if n < 1:
            raise ProblemFormatError("matrix dimension must be at least 1")
        if m < 1:
            raise ProblemFormatError("at least one constraint matrix is required")
        if b.shape[0] != m:
            raise ProblemFormatError(
                f"b has length {b.shape[0]} but there are {m} constraint matrices"
            )
        try:
            f0 = require_symmetric(f0, tol=LOAD_SYMMETRY_TOL, what="F0")
        except symvec.SymmetryError as exc:
            raise ProblemFormatError(str(exc)) from None
        if not is_pd(f0):
            raise ProblemFormatError("F0 must be positive definite")
        checked = []
        for i, Fi in enumerate(fs_t):
            if Fi.shape != (n, n):
                raise ProblemFormatError(
                    f"F{i + 1} has shape {Fi.shape}, expected {(n, n)}"
                )
            try:
                checked.append(require_symmetric(Fi, tol=LOAD_SYMMETRY_TOL, what=f"F{i + 1}"))
            except symvec.SymmetryError as exc:
                raise ProblemFormatError(str(exc)) from None
        fs_t = tuple(checked)
        if not np.isfinite(epsilon) or epsilon <= 0:
            raise ProblemFormatError(f"epsilon must be positive, got {epsilon}")
        if nu is not None and (not np.isfinite(nu) or nu <= 0):
            raise ProblemFormatError(f"nu must be positive when given, got {nu}")
        if x0 is not None:
            x0 = np.array(x0, dtype=float)
            if x0.shape != (n, n):
                raise ProblemFormatError(f"X0 has shape {x0.shape}, expected {(n, n)}")
            try:
                x0 = require_symmetric(x0, tol=LOAD_SYMMETRY_TOL, what="X0")
            except symvec.SymmetryError as exc:
                raise ProblemFormatError(str(exc)) from None
    elif x0 is not None:
        x0 = np.array(x0, dtype=float)

    fmat = np.vstack([vecs(symmetrize(Fi)) for Fi in fs_t]) if m else np.zeros((0, sym_dim(n)))
    return SdpProblem(
        n=n,
        m=m,
        f0=f0,
        fs=fs_t,
        b=b,
        fmat=fmat,
        x0=x0,
        epsilon=float(epsilon),
        nu=None if nu is None else float(nu),
        problem_hash=compute_problem_hash(n, m, f0, fs_t, b),
    )


def load_problem(source: str | bytes) -> SdpProblem:
    """Parse a problem from JSON text.

    Expected keys: "F0" (n x n nested lists), "F" (list of m such matrices),
    "b" (length-m list). Optional: "X0", "epsilon", "nu".
    """
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    for key in ("F0", "F", "b"):
        if key not in data:
            raise ProblemFormatError(f"problem file is missing required key {key!r}")

    def as_matrix(obj: Any, name: str) -> np.ndarray:
        try:
            M = np.array(obj, dtype=float)
        except (TypeError, ValueError):
            raise ProblemFormatError(f"{name} is not a numeric matrix") from None
        if M.ndim != 2:
            raise ProblemFormatError(f"{name} must be a 2-d matrix, got {M.ndim}-d")
        if not np.all(np.isfinite(M)):
            raise ProblemFormatError(f"{name} contains non-finite entries")
        return M

    f0 = as_matrix(data["F0"], "F0")
    if not isinstance(data["F"], list) or not data["F"]:
        raise ProblemFormatError('"F" must be a non-empty list of matrices')
    fs = [as_matrix(Fi, f"F{i + 1}") for i, Fi in enumerate(data["F"])]
    try:
        b = np.array(data["b"], dtype=float).ravel()
    except (TypeError, ValueError):
        raise ProblemFormatError('"b" is not a numeric vector') from None
    if not np.all(np.isfinite(b)):
        raise ProblemFormatError('"b" contains non-finite entries')

    x0 = as_matrix(data["X0"], "X0") if "X0" in data and data["X0"] is not None else None
    epsilon = data.get("epsilon", 1e-8)
    nu = data.get("nu")
    if not isinstance(epsilon, (int, float)):
        raise ProblemFormatError('"epsilon" must be a number')
    if nu is not None and not isinstance(nu, (int, float)):
        raise ProblemFormatError('"nu" must be a number when present')
    return build_problem(f0, fs, b, x0=x0, epsilon=float(epsilon), nu=nu)


def load_problem_file(path: str) -> SdpProblem:
    with open(path, "rb") as fh:
        return load_problem(fh.read())


def running_example() -> SdpProblem:
    """The bundled 2x2, three-constraint demonstration problem."""
    text = resources.files("credible_sdp").joinpath("data/running_example.json").read_text()
    return load_problem(text)


__all__ = [
    "LOAD_SYMMETRY_TOL",
    "ProblemFormatError",
    "SdpProblem",
    "build_problem",
    "compute_problem_hash",
    "load_problem",
    "load_problem_file",
    "running_example",
]
