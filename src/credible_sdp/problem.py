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
``build_problem`` and ``load_problem`` are the validating entry points. They
also admit only problems the solver can solve: m = n(n+1)/2 linearly
independent F1..Fm, so that every Newton direction has an exact dp.

The constraint matrices F1..Fm are held once, in one C-contiguous (m, n, n)
array, so checks over all of them are single numpy expressions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Any

import numpy as np

from . import symvec
from .linalg import is_pd, require_pd, trace_inner
from .symvec import require_symmetric, vecs_stack

#: Tolerance for symmetry of matrices arriving from files.
LOAD_SYMMETRY_TOL = 1e-12


class ProblemFormatError(ValueError):
    """Problem data is malformed: wrong shapes, asymmetry, or bad scalars."""


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """An SDP instance with pre-assembled constraint matrix.

    ``fstack`` holds F1..Fm as one C-contiguous (m, n, n) array, and ``fs``
    is the tuple of its rows: views, so the data is held once. ``fs`` may be
    given as a sequence of n x n matrices or as such an array; either way it
    is copied into ``fstack`` unless it already is one.

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
    fstack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        stack = np.ascontiguousarray(self.fs, dtype=float).reshape(self.m, self.n, self.n)
        object.__setattr__(self, "fstack", stack)
        object.__setattr__(self, "fs", tuple(stack))

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
    n: int, m: int, f0: np.ndarray, fs: tuple[np.ndarray, ...] | np.ndarray, b: np.ndarray
) -> str:
    """SHA-256 of n and m as little-endian int64, followed by the
    little-endian float64 bytes of F0, F1..Fm and b (matrices row by row).

    Covers exactly the constraint data — not warm starts or options — so a
    trace made from one file can be checked against a re-load of the same
    constraints. Equal hashes mean equal bit patterns: 0.0 and -0.0 differ.
    ``fs`` is the matrices or their (m, n, n) stack; the bytes are the same.
    """
    digest = hashlib.sha256(np.array([n, m], dtype="<i8").tobytes())
    for M in (f0, fs, b):
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
) -> SdpProblem:
    """Validate, admit and assemble an SdpProblem from its constituent arrays.

    Admission: each Newton step solves sum(dp[i] * Fi) = -dX for a symmetric
    dX that can be any symmetric matrix, so F1..Fm must be a basis of the
    symmetric n x n matrices: m = n(n+1)/2 and linearly independent.
    """
    f0 = np.array(f0, dtype=float)
    fs = [np.asarray(Fi, dtype=float) for Fi in fs]
    b = np.array(b, dtype=float).ravel()
    if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
        raise ProblemFormatError(f"F0 must be square, got shape {f0.shape}")
    n = f0.shape[0]
    m = len(fs)

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
    for i, Fi in enumerate(fs):
        if Fi.shape != (n, n):
            raise ProblemFormatError(f"F{i + 1} has shape {Fi.shape}, expected {(n, n)}")
    stack = np.array(fs, dtype=float).reshape(m, n, n)
    # require_symmetric's test, on every matrix of the stack at once
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    bad = np.flatnonzero(asym > LOAD_SYMMETRY_TOL * scale)
    if bad.size:
        i = bad[0]
        raise ProblemFormatError(f"F{i + 1} is not symmetric: max |a - a.T| = {asym[i]:.3e}")
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

    if m != symvec.sym_dim(n):
        raise ProblemFormatError(
            f"m = n(n+1)/2 constraint matrices are required, so that every "
            f"symmetric direction dX is a combination of F1..Fm: n = {n} needs "
            f"{symvec.sym_dim(n)}, got m = {m}"
        )
    fmat = vecs_stack(stack)
    # matrix_rank's test, keeping the singular values for cond(F)
    sv = np.linalg.svd(fmat, compute_uv=False)
    rank = int(np.count_nonzero(sv > sv[0] * m * np.finfo(float).eps))
    if rank < m:
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sv[0] / sv[-1]
        raise ProblemFormatError(
            f"F1..Fm must be linearly independent: rank(F) = {rank} < m = {m} "
            f"(cond(F) = {cond:.3e})"
        )

    return SdpProblem(
        n=n,
        m=m,
        f0=f0,
        fs=stack,
        b=b,
        fmat=fmat,
        x0=x0,
        epsilon=float(epsilon),
        nu=None if nu is None else float(nu),
        problem_hash=compute_problem_hash(n, m, f0, stack, b),
    )


def _numbers(obj: Any, name: str, kind: str, ndim: int | None = None) -> np.ndarray:
    """Read JSON numbers (a number or nested lists of ``ndim`` levels, any
    depth if None) as a float64 array.

    Entry types are checked as parsed, because numpy would read a JSON
    ``true`` as 1.0 and keep an integer beyond the float range as an object:
    either, or anything else but ints and floats, is a ProblemFormatError
    naming ``name``.
    """
    try:
        arr = np.array(obj)
    except ValueError:
        raise ProblemFormatError(f"{name} is not {kind}") from None
    if ndim is not None and arr.ndim != ndim:
        raise ProblemFormatError(f"{name} must be {kind}, got {arr.ndim}-d")
    entries = [obj] if arr.ndim == 0 else obj
    for _ in range(arr.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    odd = set(map(type, entries)) - {int, float}
    if odd:
        found = ", ".join(sorted(t.__name__ for t in odd))
        raise ProblemFormatError(f"{name} is not {kind}: it holds {found}")
    try:
        arr = arr.astype(float)
    except OverflowError:
        raise ProblemFormatError(f"{name} has an integer beyond the float range") from None
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"{name} contains non-finite entries")
    return arr


def load_problem(source: str | bytes) -> SdpProblem:
    """Parse a problem from JSON text.

    Expected keys: "F0" (n x n nested lists), "F" (list of m such matrices),
    "b" (length-m list). Optional: "X0", "epsilon", "nu". Every entry must be
    a JSON number within the float range; ``true`` is not read as 1.
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
        return _numbers(obj, name, "a numeric matrix", ndim=2)

    f0 = as_matrix(data["F0"], "F0")
    if not isinstance(data["F"], list) or not data["F"]:
        raise ProblemFormatError('"F" must be a non-empty list of matrices')
    fs = [as_matrix(Fi, f"F{i + 1}") for i, Fi in enumerate(data["F"])]
    b = _numbers(data["b"], '"b"', "a numeric vector").ravel()
    x0 = as_matrix(data["X0"], "X0") if data.get("X0") is not None else None
    epsilon = _numbers(data.get("epsilon", 1e-8), '"epsilon"', "a number", ndim=0)
    nu = data.get("nu")
    if nu is not None:
        nu = float(_numbers(nu, '"nu"', "a number", ndim=0))
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
