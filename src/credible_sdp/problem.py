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
array, so checks over all of them are single numpy expressions. Every value
they determine (n, m, the assembled constraint matrix ``fmat`` and the
problem hash) is derived from them, never stored beside them, so no problem
can carry a hash or an ``fmat`` of other constraints.
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
from .linalg import NotPositiveDefiniteError, require_pd, trace_inner
from .symvec import asymmetry, require_symmetric, vecs_stack

#: Tolerance for symmetry of matrices arriving from files.
LOAD_SYMMETRY_TOL = 1e-12


class ProblemFormatError(ValueError):
    """Problem data is malformed: wrong shapes, asymmetry, or bad scalars."""


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """An SDP instance: six stored values, and what they determine.

    Stored: ``f0``, ``fs``, ``b``, an optional primal warm start ``x0``, the
    convergence threshold ``epsilon`` on trace(X @ Z) and an optional
    potential-function weight ``nu``. ``fs`` may be a sequence of n x n
    matrices or an (m, n, n) array; it is copied into the C-contiguous stack
    ``fstack`` unless it already is one, and ``fs`` becomes the tuple of its
    rows (views), so the data is held once.

    Derived, so ``dataclasses.replace`` cannot leave them stale: ``n`` and
    ``m`` from the shape of ``fstack``, and on first use ``fmat`` (row i is
    vecs(Fi), so dual feasibility reads fmat @ vecs(Z) + b == 0) and the
    problem hash.
    """

    f0: np.ndarray
    fs: tuple[np.ndarray, ...]
    b: np.ndarray
    x0: np.ndarray | None = None
    epsilon: float = 1e-8
    nu: float | None = None
    fstack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        stack = np.ascontiguousarray(self.fs, dtype=float)
        object.__setattr__(self, "fstack", stack)
        object.__setattr__(self, "fs", tuple(stack))

    @property
    def n(self) -> int:
        return self.fstack.shape[1]

    @property
    def m(self) -> int:
        return self.fstack.shape[0]

    @cached_property
    def fmat(self) -> np.ndarray:
        return vecs_stack(self.fstack)

    @cached_property
    def problem_hash(self) -> str:
        """SHA-256 of n and m as little-endian int64, followed by the
        little-endian float64 bytes of F0, F1..Fm and b (matrices row by row).

        Covers exactly the constraint data — not warm starts or options — so
        a trace made from one file can be checked against a re-load of the
        same constraints. Equal hashes mean equal bit patterns: 0.0 and -0.0
        differ.
        """
        digest = hashlib.sha256(np.array([self.n, self.m], dtype="<i8").tobytes())
        for M in (self.f0, self.fstack, self.b):
            digest.update(np.asarray(M, dtype="<f8").tobytes())
        return digest.hexdigest()

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
    A non-finite entry in F0, any Fi, b or X0 is refused first, by name.
    """
    f0 = np.array(f0, dtype=float)
    fs = [np.asarray(Fi, dtype=float) for Fi in fs]
    b = np.array(b, dtype=float).ravel()
    x0 = None if x0 is None else np.array(x0, dtype=float)
    named = [("F0", f0), *((f"F{i}", Fi) for i, Fi in enumerate(fs, 1)), ("b", b), ("X0", x0)]
    for name, M in named:
        # before any arithmetic, which would turn inf into nan and misname the fault
        if M is not None and not np.isfinite(M).all():
            raise ProblemFormatError(f"{name} has non-finite entries")
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
    try:
        require_pd(f0, what="F0")
    except NotPositiveDefiniteError as exc:
        raise ProblemFormatError(f"F0 must be positive definite: {exc}") from None
    for i, Fi in enumerate(fs):
        if Fi.shape != (n, n):
            raise ProblemFormatError(f"F{i + 1} has shape {Fi.shape}, expected {(n, n)}")
    stack = np.array(fs, dtype=float).reshape(m, n, n)
    # require_symmetric's test, on every matrix of the stack at once
    asym = asymmetry(stack)
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
    nu = None if nu is None else float(nu)
    prob = SdpProblem(f0=f0, fs=stack, b=b, x0=x0, epsilon=float(epsilon), nu=nu)
    # matrix_rank's test, keeping the singular values for cond(F)
    sv = np.linalg.svd(prob.fmat, compute_uv=False)
    rank = int(np.count_nonzero(sv > sv[0] * m * np.finfo(float).eps))
    if rank < m:
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sv[0] / sv[-1]
        raise ProblemFormatError(
            f"F1..Fm must be linearly independent: rank(F) = {rank} < m = {m} "
            f"(cond(F) = {cond:.3e})"
        )

    return prob


def json_numbers(
    obj: Any, ndim: int | None = None, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Read parsed JSON numbers (a number, or lists nested ``ndim`` deep, or
    in exactly ``shape``; any nesting if neither is given) as a float64 array.

    Entry types are checked as parsed, because numpy would read a JSON
    ``true`` as 1.0 and keep an integer beyond the float range as an object.
    Ragged nesting, the wrong depth or shape, any entry but a JSON int or
    float, an integer beyond the float range and a non-finite value each
    raise ValueError, whose message says which.
    """
    try:
        arr = np.array(obj)
    except ValueError:
        raise ValueError("ragged nesting") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{arr.ndim}-d, expected {ndim}-d")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"shape {arr.shape}, expected {shape}")
    entries = [obj] if arr.ndim == 0 else obj
    for _ in range(arr.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    odd = set(map(type, entries)) - {int, float}
    if odd:
        raise ValueError("it holds " + ", ".join(sorted(t.__name__ for t in odd)))
    try:
        arr = arr.astype(float)
    except OverflowError:
        raise ValueError("an integer beyond the float range") from None
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
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

    def numbers(obj: Any, name: str, kind: str, ndim: int | None) -> np.ndarray:
        try:
            return json_numbers(obj, ndim)
        except ValueError as exc:
            raise ProblemFormatError(f"{name} is not {kind}: {exc}") from None

    def as_matrix(obj: Any, name: str) -> np.ndarray:
        return numbers(obj, name, "a numeric matrix", 2)

    f0 = as_matrix(data["F0"], "F0")
    if not isinstance(data["F"], list) or not data["F"]:
        raise ProblemFormatError('"F" must be a non-empty list of matrices')
    fs = [as_matrix(Fi, f"F{i + 1}") for i, Fi in enumerate(data["F"])]
    b = numbers(data["b"], '"b"', "a numeric vector", None).ravel()
    x0 = as_matrix(data["X0"], "X0") if data.get("X0") is not None else None
    epsilon = numbers(data.get("epsilon", 1e-8), '"epsilon"', "a number", 0)
    nu = data.get("nu")
    if nu is not None:
        nu = float(numbers(nu, '"nu"', "a number", 0))
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
    "json_numbers",
    "load_problem",
    "load_problem_file",
    "running_example",
]
