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

This module admits every input of a run, and each input has one source.
Each rule is stated once: ``symvec``'s symmetry rule for all n x n input
matrices, ``admit_x0`` for X0 and ``SolverOptions`` for epsilon, nu, sigma,
the mode and the iteration cap. The warm start is the problem's ``x0``
alone; a run from another start solves ``dataclasses.replace(prob, x0=...)``,
whose X0 ``solver.initialize`` admits by the same rule.

The constraint matrices F1..Fm are held once, as ``fs``: one C-contiguous
(m, n, n) array, so checks over all of them are single numpy expressions.
Every value they determine (n, m, the assembled constraint matrix ``fmat``
and the problem hash) is derived from them, never stored beside them, so no
problem can carry a hash or an ``fmat`` of other constraints.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Any

import numpy as np

from .linalg import NotPositiveDefiniteError, require_pd
from .symvec import asymmetry, is_symmetric, sym_dim, vecs_stack

#: Default convergence threshold on the duality gap.
DEFAULT_EPSILON = 1e-8

#: Default gap-contraction factor per iteration.
DEFAULT_SIGMA = 0.75

#: Default potential-function weight; for n = 2 it implies a contraction
#: factor of about 0.75 via ``solver.sigma_from_nu``.
DEFAULT_NU = 0.4714


class ProblemFormatError(ValueError):
    """Problem data is malformed: wrong shapes, asymmetry, or bad scalars."""


@dataclass(frozen=True)
class SolverOptions:
    """Settings of one ``solve`` run, valid by construction (a bad value
    raises ValueError). The contract tolerances are constants of the catalog
    (``monitor``, ``linalg``), not settings.

    ``mode`` selects what happens when a per-iteration contract fails:
    "strict" aborts the run with status InvariantViolation, "audit" records
    the failure and keeps iterating. Initialization contracts are enforced in
    both modes.
    """

    epsilon: float = DEFAULT_EPSILON
    nu: float = DEFAULT_NU
    sigma: float = DEFAULT_SIGMA
    mode: str = "audit"
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "audit"):
            raise ValueError(f"mode must be 'strict' or 'audit', got {self.mode!r}")
        # below the normal floats, the budget's initial_gap / epsilon overflows
        if not (math.isfinite(self.epsilon) and self.epsilon >= sys.float_info.min):
            raise ValueError(
                f"epsilon must be positive and normal (at least {sys.float_info.min}), "
                f"got {self.epsilon}"
            )
        if not (math.isfinite(self.sigma) and 0 < self.sigma < 1):
            raise ValueError(f"sigma must lie strictly between 0 and 1, got {self.sigma}")
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """An SDP instance: six stored values, and what they determine.

    Stored: ``f0``, ``fs``, ``b``, an optional primal warm start ``x0``, the
    convergence threshold ``epsilon`` on trace(X @ Z) and an optional
    potential-function weight ``nu``. ``fs`` (F1..Fm) may be given as n x n
    matrices or an (m, n, n) array; it is held as one C-contiguous (m, n, n)
    stack, copied only if it is not one already.

    Derived, so ``dataclasses.replace`` cannot leave them stale: ``n`` and
    ``m`` from the shape of ``fs``, and on first use ``fmat`` (row i is
    vecs(Fi), so dual feasibility reads fmat @ vecs(Z) + b == 0) and the
    problem hash.
    """

    f0: np.ndarray
    fs: np.ndarray
    b: np.ndarray
    x0: np.ndarray | None = None
    epsilon: float = DEFAULT_EPSILON
    nu: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fs", np.ascontiguousarray(self.fs, dtype=float))

    @property
    def n(self) -> int:
        return self.fs.shape[1]

    @property
    def m(self) -> int:
        return self.fs.shape[0]

    @cached_property
    def fmat(self) -> np.ndarray:
        return vecs_stack(self.fs)

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
        for M in (self.f0, self.fs, self.b):
            digest.update(np.asarray(M, dtype="<f8").tobytes())
        return digest.hexdigest()


# -- construction ----------------------------------------------------------


def _refuse_asymmetric(stack: np.ndarray, names: list[str]) -> None:
    """``symvec``'s symmetry rule, on each (finite) matrix of a (k, n, n) stack."""
    bad = np.flatnonzero(~is_symmetric(stack))
    if bad.size:
        i = bad[0]
        asym = asymmetry(stack[i])
        raise ProblemFormatError(f"{names[i]} is not symmetric: max |a - a.T| = {asym:.3e}")


def admit_x0(x0: Any, n: int) -> np.ndarray:
    """X0 as a new float array, refused unless finite (tested first), (n, n) and symmetric."""
    x0 = np.array(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ProblemFormatError("X0 has non-finite entries")
    if x0.shape != (n, n):
        raise ProblemFormatError(f"X0 has shape {x0.shape}, expected {(n, n)}")
    _refuse_asymmetric(x0[None], ["X0"])
    return x0


def build_problem(
    f0: np.ndarray,
    fs: list[np.ndarray] | tuple[np.ndarray, ...],
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    epsilon: float = DEFAULT_EPSILON,
    nu: float | None = None,
) -> SdpProblem:
    """Validate, admit and assemble an SdpProblem from its constituent arrays.

    Admission: each Newton step solves sum(dp[i] * Fi) = -dX for a symmetric
    dX that can be any symmetric matrix, so F1..Fm must be a basis of the
    symmetric n x n matrices: m = n(n+1)/2 and linearly independent.
    A non-finite entry in F0, any Fi or b is refused first, by name.
    """
    f0 = np.array(f0, dtype=float)
    fs = [np.asarray(Fi, dtype=float) for Fi in fs]
    b = np.array(b, dtype=float).ravel()
    named = [("F0", f0), *((f"F{i}", Fi) for i, Fi in enumerate(fs, 1)), ("b", b)]
    for name, M in named:
        # before any arithmetic, which would turn inf into nan and misname the fault
        if not np.isfinite(M).all():
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
    _refuse_asymmetric(f0[None], ["F0"])
    try:
        require_pd(f0, what="F0")
    except NotPositiveDefiniteError as exc:
        raise ProblemFormatError(f"F0 must be positive definite: {exc}") from None
    for i, Fi in enumerate(fs):
        if Fi.shape != (n, n):
            raise ProblemFormatError(f"F{i + 1} has shape {Fi.shape}, expected {(n, n)}")
    stack = np.array(fs, dtype=float).reshape(m, n, n)
    _refuse_asymmetric(stack, [f"F{i}" for i in range(1, m + 1)])
    try:
        opts = SolverOptions(epsilon=float(epsilon), nu=DEFAULT_NU if nu is None else float(nu))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    x0 = None if x0 is None else admit_x0(x0, n)

    if m != sym_dim(n):
        raise ProblemFormatError(
            f"m = n(n+1)/2 constraint matrices are required, so that every "
            f"symmetric direction dX is a combination of F1..Fm: n = {n} needs "
            f"{sym_dim(n)}, got m = {m}"
        )
    nu = None if nu is None else opts.nu
    prob = SdpProblem(f0=f0, fs=stack, b=b, x0=x0, epsilon=opts.epsilon, nu=nu)
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
        arr = arr.astype(float, copy=False)
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

    def numbers(obj: Any, name: str, kind: str, ndim: int) -> np.ndarray:
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
    b = numbers(data["b"], '"b"', "a numeric vector", 1)
    x0 = as_matrix(data["X0"], "X0") if data.get("X0") is not None else None
    epsilon = numbers(data.get("epsilon", DEFAULT_EPSILON), '"epsilon"', "a number", 0)
    nu = numbers(data["nu"], '"nu"', "a number", 0) if data.get("nu") is not None else None
    return build_problem(f0, fs, b, x0=x0, epsilon=epsilon, nu=nu)


def load_problem_file(path: str) -> SdpProblem:
    with open(path, "rb") as fh:
        return load_problem(fh.read())


def running_example() -> SdpProblem:
    """The bundled 2x2, three-constraint demonstration problem."""
    text = resources.files("credible_sdp").joinpath("data/running_example.json").read_text()
    return load_problem(text)


__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_NU",
    "DEFAULT_SIGMA",
    "ProblemFormatError",
    "SdpProblem",
    "SolverOptions",
    "admit_x0",
    "build_problem",
    "json_numbers",
    "load_problem",
    "load_problem_file",
    "running_example",
]
