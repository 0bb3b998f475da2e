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
Every value they determine (n, m, the assembled constraint matrix ``fmat``,
the ``fold_plan``, which also reads F0, and the problem hash) is derived
from them, never stored beside them, so no problem can carry a hash or an
``fmat`` of other constraints.
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
import orjson

from .linalg import NotPositiveDefiniteError, require_pd
from .symvec import asymmetry, is_symmetric, sym_dim, vecs_stack

#: Default convergence threshold on the duality gap.
DEFAULT_EPSILON = 1e-8

#: Default gap-contraction factor per iteration.
DEFAULT_SIGMA = 0.75

#: Default potential-function weight; for n = 2 it implies a contraction
#: factor of about 0.75 via ``solver.sigma_from_nu``.
DEFAULT_NU = 0.4714

#: The run modes of ``SolverOptions.mode``.
MODES = ("strict", "audit")

#: The floating-point rule of admission, of a solve and of a trace check: an
#: overflow, an invalid operation or a division by zero raises
#: FloatingPointError, under every warnings filter. ``np.errstate(**FLOAT_RULE)``.
FLOAT_RULE = {"over": "raise", "invalid": "raise", "divide": "raise"}


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
        if self.mode not in MODES:
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
    def fold_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, entry): the entries of F1..Fm a sum over them computes.

        ``columns`` is the C-contiguous (m, E) stack of the upper triangle's
        entries and of each lower entry that differs from its mirror, bit for
        bit, in F0 or some Fi (so 0.0 and -0.0 differ); ``entry[i * n + j]``
        is the column that holds entry (i, j), its mirror's where they never
        differ. A sum F0 + c[0] * F1 + ... (or one without F0) over the
        columns, gathered through ``entry``, has the bits of the same sum
        over the full matrices.
        """
        m, n = self.m, self.n
        bits = self.fs.view(np.int64)
        f0 = np.asarray(self.f0, dtype=float).view(np.int64)
        row, col = np.divmod(np.arange(n * n), n)
        own = (row <= col) | ((bits != bits.transpose(0, 2, 1)).any(axis=0) | (f0 != f0.T)).ravel()
        cols = np.flatnonzero(own)
        entry = np.empty(n * n, dtype=np.intp)
        entry[cols] = np.arange(len(cols))
        entry[~own] = entry[(col * n + row)[~own]]  # mirrors of lower entries are upper ones
        return np.ascontiguousarray(self.fs.reshape(m, n * n)[:, cols]), entry

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
    F1..Fm given as one float (m, n, n) array are held as they are, not copied.

    The tests run under ``FLOAT_RULE``: data that a test takes beyond the
    float range (an F0 + F0.T that overflows, say) are refused whatever the
    warnings filter, before an infinity reaches LAPACK.
    """
    try:
        with np.errstate(**FLOAT_RULE):
            return _admit(f0, fs, b, x0, epsilon, nu)
    except FloatingPointError as exc:
        raise ProblemFormatError(f"problem data leave the float range in admission: {exc}") from None


def _admit(f0, fs, b, x0, epsilon, nu) -> SdpProblem:
    """``build_problem``'s tests, in their order, and its problem."""
    f0 = np.array(f0, dtype=float)
    fs = _constraint_stack(fs)
    b = np.array(b, dtype=float).ravel()
    # before any arithmetic, which would turn inf into nan and misname the fault
    if not np.isfinite(f0).all():
        raise ProblemFormatError("F0 has non-finite entries")
    if isinstance(fs, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(fs).all(axis=(1, 2)))
    else:
        bad = [i for i, Fi in enumerate(fs) if not np.isfinite(Fi).all()]
    if len(bad):
        raise ProblemFormatError(f"F{bad[0] + 1} has non-finite entries")
    if not np.isfinite(b).all():
        raise ProblemFormatError("b has non-finite entries")
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
    shapes = [Fi.shape for Fi in fs] if isinstance(fs, list) else [fs.shape[1:]]
    for i, shape in enumerate(shapes):
        if shape != (n, n):
            raise ProblemFormatError(f"F{i + 1} has shape {shape}, expected {(n, n)}")
    # matrices of one shape are a stack, so fs is one from here on
    _refuse_asymmetric(fs, [f"F{i}" for i in range(1, m + 1)])
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
    prob = SdpProblem(f0=f0, fs=fs, b=b, x0=x0, epsilon=opts.epsilon, nu=nu)
    # matrix_rank's test, keeping the singular values for cond(F)
    sv = np.linalg.svd(prob.fmat, compute_uv=False)
    rank = int(np.count_nonzero(sv > sv[0] * m * np.finfo(float).eps))
    if rank < m:
        with np.errstate(all="ignore"):  # an infinite cond(F) is reported as inf
            cond = sv[0] / sv[-1]
        raise ProblemFormatError(
            f"F1..Fm must be linearly independent: rank(F) = {rank} < m = {m} "
            f"(cond(F) = {cond:.3e})"
        )

    return prob


def _constraint_stack(fs: Any) -> np.ndarray | list[np.ndarray]:
    """F1..Fm as one float (m, k, l) array, taken as it is if it is one; as a
    list of float arrays where they are not matrices of one shape."""
    fs = fs if isinstance(fs, np.ndarray) else list(fs)
    try:
        stack = np.asarray(fs, dtype=float)
    except (TypeError, ValueError):  # of several shapes, or not numbers: read one by one below
        stack = None
    if stack is not None and stack.ndim == 3:
        return stack
    return [np.asarray(Fi, dtype=float) for Fi in fs]


#: The most dimensions numpy (2 and later) gives an array.
_MAX_DIMS = 64


def json_numbers(
    obj: Any, ndim: int | None = None, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Read parsed JSON numbers (a number, or lists nested ``ndim`` deep, or
    in exactly ``shape``; any nesting if neither is given) as a float64 array.

    Entry types are checked as parsed, because numpy would read a JSON
    ``true`` as 1.0 and keep an integer beyond the float range as an object.
    Each fault raises ValueError, and the first one found in this order
    names it: ragged nesting (lists of unequal lengths, a list among the
    entries, or more than ``_MAX_DIMS`` levels, all of which numpy refuses
    to read as one array), the wrong depth or shape, an entry other than a
    JSON int or float, an integer beyond the float range, a non-finite value.

    One walk reads the shape down the first items and then the entries level
    by level, in row-major order; their types are taken once, and one
    ``np.array(flat, dtype=float)`` converts them, each number as ``float``
    reads it, which are the bits numpy's nested read of ``obj`` gives.
    """
    found, item = [], obj
    while type(item) is list:
        found.append(len(item))
        if not item:
            break
        item = item[0]
    flat = [obj]
    for size in found:
        if set(map(type, flat)) != {list} or set(map(len, flat)) != {size}:
            raise ValueError("ragged nesting")
        flat = list(itertools.chain.from_iterable(flat))
    kinds = set(map(type, flat))
    if list in kinds or len(found) > _MAX_DIMS:
        raise ValueError("ragged nesting")
    found = tuple(found)
    if ndim is not None and len(found) != ndim:
        raise ValueError(f"{len(found)}-d, expected {ndim}-d")
    if shape is not None and found != shape:
        raise ValueError(f"shape {found}, expected {shape}")
    odd = kinds - {int, float}
    if odd:
        raise ValueError("it holds " + ", ".join(sorted(t.__name__ for t in odd)))
    try:
        arr = np.array(flat, dtype=float).reshape(found)
    except OverflowError:
        raise ValueError("an integer beyond the float range") from None
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    return arr


# -- reading JSON ----------------------------------------------------------

#: Text nested deeper than this is read by ``json`` (see ``orjson_reads_alike``).
MAX_ORJSON_DEPTH = 64

_NOT_NESTING = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
_OPENS_CLOSES = bytes.maketrans(b"{}", b"[]")


def orjson_reads_alike(data: bytes) -> bool:
    """Whether ``orjson.loads`` reads each JSON text in ``data`` (one, or one
    per line) by ``read_json``'s rule, wherever it reads it at all.

    orjson refuses NaN, Infinity, numbers beyond the float range and lone
    surrogates, which ``json`` reads; ``read_json``'s fallback reads those.
    Where orjson reads the text, it nests without a depth limit, and deep
    enough it overflows the C stack where ``json`` raises RecursionError.
    So this is False unless every value nests at most ``MAX_ORJSON_DEPTH``
    deep. It may refuse text that orjson would read alike (a string with an
    escape or a bracket), never the other way.

    Depth is read from the brackets outside strings. Where no backslash is,
    no quote is escaped, and a string holds no bracket just if its quotes
    are adjacent once all but brackets and quotes are taken out (any other
    pairing of adjacent quotes leaves the first quote unpaired). Pairs "[]"
    are then removed once per level, so text of depth k is left empty after
    k rounds, and text whose brackets do not balance is never left empty.
    Of JSON lines this holds for each line before the first one that is
    not JSON, whose quotes may pair the later ones wrongly, so a reader of
    the lines must stop at that one.
    """
    nesting = data.translate(None, _NOT_NESTING).replace(b'""', b"")
    if b'"' in nesting or b"\\" in nesting:
        return False
    nesting = nesting.translate(_OPENS_CLOSES)
    for _ in range(MAX_ORJSON_DEPTH):
        if not nesting:
            break
        nesting = nesting.replace(b"[]", b"")
    return not nesting


def read_json(data: str | bytes) -> Any:
    """``json.loads(data)``, read by orjson where ``orjson_reads_alike``
    holds for ``data`` and orjson reads it at all. Problem files are read
    by it, and every trace line (``annotator._read_lines``).

    The value is then ``json``'s, every type and float bit, but for integers
    outside [-2**63, 2**64), which read as the floats nearest them, those
    ``float()`` gives. As ``json`` reads all text orjson refuses, each error
    is ``json``'s. orjson's number parser is trusted to give the bits of
    CPython's, which the test suite pins.
    """
    if orjson_reads_alike(data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(data)


def load_problem(source: str | bytes) -> SdpProblem:
    """Parse a problem from JSON text.

    Expected keys: "F0" (n x n nested lists), "F" (list of m such matrices),
    "b" (length-m list). Optional: "X0", "epsilon", "nu". Every entry must be
    a JSON number within the float range; ``true`` is not read as 1.
    The text is read by ``read_json``, as ``json.loads`` reads it: an
    integer it reads as the float nearest it is read as that float here in
    any case.
    """
    try:
        data = read_json(source)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"problem file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProblemFormatError("problem file is nested too deep") from None
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
    try:  # all of F at once; a fault is named matrix by matrix
        fs = json_numbers(data["F"], 3)
    except ValueError:
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
    "FLOAT_RULE",
    "MAX_ORJSON_DEPTH",
    "ProblemFormatError",
    "SdpProblem",
    "SolverOptions",
    "admit_x0",
    "build_problem",
    "json_numbers",
    "load_problem",
    "load_problem_file",
    "orjson_reads_alike",
    "read_json",
    "running_example",
]
