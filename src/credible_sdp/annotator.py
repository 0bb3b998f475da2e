"""Proof-trace serialization, independent re-checking, and annotated listings.

A *proof trace* is a JSON-lines account of one solver run. Schema ``cts-4``
stores the claims and leaves out whatever the checker derives: a header
(schema tag, problem hash, options, starting state), the initialization
records, then per iteration one line with the directions (dX, dZ, dp)
followed by its contract records (id, measured value, bound, verdict,
detail), and a footer with the outcome. dX and dZ are symmetric bit for bit,
so each is stored as its upper triangle: the n(n+1)/2 entries with i <= j,
row-major, unscaled; the writer refuses a direction whose triangles differ,
and the checker mirrors each triangle back into the matrix. The iterates,
gaps, contract anchors and record positions are not stored; records before
the first iteration line are the initialization records. The problem hash is
SHA-256 over the raw float64 bytes of the constraint data. Each line is
its builder's object written by one orjson call (``_line``): a float as its
shortest digits, which read back to the same float bit for bit, in orjson's
notation (``1e-6``, ``1e16``, ``0.00001``). The checker compares values, not
notation. orjson writes NaN and infinity as ``null``, so a line that holds
``null`` is searched for them, and a non-finite float raises ValueError.

``check_trace`` replays a trace against the problem file it claims to come
from, then compares. The replay runs first, under one floating-point rule:
overflow, invalid operations and division by zero raise, whatever the
warnings filter, so it stops at the first step whose arithmetic leaves the
float range. It runs the solver's own loop, ``solver.iterate``, with the
stored directions (all read at once) in place of Newton's: each step starts
from the recomputed previous point, as the solver's did, the contracts of
its steps are re-evaluated with the same monitor code in one sweep, as in a
solve, and the replay stops where the solver's loop would. The replay is the
one part of a check that can end in an ``error`` finding. It is a
``SolveReport``, so the footer's exit and budget follow the same rule as a
run's. Only then is every stored line compared with the line the writer's
own builders (``_header_obj``, ``_iteration_obj``, ``_record_obj``,
``_footer_obj``) would emit for the recomputed values and the catalog's
tolerances, so the trace format is stated once, by the writer, and no trace
sets its own rules. One exact-match rule comes first (``_identical``): a
block of record lines, or an iteration line without its directions, that the
writer writes as it writes its builders' objects is accepted; anything else
goes to the diff, which alone reports.
Discrepancies, missing and unexpected fields become ``Finding`` values in a
``CheckReport`` — a tampered trace yields findings, never a crash. Only
malformed input (bad JSON, unknown schema, wrong problem hash, missing or
invalid header fields) raises ``TraceFormatError``.

Traces of the older schemas are still read. A ``cts-3`` trace is a
``cts-4`` trace whose header also states a potential weight ``options.nu``
and, as ``init_state.sigma``, a second copy of ``options.sigma``. No step or
contract reads that weight, so the checker requires only that it be a
positive JSON number and otherwise takes it as stored. A ``cts-2`` trace is
a ``cts-3`` trace whose dX and dZ are stored as full n-by-n matrices. A
``cts-1`` line is the ``cts-2`` line plus derived keys (each iteration line
also stores the iterates, gaps and mu, each record its anchor, phase and
iteration, the header ``options.lsqr_tol``, always ``LEGACY_LSQR_TOL``), and
its problem hash is taken over the constraint data written as ``.17g`` text.
The builders emit those keys when asked for an older schema; the replay
steps from recomputed points in every schema, so a tampered ``cts-1``
iterate is flagged where it is stored. ``_SCHEMAS`` holds what differs
between the schemas in the iteration lines.

``emit_annotated_listing`` renders the solver algorithm for a concrete
problem as an annotated listing in one of two flavors: "pseudo-matlab"
(``%%`` contract lines) or "c-like" (``/*@ ... */`` contract lines). Each
annotation carries the id under which the monitor records its runtime check,
so listing, trace, and checker all speak the same contract catalog. The
problem data is written by the trace's writer, ``_line``, every entry as
stored; the catalog's text keeps ``monitor.fmt_num`` (``repr``), since
``cts-1`` traces store its anchors.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
import orjson

from . import monitor
from .linalg import PD_TOL, sym_inv, sym_sqrt
from .problem import SdpProblem, SolverOptions, json_numbers, orjson_reads_alike, read_json
from .solver import (
    FLOAT_RULE,
    IterateState,
    NewtonStep,
    SolveReport,
    SolveStatus,
    default_options,
    iterate,
)
from .symvec import layout, sym_dim

TOOL_NAME = "credible-sdp"
TOOL_VERSION = "0.1.0"

TRACE_SCHEMA = "cts-4"
#: The first schema, still read: ``cts-2`` lines plus derived keys.
LEGACY_SCHEMA = "cts-1"
#: The least-squares tolerance every ``cts-1`` header states.
LEGACY_LSQR_TOL = 1e-9
VECTORIZATION = "vecs-sqrt2"
BACKEND = "numpy.linalg (eigh, lstsq, pinv)"
BUDGET_BASIS = "ceil(log(trace(X0*Z0)/epsilon)/log(1/sigma))"

#: Relative tolerance when comparing stored against recomputed floats.
CHECK_RTOL = 1e-12


class TraceFormatError(ValueError):
    """The trace is not readable: bad JSON, schema, shape, or problem hash."""


# --------------------------------------------------------------------------
# JSON-lines writing
# --------------------------------------------------------------------------


def _record_obj(
    rec: "monitor.InvariantRecord",
    schema: str = TRACE_SCHEMA,
    iteration: int | None = None,
    sigma: float | None = None,
) -> dict:
    """A record line; a ``cts-1`` line also states the phase, the
    ``iteration`` and the anchor at the run's ``sigma``."""
    obj = {
        "type": "record",
        "id": rec.id,
        "measured": rec.measured,
        "bound": rec.bound,
        "passed": rec.passed,
        "detail": rec.detail,
    }
    if schema == LEGACY_SCHEMA:
        phase = "loop" if rec.id in monitor.LOOP_IDS else "init"
        obj.update(phase=phase, iteration=iteration, anchor=monitor.anchor(rec.id, sigma))
    return obj


def _text_hash(prob: SdpProblem) -> str:
    """The problem hash a ``cts-1`` trace carries: SHA-256 of the constraint
    data written as ``.17g`` text."""
    parts = [f"n={prob.n}", f"m={prob.m}"]
    named = [("F0", prob.f0), *((f"F{i}", Fi) for i, Fi in enumerate(prob.fs, 1))]
    for name, M in [*named, ("b", prob.b)]:
        values = tuple(np.asarray(M, dtype=float).ravel().tolist())
        parts.append(f"{name}=[" + ("%.17g," * len(values) % values)[:-1] + "]")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _header_obj(
    prob: SdpProblem,
    opts: SolverOptions,
    state: IterateState,
    problem_hash: str,
    schema: str = TRACE_SCHEMA,
    weight: object = None,
) -> dict:
    """The header line; one of an older schema also states the potential
    ``weight``, as ``options.nu``, and, in ``init_state``, sigma a second time."""
    obj = {
        "type": "header",
        "schema": schema,
        "tool": f"{TOOL_NAME} {TOOL_VERSION}",
        "problem_hash": problem_hash,
        "n": prob.n,
        "m": prob.m,
        "vectorization": VECTORIZATION,
        "backend": BACKEND,
        "options": {
            "epsilon": opts.epsilon,
            "sigma": opts.sigma,
            "mode": opts.mode,
            "gap_ceiling": monitor.GAP_CEILING,
            "equality_tol": monitor.EQUALITY_TOL,
            "pd_margin": PD_TOL,
        },
        "init_state": {
            "X": np.ascontiguousarray(state.X, dtype=float),
            "Z": np.ascontiguousarray(state.Z, dtype=float),
            "p": np.ascontiguousarray(state.p, dtype=float),
            "mu": state.mu,
            "phi": state.phi,
            "phim": state.phim,
        },
    }
    if schema != TRACE_SCHEMA:
        obj["options"]["nu"] = weight
        obj["init_state"]["sigma"] = opts.sigma
    if schema == LEGACY_SCHEMA:
        obj["options"]["lsqr_tol"] = LEGACY_LSQR_TOL
    return obj


class _Schema(NamedTuple):
    """What an iteration line of one schema holds."""

    #: the arrays an iteration line stores
    arrays: tuple[str, ...]
    #: dX and dZ are stored as upper triangles (``symvec.layout`` order)
    triangles: bool


#: The directions of a step, as an iteration line names them.
_DIRECTIONS = ("dX", "dZ", "dp")

#: The schemas this tool reads, the one it writes first.
_SCHEMAS = {
    "cts-4": _Schema(_DIRECTIONS, triangles=True),
    "cts-3": _Schema(_DIRECTIONS, triangles=True),
    "cts-2": _Schema(_DIRECTIONS, triangles=False),
    "cts-1": _Schema(("Xm", "Zm", "pm", *_DIRECTIONS, "X", "Z", "p"), triangles=False),
}


def _triangle(M: np.ndarray, name: str) -> np.ndarray:
    """The upper triangle of a direction that is symmetric bit for bit, or
    of each in a stack; any other raises ValueError, so a trace never stores
    a cut-down direction."""
    if M.tobytes() != np.swapaxes(M, -1, -2).tobytes():
        raise ValueError(f"{name} is not symmetric bit for bit; a trace stores one triangle")
    i, j, _, _ = layout(M.shape[-1])
    return M[..., i, j]


def _iteration_obj(
    prev: IterateState, state: IterateState, step: NewtonStep | None, schema: str = TRACE_SCHEMA
) -> dict:
    """The line of the step from ``prev`` to ``state``; from ``cts-3`` on dX and
    dZ are upper triangles, and a direction that is not symmetric bit for bit
    raises ValueError. Without a ``step`` the line leaves out the directions:
    the checker steps with the stored ones, so they can only match."""
    obj = {"type": "iteration", "iteration": state.iteration}
    if step is not None:
        dX, dZ, dp = (np.ascontiguousarray(a, dtype=float) for a in (step.dX, step.dZ, step.dp))
        if _SCHEMAS[schema].triangles:
            dX, dZ = _triangle(dX, "dX"), _triangle(dZ, "dZ")
        obj.update(dX=dX, dZ=dZ, dp=dp)
    if schema == LEGACY_SCHEMA:
        obj.update(
            Xm=prev.X,
            Zm=prev.Z,
            pm=prev.p,
            X=state.X,
            Z=state.Z,
            p=state.p,
            mu=state.mu,
            phi=state.phi,
            phim=state.phim,
        )
    return obj


def _footer_obj(
    status: str,
    iterations: int,
    final_gap: float,
    budget: int,
    records: int,
    violation_id: str | None,
) -> dict:
    obj = {
        "type": "footer",
        "status": status,
        "iterations": iterations,
        "final_gap": final_gap,
        "budget": budget,
        "budget_basis": BUDGET_BASIS,
        "records": records,
    }
    if violation_id is not None:
        obj["violation_id"] = violation_id
    return obj


def _finite(value: object) -> bool:
    """Whether no float in a line's object, at any depth, is NaN or infinite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, (float, np.floating, np.ndarray)) or bool(np.isfinite(value).all())


def _line(obj: object) -> bytes:
    """One trace line: ``obj`` written by one orjson call. orjson writes NaN
    and infinity as ``null``, so a line that holds ``null`` is searched for
    them, and one raises ValueError, as a strict JSON writer does; ``None``
    is written as ``null``. An object orjson cannot write raises its
    ``JSONEncodeError``, a TypeError. orjson also refuses integers outside
    [-2**63, 2**64), which no builder's field reaches: the largest is the
    budget, at most log(sys.float_info.max) / -log1p(-2**-53), the sigma
    nearest 1, about 6.4e18 < 2**63. orjson writes float32 and big-endian
    arrays other than as float64 and refuses others not C-contiguous, so the
    builders hand it C-contiguous float64 arrays; record values must be
    Python floats or float64 scalars, as ``monitor`` builds them."""
    line = orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"null" in line and not _finite(obj):
        raise ValueError("Out of range float values are not JSON compliant")
    return line


def _trace_objs(report: SolveReport) -> Iterator[dict]:
    """The builders' object of each line of the report's trace, in order."""
    prob, state = report.problem, report.initial_state
    yield _header_obj(prob, report.options, state, prob.problem_hash)
    yield from map(_record_obj, report.init_records)
    for snap in report.snapshots:
        yield _iteration_obj(state, snap.state, snap.step)
        yield from map(_record_obj, snap.records)
        state = snap.state
    yield _footer_obj(
        report.status.value,
        report.iterations,
        report.final_gap,
        report.budget,
        report.record_count,
        report.violation_id,
    )


def write_trace(report: SolveReport) -> bytes:
    """Serialize a solve report as a JSON-lines proof trace, one ``_line``
    per builder's object, in trace order: the first line that cannot be
    written raises."""
    return b"\n".join(map(_line, _trace_objs(report))) + b"\n"


# --------------------------------------------------------------------------
# Trace parsing
# --------------------------------------------------------------------------


@dataclass
class ProofTrace:
    """A parsed trace: header, init records, per-iteration blocks, footer."""

    header: dict
    init_records: list[dict]
    iterations: list[dict]  # each {"state": <iteration line>, "records": [<record line>...]}
    footer: dict


def parse_trace(data: bytes) -> ProofTrace:
    """Split a JSON-lines trace into its structural parts.

    Records before the first iteration line are the initialization records;
    every later record belongs to the iteration line above it. Raises
    TraceFormatError for anything that is not a well-formed trace of a
    supported schema (``cts-4``, ``cts-3``, ``cts-2`` or ``cts-1``); content
    errors are left to ``check_trace``. Lines end at ``"\n"`` only, as in JSON Lines,
    so a string may hold any other line separator. Each line that is not
    blank must hold exactly one JSON value, an object, with JSON whitespace
    (space, tab, CR) around it.
    """
    objs = _read_lines(data)

    header = objs[0]
    if header.get("type") != "header":
        raise TraceFormatError("first line must be the trace header")
    if not isinstance(header.get("schema"), str) or header["schema"] not in _SCHEMAS:
        raise TraceFormatError(
            f"unsupported trace schema {header.get('schema')!r}; "
            f"this tool reads {', '.join(map(repr, _SCHEMAS))}"
        )
    if len(objs) < 2 or objs[-1].get("type") != "footer":
        raise TraceFormatError("last line must be the trace footer")
    footer = objs[-1]

    init_records: list[dict] = []
    iterations: list[dict] = []
    current: dict | None = None
    for lineno, obj in enumerate(objs[1:-1], 2):
        kind = obj.get("type")
        if kind == "record":
            if current is None:
                init_records.append(obj)
            elif obj.get("id") in monitor.INIT_IDS:
                raise TraceFormatError(f"line {lineno}: init record after iteration lines")
            else:
                current["records"].append(obj)
        elif kind == "iteration":
            current = {"state": obj, "records": []}
            iterations.append(current)
        else:
            raise TraceFormatError(f"line {lineno}: unexpected line type {kind!r}")
    return ProofTrace(header=header, init_records=init_records, iterations=iterations, footer=footer)


def _read_lines(data: bytes) -> list[dict]:
    """The JSON object on each line of a trace that is not blank, each line
    read by ``read_json``. Where ``orjson_reads_alike`` holds for the whole
    trace, orjson reads every line, each on its own, a faster route to the
    values ``read_json`` gives: lines are never joined, since a joined read
    accepts a file whose line breaks are off in ways that cancel. That read
    stands if every line is a JSON object, for then no line spoiled the
    test. Otherwise ``read_json`` reads the lines in order, and the first
    that is not a JSON object ends the read with its error.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not valid UTF-8: {exc}") from None
    lines = [line for line in text.split("\n") if line.strip(" \t\r")]
    if not lines:
        raise TraceFormatError("trace is empty")
    if orjson_reads_alike(data):
        try:
            objs = list(map(orjson.loads, lines))
            if all(type(obj) is dict for obj in objs):
                return objs
        except orjson.JSONDecodeError:
            pass
    return [_read_line(lineno, line) for lineno, line in enumerate(lines, 1)]


def _read_line(lineno: int, line: str) -> dict:
    """The one JSON object on a line, read by ``read_json``."""
    try:
        obj = read_json(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise TraceFormatError(f"line {lineno} is not valid JSON: {exc}") from None
    except RecursionError:
        raise TraceFormatError(f"line {lineno} is nested too deep") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno} is not a JSON object")
    return obj


# --------------------------------------------------------------------------
# Trace checking
# --------------------------------------------------------------------------


@dataclass
class Finding:
    """One discrepancy between a trace and its recomputation."""

    kind: str  # "structure" | "chain" | "recompute" | "verdict" | "catalog" | "footer" | "error"
    where: str
    record_id: str | None
    message: str


@dataclass
class CheckReport:
    """Outcome of replaying a trace; clean means no findings at all.

    ``failed_ids``: the contracts whose recomputed records fail, sorted.
    """

    findings: list[Finding]
    iterations: int
    records_checked: int
    failed_ids: list[str]

    @property
    def clean(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        if self.clean:
            summary = (
                f"{self.iterations} iteration(s), "
                f"{self.records_checked} record(s) recomputed, no findings"
            )
            if self.failed_ids:
                failed = ", ".join(self.failed_ids)
                return f"trace consistent, contracts FAILED: {failed}; {summary}"
            return f"trace OK: {summary}"
        out = [f"trace FAILED: {len(self.findings)} finding(s)"]
        for f in self.findings:
            where = f.where + (f" [{f.record_id}]" if f.record_id else "")
            out.append(f"  - ({f.kind}) {where}: {f.message}")
        return "\n".join(out)


def _close(stored: object, expected: object) -> bool:
    """Whether ``stored``, a float, an array or the JSON lists an array was
    read from, is within CHECK_RTOL of the recomputed ``expected``. Equal
    values pass, equal infinities and 0.0 against -0.0 among them; otherwise
    the largest difference must be at most CHECK_RTOL times the largest
    magnitude on either side, and that bound must be finite, or an infinite
    value would pass for any other."""
    a, b = np.asarray(stored, dtype=float), np.asarray(expected, dtype=float)
    if (a == b).all():
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(a - b).max()
        return bool(diff <= CHECK_RTOL * max(np.abs(a).max(), np.abs(b).max()) < math.inf)


def _identical(stored: object, expected: object) -> bool:
    """Whether the writer writes ``stored`` as it writes ``expected``: then
    both hold the same keys in the same order, each value of the same type
    (orjson writes ``5``, ``5.0`` and ``true`` apart) and each float with
    the same bits (shortest round-trip digits, ``-0.0`` kept), so ``_diff``
    finds nothing. Anything else goes to ``_diff``, which alone writes
    findings. A value the writer refuses on either side, NaN, infinity, or
    a lone surrogate or integer outside [-2**63, 2**64) that only the
    standard decoder reads, is not identical to anything.
    """
    try:
        return _line(stored) == _line(expected)
    except (TypeError, ValueError):
        return False


def _diff(
    stored: object,
    expected: object,
    where: str,
    rid: str | None,
    findings: list[Finding],
    kind: str | None = None,
    key: str = "",
) -> None:
    """Report every place where a stored value departs from the recomputed one.

    Objects are compared key by key, recursively; a missing or unexpected
    key is a finding. Arrays and floats (stored as JSON int or float) compare
    by the one closeness rule, ``_close``; everything else must be equal and
    of the same type. The finding kind follows the recomputed value: array
    -> "chain", float -> "recompute", bool -> "verdict", anything else, or a
    stored value of the wrong type, -> "structure"; ``kind`` overrides it.
    """
    if isinstance(expected, dict):
        if not isinstance(stored, dict):
            findings.append(Finding(kind or "structure", where, rid, f"{key} is not an object"))
            return
        prefix = f"{key}." if key else ""
        for name in expected:
            if name not in stored:
                findings.append(Finding(kind or "structure", where, rid, f"{prefix}{name} is missing"))
        for name, value in stored.items():
            if name not in expected:
                findings.append(Finding(kind or "structure", where, rid, f"unexpected key {prefix}{name}"))
                continue
            _diff(value, expected[name], where, rid, findings, kind, prefix + name)
        return
    if isinstance(expected, np.ndarray):
        if not _close(stored, expected):
            findings.append(Finding(kind or "chain", where, rid, f"{key} does not match its recomputation"))
        return
    if type(stored) is type(expected) and stored == expected:
        return
    if isinstance(expected, float) and type(stored) in (int, float):
        try:
            value = float(stored)
        except OverflowError:  # an int no float can hold matches nothing
            value = math.inf
        if not _close(value, expected):
            message = f"{key}: trace has {stored!r}, recomputation gives {expected!r}"
            findings.append(Finding(kind or "recompute", where, rid, message))
        return
    default = "verdict" if isinstance(expected, bool) and type(stored) is bool else "structure"
    findings.append(
        Finding(kind or default, where, rid, f"{key}: trace has {stored!r}, expected {expected!r}")
    )


def _options_from_header(header: dict) -> SolverOptions:
    """The header's options; an older schema's ``nu`` must be a positive number."""
    options = header.get("options")
    if not isinstance(options, dict):
        raise TraceFormatError("trace header is missing its options object")
    try:
        if header["schema"] != TRACE_SCHEMA and not json_numbers(options["nu"], shape=()) > 0:
            raise ValueError(f"nu must be positive, got {options['nu']!r}")
        return SolverOptions(
            epsilon=float(json_numbers(options["epsilon"], shape=())),
            sigma=float(json_numbers(options["sigma"], shape=())),
            mode=options["mode"],
        )
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"trace header options are invalid: {exc}") from None


def _state_from_header(header: dict, n: int, m: int) -> IterateState:
    init = header.get("init_state")
    if not isinstance(init, dict):
        raise TraceFormatError("trace header is missing its init_state object")
    shapes = {"X": (n, n), "Z": (n, n), "p": (m,)}
    try:
        X, Z, p = (json_numbers(init[key], shape=shape) for key, shape in shapes.items())
        mu, phi, phim = (float(json_numbers(init[key], shape=())) for key in ("mu", "phi", "phim"))
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"trace header init_state is malformed: {exc}") from None
    return IterateState(X=X, Z=Z, p=p, mu=mu, phi=phi, phim=phim, iteration=0)


def _compare_records(
    stored: list[dict],
    recomputed: list["monitor.InvariantRecord"],
    where: str,
    schema: str,
    iteration: int,
    sigma: float,
    findings: list[Finding],
) -> None:
    # in catalog order, as swept; a block the writer writes alike is accepted whole
    expected = {rec.id: _record_obj(rec, schema, iteration, sigma) for rec in recomputed}
    if _identical(stored, list(expected.values())):
        return
    stored_ids = [rec.get("id") for rec in stored]
    if stored_ids != list(expected):
        message = f"record ids {stored_ids} do not match the catalog {list(expected)}"
        findings.append(Finding("catalog", where, None, message))
    for stored_rec in stored:
        rid = stored_rec.get("id")
        ours = expected.get(rid) if isinstance(rid, str) else None
        if ours is None:
            findings.append(Finding("catalog", where, rid, f"unknown record id {rid!r}"))
        else:
            _diff(stored_rec, ours, where, rid, findings)


def check_trace(data: bytes, prob: SdpProblem) -> CheckReport:
    """Replay a trace against a problem and report every discrepancy.

    The problem hash must match (TraceFormatError otherwise — a trace is
    only checkable against the constraints it was made from), and
    ``SolverOptions`` must accept the header options. The replay runs first,
    under the floating-point rule, fed with the stored directions in place
    of Newton's (triangles mirrored into (K, n, n) stacks by one
    gather each, so a direction is symmetric by construction). It is the
    checker's only failure path: an initialization sweep it cannot redo is
    an ``error`` finding at ``init``, and a step it cannot redo ends it with
    an ``error`` finding, placed after the lines of the steps before it. The
    comparison follows and raises nothing: every stored line, the header and
    footer included, against the line the writer would emit in the trace's
    schema for the replay (``_diff``, relative tolerance CHECK_RTOL), so a
    ``cts-1`` iterate is judged where it is stored. The stored directions
    are the step itself, so of them only the keys are compared; a changed
    direction shows in the records and the footer. The failed contracts and
    the record count are the replay's.
    """
    trace = parse_trace(data)
    header = trace.header
    schema = header["schema"]

    stored_hash = header.get("problem_hash")
    problem_hash = _text_hash(prob) if schema == LEGACY_SCHEMA else prob.problem_hash
    if stored_hash != problem_hash:
        raise TraceFormatError(
            f"problem hash mismatch: {schema} trace was made for "
            f"{str(stored_hash)[:12]}…, this problem is {problem_hash[:12]}…"
        )

    n, m = prob.n, prob.m
    opts = _options_from_header(header)
    state0 = _state_from_header(header, n, m)

    spec = _SCHEMAS[schema]
    shapes = {key: (m,) if key in ("pm", "dp", "p") else (n, n) for key in spec.arrays}
    if spec.triangles:
        shapes.update(dX=(sym_dim(n),), dZ=(sym_dim(n),))
        _, _, _, mirror = layout(n)
    scaled = None  # (Z, Zh, Zhi), redone only when the Z stepped from changes
    lines = [block["state"] for block in trace.iterations]
    try:  # each key of all lines at once; a fault is named line by line, in the replay
        all_lines = {
            key: json_numbers([line[key] for line in lines], shape=(len(lines), *sh))
            for key, sh in shapes.items()
        }
        if spec.triangles:  # every line's triangles mirrored by one gather each
            all_lines.update(dX=all_lines["dX"][:, mirror], dZ=all_lines["dZ"][:, mirror])
    except Exception:  # noqa: BLE001
        all_lines = None

    def stored_step(prev: IterateState) -> NewtonStep:
        """The step the next iteration line stores, scaled at ``prev.Z``."""
        nonlocal scaled
        k = prev.iteration
        if all_lines is not None:
            arrays = {key: all_lines[key][k] for key in shapes}
        else:
            try:
                arrays = {key: json_numbers(lines[k][key], shape=sh) for key, sh in shapes.items()}
            except Exception as exc:  # noqa: BLE001
                raise TraceFormatError(f"unreadable iteration line: {exc}") from None
            if spec.triangles:
                arrays.update(dX=arrays["dX"][mirror], dZ=arrays["dZ"][mirror])
        # every Z here is (n, n), so this is np.array_equal without its dispatch
        if scaled is None or not (scaled[0] == prev.Z).all():
            Zh = sym_sqrt(prev.Z)
            scaled = (prev.Z, Zh, sym_inv(Zh))
        return NewtonStep(arrays["dX"], arrays["dZ"], arrays["dp"], scaled[1], scaled[2])

    replay = SolveReport(prob, opts, state0, init_records=[], snapshots=[])
    init_error = stop = None  # the error findings of the replay
    with np.errstate(**FLOAT_RULE):
        try:
            replay.init_records = monitor.check_initialization(prob, state0, opts)
        except Exception as exc:  # noqa: BLE001 — tampered data must not crash the checker
            init_error = Finding("error", "init", None, f"checker error: {exc}")
        try:
            # one step per stored line at most, so the lines cap the replay;
            # the snapshots yielded before an error stay in the list
            replay.snapshots.extend(iterate(prob, opts, state0, stored_step, len(trace.iterations)))
        except Exception as exc:  # noqa: BLE001
            message = str(exc) if isinstance(exc, TraceFormatError) else f"checker error: {exc}"
            stop = Finding("error", f"iteration {replay.iterations + 1}", None, message)

    findings: list[Finding] = []
    expected = _header_obj(prob, opts, state0, problem_hash, schema, header["options"].get("nu"))
    for key in ("tool", "backend"):  # these name the software that wrote the trace
        if isinstance(header.get(key), str):
            expected[key] = header[key]
    _diff(header, expected, "header", None, findings)
    if init_error is None:
        _compare_records(trace.init_records, replay.init_records, "init", schema, 0, opts.sigma, findings)
    else:
        findings.append(init_error)
    prev = state0
    for snap, block in zip(replay.snapshots, trace.iterations):
        k = snap.state.iteration
        # the stored directions are the step itself: they can only match
        stored = {key: value for key, value in block["state"].items() if key not in _DIRECTIONS}
        ours = _iteration_obj(prev, snap.state, None, schema)
        if not _identical(stored, ours):
            _diff(stored, ours, f"iteration {k}", None, findings)
        _compare_records(block["records"], snap.records, f"iteration {k}", schema, k, opts.sigma, findings)
        prev = snap.state
    if stop is not None:
        findings.append(stop)
    _check_footer(trace, replay, findings)
    return CheckReport(
        findings=findings,
        iterations=len(trace.iterations),
        records_checked=replay.record_count,
        failed_ids=replay.failed_ids,
    )


def _check_footer(trace: ProofTrace, replay: SolveReport, findings: list[Finding]) -> None:
    """Compare the footer with the one the writer would emit for the replay.

    The status, a strict-mode ``violation_id``, the budget and the final gap
    are the replay report's, whose exit its steps give, so a footer can
    claim no exit its run could not take; the counts are the trace's lines.
    A loop that stops before the trace's last line is a finding. A replay
    that stops short of the lines at ``IterationCap`` stopped at a step it
    could not redo, already a finding; the footer's own status then stands
    in for the derived one. A header gap so large that ``phi / epsilon``
    overflows yields no budget (``iteration_bound`` would take the ceiling
    of an infinite logarithm): that is a finding on ``budget`` alone, and
    every other field is still compared.
    """
    footer = trace.footer
    iterations = len(trace.iterations)
    status, violation_id = replay.status.value, replay.violation_id
    if replay.iterations < iterations and replay.status is SolveStatus.ITERATION_CAP:
        status = footer.get("status")
        violating = status == SolveStatus.INVARIANT_VIOLATION.value
        violation_id = footer.get("violation_id") if violating else None
    elif replay.iterations < iterations:
        message = (
            f"the loop stops after iteration {replay.iterations} ({status}), "
            f"but the trace goes on to iteration {iterations}"
        )
        findings.append(Finding("footer", "footer", None, message))
    records = len(trace.init_records) + sum(len(b["records"]) for b in trace.iterations)
    phi, epsilon = replay.initial_state.phi, replay.options.epsilon
    if phi / epsilon < math.inf:
        budget = replay.budget
    else:
        budget = footer.get("budget")
        message = f"budget: the header's gap {phi!r} yields none at epsilon {epsilon!r}"
        findings.append(Finding("footer", "footer", None, message))
    expected = _footer_obj(status, iterations, replay.final_gap, budget, records, violation_id)
    _diff(footer, expected, "footer", None, findings, kind="footer")


# --------------------------------------------------------------------------
# Annotated listings
# --------------------------------------------------------------------------


@dataclass
class AnnotatedListing:
    """Rendered listing plus an index of where each contract landed."""

    lines: list[str]
    #: (record id, 1-based line number, "requires"/"ensures", expression)
    contract_index: list[tuple[str, int, str, str]] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _mat_literals(*arrays: np.ndarray) -> list[str]:
    """``[a,b;c,d]`` of each matrix; a vector renders as a column, ``[a;b;c]``.

    Each array is written by the trace's own writer, ``_line``: every entry
    is printed as stored, in the trace's notation, and NaN or infinity
    raises its ValueError. A matrix's ``],[`` become ``;`` and its outer
    brackets go; a vector's ``,`` become ``;``.
    """
    literals = []
    for A in arrays:
        A = np.ascontiguousarray(A, dtype=float)
        text = _line(A).decode("ascii")
        literals.append(text[1:-1].replace("],[", ";") if A.ndim == 2 else text.replace(",", ";"))
    return literals


def _listing_items(prob: SdpProblem, opts: SolverOptions) -> list[tuple]:
    sigma = opts.sigma
    items: list[tuple] = []

    def req(rid: str, anchor_id: str | None = None) -> None:
        items.append(("contract", "requires", rid, monitor.anchor(anchor_id or rid, sigma)))

    def ens(rid: str) -> None:
        items.append(("contract", "ensures", rid, monitor.anchor(rid, sigma)))

    comment = lambda text: items.append(("comment", text))  # noqa: E731
    code = lambda text: items.append(("code", text))  # noqa: E731
    blank = lambda: items.append(("blank",))  # noqa: E731

    comment("Short-step primal-dual SDP solver with its runtime contract catalog.")
    comment(f"Emitted by {TOOL_NAME} {TOOL_VERSION}; problem hash {prob.problem_hash[:12]}.")
    blank()
    comment("Dual form:   maximize trace(F0*Z)")
    comment("             subject to trace(Fi*Z)+b(i)==0 for i=1..m and Z>=0.")
    comment("Primal form: minimize b'*p")
    comment("             subject to F0+sum(p(i)*Fi,i,1,m)+X==0 and X>=0.")
    blank()
    comment("Reading the annotations: a 'requires' line must hold before the next")
    comment("statement runs; an 'ensures' line must hold right after it. The")
    comment("requires block in front of the while loop is its invariant: true on")
    comment("entry and re-established by every pass. Each annotation carries the")
    comment("id under which the solver records the matching runtime check.")
    blank()
    comment("--- problem data -------------------------------------------------------")
    f0, *fs, b, x0 = _mat_literals(prob.f0, *prob.fs, prob.b, prob.x0)
    code(f"n = {prob.n}; m = {prob.m};")
    code(f"F0 = {f0};")
    for i, Fi in enumerate(fs, 1):
        code(f"F{i} = {Fi};")
    rows = ";".join(f"vecs(F{i})" for i in range(1, prob.m + 1))
    code(f"F = [{rows}];")
    code(f"b = {b};")
    code(f"epsilon = {monitor.fmt_num(opts.epsilon)};")
    code(f"sigma = {monitor.fmt_num(sigma)};")
    req("init-f0-pd")
    req("init-fi-symmetric")
    req("init-size")
    req("init-epsilon-positive")
    req("init-sigma-constant")
    blank()
    comment("--- starting point -----------------------------------------------------")
    code(f"X = {x0};")
    ens("init-x0-pd")
    code("Z = mats(lsqr(F,-b),n);")
    comment("Z solves the dual equations at minimum norm and never moves again:")
    comment("every pass below produces dZm == 0, so dual feasibility is inherited.")
    ens("init-z0-pd")
    ens("init-dual-feasibility")
    code("p = lsqr(transpose(F),vecs(-F0-X));")
    code("P = mats(p,n);")
    ens("init-p-symmetric")
    ens("init-primal-feasibility")
    code("phi = trace(X*Z);")
    code("phim = phi/sigma;")
    code("mu = phi/n;")
    ens("init-phi-definition")
    ens("init-mu-definition")
    ens("init-phim-seed")
    ens("init-gap-positive")
    ens("init-gap-upper")
    ens("init-neighborhood")
    blank()
    comment("--- Newton system invariants -------------------------------------------")
    comment("Z never moves, so its scaling pair and a factor of transpose(F) are")
    comment("computed once, before the loop.")
    code("Zh = Z^0.5;")
    code("Zhi = Zh^-1;")
    code("Fti = pinv(transpose(F));")
    blank()
    comment("--- main loop ----------------------------------------------------------")
    req("I1")
    req("I2", "init-gap-upper")  # the admission ceiling, in init-gap-upper's words
    req("I3")
    req("I4")
    items.append(("while", "phi > epsilon"))
    code("Xm = X; Zm = Z; pm = p;")
    code("mu = trace(Xm*Zm)/n;")
    code("r = sigma*mu*eye(n,n)-Zh*Xm*Zh;")
    comment("minimum-norm solutions of krons(Zh,Zh,n)*dXm==vecs(r) (I10), by its")
    comment("inverse krons(Zhi,Zhi,n), and of transpose(F)*dpm==-dXm (I9).")
    code("dZm = zeros(n*(n+1)/2,1);")
    code("dXm = vecs(Zhi*r*Zhi);")
    code("dpm = -Fti*dXm;")
    ens("I5")
    ens("I6")
    ens("I7")
    ens("I9")
    ens("I10")
    ens("I12")
    code("X = Xm+mats(dXm,n);")
    code("Z = Zm+mats(dZm,n);")
    code("p = pm+dpm;")
    ens("I1")
    ens("I11")
    code("phim = trace(Xm*Zm);")
    code("phi = trace(X*Z);")
    ens("I8")
    ens("I2")
    ens("I3")
    code("mu = phi/n;")
    ens("I4")
    items.append(("if", "phi-phim > 0"))
    comment("divergence guard: the gap may never grow; abort the run if it does.")
    items.append(("return",))
    items.append(("end",))
    items.append(("end",))
    blank()
    comment("On exit trace(X*Z)<=epsilon. Under the contraction contract the pass")
    comment(f"count never exceeds {BUDGET_BASIS}.")
    return items


#: Per-flavor syntax of the listing items; code and blank lines read the
#: same in every flavor.
_SYNTAX = {
    "pseudo-matlab": {
        "comment": "% {}",
        "contract": "%% {kind} {expr}  [{rid}]",
        "while": "while {}",
        "if": "if {}",
        "return": "return",
        "end": "end",
    },
    "c-like": {
        "comment": "// {}",
        "contract": "/*@ {kind} {expr}; */  // [{rid}]",
        "while": "while ({}) {{",
        "if": "if ({}) {{",
        "return": "return;",
        "end": "}}",
    },
}

LISTING_FLAVORS = tuple(_SYNTAX)


def _render(items: list[tuple], flavor: str) -> tuple[list[str], list[tuple[str, int, str, str]]]:
    syntax = _SYNTAX[flavor]
    lines: list[str] = []
    index: list[tuple[str, int, str, str]] = []
    depth = 0
    for kind, *args in items:
        if kind == "end":
            depth -= 1
        pad = "  " * depth
        if kind == "blank":
            lines.append("")
        elif kind == "code":
            lines.append(pad + args[0])
        elif kind == "contract":
            ckind, rid, expr = args
            lines.append(pad + syntax["contract"].format(kind=ckind, expr=expr, rid=rid))
            index.append((rid, len(lines), ckind, expr))
        else:
            lines.append(pad + syntax[kind].format(*args))
            if kind in ("while", "if"):
                depth += 1
    return lines, index


def emit_annotated_listing(
    prob: SdpProblem,
    opts: SolverOptions | None = None,
    flavor: str = "pseudo-matlab",
) -> AnnotatedListing:
    """Render the solver for a concrete problem as an annotated listing."""
    if flavor not in LISTING_FLAVORS:
        raise ValueError(f"unknown listing flavor {flavor!r}; pick one of {LISTING_FLAVORS}")
    if prob.x0 is None:
        raise ValueError("an annotated listing needs the problem's primal warm start X0")
    options = opts if opts is not None else default_options(prob)
    lines, index = _render(_listing_items(prob, options), flavor)
    return AnnotatedListing(lines=lines, contract_index=index)
