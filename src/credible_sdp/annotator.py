"""Proof-trace serialization, independent re-checking, and annotated listings.

A *proof trace* is a JSON-lines account of one solver run. Schema ``cts-2``
stores the claims and leaves out whatever the checker derives: a header
(schema tag, problem hash, options, starting state), the initialization
records, then per iteration one line with the directions (dX, dZ, dp)
followed by its contract records (id, measured value, bound, verdict,
detail), and a footer with the outcome. The iterates, gaps, contract anchors
and record positions are not stored; records before the first iteration line
are the initialization records. The problem hash is SHA-256 over the raw
float64 bytes of the constraint data. Floats are written as their shortest
exact repr, so every value round-trips bit-exactly.

``check_trace`` replays a trace against the problem file it claims to come
from. It redoes each iteration with the solver's ``take_step`` from the
recomputed previous point and the stored directions, as the solver did,
re-evaluates the contracts with the same monitor code the solver used, and
compares every stored line with the line the writer's own builders
(``_header_obj``, ``_iteration_obj``, ``_record_obj``, ``_footer_obj``)
would emit for the recomputed values and the catalog's tolerances, so the
trace format is stated once, by the writer, and no trace sets its own rules.
Discrepancies, missing and unexpected fields become ``Finding`` values in a
``CheckReport`` — a tampered trace yields findings, never a crash. Only
malformed input (bad JSON, unknown schema, wrong problem hash, missing or
invalid header fields) raises ``TraceFormatError``.

Traces of the older schema ``cts-1`` are still read. Its lines are the
``cts-2`` lines plus derived keys (each iteration line also stores the
iterates, gaps and mu, each record its anchor, phase and iteration, the
header ``options.lsqr_tol``, always ``LEGACY_LSQR_TOL``), and its problem
hash is taken over the constraint data written as ``.17g`` text. The
builders emit those keys when asked for ``cts-1``, and a ``cts-1`` replay
steps from each line's stored point, so a tampered iterate is flagged where
it is stored and where the next line steps from it.

``emit_annotated_listing`` renders the solver algorithm for a concrete
problem as an annotated listing in one of two flavors: "pseudo-matlab"
(``%%`` contract lines) or "c-like" (``/*@ ... */`` contract lines). Each
annotation carries the id under which the monitor records its runtime check,
so listing, trace, and checker all speak the same contract catalog.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import monitor
from .linalg import PD_TOL, sym_inv, sym_sqrt
from .problem import SdpProblem, json_numbers
from .solver import (
    IterateState,
    NewtonStep,
    SolveReport,
    SolveStatus,
    SolverOptions,
    default_options,
    iteration_bound,
    take_step,
    validate_options,
)

TOOL_NAME = "credible-sdp"
TOOL_VERSION = "0.1.0"

TRACE_SCHEMA = "cts-2"
#: The earlier schema, still read: ``TRACE_SCHEMA`` lines plus derived keys.
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


def _numpy_to_json(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a trace")


#: Compact JSON with every float as its shortest exact repr; NaN and
#: infinity raise ValueError, since strict JSON readers cannot take them.
_dumps = json.JSONEncoder(
    allow_nan=False, separators=(",", ":"), default=_numpy_to_json
).encode


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
) -> dict:
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
            "nu": opts.nu,
            "mode": opts.mode,
            "gap_ceiling": monitor.GAP_CEILING,
            "equality_tol": monitor.EQUALITY_TOL,
            "pd_margin": PD_TOL,
        },
        "init_state": {
            "X": state.X,
            "Z": state.Z,
            "p": state.p,
            "mu": state.mu,
            "phi": state.phi,
            "phim": state.phim,
            "sigma": opts.sigma,
        },
    }
    if schema == LEGACY_SCHEMA:
        obj["options"]["lsqr_tol"] = LEGACY_LSQR_TOL
    return obj


def _iteration_obj(
    prev: IterateState, state: IterateState, step: NewtonStep, schema: str = TRACE_SCHEMA
) -> dict:
    """The line of the step from ``prev`` to ``state``."""
    obj = {
        "type": "iteration",
        "iteration": state.iteration,
        "dX": step.dX,
        "dZ": step.dZ,
        "dp": step.dp,
    }
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


def write_trace(report: SolveReport) -> bytes:
    """Serialize a solve report as a JSON-lines proof trace."""
    prob = report.problem
    lines = [_dumps(_header_obj(prob, report.options, report.initial_state, prob.problem_hash))]
    for rec in report.init_records:
        lines.append(_dumps(_record_obj(rec)))
    prev = report.initial_state
    for snap in report.snapshots:
        lines.append(_dumps(_iteration_obj(prev, snap.state, snap.step)))
        for rec in snap.records:
            lines.append(_dumps(_record_obj(rec)))
        prev = snap.state
    footer = _footer_obj(
        report.status.value,
        report.iterations,
        report.final_gap,
        report.budget,
        report.record_count,
        report.violation_id,
    )
    lines.append(_dumps(footer))
    return ("\n".join(lines) + "\n").encode("utf-8")


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
    supported schema (``cts-2`` or ``cts-1``); content errors are left to
    ``check_trace``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not valid UTF-8: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError("trace is empty")

    objs: list[dict] = []
    for lineno, line in enumerate(lines, 1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno} is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno} is not a JSON object")
        objs.append(obj)

    header = objs[0]
    if header.get("type") != "header":
        raise TraceFormatError("first line must be the trace header")
    if header.get("schema") not in (TRACE_SCHEMA, LEGACY_SCHEMA):
        raise TraceFormatError(
            f"unsupported trace schema {header.get('schema')!r}; "
            f"this tool reads {TRACE_SCHEMA!r} and {LEGACY_SCHEMA!r}"
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
    delta: float | None = None


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


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    # the tolerance must be finite, or an infinite value passes for any other
    return abs(a - b) <= CHECK_RTOL * max(abs(a), abs(b)) < math.inf


def _close_mat(A: np.ndarray, B: np.ndarray) -> bool:
    diff = float(np.max(np.abs(A - B))) if A.size else 0.0
    if diff == 0.0:
        return True
    scale = max(float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    return diff <= CHECK_RTOL * scale < math.inf


_SCALARS = (float, int, str, bool)


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
    key is a finding. Arrays compare with ``_close_mat`` and floats (stored
    as JSON int or float) with ``_close``; everything else must be equal and
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
            mine = expected[name]
            # a genuine trace stores every scalar bit for bit
            if type(value) is type(mine) and type(mine) in _SCALARS and value == mine:
                continue
            _diff(value, mine, where, rid, findings, kind, prefix + name)
        return
    if isinstance(expected, np.ndarray):
        if not _close_mat(stored, expected):
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
            findings.append(
                Finding(
                    kind or "recompute",
                    where,
                    rid,
                    f"{key}: trace has {stored!r}, recomputation gives {expected!r}",
                    delta=value - expected,
                )
            )
        return
    default = "verdict" if isinstance(expected, bool) and type(stored) is bool else "structure"
    findings.append(
        Finding(kind or default, where, rid, f"{key}: trace has {stored!r}, expected {expected!r}")
    )


def _options_from_header(header: dict) -> SolverOptions:
    options = header.get("options")
    if not isinstance(options, dict):
        raise TraceFormatError("trace header is missing its options object")
    try:
        opts = SolverOptions(
            epsilon=float(json_numbers(options["epsilon"], shape=())),
            nu=float(json_numbers(options["nu"], shape=())),
            sigma=float(json_numbers(options["sigma"], shape=())),
            mode=options["mode"],
        )
        validate_options(opts)
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"trace header options are invalid: {exc}") from None
    return opts


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


#: The arrays an iteration line stores: the directions, and in cts-1 also
#: the iterates.
_ARRAY_KEYS = {
    TRACE_SCHEMA: ("dX", "dZ", "dp"),
    LEGACY_SCHEMA: ("Xm", "Zm", "pm", "dX", "dZ", "dp", "X", "Z", "p"),
}


def _compare_records(
    stored: list[dict],
    recomputed: list["monitor.InvariantRecord"],
    where: str,
    expected_ids: tuple[str, ...],
    schema: str,
    iteration: int,
    sigma: float,
    findings: list[Finding],
) -> None:
    stored_ids = [rec.get("id") for rec in stored]
    if stored_ids != list(expected_ids):
        findings.append(
            Finding(
                "catalog",
                where,
                None,
                f"record ids {stored_ids} do not match the catalog {list(expected_ids)}",
            )
        )
    by_id = {rec.id: rec for rec in recomputed}
    for stored_rec in stored:
        rid = stored_rec.get("id")
        ours = by_id.get(rid)
        if ours is None:
            findings.append(Finding("catalog", where, rid, f"unknown record id {rid!r}"))
        else:
            _diff(stored_rec, _record_obj(ours, schema, iteration, sigma), where, rid, findings)


def check_trace(data: bytes, prob: SdpProblem) -> CheckReport:
    """Replay a trace against a problem and report every discrepancy.

    The problem hash must match (TraceFormatError otherwise — a trace is only
    checkable against the constraints it was made from), and so must the
    header options pass ``validate_options``. Each iteration is then redone
    with the solver's ``take_step`` and the stored directions, from the
    recomputed previous point (``cts-2``, as the solver did) or from the
    previous line's stored point (``cts-1``); a ``cts-2`` replay stops at the
    first step it cannot redo. Its contracts are re-evaluated by the monitor,
    and every stored line, the header included, is compared with the line
    the writer would emit in the trace's schema for the recomputed values
    (``_diff``, relative tolerance CHECK_RTOL), so tolerances are the
    catalog's, not the trace's. Mismatches, missing and unexpected fields
    come back as findings.
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
    findings: list[Finding] = []
    failed: set[str] = set()
    records_checked = 0

    expected = _header_obj(prob, opts, state0, problem_hash, schema)
    for key in ("tool", "backend"):  # these name the software that wrote the trace
        if isinstance(header.get(key), str):
            expected[key] = header[key]
    # the starting arrays as read, since _diff compares arrays, not JSON lists
    init = {**header["init_state"], "X": state0.X, "Z": state0.Z, "p": state0.p}
    _diff({**header, "init_state": init}, expected, "header", None, findings)

    try:
        recomputed = monitor.check_initialization(prob, state0, opts)
        failed.update(rec.id for rec in recomputed if not rec.passed)
        _compare_records(
            trace.init_records, recomputed, "init", monitor.INIT_IDS, schema,
            0, opts.sigma, findings,
        )
        records_checked += len(trace.init_records)
    except Exception as exc:  # noqa: BLE001 — tampered data must not crash the checker
        findings.append(Finding("error", "init", None, f"checker error: {exc}"))

    shapes = {key: (m,) if key in ("pm", "dp", "p") else (n, n) for key in _ARRAY_KEYS[schema]}
    state = prev = state0
    scaled = None  # (Z, Zh, Zhi), redone only when the Z stepped from changes

    for k, block in enumerate(trace.iterations, 1):
        where = f"iteration {k}"
        line = block["state"]
        try:
            arrays = {key: json_numbers(line[key], shape=shape) for key, shape in shapes.items()}
        except Exception as exc:  # noqa: BLE001
            findings.append(Finding("error", where, None, f"unreadable iteration line: {exc}"))
            break

        try:
            if scaled is None or not np.array_equal(scaled[0], prev.Z):
                Zh = sym_sqrt(prev.Z)
                scaled = (prev.Z, Zh, sym_inv(Zh))
            step = NewtonStep(
                dX=arrays["dX"], dZ=arrays["dZ"], dp=arrays["dp"], Zh=scaled[1], Zhi=scaled[2]
            )
            state = take_step(prob, prev, step)
            ours = _iteration_obj(prev, state, step, schema)
            _diff({**line, **arrays}, ours, where, None, findings)
            recomputed = monitor.check_iteration(prob, prev, state, step, opts.sigma)
            failed.update(rec.id for rec in recomputed if not rec.passed)
            _compare_records(
                block["records"], recomputed, where, monitor.LOOP_IDS, schema,
                state.iteration, opts.sigma, findings,
            )
            records_checked += len(block["records"])
        except Exception as exc:  # noqa: BLE001
            findings.append(Finding("error", where, None, f"checker error: {exc}"))
            if schema == TRACE_SCHEMA:
                break  # every later point derives from this step

        if schema == LEGACY_SCHEMA:
            # A cts-1 line stores its point, and the next step starts from it,
            # so a tampered X is flagged here and again where the next line
            # steps from it. Nothing reads more of prev than X, Z, p and iteration.
            prev = replace(prev, X=arrays["X"], Z=arrays["Z"], p=arrays["p"], iteration=k)
        else:
            prev = state

    try:
        _check_footer(trace, state0, state, opts, findings)
    except Exception as exc:  # noqa: BLE001
        findings.append(Finding("error", "footer", None, f"checker error: {exc}"))
    return CheckReport(
        findings=findings,
        iterations=len(trace.iterations),
        records_checked=records_checked,
        failed_ids=sorted(failed),
    )


_STATUSES = tuple(s.value for s in SolveStatus)


def _check_footer(
    trace: ProofTrace,
    initial: IterateState,
    final: IterateState,
    opts: SolverOptions,
    findings: list[Finding],
) -> None:
    footer = trace.footer
    status = footer.get("status")
    violating = status == SolveStatus.INVARIANT_VIOLATION.value
    violation_id = footer.get("violation_id") if violating else None
    records = len(trace.init_records) + sum(len(b["records"]) for b in trace.iterations)
    budget = iteration_bound(initial.phi, opts.epsilon, opts.sigma)
    expected = _footer_obj(status, len(trace.iterations), final.phi, budget, records, violation_id)
    _diff(footer, expected, "footer", None, findings, kind="footer")

    # The status is a claim about the run; these are the ones a trace can back.
    last_records = trace.iterations[-1]["records"] if trace.iterations else []
    claims = [
        (
            status not in _STATUSES,
            f"unknown status {status!r}; expected one of {list(_STATUSES)}",
        ),
        (
            status == SolveStatus.CONVERGED.value and final.phi > opts.epsilon,
            f"status is Converged but the final gap {final.phi!r} exceeds epsilon {opts.epsilon!r}",
        ),
        (
            violating
            and not any(
                rec.get("id") == violation_id and rec.get("passed") is False for rec in last_records
            ),
            "status is InvariantViolation but violation_id does not name a failed record "
            "in the last iteration",
        ),
        (
            status == SolveStatus.DIVERGENCE_GUARD.value and not final.phi - final.phim > 0,
            "status is DivergenceGuard but the gap did not grow",
        ),
    ]
    for failed, message in claims:
        if failed:
            findings.append(Finding("footer", "footer", violation_id, message))


# --------------------------------------------------------------------------
# Annotated listings
# --------------------------------------------------------------------------


@dataclass
class AnnotatedListing:
    """Rendered listing plus an index of where each contract landed."""

    flavor: str
    lines: list[str]
    #: (record id, 1-based line number, "requires"/"ensures", expression)
    contract_index: list[tuple[str, int, str, str]] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _mat_literal(M: np.ndarray) -> str:
    """``[a,b;c,d]``; a vector renders as a column, ``[a;b;c]``."""
    rows = np.asarray(M, dtype=float).reshape(len(M), -1).tolist()
    return "[" + ";".join(",".join(map(repr, row)) for row in rows) + "]"


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
    code(f"n = {prob.n}; m = {prob.m};")
    code(f"F0 = {_mat_literal(prob.f0)};")
    for i, Fi in enumerate(prob.fs, 1):
        code(f"F{i} = {_mat_literal(Fi)};")
    rows = ";".join(f"vecs(F{i})" for i in range(1, prob.m + 1))
    code(f"F = [{rows}];")
    code(f"b = {_mat_literal(prob.b)};")
    code(f"epsilon = {monitor.fmt_num(opts.epsilon)};")
    code(f"sigma = {monitor.fmt_num(sigma)};")
    req("init-f0-pd")
    req("init-fi-symmetric")
    req("init-size")
    req("init-epsilon-positive")
    req("init-sigma-constant")
    blank()
    comment("--- starting point -----------------------------------------------------")
    code(f"X = {_mat_literal(prob.x0)};")
    ens("init-x0-pd")
    code("Z = mats(lsqr(F,-b),n);")
    comment("Z solves the dual equations at minimum norm and never moves again:")
    comment("every pass below produces dZm == 0, so dual feasibility is inherited.")
    ens("init-z0-pd")
    ens("init-dual-feasibility")
    code("p = lsqr(transpose(F),vecs(-F0-X));")
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
    comment("Z never moves, so its scaling pair, H and a factor of transpose(F) are")
    comment("computed once. H is kept for inspection: no statement below reads it.")
    code("Zh = Z^0.5;")
    code("Zhi = Zh^-1;")
    code("H = krons(Zhi*Z,Zh,n);")
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
    comment("minimum-norm solutions of H*dXm==vecs(r) and transpose(F)*dpm==-dXm;")
    comment("inv(H) is krons(Zhi,Zhi,n). I10 checks the first equation, I9 the second.")
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
    comment("count never exceeds ceil(log(trace(X0*Z0)/epsilon)/log(1/sigma)).")
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
    return AnnotatedListing(flavor=flavor, lines=lines, contract_index=index)
