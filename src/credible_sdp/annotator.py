"""Proof-trace serialization, independent re-checking, and annotated listings.

A *proof trace* is a JSON-lines account of one solver run: a header (schema
tag, problem hash, options, starting state), one record line per contract
evaluation, one state line per iteration carrying the full iterates and
directions, and a footer with the outcome. Floats are written as their
shortest exact repr, so every value round-trips bit-exactly.

``check_trace`` replays a trace against the problem file it claims to come
from. It redoes each iteration with the solver's ``take_step`` from the
previous line's stored point and the stored directions, re-evaluates the
contracts with the same monitor code the solver used, and compares every
stored line with the line the writer's own builders (``_iteration_obj``,
``_record_obj``, ``_footer_obj``) would emit for the recomputed values, so
the trace format is stated once, by the writer. Discrepancies, missing and
unexpected fields become ``Finding`` values in a ``CheckReport`` — a
tampered trace yields findings, never a crash. Only malformed input (bad
JSON, wrong schema, wrong problem hash, missing or invalid header fields)
raises ``TraceFormatError``.

``emit_annotated_listing`` renders the solver algorithm for a concrete
problem as an annotated listing in one of two flavors: "pseudo-matlab"
(``%%`` contract lines) or "c-like" (``/*@ ... */`` contract lines). Each
annotation carries the id under which the monitor records its runtime check,
so listing, trace, and checker all speak the same contract catalog.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import monitor
from .linalg import sym_inv, sym_sqrt, trace_inner
from .problem import SdpProblem
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

TRACE_SCHEMA = "cts-1"
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


def _record_obj(rec: "monitor.InvariantRecord") -> dict:
    return {
        "type": "record",
        "phase": rec.phase,
        "iteration": rec.iteration,
        "id": rec.id,
        "anchor": rec.anchor,
        "measured": rec.measured,
        "bound": rec.bound,
        "passed": rec.passed,
        "detail": rec.detail,
    }


def _header_obj(report: SolveReport) -> dict:
    prob, opts, state = report.problem, report.options, report.initial_state
    return {
        "type": "header",
        "schema": TRACE_SCHEMA,
        "tool": f"{TOOL_NAME} {TOOL_VERSION}",
        "problem_hash": prob.problem_hash,
        "n": prob.n,
        "m": prob.m,
        "vectorization": VECTORIZATION,
        "backend": BACKEND,
        "options": {
            "epsilon": opts.epsilon,
            "sigma": report.sigma,
            "nu": opts.nu,
            "mode": opts.mode,
            "gap_ceiling": opts.gap_ceiling,
            "equality_tol": opts.equality_tol,
            "pd_margin": opts.pd_margin,
            "lsqr_tol": opts.lsqr_tol,
        },
        "init_state": {
            "X": state.X,
            "Z": state.Z,
            "p": state.p,
            "mu": state.mu,
            "phi": state.phi,
            "phim": state.phim,
            "sigma": report.sigma,
        },
    }


def _iteration_obj(state: IterateState, step: NewtonStep) -> dict:
    return {
        "type": "iteration",
        "iteration": state.iteration,
        "Xm": state.Xm,
        "Zm": state.Zm,
        "pm": state.pm,
        "dX": step.dX,
        "dZ": step.dZ,
        "dp": step.dp,
        "X": state.X,
        "Z": state.Z,
        "p": state.p,
        "mu": state.mu,
        "phi": state.phi,
        "phim": state.phim,
    }


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
    lines = [_dumps(_header_obj(report))]
    for rec in report.init_records:
        lines.append(_dumps(_record_obj(rec)))
    for snap in report.snapshots:
        lines.append(_dumps(_iteration_obj(snap.state, snap.step)))
        for rec in snap.records:
            lines.append(_dumps(_record_obj(rec)))
    records = len(report.init_records) + sum(len(s.records) for s in report.snapshots)
    footer = _footer_obj(
        report.status.value,
        report.iterations,
        report.final_gap,
        report.budget,
        records,
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


def parse_trace(data: bytes | str) -> ProofTrace:
    """Split a JSON-lines trace into its structural parts.

    Raises TraceFormatError for anything that is not a well-formed trace of
    the supported schema; content errors are left to ``check_trace``.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"trace is not valid UTF-8: {exc}") from None
    else:
        text = data
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
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"unsupported trace schema {header.get('schema')!r}; this tool reads {TRACE_SCHEMA!r}"
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
            phase = obj.get("phase")
            if phase == "init":
                if iterations:
                    raise TraceFormatError(f"line {lineno}: init record after iteration lines")
                init_records.append(obj)
            elif phase == "loop":
                if current is None:
                    raise TraceFormatError(
                        f"line {lineno}: loop record before any iteration line"
                    )
                current["records"].append(obj)
            else:
                raise TraceFormatError(f"line {lineno}: unknown record phase {phase!r}")
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
    """Outcome of replaying a trace; clean means no findings at all."""

    findings: list[Finding]
    iterations: int
    records_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        if self.clean:
            return (
                f"trace OK: {self.iterations} iteration(s), "
                f"{self.records_checked} record(s) recomputed, no findings"
            )
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
        if not _close(float(stored), expected):
            findings.append(
                Finding(
                    kind or "recompute",
                    where,
                    rid,
                    f"{key}: trace has {stored!r}, recomputation gives {expected!r}",
                    delta=float(stored) - expected,
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
            epsilon=float(options["epsilon"]),
            nu=float(options["nu"]),
            sigma=float(options["sigma"]),
            gap_ceiling=float(options["gap_ceiling"]),
            mode=str(options["mode"]),
            equality_tol=float(options["equality_tol"]),
            pd_margin=float(options["pd_margin"]),
            lsqr_tol=float(options["lsqr_tol"]),
        )
        validate_options(opts)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"trace header options are invalid: {exc}") from None
    return opts


def _state_from_header(header: dict, n: int) -> IterateState:
    init = header.get("init_state")
    if not isinstance(init, dict):
        raise TraceFormatError("trace header is missing its init_state object")
    try:
        X = np.array(init["X"], dtype=float)
        Z = np.array(init["Z"], dtype=float)
        p = np.array(init["p"], dtype=float).ravel()
        mu = float(init["mu"])
        phi = float(init["phi"])
        phim = float(init["phim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"trace header init_state is malformed: {exc}") from None
    if X.shape != (n, n) or Z.shape != (n, n):
        raise TraceFormatError(
            f"init_state matrices have shape {X.shape}/{Z.shape}, expected {(n, n)}"
        )
    return IterateState(X=X, Z=Z, p=p, Xm=X, Zm=Z, pm=p, mu=mu, phi=phi, phim=phim, iteration=0)


_ARRAY_KEYS = ("Xm", "Zm", "pm", "dX", "dZ", "dp", "X", "Z", "p")


def _take_array(line: dict, key: str, n: int, m: int) -> np.ndarray:
    value = np.array(line[key], dtype=float)
    shape = (n, n)
    if key in ("pm", "dp", "p"):
        value, shape = value.ravel(), (m,)
    if value.shape != shape:
        raise ValueError(f"{key} has shape {value.shape}, expected {shape}")
    return value


def _compare_records(
    stored: list[dict],
    recomputed: list["monitor.InvariantRecord"],
    where: str,
    expected_ids: tuple[str, ...],
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
            _diff(stored_rec, _record_obj(ours), where, rid, findings)


def check_trace(data: bytes | str | ProofTrace, prob: SdpProblem) -> CheckReport:
    """Replay a trace against a problem and report every discrepancy.

    The problem hash must match (TraceFormatError otherwise — a trace is only
    checkable against the constraints it was made from), and so must the
    header options pass ``validate_options``. Each iteration is then redone
    with the solver's ``take_step`` from the previous line's stored point and
    the stored directions, its contracts are re-evaluated by the monitor, and
    every stored line is compared with the line ``write_trace`` would emit
    for the recomputed values (``_diff``, relative tolerance CHECK_RTOL).
    Mismatches, missing and unexpected fields come back as findings.
    """
    trace = data if isinstance(data, ProofTrace) else parse_trace(data)
    header = trace.header

    stored_hash = header.get("problem_hash")
    if stored_hash != prob.problem_hash:
        raise TraceFormatError(
            "problem hash mismatch: trace was made for "
            f"{str(stored_hash)[:12]}…, this problem is {prob.problem_hash[:12]}…"
        )

    opts = _options_from_header(header)
    state0 = _state_from_header(header, prob.n)
    findings: list[Finding] = []
    records_checked = 0

    if header.get("n") != prob.n or header.get("m") != prob.m:
        findings.append(
            Finding(
                "structure",
                "header",
                None,
                f"header dimensions ({header.get('n')!r}, {header.get('m')!r}) "
                f"do not match the problem ({prob.n}, {prob.m})",
            )
        )
    init_sigma = header["init_state"].get("sigma")
    _diff(init_sigma, opts.sigma, "header", None, findings, "structure", "init_state.sigma")

    try:
        recomputed = monitor.check_initialization(prob, state0, opts)
        _compare_records(trace.init_records, recomputed, "init", monitor.INIT_IDS, findings)
        records_checked += len(trace.init_records)
    except Exception as exc:  # noqa: BLE001 — tampered data must not crash the checker
        findings.append(Finding("error", "init", None, f"checker error: {exc}"))

    n, m = prob.n, prob.m
    state = prev = state0
    scaled = None  # (Z, Zh, Zhi), redone only when the Z stepped from changes

    for k, block in enumerate(trace.iterations, 1):
        where = f"iteration {k}"
        line = block["state"]
        try:
            arrays = {key: _take_array(line, key, n, m) for key in _ARRAY_KEYS}
        except Exception as exc:  # noqa: BLE001
            findings.append(Finding("error", where, None, f"unreadable iteration line: {exc}"))
            break

        try:
            if scaled is None or not np.array_equal(scaled[0], prev.Z):
                Zh = sym_sqrt(prev.Z)
                scaled = (prev.Z, Zh, sym_inv(Zh))
            step = NewtonStep(
                dX=arrays["dX"],
                dZ=arrays["dZ"],
                dp=arrays["dp"],
                Zh=scaled[1],
                Zhi=scaled[2],
                mu=trace_inner(prev.X, prev.Z) / n,
                sigma=opts.sigma,
            )
            state = take_step(prob, prev, step)
            _diff({**line, **arrays}, _iteration_obj(state, step), where, None, findings)
            recomputed = monitor.check_iteration(prob, state, step, opts)
            _compare_records(block["records"], recomputed, where, monitor.LOOP_IDS, findings)
            records_checked += len(block["records"])
        except Exception as exc:  # noqa: BLE001
            findings.append(Finding("error", where, None, f"checker error: {exc}"))

        # The next step starts from this line's stored point, not the
        # recomputed one, so a tampered X is flagged here and again where the
        # next line steps from it. take_step reads only X, Z, p and iteration.
        prev = replace(prev, X=arrays["X"], Z=arrays["Z"], p=arrays["p"], iteration=k)

    try:
        _check_footer(trace, state0, state, opts, findings)
    except Exception as exc:  # noqa: BLE001
        findings.append(Finding("error", "footer", None, f"checker error: {exc}"))
    return CheckReport(
        findings=findings,
        iterations=len(trace.iterations),
        records_checked=records_checked,
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


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _mat_literal(M: np.ndarray) -> str:
    rows = np.asarray(M, dtype=float).tolist()
    return "[" + ";".join(",".join(_fmt_num(v) for v in row) for row in rows) + "]"


def _vec_literal(v: np.ndarray) -> str:
    return "[" + ";".join(_fmt_num(x) for x in np.asarray(v, dtype=float).ravel().tolist()) + "]"


def _listing_items(prob: SdpProblem, opts: SolverOptions) -> list[tuple]:
    sigma, ceiling = opts.sigma, opts.gap_ceiling

    def la(rid: str) -> str:
        return monitor.loop_anchor(rid, sigma, ceiling)

    def ia(rid: str) -> str:
        return monitor.init_anchor(rid, sigma, ceiling)

    items: list[tuple] = []
    comment = lambda text: items.append(("comment", text))  # noqa: E731
    code = lambda text: items.append(("code", text))  # noqa: E731
    req = lambda rid, expr: items.append(("contract", "requires", rid, expr))  # noqa: E731
    ens = lambda rid, expr: items.append(("contract", "ensures", rid, expr))  # noqa: E731
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
    code(f"b = {_vec_literal(prob.b)};")
    code(f"epsilon = {_fmt_num(opts.epsilon)};")
    code(f"sigma = {_fmt_num(sigma)};")
    req("init-f0-pd", ia("init-f0-pd"))
    req("init-fi-symmetric", ia("init-fi-symmetric"))
    req("init-size", ia("init-size"))
    req("init-epsilon-positive", ia("init-epsilon-positive"))
    req("init-sigma-constant", ia("init-sigma-constant"))
    blank()
    comment("--- starting point -----------------------------------------------------")
    code(f"X = {_mat_literal(prob.x0)};")
    ens("init-x0-pd", ia("init-x0-pd"))
    code("Z = mats(lsqr(F,-b),n);")
    comment("Z solves the dual equations at minimum norm and never moves again:")
    comment("every pass below produces dZm == 0, so dual feasibility is inherited.")
    ens("init-z0-pd", ia("init-z0-pd"))
    ens("init-dual-feasibility", ia("init-dual-feasibility"))
    code("p = lsqr(transpose(F),vecs(-F0-X));")
    ens("init-p-symmetric", ia("init-p-symmetric"))
    ens("init-primal-feasibility", ia("init-primal-feasibility"))
    code("phi = trace(X*Z);")
    code("phim = phi/sigma;")
    code("mu = phi/n;")
    ens("init-phi-definition", ia("init-phi-definition"))
    ens("init-mu-definition", ia("init-mu-definition"))
    ens("init-phim-seed", ia("init-phim-seed"))
    ens("init-gap-positive", ia("init-gap-positive"))
    ens("init-gap-upper", ia("init-gap-upper"))
    ens("init-neighborhood", ia("init-neighborhood"))
    blank()
    comment("--- Newton system invariants -------------------------------------------")
    comment("Z never moves, so its scaling pair, H and a factor of transpose(F) are")
    comment("computed once. H is kept only to check dXm against its equation.")
    code("Zh = Z^0.5;")
    code("Zhi = Zh^-1;")
    code("H = krons(Zhi*Z,Zh,n);")
    code("Fti = pinv(transpose(F));")
    blank()
    comment("--- main loop ----------------------------------------------------------")
    req("I1", la("I1"))
    req("I2", ia("init-gap-upper"))
    req("I3", la("I3"))
    req("I4", la("I4"))
    items.append(("while", "phi > epsilon"))
    code("Xm = X; Zm = Z; pm = p;")
    code("mu = trace(Xm*Zm)/n;")
    code("r = sigma*mu*eye(n,n)-Zh*Xm*Zh;")
    comment("minimum-norm solutions; the solver checks H*dXm==vecs(r) and")
    comment("transpose(F)*dpm==-dXm to lsqr_tol. inv(H) is krons(Zhi,Zhi,n).")
    code("dZm = zeros(n*(n+1)/2,1);")
    code("dXm = vecs(Zhi*r*Zhi);")
    code("dpm = -Fti*dXm;")
    ens("I5", la("I5"))
    ens("I6", la("I6"))
    ens("I7", la("I7"))
    ens("I9", la("I9"))
    ens("I10", la("I10"))
    ens("I12", la("I12"))
    code("X = Xm+mats(dXm,n);")
    code("Z = Zm+mats(dZm,n);")
    code("p = pm+dpm;")
    ens("I1", la("I1"))
    ens("I11", la("I11"))
    code("phim = trace(Xm*Zm);")
    code("phi = trace(X*Z);")
    ens("I8", la("I8"))
    ens("I2", la("I2"))
    ens("I3", la("I3"))
    code("mu = phi/n;")
    ens("I4", la("I4"))
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
