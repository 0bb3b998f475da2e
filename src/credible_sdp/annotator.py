"""Proof-trace serialization, independent re-checking, and annotated listings.

A *proof trace* is a JSON-lines account of one solver run: a header (schema
tag, problem hash, options, starting state), one record line per contract
evaluation, one state line per iteration carrying the full iterates and
directions, and a footer with the outcome. Floats are written as their
shortest exact repr, so every value round-trips bit-exactly.

``check_trace`` replays a trace against the problem file it claims to come
from: it re-derives every contract record from the stored iterates with the
same monitor code the solver used, re-checks the state chaining and update
arithmetic, and recomputes the footer bookkeeping. Discrepancies become
``Finding`` values in a ``CheckReport`` — a tampered trace yields findings,
never a crash. Only malformed input (bad JSON, wrong schema, wrong problem
hash, missing header fields) raises ``TraceFormatError``.

``emit_annotated_listing`` renders the solver algorithm for a concrete
problem as an annotated listing in one of two flavors: "pseudo-matlab"
(``%%`` contract lines) or "c-like" (``/*@ ... */`` contract lines). Each
annotation carries the id under which the monitor records its runtime check,
so listing, trace, and checker all speak the same contract catalog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

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


def _footer_obj(report: SolveReport) -> dict:
    total = len(report.init_records) + sum(len(s.records) for s in report.snapshots)
    obj = {
        "type": "footer",
        "status": report.status.value,
        "iterations": report.iterations,
        "final_gap": report.final_gap,
        "budget": report.budget,
        "budget_basis": BUDGET_BASIS,
        "records": total,
    }
    if report.violation_id is not None:
        obj["violation_id"] = report.violation_id
    return obj


def write_trace(report: SolveReport, sink: IO[bytes] | None = None) -> bytes:
    """Serialize a solve report as a JSON-lines proof trace.

    Returns the trace bytes; when ``sink`` (a binary file object) is given,
    also writes them there.
    """
    lines = [_dumps(_header_obj(report))]
    for rec in report.init_records:
        lines.append(_dumps(_record_obj(rec)))
    for snap in report.snapshots:
        lines.append(_dumps(_iteration_obj(snap.state, snap.step)))
        for rec in snap.records:
            lines.append(_dumps(_record_obj(rec)))
    lines.append(_dumps(_footer_obj(report)))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if sink is not None:
        sink.write(data)
    return data


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
    return abs(a - b) <= CHECK_RTOL * max(abs(a), abs(b))


def _close_mat(A: np.ndarray, B: np.ndarray) -> bool:
    diff = float(np.max(np.abs(A - B))) if A.size else 0.0
    if diff == 0.0:
        return True
    scale = max(float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    return diff <= CHECK_RTOL * scale


def _options_from_header(header: dict) -> SolverOptions:
    options = header.get("options")
    if not isinstance(options, dict):
        raise TraceFormatError("trace header is missing its options object")
    try:
        return SolverOptions(
            epsilon=float(options["epsilon"]),
            nu=float(options["nu"]),
            sigma=float(options["sigma"]),
            gap_ceiling=float(options["gap_ceiling"]),
            mode=str(options["mode"]),
            equality_tol=float(options["equality_tol"]),
            pd_margin=float(options["pd_margin"]),
            lsqr_tol=float(options["lsqr_tol"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"trace header options are malformed: {exc}") from None


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


def _take_array(line: dict, key: str, shape: tuple) -> np.ndarray:
    value = np.array(line[key], dtype=float)
    if key in ("pm", "dp", "p"):
        value = value.ravel()
    if value.shape != shape:
        raise ValueError(f"{key} has shape {value.shape}, expected {shape}")
    return value


def _take_float(line: dict, key: str) -> float:
    value = line[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} is not a number")
    return float(value)


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
            continue
        for key in ("measured", "bound"):
            value = stored_rec.get(key)
            mine = getattr(ours, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                findings.append(Finding("structure", where, rid, f"{key} is not a number"))
            elif not _close(float(value), mine):
                findings.append(
                    Finding(
                        "recompute",
                        where,
                        rid,
                        f"{key} mismatch: trace has {value!r}, recomputation gives {mine:.17g}",
                        delta=float(value) - mine,
                    )
                )
        if bool(stored_rec.get("passed")) != ours.passed:
            findings.append(
                Finding(
                    "verdict",
                    where,
                    rid,
                    f"passed flag mismatch: trace says {stored_rec.get('passed')}, "
                    f"recomputation says {ours.passed}",
                )
            )
        if stored_rec.get("anchor") != ours.anchor:
            findings.append(
                Finding(
                    "recompute",
                    where,
                    rid,
                    f"anchor text mismatch: trace has {stored_rec.get('anchor')!r}, "
                    f"expected {ours.anchor!r}",
                )
            )
        if stored_rec.get("phase") != ours.phase or stored_rec.get("iteration") != ours.iteration:
            findings.append(
                Finding(
                    "structure",
                    where,
                    rid,
                    f"phase/iteration fields ({stored_rec.get('phase')!r}, "
                    f"{stored_rec.get('iteration')!r}) do not match "
                    f"({ours.phase!r}, {ours.iteration})",
                )
            )
        _compare_detail(stored_rec.get("detail"), ours.detail, where, rid, findings)


def _compare_detail(
    stored: object,
    recomputed: dict,
    where: str,
    rid: str | None,
    findings: list[Finding],
) -> None:
    if not isinstance(stored, dict):
        findings.append(Finding("structure", where, rid, "detail is not an object"))
        return
    for key in recomputed:
        if key not in stored:
            findings.append(Finding("structure", where, rid, f"detail key {key!r} is missing"))
    for key, value in stored.items():
        if key not in recomputed:
            findings.append(Finding("structure", where, rid, f"unexpected detail key {key!r}"))
            continue
        mine = recomputed[key]
        if isinstance(mine, bool):
            if not isinstance(value, bool) or value != mine:
                findings.append(
                    Finding("verdict", where, rid, f"detail flag {key!r}: trace has {value!r}, recomputation says {mine}")
                )
        elif isinstance(mine, (int, float, np.integer, np.floating)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                findings.append(Finding("structure", where, rid, f"detail value {key!r} is not a number"))
            elif not _close(float(value), float(mine)):
                findings.append(
                    Finding(
                        "recompute",
                        where,
                        rid,
                        f"detail value {key!r} mismatch: trace has {value!r}, "
                        f"recomputation gives {float(mine):.17g}",
                        delta=float(value) - float(mine),
                    )
                )
        else:
            if value != mine:
                findings.append(
                    Finding("recompute", where, rid, f"detail value {key!r} mismatch: trace has {value!r}, expected {mine!r}")
                )


def check_trace(data: bytes | str | ProofTrace, prob: SdpProblem) -> CheckReport:
    """Replay a trace against a problem and report every discrepancy.

    The problem hash must match (TraceFormatError otherwise — a trace is only
    checkable against the constraints it was made from). Everything else, from
    record values to footer bookkeeping, is recomputed and compared at
    relative tolerance CHECK_RTOL; mismatches come back as findings.
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
    init_sigma = header.get("init_state", {}).get("sigma")
    if not isinstance(init_sigma, (int, float)) or isinstance(init_sigma, bool) or not _close(
        float(init_sigma), opts.sigma
    ):
        findings.append(
            Finding(
                "structure",
                "header",
                None,
                f"init_state sigma {init_sigma!r} disagrees with options sigma {opts.sigma!r}",
            )
        )

    try:
        recomputed = monitor.check_initialization(prob, state0, opts)
        _compare_records(trace.init_records, recomputed, "init", monitor.INIT_IDS, findings)
        records_checked += len(trace.init_records)
    except Exception as exc:  # noqa: BLE001 — tampered data must not crash the checker
        findings.append(Finding("error", "init", None, f"checker error: {exc}"))

    n, m = prob.n, prob.m
    prev_X, prev_Z, prev_p = state0.X, state0.Z, state0.p

    for k, block in enumerate(trace.iterations, 1):
        where = f"iteration {k}"
        line = block["state"]
        try:
            Xm = _take_array(line, "Xm", (n, n))
            Zm = _take_array(line, "Zm", (n, n))
            pm = _take_array(line, "pm", (m,))
            dX = _take_array(line, "dX", (n, n))
            dZ = _take_array(line, "dZ", (n, n))
            dp = _take_array(line, "dp", (m,))
            X = _take_array(line, "X", (n, n))
            Z = _take_array(line, "Z", (n, n))
            p = _take_array(line, "p", (m,))
            mu = _take_float(line, "mu")
            phi = _take_float(line, "phi")
            phim = _take_float(line, "phim")
        except Exception as exc:  # noqa: BLE001
            findings.append(Finding("error", where, None, f"unreadable iteration line: {exc}"))
            break

        if line.get("iteration") != k:
            findings.append(
                Finding(
                    "structure",
                    where,
                    None,
                    f"iteration field is {line.get('iteration')!r}, expected {k}",
                )
            )
        if not _close_mat(Xm, prev_X):
            findings.append(Finding("chain", where, None, "Xm does not match the previous X"))
        if not _close_mat(Zm, prev_Z):
            findings.append(Finding("chain", where, None, "Zm does not match the previous Z"))
        if not _close_mat(pm, prev_p):
            findings.append(Finding("chain", where, None, "pm does not match the previous p"))
        if not _close_mat(X, Xm + dX):
            findings.append(Finding("chain", where, None, "X does not equal Xm + dX"))
        if not _close_mat(Z, Zm + dZ):
            findings.append(Finding("chain", where, None, "Z does not equal Zm + dZ"))
        if not _close_mat(p, pm + dp):
            findings.append(Finding("chain", where, None, "p does not equal pm + dp"))
        if not _close(phim, trace_inner(Xm, Zm)):
            findings.append(
                Finding(
                    "recompute",
                    where,
                    None,
                    f"phim is {phim!r} but trace(Xm*Zm) recomputes to "
                    f"{trace_inner(Xm, Zm):.17g}",
                )
            )
        if not _close(phi, trace_inner(X, Z)):
            findings.append(
                Finding(
                    "recompute",
                    where,
                    None,
                    f"phi is {phi!r} but trace(X*Z) recomputes to {trace_inner(X, Z):.17g}",
                )
            )
        if not _close(mu, phi / n):
            findings.append(
                Finding("recompute", where, None, f"mu is {mu!r} but phi/n is {phi / n:.17g}")
            )

        try:
            Zh = sym_sqrt(Zm)
            step = NewtonStep(
                dX=dX,
                dZ=dZ,
                dp=dp,
                Zh=Zh,
                Zhi=sym_inv(Zh),
                mu=trace_inner(Xm, Zm) / n,
                sigma=opts.sigma,
            )
            new_state = IterateState(
                X=X, Z=Z, p=p, Xm=Xm, Zm=Zm, pm=pm, mu=mu, phi=phi, phim=phim, iteration=k
            )
            recomputed = monitor.check_iteration(prob, new_state, step, opts)
            _compare_records(block["records"], recomputed, where, monitor.LOOP_IDS, findings)
            records_checked += len(block["records"])
        except Exception as exc:  # noqa: BLE001
            findings.append(Finding("error", where, None, f"checker error: {exc}"))

        prev_X, prev_Z, prev_p = X, Z, p

    _check_footer(trace, state0, opts, findings)
    return CheckReport(
        findings=findings,
        iterations=len(trace.iterations),
        records_checked=records_checked,
    )


def _check_footer(
    trace: ProofTrace,
    state0: IterateState,
    opts: SolverOptions,
    findings: list[Finding],
) -> None:
    footer = trace.footer
    known = {s.value for s in SolveStatus}
    status = footer.get("status")
    if status not in known:
        findings.append(
            Finding("footer", "footer", None, f"unknown status {status!r}; expected one of {sorted(known)}")
        )
    if footer.get("iterations") != len(trace.iterations):
        findings.append(
            Finding(
                "footer",
                "footer",
                None,
                f"iteration count is {footer.get('iterations')!r}, "
                f"trace holds {len(trace.iterations)}",
            )
        )

    if trace.iterations:
        last_line = trace.iterations[-1]["state"]
        last_phi = last_line.get("phi")
        last_phim = last_line.get("phim")
    else:
        last_phi, last_phim = state0.phi, None

    final_gap = footer.get("final_gap")
    if not isinstance(final_gap, (int, float)) or isinstance(final_gap, bool):
        findings.append(Finding("footer", "footer", None, "final_gap is not a number"))
    elif isinstance(last_phi, (int, float)) and not _close(float(final_gap), float(last_phi)):
        findings.append(
            Finding(
                "footer",
                "footer",
                None,
                f"final_gap is {final_gap!r} but the last recorded gap is {last_phi!r}",
                delta=float(final_gap) - float(last_phi),
            )
        )

    expected_budget = iteration_bound(state0.phi, opts.epsilon, opts.sigma)
    if footer.get("budget") != expected_budget:
        findings.append(
            Finding(
                "footer",
                "footer",
                None,
                f"budget is {footer.get('budget')!r}, recomputation gives {expected_budget}",
            )
        )

    total = len(trace.init_records) + sum(len(b["records"]) for b in trace.iterations)
    if footer.get("records") != total:
        findings.append(
            Finding(
                "footer",
                "footer",
                None,
                f"record count is {footer.get('records')!r}, trace holds {total}",
            )
        )

    if status == SolveStatus.CONVERGED.value and isinstance(last_phi, (int, float)):
        if float(last_phi) > opts.epsilon:
            findings.append(
                Finding(
                    "footer",
                    "footer",
                    None,
                    f"status is Converged but the final gap {last_phi!r} exceeds "
                    f"epsilon {opts.epsilon!r}",
                )
            )
    if status == SolveStatus.INVARIANT_VIOLATION.value:
        violation_id = footer.get("violation_id")
        if not violation_id:
            findings.append(
                Finding("footer", "footer", None, "status is InvariantViolation but violation_id is missing")
            )
        elif not trace.iterations or not any(
            rec.get("id") == violation_id and not rec.get("passed")
            for rec in trace.iterations[-1]["records"]
        ):
            findings.append(
                Finding(
                    "footer",
                    "footer",
                    violation_id,
                    "violation_id does not name a failed record in the last iteration",
                )
            )
    if status == SolveStatus.DIVERGENCE_GUARD.value:
        grew = (
            isinstance(last_phi, (int, float))
            and isinstance(last_phim, (int, float))
            and float(last_phi) - float(last_phim) > 0
        )
        if not grew:
            findings.append(
                Finding("footer", "footer", None, "status is DivergenceGuard but the gap did not grow")
            )


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
