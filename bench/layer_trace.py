"""Span recording around the solver's layers, and the per-layer metrics.

The benchmark measures each layer from outside the program: for a traced
operation it replaces the module attributes through which the layers call
one another (``solver.krons``, ``cli.write_trace``, ...) with wrappers that
record a span per call, and puts the originals back when the operation ends.
Nothing under ``src/`` knows about it.

A span is a tuple ``(name, start_ns, end_ns, parent, op, attrs)``: ``parent``
is the index of the enclosing span in the same list (or -1), ``op`` names the
CLI call the span belongs to, and ``attrs`` holds the counts taken at that
boundary (bytes written, whether a right-hand side was zero, ...). Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span name). The attribute is the name the caller looks
#: up at call time, so wrapping it intercepts every call the layer above makes.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("credible_sdp.cli", "load_problem_file", "problem.load_problem_file"),
    ("credible_sdp.cli", "solve", "solver.solve"),
    ("credible_sdp.cli", "write_trace", "annotator.write_trace"),
    ("credible_sdp.cli", "emit_annotated_listing", "annotator.emit_annotated_listing"),
    ("credible_sdp.cli", "check_trace", "annotator.check_trace"),
    ("credible_sdp.solver", "initialize", "solver.initialize"),
    ("credible_sdp.solver", "assemble_newton", "solver.assemble_newton"),
    ("credible_sdp.solver", "krons", "symvec.krons"),
    ("credible_sdp.solver", "solve_newton", "solver.solve_newton"),
    ("credible_sdp.solver", "lsqr_solve", "linalg.lsqr_solve"),
    ("credible_sdp.solver", "take_step", "solver.take_step"),
    ("credible_sdp.monitor", "check_initialization", "monitor.check_initialization"),
    ("credible_sdp.monitor", "check_iteration", "monitor.check_iteration"),
    ("credible_sdp.annotator", "parse_trace", "annotator.parse_trace"),
    ("credible_sdp.annotator", "sym_sqrt", "linalg.sym_sqrt"),
)

ROOT_SPAN = "cli.main"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _report_arrays(obj, seen: dict) -> None:
    """Collect, by identity, every ndarray reachable through dataclass fields."""
    if isinstance(obj, np.ndarray):
        seen[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _report_arrays(item, seen)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            _report_arrays(getattr(obj, name), seen)


def report_summary(report) -> dict:
    """Counts from a SolveReport: iterations, budget, records, computed array bytes."""
    arrays: dict = {}
    _report_arrays(report, arrays)
    return {
        "iterations": report.iterations,
        "budget": report.budget,
        "records": len(report.init_records) + sum(len(s.records) for s in report.snapshots),
        "report_bytes": sum(a.nbytes for a in arrays.values()),
    }


class Tracer:
    """Records spans for the operations run under ``operation``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = ""
        self._prev_sqrt_input: np.ndarray | None = None
        self._reports: list[tuple[int, object]] = []

    def _notes(self, name: str, args: tuple, kwargs: dict, result) -> dict:
        """Counts taken at the layer boundary, after the call's end time is read."""
        if name == "linalg.lsqr_solve":
            return {"zero_rhs": not np.any(_arg(args, kwargs, 1, "b"))}
        if name == "linalg.sym_sqrt":
            S = np.asarray(_arg(args, kwargs, 0, "S"))
            prev, self._prev_sqrt_input = self._prev_sqrt_input, S.copy()
            return {"repeat": prev is not None and np.array_equal(prev, S)}
        if name == "annotator.write_trace":
            return {"bytes": len(result)}
        if name == "annotator.parse_trace":
            return {"bytes": len(_arg(args, kwargs, 0, "data"))}
        return {}

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op, {})
            self.spans[index][5].update(self._notes(name, args, kwargs, result))
            if name == "solver.solve":
                self._reports.append((index, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target attribute with its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def operation(self, op: str, kind: str, call):
        """Run ``call()`` as one traced CLI operation; return its result.

        The root span carries the operation kind ("solve" or "check"). Report
        summaries are computed after the root span closes, so walking the
        report is not charged to any layer.
        """
        self._op = op
        self._prev_sqrt_input = None
        with self.installed():
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = call()
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (ROOT_SPAN, start, end, -1, op, {"kind": kind})
        for span_index, report in self._reports:
            self.spans[span_index][5].update(report_summary(report))
        self._reports.clear()
        self._prev_sqrt_input = None
        return result


def self_times(spans: list[tuple]) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans: list[tuple], primary: str) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from the spans of traced operations.

    ``primary`` is the operation kind the workload exists to measure
    ("solve" or "check"); ``cli.main.self_ms`` is taken over those operations.
    """
    kind_of_op = {op: attrs["kind"] for name, _, _, _, op, attrs in spans if name == ROOT_SPAN}
    selfs = self_times(spans)
    dur: dict[str, list[int]] = defaultdict(list)
    by_kind: dict[tuple[str, str], list[int]] = defaultdict(list)
    attrs_of: dict[str, list[dict]] = defaultdict(list)
    root_self: list[int] = []
    check_self: list[int] = []
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        dur[name].append(end - start)
        by_kind[(name, kind_of_op[op])].append(end - start)
        attrs_of[name].append(attrs)
        if name == ROOT_SPAN and attrs["kind"] == primary:
            root_self.append(selfs[i])
        elif name == "annotator.check_trace":
            check_self.append(selfs[i])

    solves = attrs_of["solver.solve"]
    iterations = sum(a["iterations"] for a in solves)

    def mean_ms(values: list[int]) -> float:
        return statistics.fmean(values) / 1e6

    def per_iter_ms(name: str) -> float:
        return sum(by_kind[(name, "solve")]) / 1e6 / iterations

    def mb_per_s(name: str) -> float:
        return sum(a["bytes"] for a in attrs_of[name]) / 1e6 / (sum(dur[name]) / 1e9)

    lsqr = attrs_of["linalg.lsqr_solve"]
    sqrt = attrs_of["linalg.sym_sqrt"]
    return {
        "symvec.krons.ms_per_call": mean_ms(dur["symvec.krons"]),
        "symvec.krons.calls_per_iter": len(dur["symvec.krons"]) / iterations,
        "solver.assemble_newton.ms_per_iter": per_iter_ms("solver.assemble_newton"),
        "linalg.lsqr_solve.ms_per_call": mean_ms(dur["linalg.lsqr_solve"]),
        "linalg.lsqr_solve.calls_per_iter": len(lsqr) / iterations,
        "linalg.lsqr_solve.zero_rhs_frac": sum(a["zero_rhs"] for a in lsqr) / len(lsqr),
        "solver.solve_newton.ms_per_iter": per_iter_ms("solver.solve_newton"),
        "solver.report_mb": statistics.fmean(a["report_bytes"] for a in solves) / 1e6,
        "solver.initialize.ms": mean_ms(dur["solver.initialize"]),
        "solver.take_step.ms_per_iter": per_iter_ms("solver.take_step"),
        "solver.iterations": iterations / len(solves),
        "solver.budget": statistics.fmean(a["budget"] for a in solves),
        "monitor.check_iteration.solve_ms": mean_ms(by_kind[("monitor.check_iteration", "solve")]),
        "monitor.check_initialization.ms": mean_ms(
            by_kind[("monitor.check_initialization", "solve")]
        ),
        "monitor.records": statistics.fmean(a["records"] for a in solves),
        "monitor.check_iteration.replay_ms": mean_ms(
            by_kind[("monitor.check_iteration", "check")]
        ),
        "linalg.sym_sqrt.replay_repeat_frac": sum(a["repeat"] for a in sqrt) / len(sqrt),
        "annotator.check_trace.self_ms": mean_ms(check_self),
        "annotator.parse_trace.ms": mean_ms(dur["annotator.parse_trace"]),
        "annotator.parse_trace.mb_per_s": mb_per_s("annotator.parse_trace"),
        "annotator.write_trace.ms": mean_ms(dur["annotator.write_trace"]),
        "annotator.write_trace.mb_per_s": mb_per_s("annotator.write_trace"),
        "problem.load_problem_file.ms": mean_ms(dur["problem.load_problem_file"]),
        "annotator.emit_annotated_listing.ms": mean_ms(dur["annotator.emit_annotated_listing"]),
        "cli.main.self_ms": mean_ms(root_self),
    }


def self_time_shares(spans: list[tuple], kind: str) -> dict[str, float]:
    """Share of the total time of ``kind`` operations spent in each span name's own code."""
    kind_of_op = {op: attrs["kind"] for name, _, _, _, op, attrs in spans if name == ROOT_SPAN}
    selfs = self_times(spans)
    totals: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        if kind_of_op[op] == kind:
            totals[name] += selfs[i]
    whole = sum(totals.values())
    return {name: t / whole for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}
