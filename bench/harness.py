"""The credible-sdp benchmark: workloads, output gate, metrics and result line.

Each workload is one closed-loop client in this process: it sends the next
CLI call only after the previous one, and that call's output gate, are done.
Calls go through ``credible_sdp.cli.main(argv)`` in-process with stdout
captured, on problem files generated from ``--seed``. Every workload runs
the same loop on distinct problems of its own size:

    solve --problem P --trace T --listing L      (timed: solve_ms)
    output gate on the trace, untimed
    check-trace --problem P --trace T            (timed: check_ms)

so each trace is written once and checked once. ``primary`` names the
operation a workload exists to measure: the solve on ``small-certify``
(n = 2) and ``large-certify`` (n = 16), the check on ``audit-replay``
(n = 8). Untraced runs give the end-to-end metrics; a traced run
(``--trace 1``) traces every other problem, gives the per-layer metrics,
and compares the traced with the untraced operations for the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layer_trace
import workload_gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters started to time ``import credible_sdp``.
SETUP_SAMPLES = 11

#: Nominal time of one calibration kernel run. Latencies are reported in
#: reference milliseconds: wall time scaled so that the kernel, timed just
#: before and just after the operation, would have taken exactly this long.
CAL_REF_NS = 2_000_000
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.normal(size=(4, 4)) / 4
_CAL_B = _CAL_RNG.normal(size=(36, 36))
_CAL_C = _CAL_RNG.normal(size=36)
_CAL_TEXT = json.dumps([{"a": _CAL_RNG.normal(size=8).tolist(), "b": "x"} for _ in range(150)])

#: Percentiles tried for a ``*_tail`` figure, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """Problem size, and the operation ("solve" or "check") the workload exists to measure."""

    n: int
    primary: str


#: Why each workload exists is written beside its name in BENCHMARK.json.
WORKLOADS = {
    "small-certify": Workload(n=2, primary="solve"),
    "large-certify": Workload(n=16, primary="solve"),
    "audit-replay": Workload(n=8, primary="check"),
}


# --------------------------------------------------------------------------
# Operations and the output gate
# --------------------------------------------------------------------------


@dataclass
class OpResult:
    kind: str
    index: int
    wall_ns: int
    ref_ns: float
    error: str | None = None
    trace_bytes: int = 0


def _kernel() -> None:
    """Fixed work in the program's mix: small numpy and LAPACK calls driven by a
    Python loop, float formatting, and JSON round trips. Nothing from the package."""
    X = np.eye(4)
    rows = []
    for k in range(50):
        X = np.tanh(X @ _CAL_A + np.eye(4))
        w, _ = np.linalg.eigh(X + X.T)
        rows.append({"k": k, "w": w.tolist(), "s": f"{w[0]:.17g}"})
    json.loads(json.dumps(rows))
    json.loads(_CAL_TEXT)
    np.linalg.lstsq(_CAL_B, _CAL_C, rcond=None)


def kernel_ns() -> int:
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start


def timed(call) -> tuple[object, int, float]:
    """Run ``call()``; return its result, wall ns, and reference ns.

    On a shared host a vCPU's speed can change by tens of percent for seconds
    to minutes at a time; the kernel run on either side of the call measures
    that speed, and the reference time divides it out.
    """
    before = kernel_ns()
    start = time.perf_counter_ns()
    result = call()
    wall = time.perf_counter_ns() - start
    after = kernel_ns()
    return result, wall, wall * CAL_REF_NS / ((before + after) / 2)


def _call_cli(argv: list[str], tracer: layer_trace.Tracer | None, op: str, kind: str):
    """Run one CLI call with its output captured; return (exit code, output, wall ns, ref ns)."""
    from credible_sdp import cli

    def call():
        return cli.main(argv) if tracer is None else tracer.operation(op, kind, lambda: cli.main(argv))

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code, wall, ref = timed(call)
        except Exception:  # noqa: BLE001 -- a crash is a failed operation, not the end of the run
            traceback.print_exc(file=out)
            code, wall, ref = None, 0, 0.0
    return code, out.getvalue(), wall, ref


def _paths(workdir: Path, index: int) -> tuple[Path, Path, Path]:
    return workdir / f"p{index}.json", workdir / f"t{index}.cts", workdir / f"l{index}.m"


def trace_gate(data: bytes) -> str | None:
    """Independent look at a written trace; return what is wrong, or None.

    Parsed with the standard json module, not the program's own reader: the
    footer must say Converged with iterations <= budget, every record must
    have passed, and the footer's counts must match the lines present.
    """
    try:
        lines = [json.loads(line) for line in data.splitlines() if line.strip()]
    except ValueError as exc:
        return f"trace is not JSON lines: {exc}"
    if not lines or lines[0].get("type") != "header" or lines[-1].get("type") != "footer":
        return "trace lacks a header or footer line"
    footer = lines[-1]
    records = [obj for obj in lines if obj.get("type") == "record"]
    iterations = sum(obj.get("type") == "iteration" for obj in lines)
    if footer.get("status") != "Converged":
        return f"footer status is {footer.get('status')!r}"
    if not footer.get("iterations", math.inf) <= footer.get("budget", -1):
        return f"iterations {footer.get('iterations')} exceed budget {footer.get('budget')}"
    failed = sorted({rec.get("id") for rec in records if rec.get("passed") is not True})
    if failed:
        return "records failed: " + ", ".join(map(str, failed))
    if footer.get("records") != len(records) or footer.get("iterations") != iterations:
        return "footer counts do not match the trace"
    return None


def solve_op(workdir: Path, seed: int, n: int, index: int, tracer=None) -> OpResult:
    """Write problem ``index``, solve it with trace and listing, gate the output."""
    problem, trace, listing = _paths(workdir, index)
    workload_gen.write_problem(problem, seed, n, index)
    argv = ["solve", "--problem", str(problem), "--trace", str(trace), "--listing", str(listing)]
    code, output, wall, ref = _call_cli(argv, tracer, f"solve-{index}", "solve")
    result = OpResult("solve", index, wall, ref)
    if code != 0:
        result.error = f"solve exited {code}: {output.strip()[-300:]}"
    elif not listing.is_file() or listing.stat().st_size == 0:
        result.error = "solve wrote no listing"
    else:
        data = trace.read_bytes()
        result.trace_bytes = len(data)
        result.error = trace_gate(data)
    return result


def check_op(workdir: Path, index: int, tracer=None) -> OpResult:
    """Re-check the trace of problem ``index``; a clean check exits 0."""
    problem, trace, _ = _paths(workdir, index)
    argv = ["check-trace", "--problem", str(problem), "--trace", str(trace)]
    code, output, wall, ref = _call_cli(argv, tracer, f"check-{index}", "check")
    result = OpResult("check", index, wall, ref, trace_bytes=trace.stat().st_size)
    if code != 0 or not output.startswith("trace OK"):
        result.error = f"check-trace exited {code}: {output.strip()[-300:]}"
    return result


def _remove(workdir: Path, index: int) -> None:
    for path in _paths(workdir, index):
        path.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Measurement loop
# --------------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    traced: bool
    results: list[OpResult] = field(default_factory=list)
    tracer: layer_trace.Tracer = field(default_factory=layer_trace.Tracer)
    loop_s: float = 0.0

    def tracer_for(self, index: int):
        """Traced runs trace every odd-numbered problem, so the rest give the overhead."""
        return self.tracer if self.traced and index % 2 == 1 else None


def run_loop(run: Run, workdir: Path) -> None:
    """The closed loop: solve a fresh problem, gate it, check its trace, repeat.

    Problem 0 warms up untimed. The loop stops once ``seconds`` have passed
    and, in a traced run, both a traced and an untraced problem are done.
    """
    n = WORKLOADS[run.workload].n
    warm = solve_op(workdir, run.seed, n, 0)
    warm = check_op(workdir, 0) if warm.error is None else warm
    _remove(workdir, 0)
    if warm.error:
        run.results.append(warm)
        return
    start = time.perf_counter()
    index = 1
    while run.loop_s < run.seconds or (run.traced and index < 3):
        tracer = run.tracer_for(index)
        solved = solve_op(workdir, run.seed, n, index, tracer)
        run.results.append(solved)
        if solved.error is None:
            run.results.append(check_op(workdir, index, tracer))
        _remove(workdir, index)
        run.loop_s = time.perf_counter() - start
        index += 1


# --------------------------------------------------------------------------
# Set-up time and environment
# --------------------------------------------------------------------------

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import credible_sdp; "
    "print(repr(time.perf_counter() - t))"
)


def import_seconds() -> tuple[float, float]:
    """``import credible_sdp`` in a fresh interpreter, as every CLI call pays it.

    Returns (wall seconds, reference seconds), scaled as for ``timed``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc, wall, ref = timed(lambda: subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    ))
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return seconds, seconds * ref / wall


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the repository rooted exactly here, if this is a git checkout."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "credible_sdp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def tail(values: list[float]) -> dict | None:
    """The highest listed percentile with at least ten samples above it."""
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return {"value": ordered[rank - 1], "percentile": level, "samples": len(ordered)}
    return None


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(gated metric values, extra figures) of an untraced run."""
    ok = [r for r in run.results if r.error is None]
    solves = [r for r in ok if r.kind == "solve"]
    checks = [r for r in ok if r.kind == "check"]
    primary = WORKLOADS[run.workload].primary
    values = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "solve_ms_p50": statistics.median(r.ref_ns / 1e6 for r in solves),
        "check_ms_p50": statistics.median(r.ref_ns / 1e6 for r in checks),
        "trace_bytes": statistics.fmean(r.trace_bytes for r in ok if r.kind == primary),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    extra = {
        "setup_samples_s": [ref for _, ref in setup],
        "solve_ms_tail": tail([r.ref_ns / 1e6 for r in solves]),
        "check_ms_tail": tail([r.ref_ns / 1e6 for r in checks]),
        "wall": {
            "setup_s": statistics.median(wall for wall, _ in setup),
            "solve_ms_p50": statistics.median(r.wall_ns / 1e6 for r in solves),
            "check_ms_p50": statistics.median(r.wall_ns / 1e6 for r in checks),
        },
    }
    return values, extra


def per_layer(run: Run) -> tuple[dict, dict]:
    """(per-layer metric values, extra figures) of a traced run."""
    primary = WORKLOADS[run.workload].primary
    halves: dict[bool, list[float]] = {True: [], False: []}
    for r in run.results:
        if r.kind == primary and r.error is None:
            halves[r.index % 2 == 1].append(r.ref_ns)
    values = layer_trace.layer_metrics(run.tracer.spans, primary)
    values["tracing_overhead_frac"] = (
        statistics.median(halves[True]) / statistics.median(halves[False]) - 1
    )
    extra = {
        "spans": len(run.tracer.spans),
        "self_time_share": layer_trace.self_time_shares(run.tracer.spans, primary),
    }
    return values, extra


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def execute(args: argparse.Namespace) -> dict:
    """Run one workload; return the full result record (the last line is cut from it)."""
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    setup = [] if run.traced else [import_seconds() for _ in range(SETUP_SAMPLES)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run_loop(run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in run.results if r.error is not None]
    record = {
        "correct": not failed and bool(run.results),
        "attempted": len(run.results),
        "failed": len(failed),
        "metrics": {},
        "environment": environment(args),
        "loop_s": run.loop_s,
        "fail_frac": len(failed) / max(1, len(run.results)),
        "errors": [f"{r.kind} {r.index}: {r.error}" for r in failed[:5]],
    }
    if failed:
        return record
    values, extra = per_layer(run) if run.traced else end_to_end(run, setup)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer" if run.traced else "end_to_end"]}
    record["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record.update(extra)
    if run.traced:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in run.tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = spans_path.name
    return record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    record = execute(args)
    detail_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0
