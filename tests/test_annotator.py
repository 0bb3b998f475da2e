from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credible_sdp import monitor
from credible_sdp.annotator import (
    CHECK_RTOL,
    LEGACY_SCHEMA,
    LISTING_FLAVORS,
    TRACE_SCHEMA,
    TraceFormatError,
    _DIRECTIONS,
    _check_footer,
    _close,
    _diff,
    _footer_obj,
    _header_obj,
    _identical,
    _iteration_obj,
    _mat_literals,
    _read_lines,
    _line,
    _record_obj,
    _text_hash,
    check_trace,
    emit_annotated_listing,
    parse_trace,
    write_trace,
)
from credible_sdp.linalg import sym_sqrt
from credible_sdp.monitor import INIT_IDS, LOOP_IDS, InvariantRecord
from credible_sdp.problem import (
    SdpProblem,
    build_problem,
    load_problem,
    orjson_reads_alike,
    running_example,
)
from credible_sdp.solver import (
    NewtonStep,
    SolverOptions,
    SolveStatus,
    assemble_newton,
    solve,
    solve_newton,
    take_step,
)

#: Proof traces of the bundled example, written by earlier solvers and kept
#: byte for byte: traces already in the wild must keep re-checking clean.
#: Never regenerate them to make a test pass. GOLDEN_TRACE is schema cts-1,
#: which stores every iterate; GOLDEN_CTS2 is the first cts-2 trace, whose
#: directions are full matrices; GOLDEN_CTS3 is the first cts-3 trace.
#: GOLDEN_CTS4 is a cts-4 trace, whose header no longer states a potential
#: weight nu or a second sigma, written by the solver that takes p and every
#: dp from one QR factor of F': a fresh solve writes it byte for byte. Past
#: the header its lines are GOLDEN_CTS3's but for the fields P_FIELDS names.
#: GOLDEN_N6 is a cts-2 trace of a random n = 6, m = 21 problem (the file
#: GOLDEN_N6_PROBLEM, ``problem_gen.random_problem`` with rng seed 7): at
#: m > 3 the order in which sums over the constraints round shows in the
#: stored measured values, which n = 2 cannot pin. GOLDEN_N6_LISTING is that
#: problem's pseudo-matlab listing; its data is spelled as the trace spells
#: it, and it holds entries in [1e-5, 1e-4), which orjson writes in fixed
#: notation (``0.000038077791330545025``).
GOLDEN_TRACE = Path(__file__).parent / "golden" / "running_example.cts"
GOLDEN_CTS2 = Path(__file__).parent / "golden" / "running_example_cts2.cts"
GOLDEN_CTS3 = Path(__file__).parent / "golden" / "running_example_cts3.cts"
GOLDEN_CTS4 = Path(__file__).parent / "golden" / "running_example_cts4.cts"
GOLDEN_N6 = Path(__file__).parent / "golden" / "random_n6_cts2.cts"
GOLDEN_N6_PROBLEM = Path(__file__).parent / "golden" / "random_n6_problem.json"
GOLDEN_N6_LISTING = Path(__file__).parent / "golden" / "random_n6_listing.m"

#: The trace fields that the start's p and the steps' dp determine, as
#: ``tests/corpus_digest.py --fields`` names them: these alone moved, at
#: rounding level, when p and dp came from one QR factor of F' in place of
#: lstsq and pinv. Every X, Z, gap, budget and other record kept its bits.
P_FIELDS = frozenset({
    "header.init_state.p",
    "iteration.dp",
    "record:init-p-symmetric.bound",
    "record:init-primal-feasibility.measured",
    "record:init-primal-feasibility.detail.residual",
    "record:I9.measured",
    "record:I9.detail.primal_residual",
})


@pytest.fixture(scope="module")
def golden_trace() -> bytes:
    return GOLDEN_TRACE.read_bytes()


@pytest.fixture(scope="module")
def direction_traces(example_trace) -> list[bytes]:
    """A trace of each layout of the directions: the fresh cts-4 trace, whose
    dX and dZ are upper triangles, and the cts-2 golden's full matrices."""
    return [example_trace, GOLDEN_CTS2.read_bytes()]


# -- line surgery helpers ------------------------------------------------------


def trace_lines(trace: bytes) -> list[str]:
    return trace.decode("utf-8").splitlines()


def reassemble(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def edit_line(trace: bytes, index: int, mutate) -> bytes:
    """Apply ``mutate`` to the parsed JSON object on line ``index``."""
    lines = trace_lines(trace)
    obj = json.loads(lines[index])
    mutate(obj)
    lines[index] = json.dumps(obj)
    return reassemble(lines)


def find_line(trace: bytes, predicate) -> int:
    for i, line in enumerate(trace_lines(trace)):
        if predicate(json.loads(line)):
            return i
    raise AssertionError("no line matched")


def find_record(trace: bytes, rid: str, iteration: int) -> int:
    """Line index of record ``rid`` under iteration line ``iteration`` (0 for
    the initialization records), found by position as the checker reads it."""
    block = 0
    for i, line in enumerate(trace_lines(trace)):
        obj = json.loads(line)
        if obj.get("type") == "iteration":
            block = obj["iteration"]
        elif obj.get("type") == "record" and obj.get("id") == rid and block == iteration:
            return i
    raise AssertionError("no line matched")


def find_iteration(trace: bytes, k: int) -> int:
    return find_line(trace, lambda o: o.get("type") == "iteration" and o.get("iteration") == k)


def full_matrix(stored, n: int) -> np.ndarray:
    """A stored direction as its n-by-n matrix: a cts-3 or cts-4 upper triangle
    (i <= j, row-major) is mirrored, a cts-2 matrix is read as it is."""
    a = np.asarray(stored, dtype=float)
    if a.ndim == 2:
        return a
    i, j = np.triu_indices(n)
    M = np.empty((n, n))
    M[i, j] = M[j, i] = a
    return M


def with_entry(v: list, k: int, value) -> list:
    """A stored array (a list, or a list of rows) with its k-th entry,
    row-major, replaced by ``value``."""
    if isinstance(v[0], list):
        rows = [list(row) for row in v]
        rows[k // len(v[0])][k % len(v[0])] = value
        return rows
    return [*v[:k], value, *v[k + 1:]]


def each_entry(v, f):
    """``f`` applied to every entry of a stored array, at any depth."""
    return [each_entry(x, f) for x in v] if isinstance(v, list) else f(v)


# -- serialization --------------------------------------------------------------


def test_trace_layout(example_trace, example_report):
    lines = trace_lines(example_trace)
    n_iter = example_report.iterations
    assert len(lines) == 1 + 16 + n_iter * 13 + 1
    head = json.loads(lines[0])
    assert head["type"] == "header"
    assert head["schema"] == TRACE_SCHEMA
    assert head["problem_hash"] == example_report.problem.problem_hash
    assert (head["n"], head["m"]) == (2, 3)
    foot = json.loads(lines[-1])
    assert foot["type"] == "footer"
    assert foot["status"] == "Converged"
    assert foot["iterations"] == n_iter
    assert foot["budget"] == example_report.budget
    assert foot["records"] == 16 + 12 * n_iter
    assert "violation_id" not in foot


def assert_same_bits(stored, expected, what: str) -> None:
    """Shape and every float of ``stored`` equal ``expected`` bit for bit."""
    a = np.asarray(stored, dtype=float)
    b = np.asarray(expected, dtype=float)
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def assert_record_roundtrips(stored: dict, rec, where: str, skip=frozenset()) -> None:
    """The record's floats, but for the paths of ``skip``, read back bit for bit."""
    what = f"{where} [{rec.id}]"
    kind = f"record:{rec.id}"
    for key in ("measured", "bound"):
        if f"{kind}.{key}" not in skip:
            assert_same_bits(stored[key], getattr(rec, key), f"{what} {key}")
    assert stored["detail"].keys() == rec.detail.keys(), what
    for key, value in rec.detail.items():
        if f"{kind}.detail.{key}" in skip:
            continue
        if isinstance(value, (bool, np.bool_, str)):
            assert stored["detail"][key] == value, f"{what} detail {key}"
        else:
            assert_same_bits(stored["detail"][key], value, f"{what} detail {key}")


def test_trace_floats_roundtrip_exactly(direction_traces, example_report):
    fresh, cts2 = direction_traces
    _assert_floats_roundtrip(parse_trace(fresh), example_report)
    # the cts-2 golden's p and dp came from lstsq and pinv, a fresh run's from
    # one QR factor of F': every other float keeps its bits
    _assert_floats_roundtrip(parse_trace(cts2), example_report, skip=P_FIELDS)


def _assert_floats_roundtrip(trace, example_report, skip=frozenset()) -> None:
    """Every float of ``trace`` but the paths of ``skip`` (named as in
    ``P_FIELDS``; skipping ``iteration.dp`` skips the iterates' p) has the
    bits of ``example_report``'s."""
    prob = example_report.problem

    init = trace.header["init_state"]
    state0 = example_report.initial_state
    for key in ("X", "Z", "p", "mu", "phi", "phim"):
        if f"header.init_state.{key}" not in skip:
            assert_same_bits(init[key], getattr(state0, key), f"init_state {key}")
    if trace.header["schema"] == TRACE_SCHEMA:  # sigma is stated once, in the options
        assert "sigma" not in init
    else:
        assert_same_bits(init["sigma"], example_report.options.sigma, "init_state sigma")
    for stored, rec in zip(trace.init_records, example_report.init_records, strict=True):
        assert_record_roundtrips(stored, rec, "init", skip)

    # the iterates are not stored: stepping with the stored directions from
    # the stored start re-derives every one of them bit for bit
    state = state0
    for block, snap in zip(trace.iterations, example_report.snapshots, strict=True):
        line, where = block["state"], f"iteration {snap.state.iteration}"
        assert line.keys() == {"type", "iteration", "dX", "dZ", "dp"}, where
        dX, dZ = full_matrix(line["dX"], prob.n), full_matrix(line["dZ"], prob.n)
        for key, value in (("dX", dX), ("dZ", dZ), ("dp", line["dp"])):
            if f"iteration.{key}" not in skip:
                assert_same_bits(value, getattr(snap.step, key), f"{where} {key}")
        step = NewtonStep(dX=dX, dZ=dZ, dp=np.array(line["dp"]), Zh=None, Zhi=None)
        state = take_step(prob, state, step)
        for key in ("X", "Z", "p", "mu", "phi", "phim"):
            if not (key == "p" and "iteration.dp" in skip):
                assert_same_bits(getattr(state, key), getattr(snap.state, key), f"{where} {key}")
        for stored, rec in zip(block["records"], snap.records, strict=True):
            assert stored.keys() == {"type", "id", "measured", "bound", "passed", "detail"}, where
            assert_record_roundtrips(stored, rec, where, skip)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_trace_refuses_non_finite_values(example_report, bad):
    state0 = example_report.initial_state
    X = state0.X.copy()
    X[0, 1] = bad
    for state in (replace(state0, X=X), replace(state0, mu=bad)):
        with pytest.raises(ValueError):
            write_trace(replace(example_report, initial_state=state))


def test_write_trace_refuses_unknown_detail_objects(example_report):
    rec = replace(example_report.init_records[0], detail={"opaque": object()})
    broken = replace(example_report, init_records=[rec, *example_report.init_records[1:]])
    with pytest.raises(TypeError, match="object"):
        write_trace(broken)


@pytest.mark.parametrize("key", ["dX", "dZ"])
def test_write_trace_refuses_an_asymmetric_direction(example_problem, monkeypatch, key):
    # a cts-4 line stores one triangle: a direction whose triangles differ in
    # one bit would be cut down, so it is refused instead
    def skewed(r, scaling):
        step = solve_newton(r, scaling)
        M = getattr(step, key).copy()
        M[0, 1] = np.nextafter(M[0, 1], np.inf)
        return replace(step, **{key: M})

    monkeypatch.setattr("credible_sdp.solver.solve_newton", skewed)
    report = solve(example_problem, SolverOptions(epsilon=example_problem.epsilon, max_iterations=3))
    with pytest.raises(ValueError, match=f"{key} is not symmetric bit for bit"):
        write_trace(report)


def _numpy_to_json(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a trace")


def _stdlib_line(obj) -> str:
    """The reference encoding of a line's object: the stdlib encoder, compact,
    strict about NaN and infinity, numpy values as Python's."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False, default=_numpy_to_json)


def _builder_objs(report) -> list[dict]:
    """The object of every line of the report's trace, from the builders."""
    prob, state = report.problem, report.initial_state
    objs = [_header_obj(prob, report.options, state, prob.problem_hash)]
    objs += map(_record_obj, report.init_records)
    for snap in report.snapshots:
        objs.append(_iteration_obj(state, snap.state, snap.step))
        objs += map(_record_obj, snap.records)
        state = snap.state
    footer = (report.iterations, report.final_gap, report.budget, report.record_count)
    objs.append(_footer_obj(report.status.value, *footer, report.violation_id))
    return objs


def _with_records(report, edits: dict) -> object:
    """``report`` with loop records replaced: ``edits`` maps (step index,
    catalog position) to the fields that change, or a step index to the
    number of records its block keeps."""
    snaps = list(report.snapshots)
    for where, change in edits.items():
        if isinstance(where, int):
            snaps[where] = replace(snaps[where], records=snaps[where].records[:change])
        else:
            k, j = where
            block = list(snaps[k].records)
            block[j] = replace(block[j], **change)
            snaps[k] = replace(snaps[k], records=block)
    return replace(report, snapshots=snaps)


def _odd_record_reports(report) -> list:
    """Copies of ``report`` in each of which loop records hold what the
    monitor never builds (numpy scalars, ints, ``None`` and strings, other
    detail keys, short blocks) or values where orjson's float notation
    departs from repr's; in the first, one whole column has an id and detail
    keys that an encoder escapes."""
    rec = report.snapshots[1].records
    escaped = {"id": 'I3"\u00e9%s', "detail": {"phi%%": 1.0, "ph\\im\n": False}}
    return [
        _with_records(report, {(k, 2): escaped for k in range(len(report.snapshots))}),
        _with_records(report, {(1, 0): {"measured": np.float64(rec[0].measured)}}),
        _with_records(report, {(2, 3): {"bound": 3}}),
        _with_records(report, {(0, 4): {"measured": -0.0}, (3, 5): {"bound": -0.0}}),
        _with_records(report, {(3, 5): {"measured": 5e-324}, (4, 0): {"detail": {
            "min_eigenvalue_X": 2.5e-310, "min_eigenvalue_Z": rec[0].detail["min_eigenvalue_Z"]}}}),
        _with_records(report, {(1, 6): {"measured": 2.5e-5}, (2, 8): {"detail": {
            "dual_residual": 1.5e-5, "primal_residual": -9.99e-5}}}),
        _with_records(report, {(1, 2): {"id": 'I3"\u00e9%s'}}),
        _with_records(report, {(2, 2): {"detail": {"phi%s": 1.0, "ph\\im\n": 2.0}}}),
        _with_records(report, {(1, 4): {"id": "I4"}}),
        _with_records(report, {(4, 8): {"detail": {"n": 2, "x": None, "note": "tab\there"}}}),
        _with_records(report, {(3, 2): {"detail": {"phim": 1.0, "phi": 2.0}}}),
        _with_records(report, {(3, 10): {"detail": {**rec[10].detail, "extra": True}}}),
        _with_records(report, {(5, 1): {"detail": {"lower_ok": 1.0}}}),
        _with_records(report, {(2, 7): {"passed": np.True_}, (6, 9): {"passed": None}}),
        _with_records(report, {(2, 11): {"measured": 1, "bound": None}}),
        _with_records(report, {2: 1}),
        _with_records(report, {0: 5, 3: 0, len(report.snapshots) - 1: 11}),
    ]


def _strict_report(prob, monkeypatch):
    """A strict run of ``prob`` that stops at its first violated contract."""
    with monkeypatch.context() as mp:
        mp.setattr("credible_sdp.solver.assemble_newton", _negated_rhs)
        report = solve(prob, SolverOptions(epsilon=prob.epsilon, mode="strict"))
    assert report.status is SolveStatus.INVARIANT_VIOLATION
    assert not all(rec.passed for rec in report.snapshots[-1].records)
    return report


def test_every_trace_line_reads_back_as_its_builders_object(example_report, monkeypatch):
    # each written line, read back and re-encoded by the stdlib encoder, is
    # that encoder's line of the builder's object: every float bit, every
    # type and the key order; at n = 16 the directions cross [1e-5, 1e-4),
    # where orjson's notation departs from repr's most, and reach exponents
    # below -9
    large = solve(_workload_problem(16))
    steps = np.concatenate([np.r_[s.step.dX.ravel(), s.step.dp] for s in large.snapshots])
    assert np.any((1e-5 <= np.abs(steps)) & (np.abs(steps) < 1e-4))
    assert 0 < np.abs(steps[steps != 0]).min() < 1e-10
    workloads = [solve(_workload_problem(n, seed)) for n in (2, 8) for seed in (2001, 7919)]
    reports = [
        example_report,
        solve(load_problem(GOLDEN_N6_PROBLEM.read_text())),
        large,
        solve(_workload_problem(16, 7919)),
        *workloads,
        _strict_report(example_report.problem, monkeypatch),
        *_odd_record_reports(example_report),
    ]
    for report in reports:
        expected = "".join(_stdlib_line(obj) + "\n" for obj in _builder_objs(report))
        assert _reencoded(write_trace(report)) == expected.encode()


def test_every_record_line_reads_back_as_its_records_object(example_report):
    # every record of two runs, and init records holding what the monitor
    # never builds, read back as the stdlib encoder's line of _record_obj
    rec = example_report.init_records[0]
    odd = [
        replace(rec, measured=np.float64(rec.measured), passed=np.True_),
        replace(rec, measured=3, bound=-0.0, passed=False),
        replace(rec, id='I"1\u00e9', detail={"note": "tab\there", "n": 2, "x": None}),
    ]
    init = [*odd, *example_report.init_records[len(odd):]]
    reports = [
        replace(example_report, init_records=init),
        solve(load_problem(GOLDEN_N6_PROBLEM.read_text())),
    ]
    checked = 0
    for report in reports:
        lines = _reencoded(write_trace(report)).decode().split("\n")[:-1]
        for obj, line in zip(_builder_objs(report), lines, strict=True):
            if obj["type"] == "record":
                assert line == _stdlib_line(obj)
                checked += 1
    assert checked == sum(len([*r.all_records()]) for r in reports)


#: What writing a line that holds NaN or infinity raises.
OUT_OF_RANGE = "^Out of range float values are not JSON compliant$"


@pytest.mark.parametrize(
    "change,error",
    [
        ({"measured": float("nan")}, ValueError),
        ({"bound": float("inf")}, ValueError),
        ({"measured": np.float64(-np.inf)}, ValueError),
        ({"detail": {"phi": float("nan"), "phim": 1.0}}, ValueError),
        ({"detail": {"opaque": object()}}, TypeError),
        ({"detail": {(1, 2): 1.0}}, TypeError),
    ],
    ids=["nan-measured", "inf-bound", "numpy-inf", "nan-detail", "object", "tuple-key"],
)
def test_a_loop_record_that_cannot_be_written_raises_what_the_encoder_raises(
    example_report, change, error
):
    # orjson's JSONEncodeError is a TypeError
    with pytest.raises(error, match=OUT_OF_RANGE if error is ValueError else None):
        write_trace(_with_records(example_report, {(3, 2): change}))


#: The kinds of line a value is put in by ``_spoiled``, in trace order.
_LINE_KINDS = ("header", "init-record", "dp", "loop-detail", "footer")


def _spoiled(report, kind: str, value) -> object:
    """``report`` with ``value`` in one line of its trace: the header's
    ``init_state.mu``, the first init record's bound, step 2's first dp
    entry, an added detail value of step 3's first record, or the footer's
    ``final_gap`` (the last step's gap)."""
    snaps = list(report.snapshots)
    if kind == "header":
        return replace(report, initial_state=replace(report.initial_state, mu=value))
    if kind == "init-record":
        records = [replace(report.init_records[0], bound=value), *report.init_records[1:]]
        return replace(report, init_records=records)
    if kind == "loop-detail":
        detail = {**snaps[2].records[0].detail, "extra": value}
        return _with_records(report, {(2, 0): {"detail": detail}})
    if kind == "dp":
        step = snaps[1].step
        snaps[1] = replace(snaps[1], step=replace(step, dp=np.array([value, *step.dp[1:]])))
    else:
        snaps[-1] = replace(snaps[-1], state=replace(snaps[-1].state, phi=value))
    return replace(report, snapshots=snaps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", _LINE_KINDS)
def test_a_non_finite_value_in_any_line_raises(example_report, kind, bad):
    # orjson writes NaN and infinity as null; the writer refuses them instead
    for value in [np.float64(bad), np.float32(bad)] if kind == "loop-detail" else [bad]:
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            write_trace(_spoiled(example_report, kind, value))


def test_none_and_the_text_null_are_written_as_they_are(example_report):
    # a line that holds null is searched for NaN and infinity, and has none
    detail = {"x": None, "null": 1.0, "nullable": "null", "nan": None}
    trace = parse_trace(write_trace(_with_records(example_report, {(2, 0): {"detail": detail}})))
    assert list(trace.iterations[2]["records"][0]["detail"].items()) == list(detail.items())


def test_the_first_record_that_cannot_be_written_in_trace_order_raises(example_report):
    # each line is written, and checked, before the next is built: between
    # records of one step and of two, and between lines of each kind
    nan, opaque = {"measured": float("nan")}, {"detail": {"opaque": object()}}
    for edits, error in [
        ({(1, 5): nan, (3, 0): opaque}, ValueError),
        ({(1, 5): opaque, (3, 0): nan}, TypeError),
        ({(2, 7): nan, (2, 3): opaque}, TypeError),
    ]:
        with pytest.raises(error):
            write_trace(_with_records(example_report, edits))
    for first, then in zip(_LINE_KINDS, _LINE_KINDS[1:]):
        for early, late, error in [(math.nan, object(), ValueError), (object(), math.nan, TypeError)]:
            with pytest.raises(error):
                write_trace(_spoiled(_spoiled(example_report, first, early), then, late))


# -- the listing's numbers ---------------------------------------------------------

#: A number token of a listing or a trace line: not part of a name (``F0``).
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.uint64).ravel().tolist()


def _literal_rows(literal: str) -> list[list[str]]:
    """The tokens of a ``[a,b;c,d]`` literal, row by row."""
    assert literal[0] == "[" and literal[-1] == "]", literal
    return [row.split(",") for row in literal[1:-1].split(";")] if literal != "[]" else []


def _assert_reads_back(literal: str, A) -> None:
    """Every token of the literal gives back the stored float64 bits under
    ``float()``: a matrix row by row, a vector as a column."""
    A = np.asarray(A, dtype=float)
    rows = _literal_rows(literal)
    assert len(rows) == len(A)
    assert all(len(row) == (A.shape[1] if A.ndim == 2 else 1) for row in rows)
    assert _bits([float(t) for row in rows for t in row]) == _bits(A)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_mat_literals_read_back_any_float64_bit_for_bit(bits):
    # raw bit patterns reach every exponent, subnormals and both zeros
    a = np.array(bits, dtype=np.uint64).view(np.float64)
    a = a[np.isfinite(a)]
    arrays = [a] if len(a) < 2 else [a, a[: len(a) // 2 * 2].reshape(2, -1)]
    for A, literal in zip(arrays, _mat_literals(*arrays)):
        _assert_reads_back(literal, A)


def _with_neighbours(values) -> list[float]:
    near = [(math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)) for v in values]
    return [x for group in near for x in group if math.isfinite(x)]


#: Where notations meet: the zeros, subnormals, the ends of the float range,
#: the band [1e-5, 1e-4) that orjson writes in fixed notation and repr does
#: not, each decade boundary with its neighbours, and fixed notation whose
#: digits hold another decade's text.
_FLOAT_TABLE = [
    *_with_neighbours([0.0, -0.0, 5e-324, sys.float_info.max, sys.float_info.min]),
    *_with_neighbours([1e-5, 2e-5, 4e-5, 9.99e-5, 1e-4, 1e16]),
    float(2**53), 10.00001, 100.00001234, -10.00001, 1e-06, 1e-10, 1e-100, 1e22, 1e100,
]


def test_mat_literals_read_back_the_notation_boundaries():
    table = np.array(_FLOAT_TABLE)
    for values in (table, -table):
        _assert_reads_back(*_mat_literals(values), values)
        for M in (values.reshape(1, -1), values.reshape(-1, 1)):
            _assert_reads_back(*_mat_literals(M), M)
    for value in _FLOAT_TABLE:  # one at a time: the first and last entries of the text
        _assert_reads_back(*_mat_literals(np.array([value])), [value])
        _assert_reads_back(*_mat_literals(np.array([[value]])), [[value]])
    assert _mat_literals(np.array([])) == ["[]"]


def test_mat_literals_write_matrices_row_major_and_vectors_as_columns():
    M = np.array([[1e-5, 2.5, -0.0], [1e16, 3e-7, 10.00001]])
    assert _mat_literals(M, M.T, M[0], M.astype(">f8")) == [
        "[0.00001,2.5,-0.0;1e16,3e-7,10.00001]",
        "[0.00001,1e16;2.5,3e-7;-0.0,10.00001]",
        "[0.00001;2.5;-0.0]",
        "[0.00001,2.5,-0.0;1e16,3e-7,10.00001]",
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mat_literals_refuse_non_finite_values(bad):
    for A in (np.array([1.0, bad]), np.array([[1.0, bad], [bad, 2.0]])):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _mat_literals(np.eye(2), A)


def test_orjson_writes_the_float_notation_of_traces_and_listings():
    # traces and listings print floats as orjson spells them; an orjson that
    # spells them otherwise must fail here, not as a golden diff
    values = np.array([1e-6, 5e-5, 1e16, 1.5e-300, 0.0001, 1e15, -2.5e22])
    written = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    expected = b"[1e-6,0.00005,1e16,1.5e-300,0.0001,1000000000000000.0,-2.5e22]"
    assert written == expected, f"orjson {orjson.__version__} changed its float notation"


def test_a_report_of_other_float_dtypes_is_written_as_float64(example_problem, monkeypatch):
    # orjson writes a big-endian array's bytes wrongly, a float32 array in
    # float32's digits and refuses a Fortran-ordered one; the builders hand
    # it C-contiguous float64, so the trace holds the float64 bits of the
    # values the report holds
    steps = []

    def float32_second_dp(*args):
        step = solve_newton(*args)
        steps.append(step)
        return replace(step, dp=step.dp.astype(np.float32)) if len(steps) == 2 else step

    monkeypatch.setattr("credible_sdp.solver.solve_newton", float32_second_dp)
    report = solve(example_problem)
    X = np.asfortranarray(report.initial_state.X.astype(">f8"))
    report = replace(report, initial_state=replace(report.initial_state, X=X))
    dp = report.snapshots[1].step.dp
    assert dp.dtype == np.float32 and not X.flags.c_contiguous
    assert report.status is SolveStatus.CONVERGED
    trace = write_trace(report)
    parsed = parse_trace(trace)
    assert _bits(parsed.header["init_state"]["X"]) == _bits(X)
    assert _bits(parsed.iterations[1]["state"]["dp"]) == _bits(dp.astype(float))
    assert check_trace(trace, example_problem).clean


@pytest.mark.parametrize("key", ["dX", "dp"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_write_trace_refuses_non_finite_directions(example_report, key, bad):
    snaps = list(example_report.snapshots)
    step = snaps[1].step
    value = getattr(step, key).copy()
    value[(0,) * value.ndim] = bad  # a diagonal entry, so dX stays symmetric
    snaps[1] = replace(snaps[1], step=replace(step, **{key: value}))
    with pytest.raises(ValueError, match="Out of range float values"):
        write_trace(replace(example_report, snapshots=snaps))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_record_lines_refuse_non_finite_values(bad):
    for field in ("measured", "bound"):
        rec = InvariantRecord("I1", **{"measured": 0.0, "bound": 0.0, field: bad}, passed=True)
        with pytest.raises(ValueError):
            _line(_record_obj(rec))


def _reencoded(trace: bytes) -> bytes:
    """A trace with each line read and written again by ``_stdlib_line``:
    the same bytes for the same values, types and key order, whatever the
    float notation."""
    lines = trace.decode().split("\n")
    assert lines.pop() == ""
    return "".join(_stdlib_line(json.loads(line)) + "\n" for line in lines).encode()


def test_a_fresh_solve_writes_the_cts4_golden_byte_for_byte():
    golden = GOLDEN_CTS4.read_bytes()
    assert write_trace(solve(running_example())) == golden
    # past the header, the lines are the cts-3 golden's, which came from the
    # solver that introduced that schema: every later solver must step, sweep
    # and write with the same arithmetic, but for the fields p and dp
    # determine (P_FIELDS), which moved at rounding level with their factor.
    # That golden was written in repr's notation by the stdlib encoder, so it
    # is its own re-encoding
    cts3 = GOLDEN_CTS3.read_bytes()
    assert _reencoded(cts3) == cts3
    from corpus_digest import field_differences

    ours, theirs = (b"".join(data.splitlines(True)[1:]).decode() for data in (golden, cts3))
    moved = field_differences(theirs, ours)
    assert set(moved) == P_FIELDS - {"header.init_state.p"}
    assert moved["iteration.dp"] <= 1e-12  # the directions moved at rounding level


def test_parse_trace_collects_iteration_blocks(example_trace):
    trace = parse_trace(example_trace)
    assert len(trace.init_records) == 16
    assert [rec["id"] for rec in trace.init_records] == list(INIT_IDS)
    assert len(trace.iterations) == 56
    for block in trace.iterations:
        assert [rec["id"] for rec in block["records"]] == list(LOOP_IDS)


# -- structural rejection ---------------------------------------------------------


def test_parse_rejects_empty_input():
    with pytest.raises(TraceFormatError):
        parse_trace(b"")


def test_parse_rejects_a_trace_that_is_not_utf8(example_trace):
    broken = example_trace.replace(b'"type"', b'"\xfftype"', 1)
    with pytest.raises(TraceFormatError, match="^trace is not valid UTF-8: .* position 2:"):
        parse_trace(broken)


def test_parse_rejects_non_json_line(example_trace):
    lines = trace_lines(example_trace)
    lines[3] = "not json at all"
    with pytest.raises(TraceFormatError):
        parse_trace(reassemble(lines))


@pytest.mark.parametrize(
    "text,message",
    [
        ("{} {}", "line 4 is not valid JSON"),
        ("{},{}", "line 4 is not valid JSON"),
        (None, "line 4 is not valid JSON"),  # a JSON string split over lines 4 and 5
        ("1", "line 4 is not a JSON object"),
    ],
    ids=["two-objects", "two-objects-comma", "split-string", "number"],
)
def test_parse_names_the_line_that_is_not_one_json_object(example_trace, text, message):
    lines = trace_lines(example_trace)
    if text is None:
        cut = lines[3].index('"id":"') + len('"id":"') + 2
        lines[3:4] = [lines[3][:cut], lines[3][cut:]]
    else:
        lines[3] = text
    with pytest.raises(TraceFormatError, match=f"^{message}"):
        parse_trace(reassemble(lines))


def test_parse_refuses_values_whose_line_breaks_cancel():
    # record line 4 split at the comma before "bound": and lines 5 and 6
    # joined by a comma: as many lines as values, and joined by commas the
    # lines are the genuine values, but line 4 alone is not a value
    genuine = trace_lines(GOLDEN_CTS3.read_bytes())
    cut = genuine[3].index(',"bound":')
    lines = [*genuine[:3], genuine[3][:cut], genuine[3][cut + 1:], genuine[4] + "," + genuine[5]]
    lines += genuine[6:]
    assert json.loads("[" + ",".join(lines) + "]") == [json.loads(line) for line in genuine]
    assert orjson_reads_alike(reassemble(lines))  # so orjson reads the lines first
    with pytest.raises(TraceFormatError, match="^line 4 is not valid JSON"):
        parse_trace(reassemble(lines))


def _per_line(trace: bytes) -> list[dict]:
    """The lines of a trace read one by one by ``json.loads`` alone."""
    lines = [line for line in trace.decode("utf-8").split("\n") if line.strip(" \t\r")]
    objs = []
    for lineno, line in enumerate(lines, 1):
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno} is not valid JSON: {exc}") from None
    return objs


@pytest.mark.parametrize(
    "value",
    # a 20-digit integer beside a NaN: on the per-line path it stays the int
    # json reads, as in a problem file that orjson refuses
    [math.nan, [math.nan, 10**20], "caf\u00e9\n"],
    ids=["nan", "20-digit-integer", "escape"],
)
def test_lines_orjson_refuses_read_as_the_per_line_path(value):
    # each refused mid-trace line sends the trace through the per-line read,
    # which reads the same objects and words the same errors
    genuine = trace_lines(GOLDEN_CTS3.read_bytes())
    obj = json.loads(genuine[20])
    obj["detail"]["edited"] = value
    lines = [*genuine[:20], json.dumps(obj), *genuine[21:]]
    trace = reassemble(lines)
    objs = _read_lines(trace)
    assert json.dumps(objs) == json.dumps(_per_line(trace))
    assert type(objs[20]["detail"]["edited"]) is type(value)
    broken = reassemble([*lines[:30], lines[30][:-1], *lines[31:]])
    for read in (_read_lines, _per_line):
        with pytest.raises(TraceFormatError, match="^line 31 is not valid JSON: Expecting ',' delimiter"):
            read(broken)


def test_a_line_that_is_no_object_ends_the_read_with_its_message():
    genuine = trace_lines(GOLDEN_CTS3.read_bytes())
    lines = [*genuine[:20], "[1, 2]", *genuine[21:]]
    assert orjson_reads_alike(reassemble(lines))
    with pytest.raises(TraceFormatError, match="^line 21 is not a JSON object$"):
        _read_lines(reassemble(lines))


def test_orjson_reads_every_line_of_the_goldens_as_the_standard_decoder():
    for path in (GOLDEN_TRACE, GOLDEN_CTS2, GOLDEN_CTS3, GOLDEN_N6):
        trace = path.read_bytes()
        objs = _read_lines(trace)
        assert objs == _per_line(trace)
        assert json.dumps(objs) == json.dumps(_per_line(trace))


def test_parse_reads_json_whitespace_around_a_line(example_trace, example_problem):
    genuine = trace_lines(example_trace)
    padded = [f" \t{line}\t " for line in genuine]
    crlf = [f"{line}\r" for line in genuine]  # CRLF line ends
    for lines in (padded, crlf):
        assert parse_trace(reassemble(lines)) == parse_trace(example_trace)
        assert check_trace(reassemble(lines), example_problem).clean


@pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
def test_only_a_newline_ends_a_trace_line(separator, example_problem):
    # JSON strings may hold these raw; str.splitlines would end a line at them
    lines = GOLDEN_CTS3.read_text(encoding="utf-8").split("\n")
    header = json.loads(lines[0])
    header["tool"] = f"credible-sdp{separator}fork"
    lines[0] = json.dumps(header, ensure_ascii=False)
    trace = "\n".join(lines).encode("utf-8")
    assert separator in trace.decode("utf-8")
    assert parse_trace(trace).header["tool"] == header["tool"]
    assert check_trace(trace, example_problem).clean


def test_parse_rejects_unknown_schema(example_trace):
    bad = edit_line(example_trace, 0, lambda obj: obj.update(schema="cts-99"))
    with pytest.raises(TraceFormatError):
        parse_trace(bad)


def test_parse_rejects_missing_footer(example_trace):
    lines = trace_lines(example_trace)[:-1]
    with pytest.raises(TraceFormatError):
        parse_trace(reassemble(lines))


def test_parse_rejects_header_elsewhere(example_trace):
    lines = trace_lines(example_trace)
    lines.insert(5, lines[0])
    with pytest.raises(TraceFormatError):
        parse_trace(reassemble(lines))


def test_parse_rejects_init_record_after_iterations(example_trace):
    lines = trace_lines(example_trace)
    init_rec = lines[1]  # an initialization record
    lines.insert(len(lines) - 1, init_rec)
    with pytest.raises(TraceFormatError):
        parse_trace(reassemble(lines))


# -- checking a genuine trace -------------------------------------------------------


def test_check_trace_clean_roundtrip(example_trace, example_problem):
    result = check_trace(example_trace, example_problem)
    assert result.clean
    assert result.iterations == 56
    assert result.records_checked == 16 + 56 * 12
    assert "trace OK" in result.describe()


def test_golden_trace_from_an_earlier_solver_checks_clean(example_problem):
    result = check_trace(GOLDEN_TRACE.read_bytes(), example_problem)
    assert result.findings == []
    assert result.iterations == 56
    assert result.records_checked == 16 + 56 * 12


def test_golden_cts2_trace_checks_clean(example_problem):
    data = GOLDEN_CTS2.read_bytes()
    assert parse_trace(data).header["schema"] == "cts-2"
    result = check_trace(data, example_problem)
    assert result.findings == []
    assert result.iterations == 56
    assert result.records_checked == 16 + 56 * 12


def test_golden_cts3_trace_checks_clean(example_problem):
    data = GOLDEN_CTS3.read_bytes()
    assert parse_trace(data).header["schema"] == "cts-3"
    result = check_trace(data, example_problem)
    assert result.findings == []
    assert result.iterations == 56
    assert result.records_checked == 16 + 56 * 12


def test_golden_n6_trace_checks_clean():
    prob = load_problem(GOLDEN_N6_PROBLEM.read_text())
    assert (prob.n, prob.m) == (6, 21)
    result = check_trace(GOLDEN_N6.read_bytes(), prob)
    assert result.findings == []
    assert result.iterations == 30
    assert result.records_checked == 16 + 30 * 12


@pytest.mark.parametrize("to_schema", [LEGACY_SCHEMA, "cts-2", "cts-3", "cts-4"])
def test_a_trace_read_under_the_other_schema_is_refused_or_flagged(
    golden_trace, example_problem, to_schema
):
    # a trace whose header the target schema reads: each older one needs a nu
    trace = GOLDEN_CTS3.read_bytes() if to_schema == LEGACY_SCHEMA else golden_trace
    relabelled = edit_line(trace, 0, lambda o: o.update(schema=to_schema))
    with pytest.raises(TraceFormatError, match="hash"):
        check_trace(relabelled, example_problem)
    # with the hash that schema takes, the lines still do not fit it
    prob = example_problem
    other_hash = _text_hash(prob) if to_schema == LEGACY_SCHEMA else prob.problem_hash
    forged = edit_line(relabelled, 0, lambda o: o.update(problem_hash=other_hash))
    result = check_trace(forged, example_problem)
    assert any(f.kind == "structure" for f in result.findings)
    assert any(f.where == "iteration 1" for f in result.findings)


def test_directions_read_under_the_other_layout_are_unreadable(example_problem):
    # cts-2 to cts-4 share their hash, so only the direction layout tells them
    # apart; each trace is one whose header the other schema reads
    cts2 = GOLDEN_CTS2.read_bytes()
    pairs = ((GOLDEN_CTS3.read_bytes(), "cts-2"), (cts2, "cts-3"), (cts2, "cts-4"))
    for trace, other in pairs:
        relabelled = edit_line(trace, 0, lambda o: o.update(schema=other))
        result = check_trace(relabelled, example_problem)
        errors = [f for f in result.findings if f.kind == "error"]
        assert [f.where for f in errors] == ["iteration 1"]
        assert "unreadable iteration line" in errors[0].message


@pytest.mark.parametrize("length", [4, 2], ids=["n-squared", "one-short"])
@pytest.mark.parametrize("key", ["dX", "dZ"])
def test_a_cts3_direction_of_the_wrong_length_is_unreadable(
    example_trace, example_problem, key, length
):
    idx = find_iteration(example_trace, 5)
    bad = edit_line(example_trace, idx, lambda o: o.update({key: [*o[key], 0.0][:length]}))
    result = check_trace(bad, example_problem)
    errors = [(f.where, f.message) for f in result.findings if f.kind == "error"]
    assert errors == [("iteration 5", "unreadable iteration line: shape (%d,), expected (3,)" % length)]


def test_a_sweep_error_is_reported_at_its_step_after_the_steps_before_it(
    example_trace, example_problem
):
    # squares of a dX entry of 1e200 overflow in the norms of step 3's
    # contracts, which the test configuration turns into an exception
    idx = find_iteration(example_trace, 3)
    bad = edit_line(example_trace, idx, lambda o: o.update(dX=[v * 1e200 for v in o["dX"]]))
    result = check_trace(bad, example_problem)
    errors = [f.where for f in result.findings if f.kind == "error"]
    assert errors == ["iteration 3"]
    assert result.records_checked == 16 + 2 * 12


def _scaled_x0(obj: dict, scale: float) -> None:
    obj["init_state"]["X"] = each_entry(obj["init_state"]["X"], lambda v: v * scale)


#: Edits that carry the replay beyond the float range: (iteration line
#: edited, 0 for the header; the edit; where the replay's errors are).
OVERFLOWS = {
    "dZ-1e308": (3, lambda o: o.update(dZ=with_entry(o["dZ"], 0, 1e308)), ["iteration 3"]),
    "dX-times-1e200": (3, lambda o: o.update(dX=each_entry(o["dX"], lambda v: v * 1e200)), ["iteration 3"]),
    "dp-plus-1e308": (3, lambda o: o.update(dp=each_entry(o["dp"], lambda _: 1e308)), ["iteration 3"]),
    "dp-minus-1e308": (3, lambda o: o.update(dp=each_entry(o["dp"], lambda _: -1e308)), ["iteration 3"]),
    "X0-times-1e200": (0, lambda o: _scaled_x0(o, 1e200), ["init", "iteration 1"]),
}


@pytest.mark.parametrize("name", list(OVERFLOWS))
def test_one_checker_whatever_the_warning_filter(example_trace, example_problem, name):
    line, mutate, errors = OVERFLOWS[name]
    bad = edit_line(example_trace, find_iteration(example_trace, line) if line else 0, mutate)
    findings = {}
    for mode in ("default", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(mode)
            findings[mode] = check_trace(bad, example_problem).findings
        assert caught == []
    assert findings["default"] == findings["error"]
    # the replay stops at the overflow, so the footer's gap is not reached
    assert [(f.kind, f.where) for f in findings["error"]] == [
        *(("error", where) for where in errors), ("footer", "footer")
    ]
    for f in findings["error"][:-1]:
        assert f.message.startswith("checker error: overflow encountered in ")
    assert findings["error"][-1].message.startswith("final_gap: ")


#: What each OVERFLOWS edit's error findings say after numpy's "overflow
#: encountered in": the operation, then the contract and quantity it computed.
OVERFLOW_MESSAGES = {
    "dZ-1e308": ["matmul (I5 scaled dZ)"],
    "dX-times-1e200": ["matmul (I4 deviation from mu*I)"],
    "dp-plus-1e308": ["matmul (I9 primal residual)"],
    "dp-minus-1e308": ["matmul (I9 primal residual)"],
    "X0-times-1e200": ["dot (init-neighborhood deviation from mu*I)", "matmul (I4 deviation from mu*I)"],
}


@pytest.mark.parametrize("name", list(OVERFLOWS))
def test_a_replay_error_names_its_contract_and_quantity(example_trace, example_problem, name):
    line, mutate, _ = OVERFLOWS[name]
    bad = edit_line(example_trace, find_iteration(example_trace, line) if line else 0, mutate)
    errors = [f.message for f in check_trace(bad, example_problem).findings if f.kind == "error"]
    assert errors == [f"checker error: overflow encountered in {m}" for m in OVERFLOW_MESSAGES[name]]


def test_a_step_error_names_its_quantity(example_report):
    state = example_report.initial_state
    step = example_report.snapshots[0].step
    huge = replace(step, dp=np.full_like(step.dp, 1e308))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError) as exc_info:
        take_step(example_report.problem, replace(state, p=np.full_like(state.p, 1e308)), huge)
    assert str(exc_info.value) == "overflow encountered in add (step p + dp)"


@pytest.mark.parametrize(
    "target,mutate,finding",
    [
        ("record", lambda o: o.update(detail=5), ("structure", "iteration 2", "detail is not an object")),
        (
            "record",
            lambda o: o.update(measured=10**400),
            ("recompute", "iteration 2", f"measured: trace has {10**400!r}, recomputation gives "),
        ),
        ("header", lambda o: _scaled_x0(o, 1e155), ("error", "init", "checker error: overflow ")),
        (
            "header",
            lambda o: o["init_state"].update(phi=1e308),
            ("footer", "footer", "budget: the header's gap 1e+308 yields none at epsilon 1e-08"),
        ),
    ],
    ids=["detail-not-an-object", "measured-beyond-float", "init-sweep-raises", "budget-overflows"],
)
def test_each_failure_of_the_checker_is_a_finding(example_trace, example_problem, target, mutate, finding):
    idx = find_record(example_trace, "I3", 2) if target == "record" else 0
    findings = check_trace(edit_line(example_trace, idx, mutate), example_problem).findings
    kind, where, message = finding
    assert any(
        (f.kind, f.where) == (kind, where) and f.message.startswith(message) for f in findings
    ), findings


def test_a_gap_that_yields_no_budget_leaves_the_rest_of_the_footer_checked(
    example_trace, example_problem
):
    # phi / epsilon overflows, so no budget can be formed; the footer's other
    # claims are still each compared with the replay's
    bad = edit_line(example_trace, 0, lambda o: o["init_state"].update(phi=1e308))
    footer = len(trace_lines(bad)) - 1
    claims = dict(status="DivergenceGuard", iterations=3, final_gap=5.0, records=1)
    findings = check_trace(edit_line(bad, footer, lambda o: o.update(claims)), example_problem).findings
    assert not [f for f in findings if f.kind == "error"]
    assert sorted(f.message.split(":")[0] for f in findings if f.kind == "footer") == [
        "budget", "final_gap", "iterations", "records", "status"
    ]


def _text_hash_by_generator(prob) -> str:
    """The cts-1 hash exactly as the first solver wrote it."""
    parts = [f"n={prob.n}", f"m={prob.m}"]
    for name, M in [("F0", prob.f0), *[(f"F{i + 1}", Fi) for i, Fi in enumerate(prob.fs)]]:
        entries = ",".join(f"{v:.17g}" for v in np.asarray(M, dtype=float).ravel())
        parts.append(f"{name}=[{entries}]")
    parts.append("b=[" + ",".join(f"{v:.17g}" for v in np.asarray(prob.b, dtype=float).ravel()) + "]")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def test_text_hash_matches_the_generator_it_replaced(example_problem):
    assert _text_hash(example_problem) == _text_hash_by_generator(example_problem)
    # a directly built problem of the same data carries the same hash
    p = example_problem
    assert _text_hash(SdpProblem(f0=p.f0, fs=list(p.fs), b=p.b)) == _text_hash(p)
    tiny, huge = 5e-324, 1.7976931348623157e308
    odd = np.array([[-0.0, tiny], [-tiny, 1e308]])
    fs = (np.array([[-1e308, 2.2250738585072014e-308 / 3], [0.1, huge]]),)
    prob = SdpProblem(f0=odd, fs=fs, b=np.array([-huge]))
    assert _text_hash(prob) == _text_hash_by_generator(prob)


@pytest.mark.parametrize("field,value", [("epsilon", -1.0), ("mode", "bogus")])
def test_check_trace_rejects_invalid_header_options(example_trace, example_problem, field, value):
    bad = edit_line(example_trace, 0, lambda o: o["options"].update({field: value}))
    with pytest.raises(TraceFormatError, match="options"):
        check_trace(bad, example_problem)


def _count_sym_sqrt(monkeypatch) -> list:
    calls = []

    def counted(S):
        calls.append(S)
        return sym_sqrt(S)

    monkeypatch.setattr("credible_sdp.annotator.sym_sqrt", counted)
    return calls


def test_replay_scales_once_while_z_stays_fixed(example_trace, example_problem, monkeypatch):
    calls = _count_sym_sqrt(monkeypatch)
    assert check_trace(example_trace, example_problem).clean
    assert len(calls) == 1


def test_replay_does_not_rescale_when_a_stored_z_moves(golden_trace, example_problem, monkeypatch):
    # only a cts-1 line stores Z; the replay steps from the recomputed Z,
    # which never moves, so a moved stored Z is flagged but never rescaled
    idx = find_iteration(golden_trace, 55)

    def move_z(obj):
        obj["Z"][0][0] *= 1 + 1e-9

    calls = _count_sym_sqrt(monkeypatch)
    result = check_trace(edit_line(golden_trace, idx, move_z), example_problem)
    assert any(f.kind == "chain" and f.where == "iteration 55" for f in result.findings)
    assert len(calls) == 1


def test_replay_rescales_when_a_stored_dz_moves_z(direction_traces, example_problem, monkeypatch):
    calls = _count_sym_sqrt(monkeypatch)
    for trace in direction_traces:
        idx = find_iteration(trace, 55)
        calls.clear()
        result = check_trace(
            edit_line(trace, idx, lambda o: o.update(dZ=with_entry(o["dZ"], 0, 1e-9))),
            example_problem,
        )
        assert any(f.kind == "recompute" and f.where == "iteration 55" for f in result.findings)
        assert len(calls) == 2


def _off_diagonal_dz(obj: dict, value: float) -> None:
    """dZ := [[0, value], [value, 0]] in either layout of the directions."""
    dZ = each_entry(obj["dZ"], lambda _: 0.0)
    if isinstance(dZ[0], list):
        dZ[0][1] = dZ[1][0] = value
    else:
        dZ[1] = value
    obj["dZ"] = dZ


def test_replay_stops_at_a_step_it_cannot_redo(direction_traces, golden_trace, example_problem):
    # a dZ that makes the next Z indefinite while the gap still shrinks: the
    # loop goes on, and no later point can be derived
    for trace in direction_traces:
        idx = find_iteration(trace, 10)
        bad = edit_line(trace, idx, lambda o: _off_diagonal_dz(o, -0.5))
        errors = [f.where for f in check_trace(bad, example_problem).findings if f.kind == "error"]
        assert errors == ["iteration 11"]
    # a cts-1 replay steps from recomputed points too: a stored Z that no
    # step can come from is flagged where it is stored, and the replay goes on
    idx = find_iteration(golden_trace, 10)
    bad = edit_line(golden_trace, idx, lambda o: o.update(Z=[[-5.0, 0.0], [0.0, 0.2]]))
    findings = check_trace(bad, example_problem).findings
    assert [(f.kind, f.where, f.message) for f in findings] == [
        ("chain", "iteration 10", "Z does not match its recomputation")
    ]


def test_replay_stops_where_the_loop_would(direction_traces, example_problem):
    # a dZ that drives the gap below zero: the loop ends after that step
    # (Converged), so the later lines are steps the run could not have taken
    for trace in direction_traces:
        idx = find_iteration(trace, 10)
        bad = edit_line(
            trace, idx, lambda o: o.update(dZ=with_entry(each_entry(o["dZ"], lambda _: 0.0), 0, -5.0))
        )
        result = check_trace(bad, example_problem)
        assert not any(f.kind == "error" for f in result.findings)
        assert (
            f"the loop stops after iteration 10 (Converged), but the trace goes on to iteration "
            f"{len(parse_trace(trace).iterations)}"
        ) in [f.message for f in result.findings]


def test_check_trace_rejects_wrong_problem(example_trace):
    other = build_problem(
        np.eye(2),
        [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)],
        [0.5, -0.25, 1.0],
    )
    with pytest.raises(TraceFormatError, match="hash"):
        check_trace(example_trace, other)


def test_check_trace_rejects_a_problem_replaced_from_its_own(example_trace, example_problem):
    # a replaced field gets its own hash: the trace does not fit the new b
    changed = replace(example_problem, b=1.01 * example_problem.b)
    with pytest.raises(TraceFormatError, match="problem hash mismatch"):
        check_trace(example_trace, changed)


# -- tamper detection -----------------------------------------------------------------


def finding_ids(result):
    return [(f.kind, f.record_id) for f in result.findings]


def test_check_flags_tampered_measured_value(example_trace, example_problem):
    idx = find_record(example_trace, "I4", 7)
    bad = edit_line(example_trace, idx, lambda o: o.update(measured=o["measured"] * 2.0))
    result = check_trace(bad, example_problem)
    assert not result.clean
    assert any(f.kind == "recompute" and f.record_id == "I4" for f in result.findings)


def test_check_flags_flipped_verdict(example_trace, example_problem):
    idx = find_record(example_trace, "I8", 3)
    bad = edit_line(example_trace, idx, lambda o: o.update(passed=False))
    result = check_trace(bad, example_problem)
    assert any(f.kind == "verdict" and f.record_id == "I8" for f in result.findings)


def test_check_flags_tampered_anchor_text(golden_trace, example_problem):
    # only a cts-1 record stores its anchor
    idx = find_record(golden_trace, "I3", 1)
    bad = edit_line(golden_trace, idx, lambda o: o.update(anchor="phi-0.99*phim<0"))
    result = check_trace(bad, example_problem)
    assert any(f.record_id == "I3" for f in result.findings)


def test_check_flags_tampered_detail_value(example_trace, example_problem):
    idx = find_record(example_trace, "I9", 2)
    bad = edit_line(
        example_trace, idx,
        lambda o: o["detail"].update(primal_residual=o["detail"]["primal_residual"] + 1e-3),
    )
    result = check_trace(bad, example_problem)
    assert any(f.kind == "recompute" and f.record_id == "I9" for f in result.findings)


#: Edits of one line that equality alone cannot see (a value of another
#: type that == equates), or that leave a line's values equal: each with the
#: line it edits (record id or None for the iteration line, iteration) and
#: the findings (kind, where, record id, message) it gives.
_TYPE_SWAPS = {
    "passed true->1": (("I8", 3), lambda o: o.update(passed=1), [
        ("structure", "iteration 3", "I8", "passed: trace has 1, expected True"),
    ]),
    "detail true->1": (("I2", 4), lambda o: o["detail"].update(lower_ok=1), [
        ("structure", "iteration 4", "I2", "detail.lower_ok: trace has 1, expected True"),
    ]),
    "detail float->true": (("I3", 2), lambda o: o["detail"].update(phi=True), [
        ("structure", "iteration 2", "I3",
         "detail.phi: trace has True, expected 0.05152840213714212"),
    ]),
    "measured 0.0->false": (("init-sigma-constant", 0), lambda o: o.update(measured=False), [
        ("structure", "init", "init-sigma-constant", "measured: trace has False, expected 0.0"),
    ]),
    # a JSON int may stand for a float of its value: the exact match refuses
    # it, and the diff accepts it
    "measured 0.0->0": (("init-sigma-constant", 0), lambda o: o.update(measured=0), []),
    "detail 1->1.0": (("init-fi-symmetric", 0), lambda o: o["detail"].update(worst_index=1.0), [
        ("structure", "init", "init-fi-symmetric", "detail.worst_index: trace has 1.0, expected 1"),
    ]),
    "iteration 5->5.0": ((None, 5), lambda o: o.update(iteration=5.0), [
        ("structure", "iteration 5", None, "iteration: trace has 5.0, expected 5"),
    ]),
    "measured NaN": (("I4", 7), lambda o: o.update(measured=float("nan")), [
        ("recompute", "iteration 7", "I4",
         "measured: trace has nan, recomputation gives 2.3054374261323624e-18"),
    ]),
    "detail NaN": (("I7", 7), lambda o: o["detail"].update(lhs=float("nan")), [
        ("recompute", "iteration 7", "I7",
         "detail.lhs: trace has nan, recomputation gives 0.01222793136652881"),
    ]),
    "detail key added": (("I5", 6), lambda o: o["detail"].update(extra=0.0), [
        ("structure", "iteration 6", "I5", "unexpected key detail.extra"),
    ]),
    "detail key removed": (("I9", 6), lambda o: o["detail"].pop("dual_residual"), [
        ("structure", "iteration 6", "I9", "detail.dual_residual is missing"),
    ]),
}


@pytest.mark.parametrize("name", _TYPE_SWAPS)
def test_a_type_swap_gets_the_findings_of_the_diff(example_trace, example_problem, name):
    (rid, k), mutate, expected = _TYPE_SWAPS[name]
    idx = find_iteration(example_trace, k) if rid is None else find_record(example_trace, rid, k)
    result = check_trace(edit_line(example_trace, idx, mutate), example_problem)
    assert [(f.kind, f.where, f.record_id, f.message) for f in result.findings] == expected


@pytest.mark.parametrize(
    "stored, expected",
    [
        ({"passed": 1}, {"passed": True}),
        ({"passed": 0}, {"passed": False}),
        ({"passed": 0.0}, {"passed": False}),
        ({"iteration": 5.0}, {"iteration": 5}),
        ({"measured": 1}, {"measured": 1.0}),
        ({"detail": {"x": True}}, {"detail": {"x": 1.0}}),
        ({"detail": {"x": 1.0, "y": True}}, {"detail": {"x": True, "y": 1.0}}),
        ({"detail": {"x": 0.5, "y": 0.5}}, {"detail": {"x": 0.5}}),
        ({"detail": {}}, {"detail": {"x": 0.5}}),
        ({"detail": []}, {"detail": {}}),
        ({"measured": float("nan")}, {"measured": float("nan")}),
        ({"id": "I1"}, {"id": "I1", "passed": True}),
        ({"passed": True, "id": "I1"}, {"id": "I1", "passed": True}),
        ({"bound": -0.0}, {"bound": 0.0}),
        ({"id": "I3\ud800"}, {"id": "I3"}),
        ({"measured": 2**64}, {"measured": 1.8446744073709552e19}),
        ({"measured": 10**20}, {"measured": 1e20}),
        ({"measured": 1.0}, {"measured": float("inf")}),
        ({"detail": {"x": float("nan")}}, {"detail": {"x": None}}),
    ],
)
def test_the_exact_match_refuses_a_type_swap_or_a_key_change(stored, expected):
    # each goes to the diff, whose findings the trace-level cases above pin;
    # what the writer refuses, on either side, is refused without raising
    assert not _identical(stored, expected)


@pytest.mark.parametrize(
    "stored, expected, close",
    [
        (1.0, 1.0 + 1e-13, True),
        (1.0, 1.0 + 1e-11, False),
        (0.0, -0.0, True),
        (math.inf, math.inf, True),
        (math.inf, -math.inf, False),
        (1e308, math.inf, False),
        (1e308, -1e308, False),
        (math.nan, math.nan, False),
        (0.0, 5e-324, False),
    ],
)
def test_one_closeness_rule_decides_numbers_and_arrays_alike(stored, expected, close):
    assert _close(stored, expected) is close
    assert _close([[stored]], np.array([[expected]])) is close


_JSON_VALUES = st.recursive(
    st.sampled_from([1, 1.0, True, None, 0.0, -0.0, float("nan")]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_JSON_VALUES, st.data())
def test_what_the_exact_match_accepts_the_diff_accepts(expected, data):
    # the stored value is the expected one, its JSON round trip, or any other
    stored = data.draw(
        st.sampled_from([expected, json.loads(json.dumps(expected))]) | _JSON_VALUES
    )
    findings = []
    if _identical(stored, expected):
        _diff(stored, expected, "here", None, findings)
        assert findings == []


def test_the_lines_of_genuine_traces_take_the_exact_match(example_report, monkeypatch):
    # every record block and every iteration line without its directions is
    # the writer's line of its builder's object, so a clean check sends only
    # the header and footer through the diff: a builder whose order the
    # replay does not keep would send every line there
    prob = example_report.problem
    reports = [
        example_report,
        solve(_workload_problem(8)),
        solve(_workload_problem(16)),
        _strict_report(prob, monkeypatch),
        solve(prob, SolverOptions(epsilon=prob.epsilon, max_iterations=3)),
    ]
    for report in reports:
        data = write_trace(report)
        trace = parse_trace(data)
        assert _identical(trace.init_records, [*map(_record_obj, report.init_records)])
        prev = report.initial_state
        for block, snap in zip(trace.iterations, report.snapshots, strict=True):
            line = {key: v for key, v in block["state"].items() if key not in _DIRECTIONS}
            assert _identical(line, _iteration_obj(prev, snap.state, None))
            assert _identical(block["records"], [*map(_record_obj, snap.records)])
            prev = snap.state
        diffed = []
        with monkeypatch.context() as patch:
            patch.setattr(
                "credible_sdp.annotator._diff", lambda stored, exp, where, *a, **k: diffed.append(where)
            )
            assert check_trace(data, report.problem).clean
        assert diffed == ["header", "footer"]


def test_check_flags_broken_iterate_chain(golden_trace, example_problem):
    # only a cts-1 line stores X
    idx = find_iteration(golden_trace, 5)

    def bump_x(obj):
        obj["X"][0][0] += 1e-5

    bad = edit_line(golden_trace, idx, bump_x)
    result = check_trace(bad, example_problem)
    # the replay steps from the recomputed X, so the stored one is flagged
    # where it is stored, and nowhere else
    assert [(f.kind, f.where, f.message) for f in result.findings] == [
        ("chain", "iteration 5", "X does not match its recomputation")
    ]


def test_check_flags_tampered_scalar_recompute(golden_trace, example_problem):
    # only a cts-1 line stores phi
    idx = find_iteration(golden_trace, 9)
    bad = edit_line(golden_trace, idx, lambda o: o.update(phi=o["phi"] * (1 + 1e-6)))
    result = check_trace(bad, example_problem)
    assert any(f.kind == "recompute" and f.where == "iteration 9" for f in result.findings)


def test_check_flags_dropped_record(example_trace, example_problem):
    idx = find_record(example_trace, "I11", 4)
    lines = trace_lines(example_trace)
    del lines[idx]
    result = check_trace(reassemble(lines), example_problem)
    assert any(f.kind == "catalog" for f in result.findings)
    assert any(f.kind == "footer" for f in result.findings)  # record count is off too


def test_check_flags_tampered_footer(example_trace, example_problem):
    last = len(trace_lines(example_trace)) - 1
    for field, value in [("iterations", 55), ("budget", 57), ("status", "DivergenceGuard"),
                         ("final_gap", 2e-8)]:
        bad = edit_line(example_trace, last, lambda o, f=field, v=value: o.update({f: v}))
        result = check_trace(bad, example_problem)
        assert any(f.kind == "footer" for f in result.findings), field


def test_check_flags_tampered_header_options(example_trace, example_problem):
    bad = edit_line(example_trace, 0, lambda o: o["options"].update(sigma=0.74))
    result = check_trace(bad, example_problem)
    assert not result.clean


def test_check_flags_tampered_header_init_state(example_trace, example_problem):
    def bump(obj):
        obj["init_state"]["phi"] *= 1 + 1e-6

    bad = edit_line(example_trace, 0, bump)
    result = check_trace(bad, example_problem)
    assert any(f.record_id == "init-phi-definition" for f in result.findings)


def test_check_flags_header_dimension_lie(example_trace, example_problem):
    bad = edit_line(example_trace, 0, lambda o: o.update(m=4))
    result = check_trace(bad, example_problem)
    assert any(f.where == "header" for f in result.findings)


@pytest.mark.parametrize(
    "field,value",
    [("gap_ceiling", 0.2), ("equality_tol", 1e300), ("pd_margin", 0.5), ("lsqr_tol", 1e-6)],
)
def test_check_holds_a_trace_to_the_catalog_tolerances(
    example_trace, golden_trace, example_problem, field, value
):
    # a trace cannot loosen (or tighten) the rules it is checked by; a cts-2
    # header does not state lsqr_tol at all, so there it is an unexpected key
    # (and "unexpected key options.lsqr_tol" is the finding's message)
    for trace in (example_trace, golden_trace):
        bad = edit_line(trace, 0, lambda o: o["options"].update({field: value}))
        result = check_trace(bad, example_problem)
        assert not result.clean
        assert any(f.where == "header" and f"options.{field}" in f.message for f in result.findings)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(unexpected=0.0),
        lambda o: o.update(vectorization=o["vectorization"] + "x"),
        lambda o: o.pop("tool"),
        lambda o: o.pop("backend"),
        lambda o: o.update(tool=1),
    ],
    ids=["extra-key", "vectorization", "no-tool", "no-backend", "tool-not-a-string"],
)
def test_check_flags_header_structure(example_trace, example_problem, mutate):
    result = check_trace(edit_line(example_trace, 0, mutate), example_problem)
    assert any(f.kind == "structure" and f.where == "header" for f in result.findings)


def test_check_accepts_any_writer_name(example_trace, example_problem):
    def rename(obj):
        obj["tool"] = "credible-sdp 9.9"
        obj["backend"] = "numpy.linalg (eigh, lstsq)"

    assert check_trace(edit_line(example_trace, 0, rename), example_problem).clean


@pytest.mark.parametrize(
    "section,key,value", [("options", "nu", 0.4714), ("init_state", "sigma", 0.75)]
)
def test_a_cts4_header_that_states_an_older_key_has_one_finding(
    example_trace, example_problem, section, key, value
):
    bad = edit_line(example_trace, 0, lambda o: o[section].update({key: value}))
    findings = check_trace(bad, example_problem).findings
    assert [(f.kind, f.where, f.message) for f in findings] == [
        ("structure", "header", f"unexpected key {section}.{key}")
    ]


@pytest.mark.parametrize("golden", [GOLDEN_TRACE, GOLDEN_CTS2, GOLDEN_CTS3], ids=lambda p: p.stem)
def test_an_older_header_states_nu_as_a_positive_number_and_nothing_checks_more(
    example_problem, golden
):
    data = golden.read_bytes()
    assert parse_trace(data).header["schema"] != TRACE_SCHEMA
    edits = [lambda o: o.pop("nu"), lambda o: o.update(nu="0.4714"),
             lambda o: o.update(nu=-1), lambda o: o.update(nu=10**400)]
    for edit in edits:
        with pytest.raises(TraceFormatError, match="^trace header options are invalid: "):
            check_trace(edit_line(data, 0, lambda o: edit(o["options"])), example_problem)
    # no step or contract reads an older header's nu, so any positive number checks clean
    nudged = edit_line(data, 0, lambda o: o["options"].update(nu=o["options"]["nu"] * (1 + 1e-6)))
    assert check_trace(nudged, example_problem).findings == []


@pytest.mark.parametrize(
    "section,field,value",
    [
        ("init_state", "mu", 10**400),
        ("options", "epsilon", 10**400),
        ("init_state", "mu", "0.05"),
        ("init_state", "p", [0.1, 0.2]),
        ("init_state", "X", [[True, False], [False, True]]),
        ("init_state", "X", [[0.0995, True], [0.0359, 0.2248]]),
        ("init_state", "p", [1, True, 0.5]),
        ("init_state", "mu", float("nan")),
        ("init_state", "X", [[0.0995, float("inf")], [0.0359, 0.2248]]),
        ("options", "sigma", float("-inf")),
    ],
    ids=["mu-beyond-float", "epsilon-beyond-float", "mu-string", "p-short", "X-bool", "X-one-bool",
         "p-one-bool", "mu-nan", "X-one-inf", "sigma-inf"],
)
def test_check_refuses_header_numbers_the_writer_cannot_emit(
    example_trace, example_problem, section, field, value
):
    bad = edit_line(example_trace, 0, lambda o: o[section].update({field: value}))
    with pytest.raises(TraceFormatError, match=section):
        check_trace(bad, example_problem)


@pytest.mark.parametrize(
    "keys,mutate",
    [
        (("dX", "dX"), lambda v: each_entry(v, str)),
        (("p", "dp"), lambda v: [[x] for x in v]),
        (("Z", "dZ"), lambda v: each_entry(v, bool)),
        (("X", "dX"), lambda v: with_entry(v, 1, True)),
        (("X", "dX"), lambda v: with_entry(v, 1, float("nan"))),
        (("p", "dp"), lambda v: with_entry(v, 0, float("inf"))),
    ],
    ids=["dX-strings", "p-column", "Z-bools", "dX-one-bool", "dX-one-nan", "dp-one-inf"],
)
def test_check_flags_iteration_arrays_the_writer_cannot_emit(
    direction_traces, golden_trace, example_problem, keys, mutate
):
    # the array on a cts-1 line, and the direction of the same kind on a
    # cts-4 and a cts-2 line
    pairs = zip((golden_trace, *direction_traces), (keys[0], keys[1], keys[1]))
    for trace, key in pairs:
        idx = find_iteration(trace, 5)
        bad = edit_line(trace, idx, lambda o: o.update({key: mutate(o[key])}))
        result = check_trace(bad, example_problem)
        assert any(f.kind == "error" and f.where == "iteration 5" for f in result.findings), key


@pytest.mark.parametrize(
    "target,mutate",
    [
        ("record", lambda o: o.update(measured=float("inf"))),
        ("record", lambda o: o["detail"].update(min_eigenvalue_X=float("inf"))),
        ("footer", lambda o: o.update(final_gap=float("inf"))),
    ],
    ids=["measured", "detail", "final-gap"],
)
def test_check_flags_infinite_values(example_trace, example_problem, target, mutate):
    idx = find_line(
        example_trace,
        lambda o: o.get("type") == target and o.get("id", "I1") == "I1" and o.get("iteration", 1) == 1,
    )
    assert not check_trace(edit_line(example_trace, idx, mutate), example_problem).clean


def _negated_rhs(prob, state, sigma, scaling):
    return -assemble_newton(prob, state, sigma, scaling)


#: Options that end a solve of the example in each status other than
#: Converged; every run but the capped one steps along a negated Newton
#: right-hand side, so the gap grows and loop contracts fail.
NON_CONVERGED = {
    "IterationCap": {"max_iterations": 5},
    "DivergenceGuard": {},
    "InvariantViolation": {"mode": "strict"},
}


@pytest.fixture(scope="module")
def traces_by_status(example_problem, example_trace):
    traces = {"Converged": example_trace}
    for status, options in NON_CONVERGED.items():
        with pytest.MonkeyPatch.context() as mp:
            if status != "IterationCap":
                mp.setattr("credible_sdp.solver.assemble_newton", _negated_rhs)
            report = solve(example_problem, SolverOptions(epsilon=example_problem.epsilon, **options))
        assert report.status.value == status
        traces[status] = write_trace(report)
    return traces


@pytest.mark.parametrize("status", list(NON_CONVERGED))
def test_genuine_trace_of_every_status_checks_clean(traces_by_status, example_problem, status):
    result = check_trace(traces_by_status[status], example_problem)
    assert result.findings == []


@pytest.mark.parametrize("status", ["Converged", *NON_CONVERGED])
def test_check_names_the_contracts_a_clean_trace_records_as_failed(
    traces_by_status, example_problem, status
):
    trace = parse_trace(traces_by_status[status])
    records = trace.init_records + [rec for block in trace.iterations for rec in block["records"]]
    result = check_trace(traces_by_status[status], example_problem)
    assert result.clean
    assert result.failed_ids == sorted({rec["id"] for rec in records if not rec["passed"]})
    assert result.describe().startswith("trace OK") == (not result.failed_ids)


@pytest.mark.parametrize("status", ["Converged", *NON_CONVERGED])
def test_the_replay_derives_the_exit_of_the_run(traces_by_status, example_problem, status, monkeypatch):
    replays = []

    def spy(trace, replay, findings):
        replays.append(replay)
        return _check_footer(trace, replay, findings)

    monkeypatch.setattr("credible_sdp.annotator._check_footer", spy)
    trace = traces_by_status[status]
    assert check_trace(trace, example_problem).clean
    [replay] = replays
    footer = parse_trace(trace).footer
    assert replay.status.value == status
    assert (replay.violation_id, replay.budget, replay.iterations) == (
        footer.get("violation_id"), footer["budget"], footer["iterations"]
    )


def test_a_cut_down_report_states_the_exit_of_its_steps(example_report, example_problem):
    cut = replace(example_report, snapshots=example_report.snapshots[:3])
    assert example_report.status is SolveStatus.CONVERGED
    assert cut.status is SolveStatus.ITERATION_CAP and cut.violation_id is None
    assert cut.final_gap > cut.options.epsilon and cut.budget == example_report.budget
    trace = write_trace(cut)
    assert parse_trace(trace).footer["status"] == "IterationCap"
    assert check_trace(trace, example_problem).findings == []


def _claim_passing_violation(footer: dict, last_records: list[dict]) -> None:
    footer["violation_id"] = next(rec["id"] for rec in last_records if rec["passed"])


def _claim_later_violation(footer: dict, last_records: list[dict]) -> None:
    # strict mode stops at the first failed record, so only that one may be named
    failed = [rec["id"] for rec in last_records if not rec["passed"]]
    assert len(failed) > 1
    footer["violation_id"] = failed[1]


def _claim_audit_violation(footer: dict, last_records: list[dict]) -> None:
    # audit mode never stops on a failed record, whichever one is named
    footer.update(
        status="InvariantViolation",
        violation_id=next(rec["id"] for rec in last_records if not rec["passed"]),
    )


@pytest.mark.parametrize(
    "status,forge",
    [
        ("InvariantViolation", _claim_passing_violation),
        ("InvariantViolation", _claim_later_violation),
        ("DivergenceGuard", _claim_audit_violation),
        ("Converged", lambda footer, _: footer.update(status="DivergenceGuard")),
        ("Converged", lambda footer, _: footer.update(status="IterationCap")),
        ("IterationCap", lambda footer, _: footer.update(status="Converged")),
    ],
    ids=[
        "violation-id-names-a-passing-record",
        "violation-id-names-a-later-failed-record",
        "violation-in-audit-mode",
        "divergence-without-growth",
        "cap-after-convergence",
        "converged-above-epsilon",
    ],
)
def test_check_flags_false_status_claims(traces_by_status, example_problem, status, forge):
    trace = traces_by_status[status]
    last_records = parse_trace(trace).iterations[-1]["records"]
    bad = edit_line(trace, len(trace_lines(trace)) - 1, lambda o: forge(o, last_records))
    result = check_trace(bad, example_problem)
    assert any(f.kind == "footer" for f in result.findings), result.describe()


def test_check_flags_steps_after_the_loop_would_have_stopped(example_problem):
    # a solver that ignores its divergence guard: the gap grows on step 1,
    # yet the run goes on to the cap and says so in its footer; the checker
    # shares the loop and its exit rule, so only the run is patched
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("credible_sdp.solver.assemble_newton", _negated_rhs)
        mp.setattr("credible_sdp.solver.step_exit", lambda *args: None)
        report = solve(example_problem, SolverOptions(epsilon=example_problem.epsilon, max_iterations=3))
        assert report.status.value == "IterationCap" and report.iterations == 3
        trace = write_trace(report)
    result = check_trace(trace, example_problem)
    messages = [f.message for f in result.findings if f.kind == "footer"]
    assert "the loop stops after iteration 1 (DivergenceGuard), but the trace goes on to iteration 3" in messages
    assert "status: trace has 'IterationCap', expected 'DivergenceGuard'" in messages


#: Header strings that name the software that wrote a trace: any string passes.
SOFTWARE_NAMES = (("tool",), ("backend",))


def _structural_mutations(obj: dict, path: tuple = ()):
    """(label, mutate) pairs: delete each key, add one key to each object,
    flip each bool, edit each string but the software names and put a list
    and an object in its place, at every depth of ``obj``."""

    def at(root, keys):
        for key in keys:
            root = root[key]
        return root

    yield f"add key under {path}", lambda root: at(root, path).update(unexpected=0.0)
    for key, value in obj.items():
        here = path + (key,)
        yield f"delete {here}", lambda root, p=path, k=key: at(root, p).pop(k)
        if isinstance(value, bool):
            yield f"flip {here}", lambda root, p=path, k=key: at(root, p).update({k: not at(root, p)[k]})
        elif isinstance(value, str):
            if here not in SOFTWARE_NAMES:
                yield f"edit {here}", lambda root, p=path, k=key: at(root, p).update({k: at(root, p)[k] + "x"})
            for label, other in (("list", [value]), ("object", {"value": value})):
                yield f"{label} at {here}", lambda root, p=path, k=key, o=other: at(root, p).update({k: o})
        elif isinstance(value, dict):
            yield from _structural_mutations(value, here)


def _detected(trace: bytes, prob) -> bool:
    try:
        return not check_trace(trace, prob).clean
    except TraceFormatError:
        return True


STRUCTURE_TARGETS = {
    "header": lambda trace: 0,
    "iteration line": lambda trace: find_iteration(trace, 5),
    "loop record": lambda trace: find_record(trace, "I11", 5),
    "footer": lambda trace: len(trace_lines(trace)) - 1,
}


@pytest.mark.parametrize("target", list(STRUCTURE_TARGETS))
def test_check_flags_structural_tampering(example_trace, golden_trace, example_problem, target):
    for trace in (example_trace, golden_trace):
        idx = STRUCTURE_TARGETS[target](trace)
        mutations = list(_structural_mutations(json.loads(trace_lines(trace)[idx])))
        assert len(mutations) >= 6
        missed = [
            label for label, mutate in mutations
            if not _detected(edit_line(trace, idx, mutate), example_problem)
        ]
        assert not missed, f"undetected: {missed}"


# -- edits of the cts-3 golden, drawn at random ----------------------------------

_CTS3 = GOLDEN_CTS3.read_bytes()
_CTS3_LINES = trace_lines(_CTS3)


def _line_places() -> tuple[list[str], dict[str, list[int]]]:
    """Per line of the cts-3 golden, where the checker reports a finding on
    it (``header``, ``init`` for an initialization record, ``iteration k``
    for the iteration line k and its records, ``footer``), and the lines of
    each kind."""
    places, by_kind, block = [], {}, "init"
    for i, line in enumerate(_CTS3_LINES):
        kind = json.loads(line)["type"]
        if kind == "iteration":
            block = f"iteration {json.loads(line)['iteration']}"
        elif kind == "record":
            kind = "init record" if block == "init" else "loop record"
        places.append(kind if kind in ("header", "footer") else block)
        by_kind.setdefault(kind, []).append(i)
    return places, by_kind


_CTS3_PLACES, _CTS3_BY_KIND = _line_places()

#: Header values the initialization records restate or read: an edit of one
#: shows at ``init``. Every other header value shows at ``header``.
_SHOWN_AT_INIT = {
    ("init_state", "mu"), ("init_state", "phi"), ("init_state", "phim"),
    ("options", "epsilon"), ("options", "sigma"),
}


def _may_check_clean(place: str, path: tuple, schema: str) -> bool:
    """Whether an edit at ``path`` may check clean: a stored direction is the
    step itself and the stored start (X, Z, p) the run's input, so a change
    to either can leave every claim true; no contract reads the ``options.nu``
    of a schema older than ``cts-4`` (criterion 7's ``_UNCHECKED``)."""
    if place == "header":
        exempt = {("init_state", "X"), ("init_state", "Z"), ("init_state", "p")}
        return path[:2] in exempt or (schema != TRACE_SCHEMA and path[:2] == ("options", "nu"))
    return place.startswith("iteration") and path[0] in _DIRECTIONS


def _leaves(obj, path: tuple = ()):
    """The path of every value in ``obj`` that is not an object or array."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _at(obj, path: tuple):
    for key in path:
        obj = obj[key]
    return obj


def _check_or_refuse(trace: bytes, prob):
    """The checker's report on ``trace``, or the TraceFormatError refusing it;
    any other exception fails the test, and so does any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = check_trace(trace, prob)
        except TraceFormatError as exc:
            result = exc
    assert caught == []
    if not isinstance(result, TraceFormatError):
        # an error finding is the replay's, at the start or at a step
        assert all(
            f.where == "init" or f.where.startswith("iteration ")
            for f in result.findings if f.kind == "error"
        ), result.findings
    return result


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 5e-324, 0.0, -0.0]),
    st.integers(-10**6, 10**6),
)
_RELATIVE = st.floats(-1e-3, 1e-3).filter(bool)
_OTHER_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
)


@st.composite
def _field_edits(draw):
    """(line, path, value): a leaf of one line of the cts-3 golden and the
    value put in its place: a number (at any magnitude, or a relative nudge
    of the stored one) or a value of another type."""
    # loop records, which hold most of a trace's claims, twice as often
    kind = draw(st.sampled_from(["loop record", *_CTS3_BY_KIND]))
    idx = draw(st.sampled_from(_CTS3_BY_KIND[kind]))
    obj = json.loads(_CTS3_LINES[idx])
    path = draw(st.sampled_from(list(_leaves(obj))))
    old = _at(obj, path)
    values = {"number": _NUMBERS, "other type": _OTHER_TYPES}
    if type(old) is float:
        values["nudge"] = _RELATIVE.map(lambda r: old * (1 + r))
    # a number twice as often as a value of another type
    choice = draw(st.sampled_from(["number", *values]))
    return idx, path, draw(values[choice])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_field_edits())
def test_a_drawn_field_edit_is_a_finding_where_it_was_made(example_problem, edit):
    idx, path, value = edit
    obj = json.loads(_CTS3_LINES[idx])
    old = _at(obj, path)
    _at(obj, path[:-1])[path[-1]] = value
    lines = list(_CTS3_LINES)
    lines[idx] = json.dumps(obj)
    result = _check_or_refuse(reassemble(lines), example_problem)
    place = _CTS3_PLACES[idx]
    if _may_check_clean(place, path, "cts-3") or isinstance(result, TraceFormatError):
        return
    if {type(value), type(old)} <= {int, float}:
        # a number is a finding where it was stored, unless within CHECK_RTOL
        if not _close(float(value), float(old)):
            if place == "header" and path[:2] in _SHOWN_AT_INIT:
                place = "init"
            assert place in {f.where for f in result.findings}, (path, value, result.findings)
    elif (type(value), value) != (type(old), old) and not (
        path in SOFTWARE_NAMES and isinstance(value, str)
    ):
        assert not result.clean, (path, value)


@st.composite
def _line_edits(draw):
    """The cts-3 golden with one line deleted, duplicated, swapped with
    another or truncated, or with every line from one on cut off."""
    lines = list(_CTS3_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate line", "truncate trace"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "truncate line":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        lines = lines[:i]
    return reassemble(lines)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_line_edits())
def test_a_drawn_line_edit_is_refused_or_a_finding(example_problem, trace):
    result = _check_or_refuse(trace, example_problem)
    if trace != _CTS3:
        assert isinstance(result, TraceFormatError) or not result.clean


#: Keys only a cts-1 line carries, by line kind.
CTS1_ONLY_KEYS = [
    ("iteration line", key) for key in ("Xm", "Zm", "pm", "X", "Z", "p", "mu", "phi", "phim")
] + [("loop record", key) for key in ("anchor", "phase", "iteration")]


@pytest.mark.parametrize("target,key", CTS1_ONLY_KEYS)
def test_a_cts1_key_on_a_cts2_line_is_unexpected(example_trace, golden_trace, example_problem, target, key):
    value = json.loads(trace_lines(golden_trace)[STRUCTURE_TARGETS[target](golden_trace)])[key]
    idx = STRUCTURE_TARGETS[target](example_trace)
    result = check_trace(edit_line(example_trace, idx, lambda o: o.update({key: value})), example_problem)
    assert [(f.kind, f.message) for f in result.findings] == [("structure", f"unexpected key {key}")]


@pytest.mark.parametrize("rid", [["I3"], {"id": "I3"}], ids=["array", "object"])
def test_an_unhashable_record_id_is_unknown_and_the_replay_goes_on(
    example_trace, example_problem, rid
):
    idx = find_record(example_trace, "I3", 1)
    result = check_trace(edit_line(example_trace, idx, lambda o: o.update(id=rid)), example_problem)
    ids = list(LOOP_IDS)
    assert [(f.kind, f.where, f.message) for f in result.findings] == [
        (
            "catalog",
            "iteration 1",
            f"record ids {[rid if i == 'I3' else i for i in ids]} do not match the catalog {ids}",
        ),
        ("catalog", "iteration 1", f"unknown record id {rid!r}"),
    ]
    assert result.records_checked == check_trace(example_trace, example_problem).records_checked


@pytest.mark.parametrize("value", ["no", 1, [0]], ids=repr)
def test_check_requires_a_bool_verdict(example_trace, example_problem, value):
    idx = find_record(example_trace, "I8", 3)
    bad = edit_line(example_trace, idx, lambda o: o.update(passed=value))
    result = check_trace(bad, example_problem)
    assert any(f.record_id == "I8" for f in result.findings)


def test_describe_reports_failures(example_trace, example_problem):
    bad = edit_line(example_trace, 0, lambda o: o["options"].update(sigma=0.74))
    text = check_trace(bad, example_problem).describe()
    assert "FAILED" in text


# -- annotated listings ----------------------------------------------------------------


def test_listing_is_deterministic(example_problem):
    a = emit_annotated_listing(example_problem)
    b = emit_annotated_listing(example_problem)
    assert a.text == b.text
    assert a.contract_index == b.contract_index


def test_listing_contains_required_literals(example_problem):
    text = emit_annotated_listing(example_problem).text
    assert "phi-0.76*phim<0" in text
    assert "trace(X*Z)<=0.1" in text
    assert "ensures" in text and "requires" in text


def test_listing_covers_every_contract(example_problem):
    listing = emit_annotated_listing(example_problem)
    ids = {entry[0] for entry in listing.contract_index}
    assert ids == set(LOOP_IDS) | set(INIT_IDS)
    for rid, line_no, kind, expr in listing.contract_index:
        assert kind in ("requires", "ensures")
        line = listing.lines[line_no - 1]
        assert f"[{rid}]" in line
        assert expr in line


def test_listing_flavors_share_contract_content(example_problem):
    pm = emit_annotated_listing(example_problem, flavor="pseudo-matlab")
    cl = emit_annotated_listing(example_problem, flavor="c-like")
    assert [e[0] for e in pm.contract_index] == [e[0] for e in cl.contract_index]
    assert [e[3] for e in pm.contract_index] == [e[3] for e in cl.contract_index]
    assert pm.text != cl.text
    assert "%%" in pm.text and "/*@" in cl.text and "*/" in cl.text


def test_listing_substitutes_nondefault_parameters(example_problem):
    opts = SolverOptions(sigma=0.5)
    text = emit_annotated_listing(example_problem, opts).text
    assert "phi-0.51*phim<0" in text
    assert "sigma==0.5" in text
    assert "phi-0.76*phim<0" not in text


def test_listing_embeds_problem_data(example_problem):
    text = emit_annotated_listing(example_problem).text
    assert "n = 2; m = 3;" in text
    assert "0.4" in text and "-0.750999" in text
    assert example_problem.problem_hash[:12] in text


def test_listing_rejects_unknown_flavor(example_problem):
    with pytest.raises(ValueError, match="flavor"):
        emit_annotated_listing(example_problem, flavor="fortran")
    assert LISTING_FLAVORS == ("pseudo-matlab", "c-like")


#: Names an annotation reads that no statement assigns: the annotation
#: language's functions and keyword, and the index i of its
#: ``sum(...,i,1,m)`` and ``for i=1..m``.
_ANNOTATION_BUILTINS = {
    "eye", "for", "i", "isposdef", "mats", "norm", "sum", "trace", "transpose", "vecs", "zeros",
}


#: The target of each statement on a listing line: ``X = ...;`` or, after
#: a semicolon, ``Zm = Z;``. A matrix literal's row separator is followed by
#: a number, never by a name and ``=``.
_TARGET = r"(?:^|;)\s*([A-Za-z_]\w*)\s*=(?!=)"


def _names_read(expr: str) -> set[str]:
    """The names an expression of the listing reads: each identifier outside
    a quoted string (``'fro'``) and not part of a number (``1e-5``)."""
    return set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", re.sub(r"'[^']*'", "", expr)))


def _listing_of(problem: str, flavor: str):
    prob = running_example() if problem == "running-example" else load_problem(
        GOLDEN_N6_PROBLEM.read_text()
    )
    return prob, emit_annotated_listing(prob, flavor=flavor)


@pytest.mark.parametrize("flavor", LISTING_FLAVORS)
@pytest.mark.parametrize("problem", ["running-example", "n6"])
def test_every_name_an_annotation_reads_is_assigned_before_it(flavor, problem):
    prob, listing = _listing_of(problem, flavor)
    annotations = {line: (rid, expr) for rid, line, _, expr in listing.contract_index}
    every_fi = {f"F{i}" for i in range(1, prob.m + 1)}
    assigned, undefined = set(), []
    for number, text in enumerate(listing.lines, 1):
        if number in annotations:
            rid, expr = annotations[number]
            names = _names_read(expr)
            if every_fi <= assigned:  # Fi stands for each of F1..Fm
                names.discard("Fi")
            undefined += [(rid, name) for name in sorted(names - assigned - _ANNOTATION_BUILTINS)]
        elif not text.lstrip().startswith(("%", "/")):
            assigned |= set(re.findall(_TARGET, text))
    assert undefined == []


@pytest.mark.parametrize("flavor", LISTING_FLAVORS)
@pytest.mark.parametrize("problem", ["running-example", "n6"])
def test_every_name_a_statement_assigns_is_read(flavor, problem):
    # a statement whose result nothing reads is dead code to a verifier: its
    # name must appear in another statement, an annotation or a loop or
    # branch guard (comments do not count)
    _, listing = _listing_of(problem, flavor)
    annotations = {line: expr for _, line, _, expr in listing.contract_index}
    assigned, read = set(), set()
    for number, text in enumerate(listing.lines, 1):
        if number in annotations:
            read |= _names_read(annotations[number])
        elif not text.lstrip().startswith(("%", "/")):
            assigned |= set(re.findall(_TARGET, text))
            read |= _names_read(re.sub(_TARGET, ";", text))
    assert {"X", "Z", "p"} <= assigned
    assert sorted(assigned - read) == []


def test_n6_listing_matches_its_golden():
    prob = load_problem(GOLDEN_N6_PROBLEM.read_text())
    matrices = [prob.f0, *prob.fs, prob.x0]
    assert len(matrices) == 23 and all(M.tobytes() == M.T.tobytes() for M in matrices)
    assert emit_annotated_listing(prob).text == GOLDEN_N6_LISTING.read_text()


#: The listing goldens and the problems they print.
_LISTING_GOLDENS = {
    "running_example_listing.m": running_example,
    "running_example_listing.c": running_example,
    "random_n6_listing.m": lambda: load_problem(GOLDEN_N6_PROBLEM.read_text()),
}


@pytest.mark.parametrize("name", list(_LISTING_GOLDENS))
def test_golden_listing_literals_read_back_as_the_problem_data(name):
    prob = _LISTING_GOLDENS[name]()
    data = {"F0": prob.f0, **{f"F{i}": Fi for i, Fi in enumerate(prob.fs, 1)}, "b": prob.b}
    data["X"] = prob.x0
    text = (GOLDEN_N6_LISTING.parent / name).read_text()
    literals = re.findall(r"^(F\d+|b|X) = (\[.*\]);$", text, re.M)
    assert [key for key, _ in literals] == list(data)
    for key, literal in literals:
        _assert_reads_back(literal, data[key])


@pytest.mark.parametrize("name", ["example", "n6"])
def test_the_listing_spells_x0_as_the_trace_header_does(name, example_problem, example_trace):
    if name == "example":
        prob, trace = example_problem, example_trace
    else:
        prob = load_problem(GOLDEN_N6_PROBLEM.read_text())
        trace = write_trace(solve(prob))
    header = trace.split(b"\n", 1)[0].decode()
    stored = re.search(r'"init_state":\{"X":(\[\[.*?\]\])', header).group(1)
    listed = re.search(r"^X = (\[.*\]);$", emit_annotated_listing(prob).text, re.M).group(1)
    assert len(_NUMBER.findall(listed)) == prob.n**2
    assert _NUMBER.findall(listed) == _NUMBER.findall(stored)


def _per_entry_literal(M) -> str:
    """The matrix literal as first rendered: every entry formatted on its own
    by ``repr``, whose notation on the entries below is the trace's."""
    rows = np.asarray(M, dtype=float).reshape(len(M), -1).tolist()
    return "[" + ";".join(",".join(map(repr, row)) for row in rows) + "]"


#: An F1 of the example whose triangles differ by 1e-15, which admission's
#: relative symmetry tolerance accepts.
_ASYMMETRIC_F1 = np.array([[-0.750999, 0.004990000000001], [0.00499, 0.0001]])


@pytest.mark.parametrize(
    "M,text",
    [
        (_ASYMMETRIC_F1, "[-0.750999,0.004990000000001;0.00499,0.0001]"),
        (np.array([[1.0, 0.0], [-0.0, 2.0]]), "[1.0,0.0;-0.0,2.0]"),
        (np.array([[0.5]]), "[0.5]"),
        (np.array([0.4, -0.2, 0.2]), "[0.4;-0.2;0.2]"),
        (np.array([[1.0, -0.0, 3.5], [-0.0, 2.0, 1e-300], [3.5, 1e-300, 0.1]]),
         "[1.0,-0.0,3.5;-0.0,2.0,1e-300;3.5,1e-300,0.1]"),
    ],
    ids=["admitted-asymmetry", "signed-zero-mirror", "one-by-one", "b-column", "bitwise-symmetric"],
)
def test_mat_literal_matches_the_per_entry_renderer(M, text):
    assert _mat_literals(M) == [_per_entry_literal(M)] == [text]


def test_mat_literals_of_several_arrays_read_back_each_as_stored():
    # the admitted asymmetry prints each triangle as stored: nothing is mirrored
    arrays = [_ASYMMETRIC_F1, np.array([0.4, -2e-5, 1e16]), np.array([[5e-324]]), -_ASYMMETRIC_F1]
    literals = _mat_literals(*arrays)
    assert literals == [_mat_literals(M)[0] for M in arrays]
    for literal, M in zip(literals, arrays):
        _assert_reads_back(literal, M)
    assert literals[1] == "[0.4;-0.00002;1e16]"


def test_listing_prints_an_admitted_asymmetry_as_stored(example_problem):
    prob = build_problem(
        example_problem.f0,
        [_ASYMMETRIC_F1, *example_problem.fs[1:]],
        example_problem.b,
        x0=example_problem.x0,
    )
    text = emit_annotated_listing(prob).text
    assert "F1 = [-0.750999,0.004990000000001;0.00499,0.0001];" in text


def test_listing_requires_a_warm_start():
    prob = build_problem(
        np.eye(2),
        [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)],
        [0.5, -0.25, 1.0],
    )
    with pytest.raises(ValueError):
        emit_annotated_listing(prob)


def test_check_rtol_is_tight():
    assert CHECK_RTOL == 1e-12


# -- the scaling pair, computed by the solver and by the replay ------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workload_problem(n: int, seed: int = 2001):
    """``bench/workload_gen.py``'s problem at ``seed``, index 0, size n."""
    spec = importlib.util.spec_from_file_location("workload_gen", BENCH / "workload_gen.py")
    workload_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload_gen)
    return load_problem(workload_gen.problem_bytes(seed, n, 0))


def _scaling_pairs(monkeypatch, run) -> dict[int, tuple[bytes, bytes]]:
    """The bytes of (Zh, Zhi) of every step that ``monitor.check_iteration``
    sweeps while ``run()`` runs, by iteration."""
    pairs = {}
    sweep = monitor.check_iteration

    def spy(prob, states, steps, sigma):
        for state, step in zip(states[1:], steps):
            pairs[state.iteration] = (step.Zh.tobytes(), step.Zhi.tobytes())
        return sweep(prob, states, steps, sigma)

    with monkeypatch.context() as patch:
        patch.setattr(monitor, "check_iteration", spy)
        run()
    return pairs


@pytest.mark.parametrize("n", [None, 8, 16])
def test_the_replay_scales_each_step_with_the_solvers_bits(monkeypatch, n):
    # the rule Zh = sym_sqrt(Z), Zhi = sym_inv(Zh) is written twice, in
    # solver.prepare_newton and in check_trace's step source; this pins them
    # to the same bits
    prob = running_example() if n is None else _workload_problem(n)
    runs = []
    solved = _scaling_pairs(monkeypatch, lambda: runs.append(solve(prob)))
    (report,) = runs
    replayed = _scaling_pairs(monkeypatch, lambda: check_trace(write_trace(report), prob))
    assert sorted(solved) == list(range(1, report.iterations + 1))
    assert replayed == solved
