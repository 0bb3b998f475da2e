from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from credible_sdp.annotator import (
    CHECK_RTOL,
    LEGACY_SCHEMA,
    LISTING_FLAVORS,
    TRACE_SCHEMA,
    TraceFormatError,
    _text_hash,
    check_trace,
    emit_annotated_listing,
    parse_trace,
    write_trace,
)
from credible_sdp.linalg import sym_sqrt
from credible_sdp.monitor import INIT_IDS, LOOP_IDS
from credible_sdp.problem import SdpProblem, build_problem, load_problem
from credible_sdp.solver import NewtonStep, SolverOptions, assemble_newton, solve, take_step

#: Proof traces of the bundled example, written by earlier solvers and kept
#: byte for byte: traces already in the wild must keep re-checking clean.
#: Never regenerate them to make a test pass. GOLDEN_TRACE is schema cts-1,
#: which stores every iterate; GOLDEN_CTS2 is the first cts-2 trace.
#: GOLDEN_N6 is a cts-2 trace of a random n = 6, m = 21 problem (the file
#: GOLDEN_N6_PROBLEM, ``problem_gen.random_problem`` with rng seed 7): at
#: m > 3 the order in which sums over the constraints round shows in the
#: stored measured values, which n = 2 cannot pin.
GOLDEN_TRACE = Path(__file__).parent / "golden" / "running_example.cts"
GOLDEN_CTS2 = Path(__file__).parent / "golden" / "running_example_cts2.cts"
GOLDEN_N6 = Path(__file__).parent / "golden" / "random_n6_cts2.cts"
GOLDEN_N6_PROBLEM = Path(__file__).parent / "golden" / "random_n6_problem.json"


@pytest.fixture(scope="module")
def golden_trace() -> bytes:
    return GOLDEN_TRACE.read_bytes()


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


def assert_record_roundtrips(stored: dict, rec, where: str) -> None:
    what = f"{where} [{rec.id}]"
    assert_same_bits(stored["measured"], rec.measured, f"{what} measured")
    assert_same_bits(stored["bound"], rec.bound, f"{what} bound")
    assert stored["detail"].keys() == rec.detail.keys(), what
    for key, value in rec.detail.items():
        if isinstance(value, (bool, np.bool_, str)):
            assert stored["detail"][key] == value, f"{what} detail {key}"
        else:
            assert_same_bits(stored["detail"][key], value, f"{what} detail {key}")


def test_trace_floats_roundtrip_exactly(example_trace, example_report):
    trace = parse_trace(example_trace)
    prob = example_report.problem

    init = trace.header["init_state"]
    state0 = example_report.initial_state
    for key in ("X", "Z", "p", "mu", "phi", "phim"):
        assert_same_bits(init[key], getattr(state0, key), f"init_state {key}")
    assert_same_bits(init["sigma"], example_report.options.sigma, "init_state sigma")
    for stored, rec in zip(trace.init_records, example_report.init_records, strict=True):
        assert_record_roundtrips(stored, rec, "init")

    # the iterates are not stored: stepping with the stored directions from
    # the stored start re-derives every one of them bit for bit
    state = state0
    for block, snap in zip(trace.iterations, example_report.snapshots, strict=True):
        line, where = block["state"], f"iteration {snap.state.iteration}"
        assert line.keys() == {"type", "iteration", "dX", "dZ", "dp"}, where
        for key in ("dX", "dZ", "dp"):
            assert_same_bits(line[key], getattr(snap.step, key), f"{where} {key}")
        step = NewtonStep(
            dX=np.array(line["dX"]), dZ=np.array(line["dZ"]), dp=np.array(line["dp"]),
            Zh=None, Zhi=None,
        )
        state = take_step(prob, state, step)
        for key in ("X", "Z", "p", "mu", "phi", "phim"):
            assert_same_bits(getattr(state, key), getattr(snap.state, key), f"{where} {key}")
        for stored, rec in zip(block["records"], snap.records, strict=True):
            assert stored.keys() == {"type", "id", "measured", "bound", "passed", "detail"}, where
            assert_record_roundtrips(stored, rec, where)


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


def test_parse_rejects_non_json_line(example_trace):
    lines = trace_lines(example_trace)
    lines[3] = "not json at all"
    with pytest.raises(TraceFormatError):
        parse_trace(reassemble(lines))


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


def test_golden_n6_trace_checks_clean():
    prob = load_problem(GOLDEN_N6_PROBLEM.read_text())
    assert (prob.n, prob.m) == (6, 21)
    result = check_trace(GOLDEN_N6.read_bytes(), prob)
    assert result.findings == []
    assert result.iterations == 30
    assert result.records_checked == 16 + 30 * 12


@pytest.mark.parametrize("to_schema", [LEGACY_SCHEMA, TRACE_SCHEMA])
def test_a_trace_read_under_the_other_schema_is_refused_or_flagged(
    example_trace, golden_trace, example_problem, to_schema
):
    trace = example_trace if to_schema == LEGACY_SCHEMA else golden_trace
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


def test_replay_rescales_when_a_stored_z_moves(golden_trace, example_problem, monkeypatch):
    # only a cts-1 line stores Z
    idx = find_iteration(golden_trace, 55)

    def move_z(obj):
        obj["Z"][0][0] *= 1 + 1e-9

    calls = _count_sym_sqrt(monkeypatch)
    result = check_trace(edit_line(golden_trace, idx, move_z), example_problem)
    assert any(f.kind == "chain" and f.where == "iteration 55" for f in result.findings)
    assert len(calls) == 2


def test_replay_rescales_when_a_stored_dz_moves_z(example_trace, example_problem, monkeypatch):
    idx = find_iteration(example_trace, 55)

    def move_z(obj):
        obj["dZ"][0][0] = 1e-9

    calls = _count_sym_sqrt(monkeypatch)
    result = check_trace(edit_line(example_trace, idx, move_z), example_problem)
    assert any(f.kind == "recompute" and f.where == "iteration 55" for f in result.findings)
    assert len(calls) == 2


def test_replay_stops_at_a_step_it_cannot_redo(example_trace, golden_trace, example_problem):
    # a dZ that makes the next Z indefinite: no later cts-2 point can be derived
    idx = find_iteration(example_trace, 10)
    bad = edit_line(example_trace, idx, lambda o: o.update(dZ=[[-5.0, 0.0], [0.0, 0.0]]))
    errors = [f.where for f in check_trace(bad, example_problem).findings if f.kind == "error"]
    assert errors == ["iteration 11"]
    # a cts-1 replay steps on from the next stored point
    idx = find_iteration(golden_trace, 10)
    bad = edit_line(golden_trace, idx, lambda o: o.update(Z=[[-5.0, 0.0], [0.0, 0.2]]))
    errors = [f.where for f in check_trace(bad, example_problem).findings if f.kind == "error"]
    assert errors == ["iteration 11"]


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


def test_check_flags_broken_iterate_chain(golden_trace, example_problem):
    # only a cts-1 line stores X
    idx = find_iteration(golden_trace, 5)

    def bump_x(obj):
        obj["X"][0][0] += 1e-5

    bad = edit_line(golden_trace, idx, bump_x)
    result = check_trace(bad, example_problem)
    assert not result.clean
    assert any(f.kind == "chain" and f.where == "iteration 5" for f in result.findings)
    # the next block's (Xm == previous X) link must snap as well
    assert any(f.kind == "chain" and f.where == "iteration 6" for f in result.findings)


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
        (("dX", "dX"), lambda v: [[str(x) for x in row] for row in v]),
        (("p", "dp"), lambda v: [[x] for x in v]),
        (("Z", "dZ"), lambda v: [[bool(x) for x in row] for row in v]),
        (("X", "dX"), lambda v: [[v[0][0], True], v[1]]),
        (("X", "dX"), lambda v: [[v[0][0], float("nan")], v[1]]),
        (("p", "dp"), lambda v: [float("inf"), *v[1:]]),
    ],
    ids=["dX-strings", "p-column", "Z-bools", "dX-one-bool", "dX-one-nan", "dp-one-inf"],
)
def test_check_flags_iteration_arrays_the_writer_cannot_emit(
    example_trace, golden_trace, example_problem, keys, mutate
):
    # the array on a cts-1 line, and the cts-2 array of the same shape
    for trace, key in zip((golden_trace, example_trace), keys):
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


def _claim_passing_violation(footer: dict, last_records: list[dict]) -> None:
    footer["violation_id"] = next(rec["id"] for rec in last_records if rec["passed"])


@pytest.mark.parametrize(
    "status,forge",
    [
        ("InvariantViolation", _claim_passing_violation),
        ("Converged", lambda footer, _: footer.update(status="DivergenceGuard")),
        ("IterationCap", lambda footer, _: footer.update(status="Converged")),
    ],
    ids=["violation-id-names-a-passing-record", "divergence-without-growth", "converged-above-epsilon"],
)
def test_check_flags_false_status_claims(traces_by_status, example_problem, status, forge):
    trace = traces_by_status[status]
    last_records = parse_trace(trace).iterations[-1]["records"]
    bad = edit_line(trace, len(trace_lines(trace)) - 1, lambda o: forge(o, last_records))
    result = check_trace(bad, example_problem)
    assert any(f.kind == "footer" for f in result.findings), result.describe()


def _structural_mutations(obj: dict, path: tuple = ()):
    """(label, mutate) pairs: delete each key, add one key to each object,
    flip each bool and edit each string, at every depth of ``obj``."""

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
            yield f"edit {here}", lambda root, p=path, k=key: at(root, p).update({k: at(root, p)[k] + "x"})
        elif isinstance(value, dict):
            yield from _structural_mutations(value, here)


def _detected(trace: bytes, prob) -> bool:
    try:
        return not check_trace(trace, prob).clean
    except TraceFormatError:
        return True


STRUCTURE_TARGETS = {
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
