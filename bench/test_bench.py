"""Tests of the benchmark itself: inputs, output gate, tracing and metric names.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

import harness
import layer_trace
import workload_gen
from credible_sdp import load_problem_file

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: The default seed and the held-out seed named in bench/README.md.
SEEDS = (1, 7919)


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    """Send the benchmark's result and span files to a temporary directory."""
    monkeypatch.setattr(harness, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("n", [2, 8, 16])
def test_same_seed_gives_identical_problem_files(tmp_path, n):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    workload_gen.write_problem(first, 5, n, 3)
    workload_gen.write_problem(second, 5, n, 3)
    assert first.read_bytes() == second.read_bytes()
    assert load_problem_file(str(first)).problem_hash == load_problem_file(str(second)).problem_hash
    assert workload_gen.problem_bytes(5, n, 4) != first.read_bytes()
    assert workload_gen.problem_bytes(6, n, 3) != first.read_bytes()


@pytest.mark.parametrize(
    "seed,n,indices",
    [(SEEDS[0], 2, range(6)), (SEEDS[1], 2, range(6)), (SEEDS[0], 8, [1]), (SEEDS[1], 16, [1])],
)
def test_generated_problems_converge_and_recheck_clean(tmp_path, seed, n, indices):
    for index in indices:
        solved = harness.solve_op(tmp_path, seed, n, index)
        assert solved.error is None, solved.error
        assert solved.trace_bytes > 0
        checked = harness.check_op(tmp_path, index)
        assert checked.error is None, checked.error


def _edited(data: bytes, pick, change) -> bytes:
    """The trace with ``change`` applied to the first line object ``pick`` selects."""
    lines = [json.loads(line) for line in data.splitlines() if line.strip()]
    change(next(obj for obj in lines if pick(obj)))
    return "\n".join(json.dumps(obj) for obj in lines).encode()


def test_gate_rejects_unconverged_failed_or_miscounted_traces(tmp_path):
    assert harness.solve_op(tmp_path, 1, 2, 1).error is None
    data = (tmp_path / "t1.cts").read_bytes()
    assert harness.trace_gate(data) is None
    is_footer = lambda obj: obj["type"] == "footer"  # noqa: E731
    capped = _edited(data, is_footer, lambda f: f.update(status="IterationCap"))
    assert "status" in harness.trace_gate(capped)
    over = _edited(data, is_footer, lambda f: f.update(budget=f["iterations"] - 1))
    assert "exceed budget" in harness.trace_gate(over)
    failed = _edited(data, lambda o: o.get("id") == "I3", lambda r: r.update(passed=False))
    assert harness.trace_gate(failed) == "records failed: I3"
    recount = _edited(data, is_footer, lambda f: f.update(records=f["records"] + 1))
    assert "counts" in harness.trace_gate(recount)
    assert "not JSON" in harness.trace_gate(data[: len(data) // 2])


def test_a_crashing_cli_call_is_a_failed_operation(tmp_path, monkeypatch):
    from credible_sdp import cli

    monkeypatch.setattr(cli, "main", lambda argv: _raise())
    result = harness.solve_op(tmp_path, 1, 2, 1)
    assert "RuntimeError" in result.error


def test_tracing_leaves_module_attributes_as_found(tmp_path):
    modules = [importlib.import_module(name) for name in {t[0] for t in layer_trace.TARGETS}]
    before = {m.__name__: dict(vars(m)) for m in modules}
    tracer = layer_trace.Tracer()
    assert harness.solve_op(tmp_path, 1, 2, 1, tracer).error is None
    assert harness.check_op(tmp_path, 1, tracer).error is None
    with pytest.raises(RuntimeError):
        tracer.operation("boom", "solve", _raise)
    for m in modules:
        after = vars(m)
        assert after.keys() == before[m.__name__].keys()
        assert all(after[key] is value for key, value in before[m.__name__].items())
    traced = {span[0] for span in tracer.spans}
    assert traced == {t[2] for t in layer_trace.TARGETS} | {layer_trace.ROOT_SPAN}


def _raise():
    raise RuntimeError("fails inside a traced operation")


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([float(i) for i in range(19)]) is None
    assert harness.tail([float(i) for i in range(20)])["percentile"] == 50.0
    assert harness.tail([float(i) for i in range(100)]) == {
        "value": 89.0, "percentile": 90.0, "samples": 100,
    }


def test_benchmark_spec_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(harness.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize(
    "workload,trace,section",
    [
        ("small-certify", 0, "end_to_end"),
        ("small-certify", 1, "per_layer"),
        ("audit-replay", 1, "per_layer"),
    ],
)
def test_emitted_metrics_are_exactly_those_declared(out_dir, workload, trace, section):
    args = harness.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    )
    record = harness.execute(args)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in record["metrics"].items()}
    assert emitted == declared
    assert record["environment"]["seed"] == 3
