from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import credible_sdp
from credible_sdp.cli import build_parser, exit_code_for, main, render_report
from credible_sdp.problem import MODES, load_problem_file
from credible_sdp.solver import SolveStatus, assemble_newton, default_options, solve_newton

README = Path(__file__).parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve ---------------------------------------------------------------------


def test_solve_converges_and_exits_zero(capsys, problem_file):
    code, out, err = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert code == 0
    assert "status:      Converged" in out
    assert "iterations:  56 (budget 56" in out
    assert "all passed" in out
    assert err == ""


def test_solve_verbose_report_lists_slacks(capsys, problem_file):
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--report")
    assert code == 0
    assert "smallest contract slack" in out
    assert "I3" in out and "I4" in out
    assert "initialization: 16 records, all passed" in out


def test_solve_writes_trace_and_listing(capsys, problem_file, tmp_path):
    trace_path = tmp_path / "run.trace"
    listing_path = tmp_path / "run.m"
    code, _, _ = run_cli(
        capsys, "solve", "--problem", str(problem_file),
        "--trace", str(trace_path), "--listing", str(listing_path),
    )
    assert code == 0
    first = json.loads(trace_path.read_text().splitlines()[0])
    assert first["type"] == "header"
    assert "phi-0.76*phim<0" in listing_path.read_text()


def test_solve_then_check_trace_roundtrip(capsys, problem_file, tmp_path):
    trace_path = tmp_path / "run.trace"
    assert run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))[0] == 0
    code, out, _ = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 0
    assert "trace OK" in out


def test_check_trace_flags_tampering(capsys, problem_file, tmp_path):
    trace_path = tmp_path / "run.trace"
    run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    lines = trace_path.read_text().splitlines()
    obj = json.loads(lines[40])  # some per-iteration line or record
    if "phi" in obj:
        obj["phi"] *= 1 + 1e-5
    else:
        obj["measured"] = obj.get("measured", 0.0) + 1e-3
    lines[40] = json.dumps(obj)
    trace_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 2
    assert "FAILED" in out


def test_solve_with_explicit_sigma(capsys, problem_file):
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--sigma", "0.8")
    assert code == 0
    assert "sigma:       0.8\n" in out


@pytest.mark.parametrize("command", ["solve", "annotate"])
def test_the_potential_weight_flag_is_gone(capsys, problem_file, command):
    code, out, err = run_cli(capsys, command, "--problem", str(problem_file), "--nu", "0.5")
    assert (code, out) == (1, "")
    assert err.startswith("usage: credible-sdp ")
    assert err.endswith("credible-sdp: error: unrecognized arguments: --nu 0.5\n")


@pytest.mark.parametrize("nu", [True, 10**400], ids=["true", "int1e400"])
def test_a_file_nu_is_ignored_like_any_key_the_reader_does_not_read(
    capsys, tmp_path, problem_file, nu
):
    data = json.loads(problem_file.read_text())
    path = tmp_path / "with_nu.json"
    path.write_text(json.dumps({**data, "nu": nu}))
    with_nu, plain = load_problem_file(str(path)), load_problem_file(str(problem_file))
    assert with_nu.problem_hash == plain.problem_hash
    assert default_options(with_nu) == default_options(plain)
    traces = [tmp_path / f"{problem.stem}.cts" for problem in (path, problem_file)]
    runs = [
        run_cli(capsys, "solve", "--problem", str(problem), "--trace", str(trace))
        for problem, trace in zip((path, problem_file), traces)
    ]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert traces[0].read_bytes() == traces[1].read_bytes()


def test_solve_epsilon_flag_overrides_file(capsys, problem_file):
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--epsilon", "0.2")
    assert code == 0
    assert "iterations:  0" in out


def test_solve_iteration_cap_exit_code(capsys, problem_file):
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_file), "--max-iterations", "3"
    )
    assert code == 4
    assert "IterationCap" in out


def _negated_rhs(prob, state, sigma, scaling):
    return -assemble_newton(prob, state, sigma, scaling)


def test_solve_divergence_guard_exit_code(capsys, problem_file, monkeypatch):
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _negated_rhs)
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert code == 3
    assert "DivergenceGuard" in out


def test_check_trace_exits_two_when_the_trace_records_failed_contracts(
    capsys, problem_file, tmp_path, monkeypatch
):
    trace_path = tmp_path / "run.trace"
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _negated_rhs)
    code, _, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    assert code == 3
    monkeypatch.undo()
    failed = sorted(
        {obj["id"] for obj in map(json.loads, trace_path.read_text().splitlines())
         if obj["type"] == "record" and not obj["passed"]}
    )
    assert failed
    code, out, _ = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 2
    assert not out.startswith("trace OK")
    assert f"contracts FAILED: {', '.join(failed)};" in out
    assert "no findings" in out


def _skewed_operator(prob, r, scaling):
    # dX from a wrong inverse of H (Zhi 0.5 % too large); the step, and so
    # every contract, keeps the true scaling pair
    step = solve_newton(prob, r, dataclasses.replace(scaling, Zhi=1.005 * scaling.Zhi))
    return dataclasses.replace(step, Zhi=scaling.Zhi)


def test_a_wrong_direction_is_evidence_in_the_trace(capsys, problem_file, tmp_path, monkeypatch):
    trace_path = tmp_path / "run.trace"
    monkeypatch.setattr("credible_sdp.solver.solve_newton", _skewed_operator)
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    assert code == 2
    assert "status:      Converged" in out and "I10" in out
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--mode", "strict")
    assert code == 2
    assert "status:      InvariantViolation" in out
    monkeypatch.undo()
    code, out, _ = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 2
    assert re.match(r"trace consistent, contracts FAILED: [^;]*\bI10\b[^;]*; .* no findings$", out)


def test_a_strict_run_steps_no_further_than_its_first_failed_record(
    capsys, problem_file, tmp_path, monkeypatch
):
    # the third step's dX comes from a skewed operator, so I7 (the first of
    # I7, I8 and I10) fails there
    calls = []

    def skewed_third(prob, r, scaling):
        calls.append(r)
        return (_skewed_operator if len(calls) == 3 else solve_newton)(prob, r, scaling)

    trace_path = tmp_path / "run.trace"
    monkeypatch.setattr("credible_sdp.solver.solve_newton", skewed_third)
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_file), "--mode", "strict",
        "--trace", str(trace_path),
    )
    monkeypatch.undo()
    assert code == 2 and "violation:   I7" in out
    assert len(calls) == 3
    # an unreadable line after the violation: the replay stops where the run
    # did, so it never reads that line
    lines = trace_path.read_bytes().splitlines()
    unreadable = json.dumps({"type": "iteration", "iteration": 4, "dX": [], "dZ": [], "dp": []})
    trace_path.write_bytes(b"\n".join([*lines[:-1], unreadable.encode(), lines[-1]]) + b"\n")
    prob = credible_sdp.load_problem_file(problem_file)
    report = credible_sdp.check_trace(trace_path.read_bytes(), prob)
    assert [f.kind for f in report.findings] == ["footer", "footer"]
    assert report.findings[0].message == (
        "the loop stops after iteration 3 (InvariantViolation), "
        "but the trace goes on to iteration 4"
    )


def test_solve_strict_mode_violation_exit_code(capsys, problem_file, monkeypatch):
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _negated_rhs)
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_file), "--mode", "strict"
    )
    assert code == 2
    assert "InvariantViolation" in out
    assert "violation:" in out


# -- exit code mapping ------------------------------------------------------------


def test_exit_codes_cover_every_status(example_report):
    # a report's status is derived from its steps: cut the run after step 3,
    # then let that step grow the gap, or fail a record in strict mode
    snaps = example_report.snapshots[:3]
    last = snaps[-1]
    grown = dataclasses.replace(last, state=dataclasses.replace(last.state, phi=2 * last.state.phim))
    failing = dataclasses.replace(last, records=[dataclasses.replace(last.records[0], passed=False)])
    strict = dataclasses.replace(example_report.options, mode="strict")
    reports = {
        SolveStatus.CONVERGED: (example_report, 0),
        SolveStatus.ITERATION_CAP: (dataclasses.replace(example_report, snapshots=snaps), 4),
        SolveStatus.DIVERGENCE_GUARD: (
            dataclasses.replace(example_report, snapshots=[*snaps[:-1], grown]), 3
        ),
        SolveStatus.INVARIANT_VIOLATION: (
            dataclasses.replace(example_report, options=strict, snapshots=[*snaps[:-1], failing]), 2
        ),
    }
    for status, (report, code) in reports.items():
        assert report.status is status
        assert exit_code_for(report) == code
    failed = dataclasses.replace(example_report.init_records[0], passed=False)
    dirty = dataclasses.replace(example_report, init_records=[failed])
    assert exit_code_for(dirty) == 2  # converged but not clean


def test_render_report_mentions_failed_ids(example_report):
    failed = dataclasses.replace(example_report.init_records[0], passed=False)
    dirty = dataclasses.replace(example_report, init_records=[failed])
    text = render_report(dirty)
    assert "FAILED" in text and failed.id in text
    verbose = render_report(dirty, verbose=True).splitlines()
    assert verbose[-1] == f"initialization: 1 records, FAILED: {failed.id}"


# -- annotate ----------------------------------------------------------------------


def test_annotate_prints_listing(capsys, problem_file):
    code, out, _ = run_cli(capsys, "annotate", "--problem", str(problem_file))
    assert code == 0
    assert "phi-0.76*phim<0" in out
    assert "trace(X*Z)<=0.1" in out


def test_annotate_c_like_flavor(capsys, problem_file):
    code, out, _ = run_cli(
        capsys, "annotate", "--problem", str(problem_file), "--flavor", "c-like"
    )
    assert code == 0
    assert "/*@" in out


def test_annotate_writes_file(capsys, problem_file, tmp_path):
    out_path = tmp_path / "listing.m"
    code, out, _ = run_cli(
        capsys, "annotate", "--problem", str(problem_file), "--listing", str(out_path)
    )
    assert code == 0
    assert "contract annotations" in out
    assert "requires" in out_path.read_text()


def test_annotate_rejects_unknown_flavor(capsys, problem_file):
    code, _, err = run_cli(
        capsys, "annotate", "--problem", str(problem_file), "--flavor", "fortran"
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "listing-file"])
def test_annotate_refuses_options_solve_refuses(capsys, problem_file, tmp_path, to_file):
    # a listing must not print values under the contracts they break
    out_path = tmp_path / "listing.m"
    args = ["annotate", "--problem", str(problem_file), "--epsilon", "-1", "--sigma", "7"]
    code, out, err = run_cli(capsys, *args, *(["--listing", str(out_path)] if to_file else []))
    assert code == 1 and out == ""
    assert err.startswith("error: epsilon must be positive and normal")
    assert "Traceback" not in err and not out_path.exists()


# -- demo and misc -------------------------------------------------------------------


def test_demo_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    assert "status:      Converged" in out
    assert "independent recheck clean" in out
    assert "contract annotations" in out


def test_readme_quick_start_matches_the_demo(capsys):
    # the output block that follows the `credible-sdp demo` command
    block = re.search(r"```sh\ncredible-sdp demo\n```\s*```\n(.*?)```", README.read_text(), re.S)
    expected = [line for line in block.group(1).splitlines() if line != "..."]
    assert len(expected) >= 5
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    missing = [line for line in expected if line not in out.splitlines()]
    assert not missing, f"README quick start lines not in the demo output: {missing}"


def _readme_flags() -> dict[str, set[str]]:
    """The flags README's "Command line" section gives each subcommand: those
    on its usage line, and each bullet under a line ending "(on `a` and `b`):"."""
    section = re.search(r"^## Command line\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
    flags: dict[str, set[str]] = {}
    owners: list[str] = []
    for line in section.splitlines():
        usage = re.match(r"credible-sdp ([a-z-]+) (.*)", line)
        bullet = re.match(r"- `(--[a-z-]+)", line)
        if usage:
            flags.setdefault(usage.group(1), set()).update(re.findall(r"--[a-z-]+", usage.group(2)))
        elif re.search(r"\(on .*\):$", line):
            owners = re.findall(r"`([a-z-]+)`", line[line.rindex("(on ") :])
        elif bullet:
            for sub in owners:
                flags[sub].add(bullet.group(1))
        elif line and not line.startswith(" "):
            owners = []
    return flags


def test_readme_names_every_flag_each_subcommand_takes():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {s for action in sub._actions for s in action.option_strings if s.startswith("--")}
        - {"--help"}
        for name, sub in subs.choices.items()
    }
    assert _readme_flags() == parsed


def test_each_mode_flag_offers_the_run_modes():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("solve", "demo"):
        (mode,) = [action for action in subs.choices[name]._actions if action.dest == "mode"]
        assert mode.choices == MODES and mode.default in MODES


def test_readme_library_use_documents_the_root_api_exactly():
    """Every name the package root exports is named in code in README's
    "Library use" section, and the section imports nothing else from it."""
    section = re.search(r"^## Library use\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
    code = re.findall(r"```python\n(.*?)```", section, re.S) + re.findall(r"`([^`\n]+)`", section)
    named = {word for text in code for word in re.findall(r"\w+", text)}
    undocumented = set(credible_sdp.__all__) - named
    assert not undocumented, f"exported but not named in README's Library use: {undocumented}"
    imports = re.findall(r"^from credible_sdp import (?:\(([^)]*)\)|(.*))$", section, re.M)
    imported = {name for group in imports for name in re.findall(r"\w+", "".join(group))}
    assert imported and imported <= set(credible_sdp.__all__)


def test_readme_benchmark_table_has_a_row_for_each_bench_file():
    section = re.search(r"^## Benchmark\n(.*)", README.read_text(), re.S | re.M).group(1)
    rows = set(re.findall(r"^\| `(BENCH_\w+\.json)` \|", section, re.M))
    assert rows == {path.name for path in README.parent.glob("BENCH_*.json")}


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "credible-sdp 0.1.0" in out


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "solve")  # --problem is required
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "--help"] for name in ("solve", "annotate", "check-trace", "demo")),
        ["--help"],
        [],
        ["frobnicate"],
        ["--version"],
        ["solve"],
        ["check-trace", "--trace", "t.cts"],
        ["annotate", "--problem", "p.json", "--bogus"],
        ["demo", "--mode", "lenient"],
        ["demo", "--version"],
        ["check-trace", "--problem", "p.json", "--trace", "t.cts", "extra"],
        ["solve", "--problem", "p.json", "--max-iterations", "many"],
    ],
)
def test_the_cli_prints_what_a_fresh_parser_prints(capsys, argv):
    """``main`` reuses one parser per process; each run, the first or a
    later one, prints and exits as a newly built parser does."""
    runs = [run_cli(capsys, *argv) for _ in range(2)]
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    fresh = capsys.readouterr()
    assert runs == [(int(exc.value.code or 0), fresh.out, fresh.err)] * 2
    assert fresh.out or fresh.err


def test_a_parse_leaves_the_shared_parser_as_it_was():
    parser = build_parser()
    assert build_parser() is parser
    parser.parse_args(["solve", "--problem", "p.json", "--sigma", "0.5", "--mode", "strict", "--report"])
    for argv in (["solve", "--problem", "q.json"], ["demo"]):
        assert vars(parser.parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))


def test_unknown_command_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_missing_problem_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--problem", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


def test_malformed_problem_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "solve", "--problem", str(path))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "field,value",
    [("epsilon", 10**400), ("b", 10**400), ("epsilon", True), ("F0", True)],
    ids=["epsilon-int1e400", "b-int1e400", "epsilon-true", "F0-true"],
)
def test_problem_numbers_numpy_would_coerce_exit_one(capsys, tmp_path, problem_file, field, value):
    data = json.loads(problem_file.read_text())
    if isinstance(data.get(field), list):
        target = data[field] if field == "b" else data[field][1]
        target[1] = value
    else:
        data[field] = value
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "solve", "--problem", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f'error: "{field}"' if field != "F0" else "error: F0")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["flag", "problem file"])
def test_subnormal_epsilon_exits_one_naming_it(capsys, tmp_path, problem_file, where):
    # gap / epsilon overflows below the normal floats, so no budget exists
    args = ["solve", "--problem", str(problem_file)]
    if where == "flag":
        args += ["--epsilon", "1e-320"]
    else:
        data = json.loads(problem_file.read_text())
        data["epsilon"] = 1e-320
        problem_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: epsilon must be positive and normal") and "1e-320" in err
    assert "Traceback" not in err


def test_check_trace_refuses_a_problem_file_solve_refuses(capsys, problem_file, tmp_path):
    # the hash covers the constraints only, so the trace still matches them
    trace_path = tmp_path / "run.trace"
    run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    data = json.loads(problem_file.read_text())
    data["epsilon"] = 1e-320
    problem_file.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: epsilon must be positive and normal") and "1e-320" in err


@pytest.mark.parametrize("schema", [{"name": "cts-3"}, ["cts-3"]], ids=["object", "array"])
def test_check_trace_refuses_an_unhashable_schema(capsys, problem_file, tmp_path, schema):
    trace_path = tmp_path / "run.trace"
    run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] = schema
    lines[0] = json.dumps(header)
    trace_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: unsupported trace schema") and "Traceback" not in err


@pytest.mark.parametrize(
    "fs,rule",
    [
        (lambda fs: fs[:2], "n = 2 needs 3, got m = 2"),
        (lambda fs: [fs[0], fs[1], (np.array(fs[0]) + np.array(fs[1])).tolist()],
         "rank(F) = 2 < m = 3"),
    ],
    ids=["too-few-constraints", "dependent-constraints"],
)
def test_unadmitted_problem_exits_one(capsys, tmp_path, problem_file, fs, rule):
    data = json.loads(problem_file.read_text())
    data["F"] = fs(data["F"])
    data["b"] = data["b"][: len(data["F"])]
    path = tmp_path / "unadmitted.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "solve", "--problem", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and rule in err
    assert "Traceback" not in err


def _planted_problem_file(tmp_path, problem_file, Z, edit_fs=None):
    """The example's problem file with b set so that Z solves the dual
    equations, after ``edit_fs`` has replaced the constraint matrices."""
    data = json.loads(problem_file.read_text())
    fs = [np.array(Fi) for Fi in data["F"]]
    if edit_fs is not None:
        fs = edit_fs(fs)
    data["F"] = [Fi.tolist() for Fi in fs]
    data["b"] = [-float(np.sum(Fi * Z)) for Fi in fs]
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(data))
    return path


def test_indefinite_planted_dual_start_exits_one(capsys, tmp_path, problem_file):
    path = _planted_problem_file(tmp_path, problem_file, np.diag([1.0, -0.5]))
    code, out, err = run_cli(capsys, "solve", "--problem", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "init-z0-pd (measured" in err
    assert "Traceback" not in err


def test_nearly_dependent_constraints_exit_one_stating_cond_f(
    capsys, tmp_path, problem_file, example_report
):
    # admitted at cond(F) = 3.6e9, but the primal solve misses its equation
    Z0 = example_report.initial_state.Z
    path = _planted_problem_file(
        tmp_path, problem_file, Z0, lambda fs: [fs[0], fs[1], fs[0] + fs[1] + 1e-9 * fs[2]]
    )
    code, out, err = run_cli(capsys, "solve", "--problem", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "init-primal-feasibility (measured" in err
    assert "cond(F) = " in err
    assert "Traceback" not in err


def test_problem_with_rejected_warm_start(capsys, tmp_path, problem_file):
    data = json.loads(problem_file.read_text())
    data["X0"] = (100.0 * np.eye(2)).tolist()
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "solve", "--problem", str(path))
    assert code == 1
    assert "neighborhood" in err


def test_check_trace_against_wrong_problem(capsys, problem_file, tmp_path):
    trace_path = tmp_path / "run.trace"
    run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    data = json.loads(problem_file.read_text())
    data["b"][0] = 0.5  # different constraints, different hash
    other = tmp_path / "other.json"
    other.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, "check-trace", "--problem", str(other), "--trace", str(trace_path)
    )
    assert code == 1
    assert "hash" in err


@pytest.mark.parametrize("field,value", [("epsilon", -1.0), ("mode", "bogus"), ("epsilon", 1e-320)])
def test_check_trace_refuses_invalid_header_options(capsys, problem_file, tmp_path, field, value):
    trace_path = tmp_path / "run.trace"
    run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["options"][field] = value
    lines[0] = json.dumps(header)
    trace_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 1
    assert "options" in err and out == ""


# -- the checker's own rules ------------------------------------------------------------


def test_environment_cannot_set_a_contract_tolerance(capsys, problem_file, monkeypatch, tmp_path):
    # the tolerances are catalog constants; CREDIBLE_SDP_TOL once set this one
    monkeypatch.setenv("CREDIBLE_SDP_TOL", "1e300")
    trace_path = tmp_path / "run.trace"
    code, _, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    assert code == 0
    header = json.loads(trace_path.read_text().splitlines()[0])
    assert header["options"]["equality_tol"] == 1e-9


@pytest.mark.parametrize("section,field", [("init_state", "mu"), ("options", "epsilon")])
def test_check_trace_refuses_header_numbers_beyond_float(
    capsys, problem_file, tmp_path, section, field
):
    trace_path = tmp_path / "run.trace"
    run_cli(capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path))
    lines = trace_path.read_text().splitlines()
    header = json.loads(lines[0])
    header[section][field] = 10**400
    lines[0] = json.dumps(header)
    trace_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 1
    assert err.startswith("error: trace header") and "Traceback" not in err
    assert out == ""


def test_check_trace_reports_an_overflow_under_the_default_warning_filter(
    problem_file, tmp_path, example_trace
):
    # the replay is held to one floating-point rule, so a trace whose start
    # overflows gets the findings it gets under the test suite's filter, and
    # no numpy warning reaches stderr
    lines = example_trace.decode().splitlines()
    header = json.loads(lines[0])
    header["init_state"]["X"] = [[v * 1e200 for v in row] for row in header["init_state"]["X"]]
    trace = tmp_path / "overflow.cts"
    trace.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    src = str(Path(credible_sdp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "credible_sdp.cli", "check-trace",
         "--problem", str(problem_file), "--trace", str(trace)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.startswith("trace FAILED: 3 finding(s)\n")


@pytest.mark.parametrize("edit", ["id", "key"], ids=["record-id", "detail-key"])
def test_check_trace_lists_findings_that_stdout_cannot_encode(problem_file, tmp_path, example_trace, edit):
    # a record id or detail key with a lone surrogate is escaped with a
    # backslash, as stderr escapes it, so the findings are listed, exit 2
    lines = example_trace.decode().splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line).get("id") == "I3")
    obj = json.loads(lines[at])
    if edit == "id":
        obj["id"] = "I3\ud800"
    else:
        obj["detail"]["x\ud800"] = 1.0
    lines[at] = json.dumps(obj)
    trace = tmp_path / "surrogate.cts"
    trace.write_text("\n".join(lines) + "\n")
    argv = ["check-trace", "--problem", str(problem_file), "--trace", str(trace)]
    proc = _cli_under_filter("error", *argv)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.startswith("trace FAILED: ") and "\\ud800" in proc.stdout
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 2
    assert out.getvalue() == proc.stdout


def _cli_under_filter(warning_filter: str, *argv: str) -> subprocess.CompletedProcess:
    """``credible-sdp *argv`` in a fresh interpreter under ``-W warning_filter``."""
    src = str(Path(credible_sdp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-W", warning_filter, "-m", "credible_sdp.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )


@pytest.mark.parametrize(
    "field,quantity",
    [("X0", "init-neighborhood deviation from mu*I"), ("b", "init-dual-feasibility residual")],
)
def test_solve_reports_an_overflow_alike_under_every_warning_filter(
    problem_file, tmp_path, field, quantity
):
    # a solve is held to the checker's floating-point rule: the start of the
    # example with X0 or b times 1e300 overflows in its contract sweep, which
    # ends the run with the quantity named, whatever the warnings filter
    data = json.loads(problem_file.read_text())
    data[field] = (np.array(data[field]) * 1e300).tolist()
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    expected = f"error: starting point cannot be evaluated: overflow encountered in dot ({quantity})\n"
    for warning_filter in ("default", "error"):
        proc = _cli_under_filter(warning_filter, "solve", "--problem", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)


_OUT_OF_RANGE = "problem data leave the float range in admission: overflow encountered in"


@pytest.mark.parametrize(
    "edit,expected",
    [
        ({"F0": [[1.0, 1e308], [1e308, 0.1]]}, f"{_OUT_OF_RANGE} add"),  # F0's PD test
        ({"F": [[[-0.750999, 1e308], [1e308, 0.0001]]]}, f"{_OUT_OF_RANGE} add"),  # fmat
        ({"F": [[[-7.50999e307, 4.99e199], [4.99e199, 0.0001]]]}, f"{_OUT_OF_RANGE} scalar multiply"),
        ({"F0": [[1.0, 1e308], [-1e308, 0.1]]}, "F0 is not symmetric: max |a - a.T| = inf"),
    ],
    ids=["f0-pd-test", "constraint-matrix", "rank-test", "antisymmetric-pair"],
)
def test_admission_that_overflows_exits_one_alike_under_every_warning_filter(
    problem_file, tmp_path, edit, expected
):
    # admission runs under the solve's floating-point rule: the warnings
    # filter changes nothing, and no infinity reaches LAPACK, which can
    # print its own complaint to the terminal
    data = json.loads(problem_file.read_text())
    for key, value in edit.items():
        data[key] = value + data[key][len(value):]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    message = f"error: {expected}\n"
    for warning_filter in ("default", "error"):
        proc = _cli_under_filter(warning_filter, "solve", "--problem", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


@pytest.mark.parametrize("warning_filter", ["default", "error"])
def test_a_dual_start_beyond_the_float_range_exits_one_naming_the_solve(
    capsys, problem_file, tmp_path, warning_filter
):
    # lstsq returns Z0 with an infinite entry and no floating-point error
    data = json.loads(problem_file.read_text())
    data["b"][0] = -1e308
    data["F"][2][1][1] = 4.014626750006103e-298
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        code, out, err = run_cli(capsys, "solve", "--problem", str(path))
    assert (code, out, caught) == (1, "", [])
    assert err == (
        "error: starting point cannot be evaluated: overflow encountered in lsqr_solve (initial dual solve)\n"
    )


def _overflowing_step(prob, r, scaling):
    step = solve_newton(prob, r, scaling)
    return dataclasses.replace(step, dX=np.full_like(step.dX, 1e308))


@pytest.mark.parametrize("warning_filter", ["default", "error"])
def test_a_loop_that_overflows_exits_one_naming_the_quantity(
    capsys, problem_file, monkeypatch, warning_filter
):
    monkeypatch.setattr("credible_sdp.solver.solve_newton", _overflowing_step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        code, out, err = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert (code, out, caught) == (1, "", [])
    assert err == "error: overflow encountered in add (I1 min eigenvalues)\n"


def test_files_nested_too_deep_exit_one(capsys, problem_file, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run_cli(capsys, "solve", "--problem", str(deep))
    assert (code, out, err) == (1, "", "error: problem file is nested too deep\n")
    code, out, err = run_cli(
        capsys, "check-trace", "--problem", str(problem_file), "--trace", str(deep)
    )
    assert (code, out, err) == (1, "", "error: line 1 is nested too deep\n")


#: JSON values an edit of a problem file puts in: numbers of every magnitude
#: up to 1e308 (and integers past it), non-finite floats and other types.
_JSON_VALUES = st.recursive(
    st.one_of(
        st.floats(-1e308, 1e308),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(),
        st.booleans(),
        st.none(),
        st.text(max_size=3),
    ),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path of ``node`` and of everything inside it, a key or index a step."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def _edited_problem_files(draw):
    """The running example's problem file with one to three edits (a number
    set to any float up to 1e308 or scaled by 10**k, alone or with its
    mirror so that a matrix stays symmetric; a value replaced by any JSON
    value; nested 1 to 3,000 lists deeper; or a key dropped or added), then
    sometimes cut short."""
    text = resources.files("credible_sdp").joinpath("data/running_example.json").read_text()
    doc = json.loads(text)
    deep = None
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_paths(doc), key=len, reverse=True)))  # entries first
        *parent_path, last = path or (None,)
        parent = doc
        for key in parent_path:
            parent = parent[key]
        old = parent[last] if path else doc
        edit = draw(st.sampled_from(["scale-pair", "scale", "replace", "nest", "drop", "add"]))
        if edit.startswith("scale") and type(old) in (int, float):
            k = draw(st.sampled_from([308, 307, 300, -308, -320]) | st.integers(-330, 308))  # the ends too
            new = draw(st.just(old * 10.0**k) | st.floats(-1e308, 1e308))
            if edit == "scale-pair" and len(path) >= 2:
                matrix = doc
                for key in path[:-2]:
                    matrix = matrix[key]
                try:
                    matrix[path[-1]][path[-2]] = new
                except (LookupError, TypeError):  # no mirror entry
                    pass
        elif edit == "nest" and deep is None:
            deep, new = draw(st.integers(1, 3000)), "DEEP"
        elif edit in ("drop", "add") and isinstance(parent, dict) and path:
            if edit == "drop":
                del parent[last]
                continue
            new, last = draw(_JSON_VALUES), draw(st.text(max_size=3))
        else:
            new = draw(_JSON_VALUES)
        if path:
            parent[last] = new
        else:
            doc = new
    text = json.dumps(doc)
    if deep is not None:
        text = text.replace('"DEEP"', "[" * deep + draw(st.sampled_from(["", "0.5", "{}"])) + "]" * deep, 1)
    if draw(st.integers(0, 3)) == 3:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


#: The commands that read a problem file: the exit codes each may end with,
#: and how its output starts when it is not an error.
_PROBLEM_COMMANDS = {"solve": ((0, 1, 2, 3, 4), "status:"), "annotate": ((0, 1), "% ")}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_edited_problem_files())
def test_solve_on_any_edit_of_a_problem_file_exits_by_the_map(tmp_path_factory, text):
    # whatever the file holds, solve and annotate each end with a documented
    # exit code and no traceback or warning, and the warnings filter changes
    # nothing
    path = tmp_path_factory.getbasetemp() / "edited.json"
    path.write_text(text)
    for command, (codes, first_line) in _PROBLEM_COMMANDS.items():
        outcomes = []
        for warning_filter in ("default", "error"):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter(warning_filter)
                code = main([command, "--problem", str(path)])
            assert caught == []
            outcomes.append((code, out.getvalue(), err.getvalue()))
        code, out, err = outcomes[0]
        assert outcomes[1] == outcomes[0]
        assert code in codes and "Traceback" not in err
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and out.startswith(first_line)


#: The running example's first cts-3 and cts-4 traces, a (line type, line)
#: pair per line.
_GOLDEN = Path(__file__).parent / "golden"
_TRACE_LINES = [
    [(json.loads(line)["type"], line) for line in (_GOLDEN / name).read_text().splitlines()]
    for name in ("running_example_cts3.cts", "running_example_cts4.cts")
]


@st.composite
def _edited_traces(draw):
    """The running example's cts-3 or cts-4 trace with one to three edits (in
    the header, a record, an iteration line or the footer: a value set to any
    JSON value, or a number set to any float up to 1e308 or scaled by 10**k;
    a value nested 1 to 3,000 lists deeper; a key dropped or added; or the
    line dropped or duplicated), then sometimes cut short."""
    lines = list(draw(st.sampled_from(_TRACE_LINES)))
    deep = None
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["header", "record", "iteration", "footer"]))
        at = [i for i, (k, _) in enumerate(lines) if k == kind]
        if not at:
            continue
        i = draw(st.sampled_from(at))
        edit = draw(st.sampled_from(["set", "scale", "nest", "drop", "add", "drop-line", "copy-line"]))
        if edit.endswith("-line"):
            lines[i : i + 1] = [] if edit == "drop-line" else [lines[i]] * 2
            continue
        obj = json.loads(lines[i][1])
        path = draw(st.sampled_from(sorted(_paths(obj), key=len, reverse=True)[:-1]))
        *parent_path, last = path
        parent = obj
        for key in parent_path:
            parent = parent[key]
        old = parent[last]
        if edit == "scale" and type(old) in (int, float):
            k = draw(st.sampled_from([308, 300, -308, -320]) | st.integers(-330, 308))
            new = draw(st.just(old * 10.0**k) | st.floats(-1e308, 1e308))
        elif edit == "nest" and deep is None:
            deep, new = draw(st.integers(1, 3000)), "DEEP"
        elif edit in ("drop", "add") and isinstance(parent, dict):
            if edit == "drop":
                del parent[last]
                lines[i] = (kind, json.dumps(obj, separators=(",", ":")))
                continue
            new, last = draw(_JSON_VALUES), draw(st.text(max_size=3))
        else:
            new = draw(_JSON_VALUES)
        parent[last] = new
        lines[i] = (kind, json.dumps(obj, separators=(",", ":")))
    text = "".join(line + "\n" for _, line in lines)
    if deep is not None:
        text = text.replace('"DEEP"', "[" * deep + draw(st.sampled_from(["", "0.5", "{}"])) + "]" * deep, 1)
    if draw(st.integers(0, 3)) == 3:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_edited_traces())
def test_check_trace_on_any_edit_of_a_trace_exits_by_the_map(tmp_path_factory, text):
    # whatever the trace holds, check-trace ends with a documented exit code
    # and no traceback or warning, and the warnings filter changes nothing
    base = tmp_path_factory.getbasetemp()
    problem, trace = base / "example.json", base / "edited.cts"
    problem.write_bytes(resources.files("credible_sdp").joinpath("data/running_example.json").read_bytes())
    trace.write_text(text)
    outcomes = []
    for warning_filter in ("default", "error"):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter(warning_filter)
            code = main(["check-trace", "--problem", str(problem), "--trace", str(trace)])
        assert caught == []
        outcomes.append((code, out.getvalue(), err.getvalue()))
    code, out, err = outcomes[0]
    assert outcomes[1] == outcomes[0]
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out.startswith(("trace OK", "trace FAILED", "trace consistent"))


#: A solve with trace and listing, then its check, at each size, through
#: ``cli.main`` in one interpreter; the sentinel is printed after the last.
_EXIT_CLEAN_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from problem_gen import random_problem
from credible_sdp.cli import main
work = Path(sys.argv[1])
for n in (2, 8, 16):
    prob = random_problem(np.random.default_rng(n), n=n)
    data = {"F0": prob.f0.tolist(), "F": prob.fs.tolist(), "b": prob.b.tolist(),
            "X0": prob.x0.tolist(), "epsilon": prob.epsilon}
    problem, trace = work / f"p{n}.json", work / f"t{n}.cts"
    problem.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(problem), "--trace", str(trace),
                 "--listing", str(work / f"l{n}.m")]) == 0
    assert main(["check-trace", "--problem", str(problem), "--trace", str(trace)]) == 0
print("SENTINEL exit-clean")
"""


def test_solve_and_check_leave_nothing_to_run_at_interpreter_exit(tmp_path):
    # whatever runs at exit (a finalizer, a thread, a file left open that
    # development mode warns of) would write after the last line a caller
    # reads as the result; under -W error such a warning is an error on stderr
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(credible_sdp.__file__).resolve().parents[1])
    path = [src, tests, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _EXIT_CLEAN_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, check=False, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "SENTINEL exit-clean"
