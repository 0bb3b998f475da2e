from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from credible_sdp.cli import exit_code_for, main, render_report
from credible_sdp.solver import SolveStatus, assemble_newton, solve_newton

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
    assert "sigma:       0.8 (fixed" in out


def test_solve_derives_sigma_from_nu(capsys, problem_file):
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file), "--nu", "0.4714")
    assert code == 0
    assert "derived from nu" in out


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
    assert exit_code_for(example_report) == 0
    assert exit_code_for(dataclasses.replace(example_report, status=SolveStatus.ITERATION_CAP)) == 4
    assert exit_code_for(dataclasses.replace(example_report, status=SolveStatus.DIVERGENCE_GUARD)) == 3
    assert (
        exit_code_for(dataclasses.replace(example_report, status=SolveStatus.INVARIANT_VIOLATION))
        == 2
    )
    failed = dataclasses.replace(example_report.init_records[0], passed=False)
    dirty = dataclasses.replace(example_report, init_records=[failed])
    assert exit_code_for(dirty) == 2  # converged but not clean


def test_render_report_mentions_failed_ids(example_report):
    failed = dataclasses.replace(example_report.init_records[0], passed=False)
    dirty = dataclasses.replace(example_report, init_records=[failed])
    text = render_report(dirty)
    assert "FAILED" in text and failed.id in text


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


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "credible-sdp 0.1.0" in out


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "solve")  # --problem is required
    assert code == 1
    assert "error" in err


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
    [("epsilon", 10**400), ("nu", 10**400), ("b", 10**400), ("epsilon", True), ("F0", True)],
    ids=["epsilon-int1e400", "nu-int1e400", "b-int1e400", "epsilon-true", "F0-true"],
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


@pytest.mark.parametrize("field,value", [("epsilon", -1.0), ("mode", "bogus")])
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
