from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from credible_sdp.cli import ENV_TOL, exit_code_for, main, render_report
from credible_sdp.solver import SolveStatus, assemble_newton


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


def test_solve_divergence_guard_exit_code(capsys, problem_file, monkeypatch):
    def sabotage(prob, state, sigma, scaling):
        step = assemble_newton(prob, state, sigma, scaling)
        step.r = -step.r
        return step

    monkeypatch.setattr("credible_sdp.solver.assemble_newton", sabotage)
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert code == 3
    assert "DivergenceGuard" in out


def test_solve_strict_mode_violation_exit_code(capsys, problem_file, monkeypatch):
    def sabotage(prob, state, sigma, scaling):
        step = assemble_newton(prob, state, sigma, scaling)
        step.r = -step.r
        return step

    monkeypatch.setattr("credible_sdp.solver.assemble_newton", sabotage)
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


@pytest.mark.parametrize("field,value", [("pd_margin", -1.0), ("mode", "bogus")])
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


# -- environment tolerance -----------------------------------------------------------


def test_env_tolerance_must_be_numeric(capsys, problem_file, monkeypatch):
    monkeypatch.setenv(ENV_TOL, "not-a-number")
    code, _, err = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert code == 1
    assert ENV_TOL in err


def test_env_tolerance_must_be_positive(capsys, problem_file, monkeypatch):
    monkeypatch.setenv(ENV_TOL, "-1e-9")
    code, _, err = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert code == 1


def test_env_tolerance_loosens_equality_checks(capsys, problem_file, monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_TOL, "1e-6")
    trace_path = tmp_path / "run.trace"
    code, out, _ = run_cli(
        capsys, "solve", "--problem", str(problem_file), "--trace", str(trace_path)
    )
    assert code == 0
    header = json.loads(trace_path.read_text().splitlines()[0])
    assert header["options"]["equality_tol"] == 1e-6


def test_env_tolerance_ignored_when_blank(capsys, problem_file, monkeypatch):
    monkeypatch.setenv(ENV_TOL, "  ")
    code, _, _ = run_cli(capsys, "solve", "--problem", str(problem_file))
    assert code == 0
