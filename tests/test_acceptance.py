"""End-to-end acceptance criteria.

Nine checks, one test each, run at their stated tolerances. Each test ends
with a single printed PASS line (visible with ``pytest -v -s`` or on report
sections); a violated criterion fails its test in the ordinary pytest way.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from credible_sdp.annotator import (
    TRACE_SCHEMA,
    TraceFormatError,
    check_trace,
    emit_annotated_listing,
    write_trace,
)
from credible_sdp.monitor import INIT_IDS, LOOP_IDS, anchor
from credible_sdp.solver import (
    NeighborhoodViolation,
    SolverOptions,
    SolveStatus,
    iteration_bound,
    solve,
)
from credible_sdp.symvec import krons, mats, sym_dim, symmetrize, vecs
from problem_gen import random_problem

GOLDEN = {
    "pseudo-matlab": Path(__file__).parent / "golden" / "running_example_listing.m",
    "c-like": Path(__file__).parent / "golden" / "running_example_listing.c",
}

#: The cts-1 and cts-2 proof traces of the bundled example, kept byte for byte.
GOLDEN_CTS1 = Path(__file__).parent / "golden" / "running_example.cts"
GOLDEN_CTS2 = Path(__file__).parent / "golden" / "running_example_cts2.cts"
GOLDEN_CTS3 = Path(__file__).parent / "golden" / "running_example_cts3.cts"


def _ok(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


# 1 ---------------------------------------------------------------------------


def test_criterion_01_running_example_convergence(example_problem):
    t0 = time.perf_counter()
    report = solve(example_problem)
    elapsed = time.perf_counter() - t0

    g0 = report.initial_state.phi
    assert g0 <= 0.1
    expected = math.ceil(math.log(g0 / 1e-8) / math.log(4.0 / 3.0))
    assert report.status is SolveStatus.CONVERGED
    assert report.final_gap <= 1e-8
    assert report.iterations == expected
    assert 53 <= report.iterations <= 57
    assert elapsed < 1.0
    _ok(1, f"converged to gap {report.final_gap:.3e} in exactly "
           f"{report.iterations} iterations ({elapsed * 1e3:.0f} ms)")


# 2 ---------------------------------------------------------------------------


def test_criterion_02_exact_gap_contraction(example_report):
    worst = 0.0
    prev = example_report.initial_state
    for snap in example_report.snapshots:
        s = snap.state
        phi = float(np.trace(s.X @ s.Z))
        phim = float(np.trace(prev.X @ prev.Z))
        err = abs(phi - 0.75 * phim)
        assert err <= 1e-9 * max(1.0, phim)
        worst = max(worst, err)
        prev = s
    _ok(2, f"gap contracted by exactly 0.75 each of {example_report.iterations} "
           f"iterations (worst defect {worst:.3e})")


# 3 ---------------------------------------------------------------------------


def test_criterion_03_invariants_pass_with_positive_slack(example_report):
    for snap in example_report.snapshots:
        assert [rec.id for rec in snap.records] == list(LOOP_IDS)
        assert all(rec.passed for rec in snap.records)
    slacks = example_report.min_slacks()
    sigma = example_report.options.sigma
    assert "0.76" in anchor("I3", sigma)
    assert "0.3105" in anchor("I4", sigma)
    assert "0.7" in anchor("I5", sigma)
    for rid in ("I3", "I4", "I5"):
        assert slacks[rid] > 0.0
    _ok(3, "I1-I12 hold at every iteration; min slack "
           f"I3={slacks['I3']:.3e}, I4={slacks['I4']:.3e}, I5={slacks['I5']:.3e}")


# 4 ---------------------------------------------------------------------------


def test_criterion_04_iteration_budget_holds(example_report):
    assert example_report.iterations <= example_report.budget

    worst_margin = None
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        prob = random_problem(rng, n=int(rng.integers(1, 5)))
        report = solve(prob)
        assert report.status is SolveStatus.CONVERGED
        assert all(rec.passed for rec in report.init_records)
        assert report.iterations <= report.budget
        margin = report.budget - report.iterations
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    _ok(4, "iteration count within certified budget on the bundled example "
           f"and 50 generated problems (smallest margin {worst_margin})")


# 5 ---------------------------------------------------------------------------


def test_criterion_05_vectorization_identities():
    rng = np.random.default_rng(5)
    worst = 0.0

    for _ in range(1000):
        n = int(rng.integers(1, 5))
        Q1 = rng.normal(size=(n, n))
        Q2 = rng.normal(size=(n, n))
        M = symmetrize(rng.normal(size=(n, n)))
        got = krons(Q1, Q2) @ vecs(M)
        want = vecs(symmetrize(0.5 * (Q1 @ M @ Q2.T + Q2 @ M @ Q1.T)))
        worst = max(worst, np.linalg.norm(got - want) / max(1e-30, np.linalg.norm(want)))

    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A = symmetrize(rng.normal(size=(n, n)))
        scale = max(1e-30, np.linalg.norm(A))
        worst = max(worst, np.linalg.norm(mats(vecs(A), n) - A) / scale)
        v = rng.normal(size=(sym_dim(n),))
        worst = max(
            worst, np.linalg.norm(vecs(mats(v, n)) - v) / max(1e-30, np.linalg.norm(v))
        )

    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A = symmetrize(rng.normal(size=(n, n)))
        B = symmetrize(rng.normal(size=(n, n)))
        dot = float(np.dot(vecs(A), vecs(B)))
        tr = float(np.trace(A @ B))
        denom = max(1e-30, np.linalg.norm(A) * np.linalg.norm(B))
        worst = max(worst, abs(dot - tr) / denom)

    assert worst < 1e-11
    np.testing.assert_array_equal(
        vecs(np.array([[0.4, -0.1], [-0.1, 0.2]])), np.array([0.4, -0.1 * np.sqrt(2), 0.2])
    )
    _ok(5, f"3000 randomized vectorization identities hold (worst rel err {worst:.3e}); "
           "worked vecs example is exact")


# 6 ---------------------------------------------------------------------------


def test_criterion_06_newton_equation_residuals(example_report):
    prob = example_report.problem
    worst = 0.0
    prev = example_report.initial_state
    for snap in example_report.snapshots:
        step = snap.step
        r_dual = float(np.linalg.norm(prob.fmat @ vecs(step.dZ)))

        sigma_mu = example_report.options.sigma * prev.mu * np.eye(prob.n)
        lhs = 0.5 * (
            step.Zhi @ (step.dZ @ prev.X + prev.Z @ step.dX) @ step.Zh
            + step.Zh @ (prev.X @ step.dZ + step.dX @ prev.Z) @ step.Zhi
        )
        rhs = sigma_mu - step.Zh @ prev.X @ step.Zh
        prev = snap.state
        r_newton = float(np.linalg.norm(lhs - rhs, "fro"))

        acc = sum(pi * Fi for pi, Fi in zip(step.dp, prob.fs))
        r_primal = float(np.linalg.norm(acc + step.dX, "fro"))

        for r in (r_dual, r_newton, r_primal):
            assert r < 1e-9
            worst = max(worst, r)
    _ok(6, f"all three Newton equations hold to {worst:.3e} < 1e-9 "
           f"at every one of {example_report.iterations} iterations")


# 7 ---------------------------------------------------------------------------


def _numeric_paths(obj, prefix=()):
    """Paths to every nonzero numeric leaf (bools and strings excluded)."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        if obj != 0:
            yield prefix
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _numeric_paths(item, prefix + (i,))
    elif isinstance(obj, dict):
        for key, item in obj.items():
            yield from _numeric_paths(item, prefix + (key,))


# informational header fields no recomputation depends on, in schemas before cts-4
_UNCHECKED = {("options", "nu")}


def _mutate(trace: bytes, line_idx: int, path: tuple, factor: float) -> bytes:
    lines = trace.decode("utf-8").splitlines()
    obj = json.loads(lines[line_idx])
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * factor
    lines[line_idx] = json.dumps(obj)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _detected(trace: bytes, prob) -> bool:
    try:
        return not check_trace(trace, prob).clean
    except TraceFormatError:
        return True


def test_criterion_07_trace_tamper_detection(example_trace, example_problem):
    # the cts-4 trace this solver writes, a cts-3 trace whose header also
    # states nu, a cts-2 trace that stores full direction matrices, and a
    # cts-1 trace that stores every iterate
    goldens = (GOLDEN_CTS3, GOLDEN_CTS2, GOLDEN_CTS1)
    for trace in (example_trace, *(path.read_bytes() for path in goldens)):
        _sweep(trace, example_problem)
    _ok(7, "round-trip is clean; 100/100 random field mutations and "
           f"{len(INIT_IDS) + len(LOOP_IDS)}/28 single-record removals detected, "
           "on a cts-4, a cts-3, a cts-2 and a cts-1 trace")


def _sweep(trace: bytes, prob) -> None:
    assert check_trace(trace, prob).clean

    lines = trace.decode("utf-8").splitlines()
    schema = json.loads(lines[0])["schema"]
    candidates = []
    for i, line in enumerate(lines):
        for path in _numeric_paths(json.loads(line)):
            if i == 0 and path[:2] in _UNCHECKED:
                assert schema != TRACE_SCHEMA, f"a {schema} header has an unchecked field {path}"
                continue
            candidates.append((i, path))
    assert len(candidates) > 100

    rng = np.random.default_rng(7)
    picks = rng.choice(len(candidates), size=100, replace=False)
    missed = []
    for j in picks:
        line_idx, path = candidates[int(j)]
        magnitude = float(10.0 ** rng.uniform(-6, -3))
        sign = 1.0 if rng.integers(2) else -1.0
        mutated = _mutate(trace, line_idx, path, 1.0 + sign * magnitude)
        if not _detected(mutated, prob):
            missed.append((line_idx, path))
    assert not missed, f"undetected mutations: {missed}"

    # removing any single contract record must be caught as well
    removed_missed = []
    for rid in list(INIT_IDS) + list(LOOP_IDS):
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj.get("type") == "record" and obj.get("id") == rid:
                shorter = lines[:i] + lines[i + 1:]
                data = ("\n".join(shorter) + "\n").encode("utf-8")
                if not _detected(data, prob):
                    removed_missed.append(rid)
                break
    assert not removed_missed, f"undetected removals: {removed_missed}"


# 8 ---------------------------------------------------------------------------


def test_criterion_08_annotated_listing_stability(example_problem):
    first = emit_annotated_listing(example_problem)
    second = emit_annotated_listing(example_problem)
    assert first.text == second.text
    assert "phi-0.76*phim<0" in first.text
    assert "trace(X*Z)<=0.1" in first.text
    for flavor, golden in GOLDEN.items():
        assert emit_annotated_listing(example_problem, flavor=flavor).text == golden.read_text()
    _ok(8, f"listing is deterministic ({len(first.lines)} lines, "
           f"{len(first.contract_index)} annotations) and both flavors match their golden copies")


# 9 ---------------------------------------------------------------------------


def test_criterion_09_degenerate_inputs(example_problem):
    with pytest.raises(NeighborhoodViolation):
        solve(dataclasses.replace(example_problem, x0=100.0 * np.eye(2)))

    report = solve(example_problem, SolverOptions(epsilon=0.2))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert report.budget == iteration_bound(report.initial_state.phi, 0.2, 0.75) == 0
    assert report.clean
    _ok(9, "far-off-center warm start rejected by the neighborhood gate; "
           "epsilon above the initial gap converges in 0 iterations, clean")
