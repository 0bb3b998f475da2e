from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from problem_gen import random_problem

from credible_sdp.linalg import PD_TOL, min_eigenvalue, require_pd, sym_inv, sym_sqrt
from credible_sdp.monitor import (
    DZ_BOUND,
    EQUALITY_TOL,
    GAP_CEILING,
    INIT_IDS,
    LOOP_IDS,
    THETA,
    InvariantRecord,
    _fold,
    anchor,
    check_initialization,
    check_iteration,
)
from credible_sdp.problem import ProblemFormatError, SdpProblem, build_problem
from credible_sdp.solver import (
    IterateState,
    NewtonStep,
    SolverOptions,
    default_options,
    initialize,
    solve,
    take_step,
)
from credible_sdp.symvec import symmetrize

F1 = np.diag([1.0, -1.0])
F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
F3 = np.eye(2)


def _unchecked_problem(f0, fs, b) -> SdpProblem:
    """A problem built without validation or admission, as build_problem
    would assemble it."""
    return SdpProblem(f0=np.asarray(f0, dtype=float), fs=fs, b=np.asarray(b, dtype=float))


# -- catalog ---------------------------------------------------------------------


def test_loop_catalog_is_ordered_and_complete():
    assert LOOP_IDS == tuple(f"I{k}" for k in range(1, 13))


def test_init_catalog_has_sixteen_entries():
    assert len(INIT_IDS) == 16
    assert INIT_IDS[0] == "init-f0-pd"
    assert "init-neighborhood" in INIT_IDS
    assert len(set(INIT_IDS) & set(LOOP_IDS)) == 0


def test_constants():
    assert THETA == 0.3105
    assert DZ_BOUND == 0.7
    assert GAP_CEILING == 0.1
    assert EQUALITY_TOL == 1e-9


# -- anchor rendering --------------------------------------------------------------


def test_anchor_substitutes_contraction_margin():
    assert anchor("I3", 0.75) == "phi-0.76*phim<0"
    assert anchor("I3", 0.5) == "phi-0.51*phim<0"


def test_anchor_substitutes_sigma_and_ceiling():
    assert anchor("I8", 0.75) == "trace(X*Z)-0.75*trace(Xm*Zm)==0"
    assert anchor("I2", 0.75) == "phi>0 && phi<=0.1"
    assert anchor("init-gap-upper", 0.75) == "trace(X*Z)<=0.1"
    assert anchor("init-sigma-constant", 0.75) == "sigma==0.75"
    assert anchor("init-phim-seed", 0.75) == "phi-0.76*phim<0"


def test_anchor_mentions_literal_bounds():
    assert "0.3105" in anchor("I4", 0.75)
    assert "0.7" in anchor("I5", 0.75)


def test_unknown_anchor_id_raises():
    with pytest.raises(KeyError):
        anchor("I99", 0.75)


# -- initialization sweep ------------------------------------------------------------


def test_initialization_sweep_passes_on_the_example(example_problem):
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    records = check_initialization(example_problem, state, opts)
    assert [rec.id for rec in records] == list(INIT_IDS)
    assert all(rec.passed for rec in records)


def test_a_record_holds_only_what_its_sweep_measured():
    # where it was taken, its phase and the run's sigma are its holder's
    names = [f.name for f in dataclasses.fields(InvariantRecord)]
    assert names == ["id", "measured", "bound", "passed", "detail"]


def _identity_state(n, m, sigma=0.75):
    phi = float(n)
    return IterateState(
        X=np.eye(n), Z=np.eye(n), p=np.zeros(m),
        mu=phi / n, phi=phi, phim=phi / sigma, iteration=0,
    )


def test_initialization_sweep_reports_broken_inputs_without_raising():
    # an indefinite F0 is constructible with validation off, precisely so the
    # sweep can describe what is wrong with it
    prob = _unchecked_problem(-np.eye(2), [F1, F2], [0.5, -0.25])
    records = check_initialization(prob, _identity_state(2, 2), SolverOptions())
    assert [rec.id for rec in records] == list(INIT_IDS)
    failed = {rec.id for rec in records if not rec.passed}
    assert failed == {"init-f0-pd", "init-dual-feasibility", "init-gap-upper"}


def test_initialization_sweep_flags_bad_phim_seed(example_problem):
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    wrong_seed = dataclasses.replace(state, phim=state.phi)
    records = check_initialization(example_problem, wrong_seed, opts)
    failed = {rec.id for rec in records if not rec.passed}
    assert failed == {"init-phim-seed"}


def test_initialization_sweep_flags_indefinite_x(example_problem):
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    broken = dataclasses.replace(state, X=-state.X)
    records = check_initialization(example_problem, broken, opts)
    by_id = {rec.id: rec for rec in records}
    assert not by_id["init-x0-pd"].passed
    assert by_id["init-z0-pd"].passed


def test_init_p_symmetric_holds_by_construction(example_problem):
    # mats(p, n) mirrors one triangle, so P is symmetric bit for bit and the
    # record measures exactly 0.0 for any p, as the monitor docstring states
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    draws = 1e6 * np.random.default_rng(6).normal(size=(5, example_problem.m))
    for p in (np.array([1.0, -7.0, 3.0]), *draws):
        records = check_initialization(example_problem, dataclasses.replace(state, p=p), opts)
        rec = {r.id: r for r in records}["init-p-symmetric"]
        assert rec.measured == 0.0 and rec.passed


def test_initialization_sweep_on_a_problem_without_constraints():
    # m = 0 only by direct construction: admission refuses it
    prob = _unchecked_problem(np.eye(2), np.zeros((0, 2, 2)), [])
    records = check_initialization(prob, _identity_state(2, 0), SolverOptions())
    by_id = {rec.id: rec for rec in records}
    assert list(by_id) == list(INIT_IDS)
    fi = by_id["init-fi-symmetric"]
    assert fi.passed and fi.detail == {"note": "no constraint matrices"}
    size = by_id["init-size"]
    assert (size.measured, size.bound, size.passed) == (0.0, -1.0, False)
    assert size.detail == {"n": 2, "m": 0}
    # with no terms the primal fold is F0 alone: ||F0 + X||_F = ||2 I||_F
    assert by_id["init-primal-feasibility"].measured == pytest.approx(math.sqrt(8.0))
    failed = {rec.id for rec in records if not rec.passed}
    assert failed == {"init-size", "init-primal-feasibility", "init-gap-upper"}


# The contracts the monitor docstring names as holding by admission.
BY_ADMISSION = ("init-size", "init-fi-symmetric", "init-f0-pd")


@pytest.mark.parametrize("epsilon", [sys.float_info.min, sys.float_info.max])
@pytest.mark.parametrize("sigma", [5e-324, math.nextafter(1.0, 0.0)])
def test_init_contracts_held_by_construction_pass_at_extreme_options(
    example_report, epsilon, sigma
):
    opts = SolverOptions(epsilon=epsilon, sigma=sigma)
    records = check_initialization(example_report.problem, example_report.initial_state, opts)
    by_id = {rec.id: rec for rec in records}
    sigma_rec = by_id["init-sigma-constant"]
    assert (sigma_rec.measured, sigma_rec.bound, sigma_rec.passed) == (0.0, 0.0, True)
    assert by_id["init-epsilon-positive"].passed
    # the one epsilon that could fail it is refused before any sweep
    with pytest.raises(ValueError, match="epsilon must be positive and normal"):
        SolverOptions(epsilon=math.nextafter(sys.float_info.min, 0.0))


def test_init_contracts_held_by_admission_pass_on_the_corpus():
    from corpus_digest import corpus

    for name, prob in corpus():
        _, records = initialize(prob, default_options(prob))
        by_id = {rec.id: rec for rec in records}
        assert all(by_id[rid].passed for rid in BY_ADMISSION), name


@pytest.mark.parametrize(
    "rid, f0, fs",
    [
        ("init-size", np.eye(2), np.zeros((0, 2, 2))),
        ("init-fi-symmetric", np.eye(2), [F1 + np.triu(F2) * 1e-3, F2, F3]),
        ("init-f0-pd", -np.eye(2), [F1, F2, F3]),
    ],
    ids=["no-constraints", "asymmetric-fi", "indefinite-f0"],
)
def test_init_contracts_held_by_admission_fail_on_a_direct_problem(rid, f0, fs):
    b = np.zeros(len(fs))
    with pytest.raises(ProblemFormatError):
        build_problem(f0, list(fs), b, x0=np.eye(2))
    prob = _unchecked_problem(f0, fs, b)
    records = check_initialization(prob, _identity_state(2, prob.m), SolverOptions())
    failed = {rec.id for rec in records if not rec.passed}
    assert failed & set(BY_ADMISSION) == {rid}


def test_f0_with_minimum_eigenvalue_at_the_margin_fails_init_f0_pd(example_problem):
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    at_margin = dataclasses.replace(example_problem, f0=np.diag([PD_TOL, 1.0]))
    rec = check_initialization(at_margin, state, opts)[0]
    assert rec.id == "init-f0-pd"
    assert not rec.passed
    assert rec.measured == rec.bound == -PD_TOL
    assert rec.detail == {"min_eigenvalue": PD_TOL}


def test_pd_records_and_require_pd_agree_on_a_slightly_asymmetric_matrix(example_problem):
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    X = state.X.copy()
    X[0, 1] += 1e-13
    assert np.max(np.abs(X - X.T)) > 0
    records = check_initialization(example_problem, dataclasses.replace(state, X=X), opts)
    rec = {r.id: r for r in records}
    assert rec["init-x0-pd"].passed
    assert rec["init-x0-pd"].detail["min_eigenvalue"] == require_pd(X) == min_eigenvalue(X)


# -- per-iteration sweep ---------------------------------------------------------------


def _sweep(report, k, state=None, step=None):
    """The loop sweep of step ``k`` (0-based) of ``report``, with the point
    reached or the step replaced by ``state`` or ``step``."""
    prev = report.snapshots[k - 1].state if k else report.initial_state
    snap = report.snapshots[k]
    (records,) = check_iteration(
        report.problem, [prev, state or snap.state], [step or snap.step], report.options.sigma
    )
    return records


def test_iteration_sweep_passes_on_real_snapshots(example_report):
    for k in range(3):
        records = _sweep(example_report, k)
        assert [rec.id for rec in records] == list(LOOP_IDS)
        assert all(rec.passed for rec in records)


def test_iteration_sweep_is_deterministic(example_report):
    assert _sweep(example_report, 0) == _sweep(example_report, 0)


def test_iteration_sweep_matches_recorded_outcomes(example_report):
    snap = example_report.snapshots[10]
    fresh = _sweep(example_report, 10)
    for stored, again in zip(snap.records, fresh):
        assert stored.id == again.id
        assert stored.measured == again.measured
        assert stored.bound == again.bound
        assert stored.passed == again.passed


def test_iteration_sweep_catches_scaled_primal_direction(example_report):
    snap = example_report.snapshots[0]
    tampered = dataclasses.replace(snap.step, dX=1.5 * snap.step.dX)
    records = _sweep(example_report, 0, step=tampered)
    failed = {rec.id for rec in records if not rec.passed}
    assert failed == {"I7", "I9", "I10"}


def test_iteration_sweep_catches_drifted_state(example_report):
    snap = example_report.snapshots[0]
    drifted = dataclasses.replace(snap.state, X=snap.state.X + 0.05 * np.eye(2))
    records = _sweep(example_report, 0, state=drifted)
    by_id = {rec.id: rec for rec in records}
    assert not by_id["I4"].passed
    assert len(records) == 12


def test_iteration_sweep_respects_pd_margin(example_report):
    # positive, but not by the margin: lambda_min(X) and lambda_min(I + Zhi dZ Zhi)
    # land at PD_TOL / 2
    snap = example_report.snapshots[0]
    X = snap.state.X - (np.linalg.eigvalsh(snap.state.X)[0] - PD_TOL / 2) * np.eye(2)
    dZ = -(1.0 - PD_TOL / 2) * example_report.initial_state.Z
    records = _sweep(
        example_report,
        0,
        state=dataclasses.replace(snap.state, X=X),
        step=dataclasses.replace(snap.step, dZ=dZ),
    )
    by_id = {rec.id: rec for rec in records}
    for rid, key in (("I1", "min_eigenvalue_X"), ("I12", "min_eigenvalue")):
        assert 0.0 < by_id[rid].detail[key] <= PD_TOL, rid
        assert not by_id[rid].passed, rid


def test_records_carry_useful_detail(example_report):
    snap = example_report.snapshots[0]
    by_id = {rec.id: rec for rec in snap.records}
    assert "min_eigenvalue_X" in by_id["I1"].detail
    assert "min_eigenvalue_Z" in by_id["I1"].detail
    assert "dual_residual" in by_id["I9"].detail
    assert "primal_residual" in by_id["I9"].detail
    assert by_id["I11"].detail["first_leq_middle"] is True


def test_all_record_details_are_serializable(example_report):
    from credible_sdp.annotator import _dumps

    for rec in example_report.all_records():
        _dumps(rec.detail)  # must not raise


def test_sweeps_never_raise_on_asymmetric_garbage(example_problem):
    # contract evaluation reports, it does not crash, even on junk iterates
    n, m = example_problem.n, example_problem.m
    junk = np.array([[1.0, 5.0], [-5.0, 1.0]])
    state = IterateState(
        X=junk, Z=np.eye(n), p=np.zeros(m), mu=1.0, phi=2.0, phim=2.0 / 0.75, iteration=0
    )
    records = check_initialization(example_problem, state, SolverOptions())
    assert len(records) == len(INIT_IDS)


# -- sums over the constraint stack ------------------------------------------------------


def _loop_fold(start, coeffs, fs):
    """The per-constraint loop the stacked sums replaced."""
    acc = np.array(start, dtype=float) + np.zeros(fs.shape[1:])
    for ci, Fi in zip(coeffs, fs):
        acc = acc + ci * Fi
    return acc


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [0, 1, 3, 9, 21, 40])
def test_fold_adds_left_to_right_like_the_loop(n, m):
    # nine or more terms is where a pairwise sum would start to differ; 1 x 1
    # matrices are where numpy's axis-0 reduce would sum pairwise; with no
    # terms the fold is its start
    rng = np.random.default_rng([n, m])
    for _ in range(20):
        F = rng.normal(size=(m, n, n)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1, 1))
        coeffs = rng.normal(size=m) * 10.0 ** rng.uniform(-12, 2, size=m)
        coeffs[rng.random(m) < 0.2] = -0.0
        F[rng.random(F.shape) < 0.1] = 0.0
        for start in (0.0, rng.normal(size=(n, n))):
            expected = _loop_fold(start, coeffs, F)
            np.testing.assert_array_equal(_bits(_fold(start, coeffs, F)), _bits(expected))


def test_i9_primal_residual_is_the_loop_residual_bit_for_bit():
    prob = random_problem(np.random.default_rng(7), n=6)
    report = solve(prob)
    rng = np.random.default_rng(1)
    for k, snap in enumerate(report.snapshots[:5]):
        dp = snap.step.dp * 10.0 ** rng.uniform(-12, 2, size=prob.m)
        dp[rng.random(prob.m) < 0.2] = -0.0
        for step in (snap.step, dataclasses.replace(snap.step, dp=dp)):
            by_id = {rec.id: rec for rec in _sweep(report, k, step=step)}
            loop = float(np.linalg.norm(_loop_fold(0.0, step.dp, prob.fs) + step.dX, "fro"))
            assert by_id["I9"].detail["primal_residual"] == loop


def test_fi_symmetric_names_the_first_of_equally_asymmetric_matrices():
    skew = np.array([[0.0, 1e-3], [0.0, 0.0]])
    fs = [F1, F1 + skew, F1 + 0.5 * skew, -F1 - skew.T]
    prob = _unchecked_problem(np.eye(2), fs, np.zeros(4))
    state = _identity_state(2, 4)
    rec = {r.id: r for r in check_initialization(prob, state, SolverOptions())}["init-fi-symmetric"]
    assert rec.detail["worst_index"] == 2
    assert rec.measured == 1e-3 and not rec.passed


def test_sweeps_render_no_anchor_text(example_problem, monkeypatch):
    # cts-2 traces store no anchors, so neither the solve nor its check
    # renders one; an anchor is rendered from the id and sigma when read
    from credible_sdp import monitor
    from credible_sdp.annotator import check_trace, write_trace

    def refuse(*args):
        raise AssertionError("an anchor was rendered")

    monkeypatch.setattr(monitor, "anchor", refuse)
    report = solve(example_problem)
    assert check_trace(write_trace(report), example_problem).clean
    monkeypatch.undo()
    assert anchor(report.snapshots[0].records[2].id, report.options.sigma) == "phi-0.76*phim<0"
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.snapshots[0].records[2].passed = False


# -- loop sweep on steps that move Z ------------------------------------------------------

#: Records of the loop sweep over ``_dual_run(n)``, one JSON line each,
#: ``[n, iteration, id, measured, bound, passed, detail]``, written by the
#: per-step sweep the stacked one replaced.
DUAL_GOLDEN = Path(__file__).parent / "golden" / "loop_records_dz.jsonl"

DUAL_SIZES = (1, 2, 3, 8)


def _dual_run(n: int, steps: int = 6):
    """(problem, states, steps, sigma): a fixed random walk of ``steps``
    steps at size ``n`` whose dual direction dZ is nonzero, so Z, and with
    it the scaling pair (Zh, Zhi), differs on every step. No admitted
    problem's run moves Z, so only such a walk exercises the dual terms of
    the loop contracts (I5, I6, I7, I9's dual residual, I10, I12)."""
    rng = np.random.default_rng([2718, n])
    prob = random_problem(rng, n=n)
    opts = default_options(prob)
    state, _ = initialize(prob, opts)
    states, taken = [state], []
    for _ in range(steps):
        Zh = sym_sqrt(state.Z)
        E, D = (symmetrize(rng.normal(size=(n, n))) for _ in range(2))
        dZ = 0.2 * min_eigenvalue(state.Z) / np.abs(np.linalg.eigvalsh(D)).max() * D
        step = NewtonStep(
            dX=0.1 * state.mu * E,
            dZ=dZ,
            dp=1e-3 * rng.normal(size=prob.m),
            Zh=Zh,
            Zhi=sym_inv(Zh),
        )
        state = take_step(prob, state, step)
        states.append(state)
        taken.append(step)
    return prob, states, taken, opts.sigma


def _record_line(n: int, k: int, rec: InvariantRecord) -> str:
    return json.dumps([n, k, rec.id, rec.measured, rec.bound, rec.passed, rec.detail])


@pytest.mark.parametrize("n", DUAL_SIZES)
def test_loop_sweep_keeps_the_record_bits_of_steps_that_move_z(n):
    golden = [line for line in DUAL_GOLDEN.read_text().splitlines() if json.loads(line)[0] == n]
    prob, states, steps, sigma = _dual_run(n)
    stacked = check_iteration(prob, states, steps, sigma)
    one_by_one = [
        check_iteration(prob, states[k:k + 2], [step], sigma)[0] for k, step in enumerate(steps)
    ]
    for sweeps in (stacked, one_by_one):
        lines = [
            _record_line(n, k, rec) for k, records in enumerate(sweeps, start=1) for rec in records
        ]
        assert lines == golden
