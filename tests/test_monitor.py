from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
import struct
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from problem_gen import random_problem

from credible_sdp import monitor, solver
from credible_sdp.annotator import check_trace, write_trace
from credible_sdp.linalg import PD_TOL, min_eigenvalue, require_pd, sym_inv, sym_sqrt
from credible_sdp.monitor import (
    CONTRACTION_MARGIN,
    DZ_BOUND,
    EQUALITY_TOL,
    GAP_CEILING,
    INIT_IDS,
    LOOP_IDS,
    THETA,
    InvariantRecord,
    _loop_sweep,
    _primal_folds,
    _TEMPLATES,
    anchor,
    check_initialization,
    check_iteration,
    equality_bound,
    fmt_num,
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
from credible_sdp.symvec import SYMMETRY_TOL, is_symmetric, sym_dim, symmetrize

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


def test_no_anchor_template_spells_a_catalog_constant():
    # the templates print THETA, DZ_BOUND and GAP_CEILING from the constants,
    # as they print sigma + CONTRACTION_MARGIN
    for rid, template in _TEMPLATES.items():
        for constant in (THETA, DZ_BOUND, GAP_CEILING):
            assert fmt_num(constant) not in template, (rid, constant)
    assert "{theta}" in _TEMPLATES["I4"] and "{dz_bound}" in _TEMPLATES["I5"]
    assert "{gap_ceiling}" in _TEMPLATES["I2"] and "{gap_ceiling}" in _TEMPLATES["init-gap-upper"]


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
    from credible_sdp.annotator import _line

    for rec in example_report.all_records():
        _line(rec.detail)  # the trace writer's call; must not raise


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


def _mirrored(a):
    """``a``'s upper triangles mirrored onto the lower ones: symmetric bit for bit."""
    n = a.shape[-1]
    return np.where(np.arange(n)[:, None] <= np.arange(n), a, a.swapaxes(-1, -2))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [0, 1, 3, 9, 21, 40])
def test_fold_adds_left_to_right_like_the_loop(n, m):
    # nine or more terms is where a pairwise sum would start to differ; 1 x 1
    # matrices are where numpy's axis-0 reduce would sum pairwise; with no
    # terms the fold is its start; a start F0 asymmetric bit for bit over a
    # stack symmetric bit for bit needs columns of its own
    rng = np.random.default_rng([n, m])
    for k in range(20):
        F = rng.normal(size=(m, n, n)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1, 1))
        coeffs = rng.normal(size=m) * 10.0 ** rng.uniform(-12, 2, size=m)
        coeffs[rng.random(m) < 0.2] = -0.0
        F[rng.random(F.shape) < 0.1] = 0.0
        prob = _unchecked_problem(rng.normal(size=(n, n)), _mirrored(F) if k % 2 else F, np.zeros(m))
        for start in (0.0, prob.f0):
            expected = _loop_fold(start, coeffs, prob.fs)
            folded = _primal_folds(prob, [coeffs], start)[0]
            np.testing.assert_array_equal(_bits(folded), _bits(expected))


def _full_stack_fold(start, coeffs, F):
    """The stacked fold over all n x n entries of an (m, n, n) stack, as I9
    folded each step before the fold plan: the reference of the plan fold."""
    terms = coeffs[:, None, None] * F
    if not len(terms):
        return start + np.zeros(F.shape[1:])
    terms[0] += start
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _plan_stacks():
    """(name, F0, stack, plan width) for each kind of stack the fold plan meets."""
    rng = np.random.default_rng(24)
    A = rng.normal(size=(21, 6, 6)) * 10.0 ** rng.uniform(-3, 3, size=(21, 1, 1))
    sym = 0.5 * (A + A.swapaxes(1, 2))
    near = sym.copy()  # symmetric within SYMMETRY_TOL only: one lower entry moved
    near[4, 5, 1] += 0.5 * SYMMETRY_TOL * abs(near[4, 1, 5])
    signed = sym.copy()  # a mirror pair 0.0 / -0.0 in one Fi, 0.0 in the others
    signed[:, 3, 0] = signed[:, 0, 3] = 0.0
    signed[7, 3, 0] = -0.0
    f0_signed = np.eye(6)  # a mirror pair 0.0 / -0.0 in F0 alone
    f0_signed[3, 0] = -0.0
    return [
        ("bit-symmetric", np.eye(6), sym, sym_dim(6)),
        ("within-tolerance", np.eye(6), near, sym_dim(6) + 1),
        ("signed-zero-pair", np.eye(6), signed, sym_dim(6) + 1),
        ("f0-signed-zero-pair", f0_signed, sym, sym_dim(6) + 1),
        ("n-1", np.eye(1), rng.normal(size=(21, 1, 1)), 1),
        ("m-0", np.eye(3), np.zeros((0, 3, 3)), sym_dim(3)),
    ]


@pytest.mark.parametrize("name,f0,fs,width", _plan_stacks(), ids=[c[0] for c in _plan_stacks()])
def test_the_plan_fold_is_the_full_stack_fold_bit_for_bit(name, f0, fs, width):
    m, n = fs.shape[:2]
    assert is_symmetric(fs).all() and is_symmetric(f0)  # each is a problem admission accepts
    prob = _unchecked_problem(f0, fs, np.zeros(m))
    columns, entry = prob.fold_plan
    assert columns.shape == (m, width) and columns.flags.c_contiguous
    rng = np.random.default_rng([m, n])
    dps = rng.normal(size=(9, m)) * 10.0 ** rng.uniform(-12, 2, size=(9, m))
    dps[rng.random(dps.shape) < 0.2] = -0.0
    dps[0] = -0.0
    for start in (0.0, prob.f0):
        expected = np.stack([_full_stack_fold(start, dp, fs) for dp in dps])
        for k in (1, 9):  # a one-step sweep and a longer one
            folded = _primal_folds(prob, dps[:k], start)
            np.testing.assert_array_equal(_bits(folded), _bits(expected[:k]))


#: Entries of the fold property: signed zeros, subnormals, the ends of the
#: float range, whose products overflow, and ordinary values.
_FOLD_ENTRIES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0, -3.0]
) | st.floats(-1e3, 1e3)


@st.composite
def _fold_cases(draw):
    """(f0, fs, dps, chunk): an n x n F0 and an (m, n, n) stack, each
    symmetric bit for bit or not, or F0 symmetric but for one 0.0 / -0.0
    mirror pair; K coefficient rows and a FOLD_CHUNK that cuts the K steps
    into chunks."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 20 if n == 1 else 8))  # 9 or more terms tell a pairwise sum
    fs = draw(arrays(float, (m, n, n), elements=_FOLD_ENTRIES))
    if draw(st.booleans()):
        fs = _mirrored(fs)
    f0 = draw(arrays(float, (n, n), elements=_FOLD_ENTRIES))
    f0_kind = draw(st.sampled_from(["any", "symmetric", "signed-zero-pair"]))
    if f0_kind != "any":
        f0 = _mirrored(f0)
    if f0_kind == "signed-zero-pair" and n > 1:
        f0[0, -1], f0[-1, 0] = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
    dps = draw(arrays(float, (draw(st.integers(1, 9)), m), elements=_FOLD_ENTRIES))
    return f0, fs, dps, draw(st.integers(1, 60))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_fold_cases())
def test_the_batched_primal_folds_are_the_per_step_folds_bit_for_bit(case):
    # E = 1 (n = 1) takes accumulate, m = 0 folds to its start plus 0.0, a
    # small FOLD_CHUNK puts chunk boundaries inside the K steps, and each
    # step starts from 0.0 (I9) or from F0 (init-primal-feasibility)
    f0, fs, dps, chunk = case
    prob = _unchecked_problem(f0, fs, np.zeros(len(fs)))
    with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(monitor, "FOLD_CHUNK", chunk):
        for start in (0.0, prob.f0):
            batched = _primal_folds(prob, dps, start)
            expected = np.stack([_full_stack_fold(start, dp, prob.fs) for dp in dps])
            np.testing.assert_array_equal(_bits(batched), _bits(expected))


def test_the_fold_buffer_holds_one_step_at_n_16():
    prob = random_problem(np.random.default_rng(16), n=16)
    assert prob.fold_plan[0].size <= monitor.FOLD_CHUNK < 2 * prob.fold_plan[0].size
    assert monitor.FOLD_CHUNK * 8 <= 256 * 1024


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


# -- the loop rules over columns ----------------------------------------------------

#: The measured columns ``_loop_sweep`` takes, in its order.
_COLUMNS = (
    "mu_next", "phi", "phim", "mu", "gap", "lam_x", "lam_z", "dev4", "v5", "v6", "xm_dz",
    "dx_zm", "r_dual", "r_primal", "norm_dx", "v10", "norm_rhs10", "a11", "middle11", "lam12",
)


def _scalar_records(sigma, n, mu_next, phi, phim, mu, gap, lam_x, lam_z, dev4, v5, v6, xm_dz,
                    dx_zm, r_dual, r_primal, norm_dx, v10, norm_rhs10, a11, middle11, lam12):
    """One step's records by the scalar formulas on Python floats, as the
    per-step sweep built them: the reference of the column rules."""

    def record(rid, measured, bound, passed, detail=None):
        return InvariantRecord(rid, float(measured), float(bound), bool(passed), detail or {})

    def le(rid, measured, bound, detail=None):
        return record(rid, measured, bound, float(measured) <= float(bound), detail)

    def lt(rid, measured, bound, detail=None):
        return record(rid, measured, bound, float(measured) < float(bound), detail)

    def pd(rid, lam, detail=None):
        return lt(rid, -lam, -PD_TOL, detail or {"min_eigenvalue": lam})

    def eq_bound(ref):
        return EQUALITY_TOL * max(1.0, abs(ref))

    def equal(rid, residual, ref, detail=None):
        return le(rid, residual, eq_bound(ref), detail)

    lhs7, rhs7 = xm_dz + dx_zm + gap, sigma * n * mu
    b11, c11 = 0.5 * middle11, THETA * sigma * mu
    return [
        pd("I1", min(lam_x, lam_z), {"min_eigenvalue_X": lam_x, "min_eigenvalue_Z": lam_z}),
        record("I2", phi, GAP_CEILING, phi > 0.0 and phi <= GAP_CEILING, {"lower_ok": phi > 0.0}),
        lt("I3", phi - (sigma + CONTRACTION_MARGIN) * phim, 0.0, {"phi": phi, "phim": phim}),
        le("I4", dev4, THETA * mu_next),
        le("I5", v5, DZ_BOUND),
        le("I6", v6, THETA * sigma * mu),
        equal("I7", abs(lhs7 - rhs7), rhs7, {"lhs": lhs7, "rhs": rhs7}),
        equal("I8", abs(phi - sigma * phim), phim, {"phi": phi, "phim": phim}),
        equal("I9", max(r_dual, r_primal), norm_dx, {"dual_residual": r_dual, "primal_residual": r_primal}),
        equal("I10", v10, norm_rhs10),
        record(
            "I11", a11, c11, a11 <= c11 and a11 <= b11 + eq_bound(b11),
            {"chain_first": a11, "chain_middle": b11, "chain_bound": c11,
             "first_leq_middle": a11 <= b11, "middle_leq_bound": b11 <= c11},
        ),
        pd("I12", lam12),
    ]


def _exactly(value):
    """A value with its type and, for a float, its bits: equal only if identical."""
    return (type(value), struct.pack("<d", value) if type(value) is float else value)


def _assert_records_are_the_scalar_ones(sigma, n, rows):
    columns = {key: np.array([row[key] for row in rows], dtype=float) for key in _COLUMNS}
    with np.errstate(all="raise"):  # the rules raise no flag, as Python floats raise none
        sweeps = _loop_sweep(sigma, n, **columns)
    assert len(sweeps) == len(rows)
    for records, row in zip(sweeps, rows):
        expected = _scalar_records(sigma, n, **{key: float(row[key]) for key in _COLUMNS})
        assert [r.id for r in records] == list(LOOP_IDS)
        for rec, ref in zip(records, expected):
            assert (rec.id, _exactly(rec.measured), _exactly(rec.bound), _exactly(rec.passed)) == (
                ref.id, _exactly(ref.measured), _exactly(ref.bound), _exactly(ref.passed)
            )
            assert list(rec.detail) == list(ref.detail)
            assert [_exactly(v) for v in rec.detail.values()] == [_exactly(v) for v in ref.detail.values()]
    return sweeps


#: A step that passes every loop contract at sigma = 0.5, n = 2.
_PASSING_ROW = dict(
    mu_next=0.01, phi=0.01, phim=0.02, mu=0.02, gap=0.04, lam_x=0.5, lam_z=0.25, dev4=0.0,
    v5=0.0, v6=0.0, xm_dz=0.0, dx_zm=-0.02, r_dual=0.0, r_primal=1e-18, norm_dx=0.1,
    v10=1e-18, norm_rhs10=0.1, a11=1e-18, middle11=4e-18, lam12=1.0,
)


def test_column_rules_decide_edge_columns_as_the_scalar_formulas():
    sigma, n = 0.5, 2
    b11 = 0.5 * 0.25
    rows = [
        _PASSING_ROW,
        # measured exactly at its bound: passes <= (I4, I5, I6), fails < (I3, I12)
        {**_PASSING_ROW, "dev4": THETA * 0.01, "v5": DZ_BOUND, "v6": THETA * sigma * 0.02,
         "phi": (sigma + CONTRACTION_MARGIN) * 0.02, "lam12": PD_TOL},
        # min and max keep their first argument on a tie of signed zeros
        {**_PASSING_ROW, "lam_x": 0.0, "lam_z": -0.0, "r_dual": 0.0, "r_primal": -0.0},
        {**_PASSING_ROW, "lam_x": -0.0, "lam_z": 0.0, "r_dual": -0.0, "r_primal": 0.0},
        {**_PASSING_ROW, "r_dual": 1e-12, "r_primal": 1e-12},
        # |ref| == 1.0 in equality_bound (rhs7 = sigma*n*mu = 1.0, phim = -1.0),
        # I9's and I10's residuals at that bound
        {**_PASSING_ROW, "mu": 1.0, "gap": 1.0, "dx_zm": 0.0, "phim": -1.0, "phi": sigma * -1.0,
         "norm_dx": 1.0, "r_primal": EQUALITY_TOL, "norm_rhs10": -1.0, "v10": EQUALITY_TOL},
        # ties in I11's chain: first == middle == bound (THETA*sigma*mu), and
        # first exactly at middle plus its equality bound
        {**_PASSING_ROW, "mu": 1.0, "a11": THETA * sigma * 1.0, "middle11": 2 * THETA * sigma},
        {**_PASSING_ROW, "mu": 1.0, "middle11": 0.25, "a11": b11 + EQUALITY_TOL * max(1.0, b11)},
    ]
    sweeps = _assert_records_are_the_scalar_ones(sigma, n, rows)
    verdicts = [{rec.id: rec.passed for rec in records} for records in sweeps]
    assert all(verdicts[0].values())
    assert (verdicts[1]["I4"], verdicts[1]["I5"], verdicts[1]["I6"]) == (True, True, True)
    assert (verdicts[1]["I3"], verdicts[1]["I12"]) == (False, False)
    by_id = [{rec.id: rec for rec in records} for records in sweeps]
    assert _exactly(by_id[2]["I1"].measured) == _exactly(-0.0)  # -min(0.0, -0.0)
    assert _exactly(by_id[3]["I1"].measured) == _exactly(0.0)  # -min(-0.0, 0.0)
    assert _exactly(by_id[2]["I9"].measured) == _exactly(0.0)
    assert _exactly(by_id[3]["I9"].measured) == _exactly(-0.0)
    assert [by_id[5][rid].bound for rid in ("I7", "I8", "I9", "I10")] == [EQUALITY_TOL] * 4
    assert all(by_id[5][rid].passed for rid in ("I7", "I8", "I9", "I10"))
    chain = by_id[6]["I11"]
    assert chain.passed and chain.detail["first_leq_middle"] and chain.detail["middle_leq_bound"]
    assert by_id[7]["I11"].passed and not by_id[7]["I11"].detail["first_leq_middle"]


def test_equality_bound_keeps_one_unless_the_reference_is_past_it():
    refs = [1.0, -1.0, np.nextafter(1.0, 2.0), 0.5, -0.0, np.nan, np.inf]
    expected = [EQUALITY_TOL * max(1.0, abs(ref)) for ref in refs]
    assert _bits(equality_bound(np.array(refs))).tolist() == _bits(expected).tolist()
    assert [float(equality_bound(ref)) for ref in refs[:4]] == expected[:4]


#: Column entries of the rule property: signed zeros, the catalog's
#: constants, values at one, and values whose sums overflow.
_RULE_ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 0.25, THETA, DZ_BOUND, PD_TOL, -PD_TOL, GAP_CEILING, 0.51,
     EQUALITY_TOL, 5e-324, 1e308, -1e308]
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from([0.5, 0.75]),
    st.integers(1, 3),
    st.lists(st.fixed_dictionaries({key: _RULE_ENTRIES for key in _COLUMNS}), min_size=1, max_size=4),
)
def test_column_rules_are_the_scalar_formulas_entry_by_entry(sigma, n, rows):
    _assert_records_are_the_scalar_ones(sigma, n, rows)


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


# -- one verdict rule per contract -------------------------------------------------------

#: The verdict rule of each contract: "le" passes when measured <= bound,
#: "lt" when measured < bound; a "compound" contract states its own verdict.
RULES = {
    "init-f0-pd": "lt",
    "init-fi-symmetric": "le",
    "init-size": "le",
    "init-z0-pd": "lt",
    "init-dual-feasibility": "le",
    "init-x0-pd": "lt",
    "init-neighborhood": "le",
    "init-gap-upper": "le",
    "init-gap-positive": "lt",
    "init-p-symmetric": "le",
    "init-primal-feasibility": "le",
    "init-epsilon-positive": "lt",
    "init-sigma-constant": "le",
    "init-phi-definition": "le",
    "init-phim-seed": "lt",
    "init-mu-definition": "le",
    "I1": "lt",
    "I2": "compound",
    "I3": "lt",
    "I4": "le",
    "I5": "le",
    "I6": "le",
    "I7": "le",
    "I8": "le",
    "I9": "le",
    "I10": "le",
    "I11": "compound",
    "I12": "lt",
}

_RULE_OPS = {"le": operator.le, "lt": operator.lt}


def test_each_simple_contract_has_the_rule_its_anchor_states():
    assert list(RULES) == list(INIT_IDS + LOOP_IDS)
    assert [rid for rid, rule in RULES.items() if rule == "compound"] == ["I2", "I11"]
    for rid, rule in RULES.items():
        comparisons = re.findall(r"<=|>=|==|<|>|isposdef", anchor(rid, 0.75))
        strict = {op in ("<", ">", "isposdef") for op in comparisons}
        if rule != "compound":
            assert strict == {rule == "lt"}, (rid, comparisons)


def _rule_holds(records):
    for rec in records:
        if RULES[rec.id] != "compound":
            assert rec.passed is _RULE_OPS[RULES[rec.id]](rec.measured, rec.bound), rec


def test_every_record_is_its_rule_applied_to_its_measured_value_and_bound(example_report):
    _rule_holds(example_report.all_records())
    # failing records too: a broken start and steps that move Z
    prob = _unchecked_problem(-np.eye(2), [F1, F2], [0.5, -0.25])
    _rule_holds(check_initialization(prob, _identity_state(2, 2), SolverOptions()))
    for n in (2, 3):
        prob, states, steps, sigma = _dual_run(n)
        for records in check_iteration(prob, states, steps, sigma):
            _rule_holds(records)


# -- which loop contracts are identities of the square loop body ---------------------------
#
# Polynomial identity testing (Schwartz, J. ACM 27(4), 1980): a rational
# function that is not identically zero is nonzero at a random point with
# high probability, so one that is exactly zero at random rational points is
# an identity of the loop body. Every admitted problem has m = n(n+1)/2
# independent Fi, so dZ = 0 and F' is invertible; the loop body is evaluated
# exactly with those inputs.


def _rational(rng, shape):
    """Random rationals a / b with |a| < 10 and 0 < b < 8, as an object array."""
    pairs = zip(rng.integers(-9, 10, shape).ravel(), rng.integers(1, 8, shape).ravel())
    return np.array([Fraction(int(a), int(b)) for a, b in pairs], dtype=object).reshape(shape)


def _eye(n):
    return np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)


def _rational_spd(rng, n):
    A = _rational(rng, (n, n))
    return A @ A.T + _eye(n)


def _solve_exact(A, B):
    """X with A @ X == B exactly, by Gauss-Jordan elimination; A invertible."""
    k = len(A)
    rows = [list(A[i]) + list(np.atleast_1d(B[i])) for i in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return np.array([row[k:] for row in rows], dtype=object).reshape(B.shape)


def _tr(A):
    return sum(A[i, i] for i in range(len(A)))


def _square_loop_body(rng, n):
    """The quantities of one exact step of the square loop body at a random
    rational point: symmetric PD Zh and Xm, sigma in (0, 1) and m = n(n+1)/2
    symmetric F1..Fm. Z = Zh^2 and Zhi = Zh^-1; dZ = 0; dX = Zhi r Zhi with
    r = sigma mu I - Zh Xm Zh; dp solves sum(dp_i Fi) = -dX on the upper
    triangle, where the sqrt(2) of ``vecs`` cancels."""
    m = n * (n + 1) // 2
    eye = _eye(n)
    Zh, Xm = _rational_spd(rng, n), _rational_spd(rng, n)
    sigma = Fraction(int(rng.integers(1, 10)), 10)
    fs = [A + A.T for A in (_rational(rng, (n, n)) for _ in range(m))]
    Z = Zm = Zh @ Zh
    Zhi = _solve_exact(Zh, eye)
    dZ = 0 * eye
    mu = _tr(Xm @ Zm) / n
    target = sigma * mu * eye
    dX = Zhi @ (target - Zh @ Xm @ Zh) @ Zhi
    i, j = np.triu_indices(n)
    dp = _solve_exact(np.array([F[i, j] for F in fs]).T, -dX[i, j])
    X = Xm + dX
    gap, phi = _tr(Xm @ Zm), _tr(X @ Z)
    return {
        "I7": _tr(Xm @ dZ) + _tr(dX @ Zm) + gap - sigma * n * mu,
        "I8": phi - sigma * gap,
        "I9 primal": sum(c * F for c, F in zip(dp, fs)) + dX,
        "I10": Fraction(1, 2) * (Zhi @ (dZ @ Xm + Zm @ dX) @ Zh + Zh @ (Xm @ dZ + dX @ Zm) @ Zhi)
        - (target - Zh @ Xm @ Zh),
        "I4 measured": X @ Z - (phi / n) * eye,
        "I11 first": Zh @ X @ Zh - target,
        "I11 middle": Zhi @ (Z @ X - target) @ Zh + Zh @ (X @ Z - target) @ Zhi,
        "control": X @ Z - mu * eye,  # the old mu: XZ - mu I = (sigma - 1) mu I
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_square_loop_body_makes_the_equality_contracts_identities(n):
    rng = np.random.default_rng([1980, n])
    for _ in range(3):
        values = _square_loop_body(rng, n)
        control = values.pop("control")
        for name, value in values.items():
            assert all(type(v) is Fraction and v == 0 for v in np.ravel(value)), name
        assert any(v != 0 for v in np.ravel(control))


# -- contract witnesses ------------------------------------------------------------------


def _sqrt_by_power(power):
    """``sym_sqrt`` with each eigenvalue w raised to ``power``, not 1/2."""

    def fault(S):
        w, V = np.linalg.eigh(S)
        return symmetrize((V * w**power) @ V.T)

    return lambda original: fault


def _scaled(factor):
    return lambda original: lambda S: factor * original(S)


#: One row per injected fault (ROADMAP item 3): the ``solver`` module
#: attribute it replaces, the fault as a function of the original, and the
#: exact set of contracts that the running example's audit solve then fails.
WITNESSES = {
    "sym_sqrt x 1.001": ("sym_sqrt", _scaled(1.001), {"I7", "I8", "I10"}),
    "sym_sqrt w^0.49": ("sym_sqrt", _sqrt_by_power(0.49), {"I7", "I8", "I10"}),
    "sym_inv x 1.001": ("sym_inv", _scaled(1.001), {"I7", "I8", "I10"}),
}


@pytest.mark.parametrize("name", WITNESSES)
def test_each_witness_fault_fails_exactly_its_contracts(example_problem, monkeypatch, name):
    attribute, fault, failed = WITNESSES[name]
    monkeypatch.setattr(solver, attribute, fault(getattr(solver, attribute)))
    report = solve(example_problem)
    monkeypatch.undo()
    assert report.failed_ids == sorted(failed)
    # the checker recomputes what the fault changed, so its trace is refused
    result = check_trace(write_trace(report), example_problem)
    assert result.failed_ids == sorted(failed)
    assert result.findings
