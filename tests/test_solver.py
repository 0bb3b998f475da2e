from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from credible_sdp import running_example, solver
from credible_sdp.annotator import check_trace, write_trace
from credible_sdp.linalg import sym_inv, sym_sqrt
from credible_sdp.monitor import EQUALITY_TOL, GAP_CEILING, LOOP_IDS, THETA, check_iteration
from credible_sdp.problem import DEFAULT_SIGMA, ProblemFormatError, SdpProblem, build_problem
from credible_sdp.solver import (
    MAX_BUDGET,
    InitializationError,
    NeighborhoodViolation,
    SolveStatus,
    SolverOptions,
    assemble_newton,
    default_options,
    initialize,
    iteration_bound,
    prepare_newton,
    solve,
    solve_newton,
    take_step,
)
from credible_sdp.symvec import krons, symmetrize, vecs
from problem_gen import random_problem, theta_problem

# values frozen from an independent implementation of the same iteration
EXAMPLE_INITIAL_GAP = 0.09160604824380833
EXAMPLE_Z0 = np.array(
    [
        [0.5314616520633714, -0.08947045092637942],
        [-0.08947045092637942, 0.2008433818506091],
    ]
)
EXAMPLE_BUDGET = 56
EXAMPLE_MIN_POTENTIAL_DROP = 0.19178620904497024


# -- options and bounds --------------------------------------------------------


def test_default_options_pull_problem_scalars(example_problem):
    opts = default_options(example_problem)
    assert opts.epsilon == example_problem.epsilon
    assert opts.sigma == DEFAULT_SIGMA
    assert opts.mode == "audit"


#: Option values SolverOptions refuses, each under an id of its own, so that
#: deleting a case renames no other. The ids keep the names the cases had
#: when pytest numbered them by position.
_BAD_OPTIONS = {
    "bad0": dict(mode="paranoid"),
    "bad1": dict(epsilon=0.0),
    "bad2": dict(epsilon=float("inf")),
    "bad3": dict(sigma=0.0),
    "bad4": dict(sigma=1.0),
    # a trace header can spell these (json reads NaN and Infinity)
    "bad5": dict(epsilon=float("nan")),
    "bad6": dict(sigma=float("nan")),
    "bad7": dict(max_iterations=0),
}


@pytest.mark.parametrize("bad", list(_BAD_OPTIONS.values()), ids=list(_BAD_OPTIONS))
def test_validate_options_rejects_bad_values(bad):
    # options validate on construction, so no SolverOptions holds these
    with pytest.raises(ValueError):
        SolverOptions(**bad)
    with pytest.raises(ValueError):
        dataclasses.replace(SolverOptions(), **bad)


def test_validate_options_accepts_defaults():
    assert SolverOptions() == SolverOptions(epsilon=1e-8, sigma=DEFAULT_SIGMA)
    assert [f.name for f in dataclasses.fields(SolverOptions)] == [
        "epsilon", "sigma", "mode", "max_iterations"
    ]


def test_iteration_bound_worked_values():
    assert iteration_bound(0.1, 1e-8, 0.75) == 57
    assert iteration_bound(EXAMPLE_INITIAL_GAP, 1e-8, 0.75) == EXAMPLE_BUDGET
    assert iteration_bound(1e-9, 1e-8, 0.75) == 0
    assert iteration_bound(1e-8, 1e-8, 0.75) == 0


def test_the_default_sigma_is_never_refused_for_its_budget():
    # the largest budget it certifies: the gap ceiling down to the smallest
    # epsilon SolverOptions accepts
    assert iteration_bound(GAP_CEILING, sys.float_info.min, DEFAULT_SIGMA) == 2455 <= MAX_BUDGET


def test_iteration_bound_is_monotone_in_gap():
    bounds = [iteration_bound(g, 1e-8, 0.75) for g in (1e-6, 1e-4, 1e-2)]
    assert bounds == sorted(bounds)


# -- initialization --------------------------------------------------------------


def test_initialize_recovers_the_planted_dual_point(example_problem):
    state, records = initialize(example_problem, default_options(example_problem))
    np.testing.assert_allclose(state.Z, EXAMPLE_Z0, rtol=1e-12)
    assert state.phi == pytest.approx(EXAMPLE_INITIAL_GAP, rel=1e-13)
    assert state.mu == pytest.approx(EXAMPLE_INITIAL_GAP / 2, rel=1e-13)
    assert state.phim == pytest.approx(EXAMPLE_INITIAL_GAP / 0.75, rel=1e-13)
    assert state.iteration == 0
    assert len(records) == 16 and all(rec.passed for rec in records)


def test_initialize_primal_point_is_feasible(example_problem):
    _, records = initialize(example_problem, default_options(example_problem))
    by_id = {rec.id: rec for rec in records}
    assert by_id["init-primal-feasibility"].measured < 1e-10
    assert by_id["init-dual-feasibility"].measured < 1e-10


def test_initialize_explicit_warm_start_wins_over_file(example_problem):
    mu = 0.04 / 2
    prob = dataclasses.replace(example_problem, x0=mu * np.linalg.inv(EXAMPLE_Z0))
    state, _ = initialize(prob, default_options(prob))
    assert state.phi == pytest.approx(0.04, rel=1e-10)


def test_initialize_requires_some_warm_start():
    # three spanning constraints plant Z = diag(2, 1) as the unique dual
    # solution, so only the missing warm start can trip initialization
    prob = build_problem(
        np.eye(2),
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
        [-2.0, -1.0, 0.0],
    )
    message = "^no primal warm start: the problem has no X0; include one in the problem file$"
    with pytest.raises(InitializationError, match=message):
        initialize(prob, default_options(prob))


def test_initialize_rejects_far_off_center_warm_start(example_problem):
    prob = dataclasses.replace(example_problem, x0=100.0 * np.eye(2))
    with pytest.raises(NeighborhoodViolation) as exc_info:
        initialize(prob, default_options(prob))
    # the message lists every failed record with its measured value and bound
    failed = [rec for rec in exc_info.value.records if not rec.passed]
    assert "init-neighborhood" in [rec.id for rec in failed]
    message = str(exc_info.value)
    for rec in failed:
        assert f"{rec.id} (measured {rec.measured:.6e}, bound {rec.bound:.6e})" in message
    assert "cond(F)" not in message


def test_initialize_rejects_indefinite_warm_start(example_problem):
    prob = dataclasses.replace(example_problem, x0=-np.eye(2))
    with pytest.raises(InitializationError) as exc_info:
        initialize(prob, default_options(prob))
    failed = [rec.id for rec in exc_info.value.records if not rec.passed]
    assert "init-x0-pd" in failed
    assert "init-x0-pd (measured 1.000000e+00, bound -1.000000e-12)" in str(exc_info.value)


def test_initialize_names_an_indefinite_planted_dual_start(example_problem):
    # b planted so that the indefinite Z solves the dual equations
    Z = np.diag([1.0, -0.5])
    b = -np.array([np.sum(Fi * Z) for Fi in example_problem.fs])
    prob = dataclasses.replace(example_problem, b=b)
    with pytest.raises(InitializationError) as exc_info:
        initialize(prob, default_options(prob))
    failed = [rec.id for rec in exc_info.value.records if not rec.passed]
    assert "init-z0-pd" in failed
    assert "init-z0-pd (measured 5.000000e-01, bound -1.000000e-12)" in str(exc_info.value)


@pytest.mark.parametrize(
    "entry, value",
    [((0, 0), np.nan), ((1, 1), np.inf), ((0, 1), -np.inf)],
    ids=["nan", "inf-diagonal", "inf-off-diagonal"],
)
def test_solve_refuses_a_non_finite_warm_start_naming_x0(example_problem, entry, value):
    X0 = example_problem.x0.copy()
    X0[entry] = value
    prob = dataclasses.replace(example_problem, x0=X0)
    with pytest.raises(InitializationError, match="X0 has non-finite entries"):
        solve(prob)


def test_initialize_rejects_wrong_shape_warm_start(example_problem):
    prob = dataclasses.replace(example_problem, x0=np.eye(3))
    with pytest.raises(InitializationError, match=r"X0 has shape \(3, 3\), expected \(2, 2\)"):
        initialize(prob, default_options(prob))


def test_solve_holds_a_warm_start_to_the_load_symmetry_rule(example_problem):
    # a problem file with this X0 is refused, so a replaced X0 is too
    X0 = example_problem.x0.copy()
    X0[0, 1] += 5e-11
    prob = dataclasses.replace(example_problem, x0=X0)
    with pytest.raises(InitializationError, match=r"X0 is not symmetric: max \|a - a.T\| = 5"):
        solve(prob)


def test_initialize_gap_above_ceiling_names_the_contract(example_problem):
    # exactly central (so the neighborhood gate passes) but the gap is 0.2
    X0 = (0.2 / 2) * np.linalg.inv(EXAMPLE_Z0)
    prob = dataclasses.replace(example_problem, x0=X0)
    with pytest.raises(InitializationError) as exc_info:
        initialize(prob, default_options(prob))
    assert "init-gap-upper" in str(exc_info.value)
    failed = [rec.id for rec in exc_info.value.records if not rec.passed]
    assert failed == ["init-gap-upper"]


# -- newton step machinery ---------------------------------------------------------


@pytest.fixture(scope="module")
def first_step(example_problem):
    opts = default_options(example_problem)
    state, _ = initialize(example_problem, opts)
    scaling = prepare_newton(example_problem, state.Z)
    r = assemble_newton(example_problem, state, opts.sigma, scaling)
    return state, solve_newton(r, scaling)


def test_prepare_newton_scaling_pair(first_step, example_problem):
    state, step = first_step
    scaling = prepare_newton(example_problem, state.Z)
    # the right-hand side is built with the state's mu and the given sigma
    r = assemble_newton(example_problem, state, 0.75, scaling)
    mu = state.phi / example_problem.n
    np.testing.assert_allclose(
        r, 0.75 * mu * np.eye(2) - scaling.Zh @ state.X @ scaling.Zh, rtol=1e-15, atol=0
    )
    np.testing.assert_array_equal(step.Zh, scaling.Zh)
    np.testing.assert_array_equal(step.Zhi, scaling.Zhi)
    np.testing.assert_allclose(step.Zh @ step.Zh, state.Z, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(step.Zh @ step.Zhi, np.eye(2), rtol=0, atol=1e-13)
    # H is Zh (x) Zh, whose inverse is Zhi (x) Zhi
    H = scaling.H
    np.testing.assert_allclose(H, krons(step.Zh, step.Zh), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(H @ krons(step.Zhi, step.Zhi), np.eye(3), rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def random_report():
    return solve(random_problem(np.random.default_rng(2024), n=4))


@pytest.fixture(scope="module", params=["example", "random"])
def trajectory(request, example_report, random_report):
    return example_report if request.param == "example" else random_report


def test_scaling_is_one_set_of_arrays_per_solve(trajectory):
    first = trajectory.snapshots[0].step
    for snap in trajectory.snapshots:
        assert snap.step.Zh is first.Zh
        assert snap.step.Zhi is first.Zhi
    # the same values the trace checker recomputes from Zm at every iteration
    Zh = sym_sqrt(trajectory.initial_state.Z)
    np.testing.assert_array_equal(first.Zh, Zh)
    np.testing.assert_array_equal(first.Zhi, sym_inv(Zh))


def test_newton_dx_satisfies_the_scaled_equation(trajectory):
    prob, sigma = trajectory.problem, trajectory.options.sigma
    scaling = prepare_newton(prob, trajectory.initial_state.Z)
    prev = trajectory.initial_state
    for snap in trajectory.snapshots:
        r = vecs(assemble_newton(prob, prev, sigma, scaling))
        residual = np.linalg.norm(scaling.H @ vecs(snap.step.dX) - r)
        assert residual <= EQUALITY_TOL * max(1.0, float(np.linalg.norm(r)))
        prev = snap.state


def test_newton_dp_keeps_primal_feasibility(trajectory):
    fmat = trajectory.problem.fmat
    for snap in trajectory.snapshots:
        dX = vecs(snap.step.dX)
        residual = np.linalg.norm(fmat.T @ snap.step.dp + dX)
        assert residual <= EQUALITY_TOL * max(1.0, float(np.linalg.norm(dX)))


@pytest.mark.parametrize("name", ["example", "random", "theta-C5"])
def test_the_factor_of_f_transpose_is_its_pseudo_inverse(name, example_problem):
    # one QR of F', R^-1 Q^T, is pinv(F') wherever F has full row rank: the
    # admitted square F and the theta problems' m < n(n+1)/2 alike
    prob = {
        "example": lambda: example_problem,
        "random": lambda: random_problem(np.random.default_rng(2024), n=4),
        "theta-C5": lambda: theta_problem(5, [(i, (i + 1) % 5) for i in range(5)]),
    }[name]()
    pinv = np.linalg.pinv(prob.fmat.T)
    assert prob.ft_pinv.shape == pinv.shape
    assert np.abs(prob.ft_pinv - pinv).max() <= 1e-12 * np.abs(pinv).max()
    assert prepare_newton(prob, np.eye(prob.n)).ft_pinv is prob.ft_pinv


def test_a_solve_factors_f_once(monkeypatch):
    calls = {"lstsq": 0, "pinv": 0, "qr": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report = solve(running_example())
    assert report.clean and report.iterations == EXAMPLE_BUDGET
    # Z0's lstsq; one QR gives the start's p and every step's dp
    assert calls == {"lstsq": 1, "pinv": 0, "qr": 1}


def _example_with_f3(f3, scale: float = 1.0) -> SdpProblem:
    """The running example, unadmitted, with F1..Fm and b scaled by ``scale``
    and F3 then replaced by ``f3(fs)``."""
    prob = running_example()
    fs = prob.fs * scale
    fs[2] = f3(fs)
    return dataclasses.replace(prob, fs=fs, b=prob.b * scale)


@pytest.mark.parametrize(
    "f3, scale, cause",
    [
        (lambda fs: 0.0, 1.0, "Singular matrix"),
        # R's last pivot is subnormal (about -6e-321), so R^-1 overflows
        (lambda fs: fs[1], 1e-300, "R\\^-1 @ Q.T leaves the float range"),
    ],
    ids=["F3=0", "F3=F2-scaled-1e-300"],
)
def test_a_singular_factor_is_an_initialization_error(f3, scale, cause):
    message = f"F1..Fm are linearly dependent: .*{cause}"
    with pytest.raises(InitializationError, match=message) as exc_info:
        solve(_example_with_f3(f3, scale))
    assert type(exc_info.value) is InitializationError


def test_a_nearly_singular_factor_fails_primal_feasibility():
    # F3 = F2 leaves R with a rounding-size pivot, not an exact zero: the
    # start is built and its contracts refuse it
    with pytest.raises(NeighborhoodViolation, match="cond\\(F\\)") as exc_info:
        solve(_example_with_f3(lambda fs: fs[1]))
    failed = {rec.id for rec in exc_info.value.records if not rec.passed}
    assert {"init-primal-feasibility", "init-neighborhood"} <= failed


def test_a_primal_start_that_overflows_names_its_equation():
    # F and b scaled by 1e-300 keep Z0; the factor of F' grows by 1e300 and
    # carries p0 past the float range for a warm start scaled by 1e10
    prob = running_example()
    prob = SdpProblem(prob.f0, prob.fs * 1e-300, prob.b * 1e-300, prob.x0 * 1e10, prob.epsilon)
    message = r"overflow encountered in .*\(initial primal solve\)"
    with pytest.raises(InitializationError, match=message):
        solve(prob)


def test_a_sweep_block_moves_no_byte_of_the_trace(example_problem, example_trace, monkeypatch):
    # 56 steps in blocks of 7: eight sweeps, each with the bits of one
    counts = _count_sweeps_and_steps(monkeypatch)
    monkeypatch.setattr(solver, "SWEEP_BLOCK", 7)
    assert write_trace(solve(example_problem)) == example_trace
    assert counts == {"sweeps": EXAMPLE_BUDGET // 7, "steps": EXAMPLE_BUDGET}


def _underdetermined_data(f0_in_span: bool):
    """n = 3 with m = 5 < n(n+1)/2 constraints, so transpose(F) cannot
    represent every symmetric dX. Z = I is planted through F1 = I and the
    warm start X0 = mu*(I + E) is central enough; E lies outside span(F).
    With ``f0_in_span`` the initial primal solve is consistent (F0 + X0 = I)
    and only the first dX is out of reach."""
    rng = np.random.default_rng(5)
    fs = [np.eye(3)] + [symmetrize(rng.normal(size=(3, 3))) for _ in range(4)]
    b = -np.array([np.trace(Fi) for Fi in fs])  # F @ vecs(I) + b == 0
    E = symmetrize(rng.normal(size=(3, 3)))
    E -= np.trace(E) / 3 * np.eye(3)
    X0 = 0.02 * (np.eye(3) + 0.1 * E / np.linalg.norm(E))
    f0 = np.eye(3) - X0 if f0_in_span else np.eye(3)
    return f0, fs, b, X0


# the catalog contract that certifies each least-squares equation
CERTIFYING_CONTRACT = {"initial primal solve": "init-primal-feasibility", "newton-dp": "I9"}


@pytest.mark.parametrize(
    "f0_in_span, equation", [(False, "initial primal solve"), (True, "newton-dp")]
)
def test_unrepresentable_directions_raise_naming_the_equation(f0_in_span, equation):
    f0, fs, b, X0 = _underdetermined_data(f0_in_span)
    with pytest.raises(ProblemFormatError, match=r"n = 3 needs 6, got m = 5"):
        build_problem(f0, fs, b, x0=X0)
    # unadmitted, the solve stops on the contract of the equation it misses
    prob = SdpProblem(f0=f0, fs=fs, b=b, x0=X0)
    contract = CERTIFYING_CONTRACT[equation]
    if not f0_in_span:
        with pytest.raises(InitializationError, match=contract) as exc_info:
            solve(prob)
        failed = [rec.id for rec in exc_info.value.records if not rec.passed]
        assert failed == [contract]
        return
    report = solve(prob)
    assert all(rec.passed for rec in report.init_records)
    first = {rec.id: rec for rec in report.snapshots[0].records}
    assert not first[contract].passed and first["I10"].passed
    strict = solve(prob, dataclasses.replace(default_options(prob), mode="strict"))
    assert strict.status is SolveStatus.INVARIANT_VIOLATION
    assert strict.violation_id == contract


def _one_step_records(prob, scaling_edit=None, rhs_edit=None):
    """Contract records of the first step, with the scaling or the assembled
    right-hand side replaced by ``scaling_edit(scaling)`` or ``rhs_edit(r)``."""
    opts = default_options(prob)
    state, _ = initialize(prob, opts)
    scaling = prepare_newton(prob, state.Z)
    if scaling_edit is not None:
        scaling = scaling_edit(scaling)
    r = assemble_newton(prob, state, opts.sigma, scaling)
    if rhs_edit is not None:
        r = rhs_edit(r)
    step = solve_newton(r, scaling)
    (records,) = check_iteration(prob, [state, take_step(prob, state, step)], [step], opts.sigma)
    return {rec.id: rec for rec in records}


def test_newton_dx_check_fires_on_a_wrong_operator(example_problem):
    assert all(rec.passed for rec in _one_step_records(example_problem).values())
    # I10 checks dX against H built from the step's scaling pair
    doubled = _one_step_records(
        example_problem, scaling_edit=lambda s: dataclasses.replace(s, Zhi=2.0 * s.Zhi)
    )
    assert not doubled["I10"].passed
    # and recomputes the right-hand side, so a wrong r fails it too, while
    # dp still solves its equation for the wrong dX
    negated = _one_step_records(example_problem, rhs_edit=lambda r: -r)
    assert not negated["I10"].passed and negated["I9"].passed


def test_newton_dp_check_fires_on_a_wrong_pseudo_inverse(example_problem):
    by_id = _one_step_records(
        example_problem,
        scaling_edit=lambda s: dataclasses.replace(s, ft_pinv=2.0 * s.ft_pinv),
    )
    assert not by_id["I9"].passed and by_id["I10"].passed
    assert by_id["I9"].detail["dual_residual"] == 0.0


def test_dual_direction_is_exactly_zero(first_step):
    _, step = first_step
    assert np.all(step.dZ == 0.0)
    assert np.any(step.dX != 0.0)  # the primal direction actually moves


def test_take_step_updates_are_exact_sums(first_step, example_problem):
    state, step = first_step
    new = take_step(example_problem, state, step)
    np.testing.assert_array_equal(new.X, state.X + step.dX)
    np.testing.assert_array_equal(new.Z, state.Z)
    np.testing.assert_array_equal(new.p, state.p + step.dp)
    assert new.iteration == 1
    assert new.phim == state.phi  # recomputed from the same arrays
    assert new.phi == pytest.approx(0.75 * state.phi, rel=1e-9)


# -- full runs -------------------------------------------------------------------


def test_solve_converges_on_the_bundled_example(example_report):
    rep = example_report
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == EXAMPLE_BUDGET
    assert rep.budget == EXAMPLE_BUDGET
    assert 0.0 < rep.final_gap <= 1e-8
    assert rep.clean
    assert rep.violation_id is None
    assert len(rep.snapshots) == rep.iterations
    assert all(len(snap.records) == 12 for snap in rep.snapshots)


def test_solve_keeps_the_dual_iterate_fixed(example_report, random_report):
    for report in (example_report, random_report):
        Z0 = report.initial_state.Z
        assert report.iterations > 0
        for snap in report.snapshots:
            np.testing.assert_array_equal(snap.state.Z, Z0)
            assert np.all(snap.step.dZ == 0.0)


def test_solve_gap_contracts_exactly_each_iteration(example_report):
    for snap in example_report.snapshots:
        s = snap.state
        assert abs(s.phi - 0.75 * s.phim) <= 1e-9 * max(1.0, s.phim)


def test_solve_state_chain_is_connected(example_report):
    prev = example_report.initial_state
    for k, snap in enumerate(example_report.snapshots, 1):
        s = snap.state
        assert s.iteration == k
        assert s.phim == prev.phi
        prev = s


def test_solve_tracks_min_slacks(example_report):
    slacks = example_report.min_slacks()
    assert set(slacks) == set(LOOP_IDS) | {rec.id for rec in example_report.init_records}
    for rid in ("I3", "I4", "I5"):
        assert slacks[rid] > 0.0


def test_failed_ids_are_the_sorted_ids_of_the_failed_records(example_report):
    assert example_report.failed_ids == [] and example_report.clean

    def fail(records, ids):
        return [
            dataclasses.replace(rec, passed=rec.passed and rec.id not in ids) for rec in records
        ]

    snaps = [
        dataclasses.replace(snap, records=fail(snap.records, {"I3"})) if k in (2, 5) else snap
        for k, snap in enumerate(example_report.snapshots)
    ]
    dirty = dataclasses.replace(
        example_report,
        init_records=fail(example_report.init_records, {"init-size", "init-f0-pd"}),
        snapshots=snaps,
    )
    assert dirty.failed_ids == ["I3", "init-f0-pd", "init-size"]
    assert not dirty.clean


def _potential(X: np.ndarray, Z: np.ndarray, nu: float) -> float:
    """The Tanabe-Todd-Ye potential (n + nu*sqrt(n))*log(tr(XZ)) - log det(XZ) - n*log(n)."""
    n = len(X)
    logdet = lambda S: float(np.sum(np.log(np.linalg.eigvalsh(S))))  # noqa: E731
    return (n + nu * np.sqrt(n)) * np.log(np.sum(X * Z)) - logdet(X) - logdet(Z) - n * np.log(n)


def test_solve_potential_decreases_every_iteration(example_report):
    # the weight 0.4714 makes n / (n + nu * sqrt(n)) about the run's sigma, 0.75, at n = 2
    nu = 0.4714
    states = [example_report.initial_state, *(snap.state for snap in example_report.snapshots)]
    psi = [_potential(s.X, s.Z, nu) for s in states]
    drop = min(a - b for a, b in zip(psi, psi[1:]))
    assert drop == pytest.approx(EXAMPLE_MIN_POTENTIAL_DROP, rel=1e-9)
    assert drop > 0.19


def test_solve_neighborhood_stays_tight(example_report):
    for snap in example_report.snapshots:
        s = snap.state
        dev = np.linalg.norm(s.X @ s.Z - s.mu * np.eye(2), "fro")
        assert dev <= THETA * s.mu


def test_solve_strict_mode_is_clean_on_the_example(example_problem):
    opts = SolverOptions(epsilon=example_problem.epsilon, mode="strict")
    rep = solve(example_problem, opts)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.clean and rep.violation_id is None
    assert rep.iterations == EXAMPLE_BUDGET


def test_solve_epsilon_above_initial_gap_means_zero_iterations(example_problem):
    opts = SolverOptions(epsilon=0.2)
    rep = solve(example_problem, opts)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 0
    assert rep.budget == 0
    assert rep.clean
    assert rep.final_gap == pytest.approx(EXAMPLE_INITIAL_GAP, rel=1e-13)
    assert rep.final_state is rep.initial_state


def test_solve_iteration_cap_reports_truncation(example_problem):
    opts = SolverOptions(epsilon=1e-8, max_iterations=3)
    rep = solve(example_problem, opts)
    assert rep.status is SolveStatus.ITERATION_CAP
    assert rep.iterations == 3
    assert rep.final_gap > 1e-8


def _sabotaged_assemble(prob, state, sigma, scaling):
    """Assemble a step whose right-hand side is negated: the update then moves
    away from the target point and the gap grows, tripping the guards."""
    return -assemble_newton(prob, state, sigma, scaling)


def test_solve_divergence_guard_stops_growing_gap(example_problem, monkeypatch):
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _sabotaged_assemble)
    rep = solve(example_problem, SolverOptions(epsilon=1e-8, mode="audit"))
    assert rep.status is SolveStatus.DIVERGENCE_GUARD
    assert rep.iterations == 1
    assert not rep.clean
    assert rep.final_gap > rep.initial_state.phi


def test_solve_strict_mode_aborts_on_first_violation(example_problem, monkeypatch):
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _sabotaged_assemble)
    rep = solve(example_problem, SolverOptions(epsilon=1e-8, mode="strict"))
    assert rep.status is SolveStatus.INVARIANT_VIOLATION
    assert rep.violation_id in LOOP_IDS
    assert rep.iterations == 1
    assert not rep.clean


# -- the sweep schedule -------------------------------------------------------------


def _count_sweeps_and_steps(monkeypatch) -> dict:
    """Count the calls of ``monitor.check_iteration`` (one per contract sweep)
    and of ``solver.take_step``, each calling through to the real function."""
    counts = {"sweeps": 0, "steps": 0}

    def sweep(*args):
        counts["sweeps"] += 1
        return check_iteration(*args)

    def step(*args):
        counts["steps"] += 1
        return take_step(*args)

    monkeypatch.setattr("credible_sdp.monitor.check_iteration", sweep)
    monkeypatch.setattr("credible_sdp.solver.take_step", step)
    return counts


@pytest.mark.parametrize("mode, sweeps", [("audit", 1), ("strict", EXAMPLE_BUDGET)])
def test_a_solve_sweeps_once_or_after_every_step(example_problem, monkeypatch, mode, sweeps):
    # an audit run needs no verdict before its walk ends; a strict run needs
    # each step's, since a failed record ends it
    counts = _count_sweeps_and_steps(monkeypatch)
    opts = dataclasses.replace(default_options(example_problem), mode=mode)
    rep = solve(example_problem, opts)
    assert rep.clean and rep.iterations == EXAMPLE_BUDGET
    assert counts == {"sweeps": sweeps, "steps": EXAMPLE_BUDGET}


def test_a_step_that_grows_the_gap_is_swept_at_once(example_problem, monkeypatch):
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _sabotaged_assemble)
    counts = _count_sweeps_and_steps(monkeypatch)
    rep = solve(example_problem, SolverOptions(epsilon=1e-8, mode="audit"))
    assert rep.status is SolveStatus.DIVERGENCE_GUARD
    assert counts == {"sweeps": 1, "steps": 1}


@pytest.mark.parametrize("mode, sweeps", [("audit", 1), ("strict", EXAMPLE_BUDGET)])
def test_a_check_sweeps_as_the_run_it_replays(example_problem, monkeypatch, mode, sweeps):
    opts = dataclasses.replace(default_options(example_problem), mode=mode)
    trace = write_trace(solve(example_problem, opts))
    counts = _count_sweeps_and_steps(monkeypatch)
    assert check_trace(trace, example_problem).clean
    assert counts == {"sweeps": sweeps, "steps": EXAMPLE_BUDGET}


# -- generated problems -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_solve_on_random_problems(seed):
    rng = np.random.default_rng(1000 + seed)
    prob = random_problem(rng)
    rep = solve(prob)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.clean
    assert rep.iterations <= rep.budget
    assert rep.final_gap <= prob.epsilon


def test_solve_random_problem_without_perturbation():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, n=3, perturb=False)
    rep = solve(prob)
    assert rep.status is SolveStatus.CONVERGED and rep.clean


def _wrong_mu_assemble(prob, state, sigma, scaling):
    """Assemble the right-hand side with a mu 1 % above the state's."""
    return assemble_newton(prob, dataclasses.replace(state, mu=1.01 * state.mu), sigma, scaling)


def test_a_right_hand_side_built_with_a_wrong_mu_fails_i7_and_i10(example_problem, monkeypatch):
    # the monitor derives mu = trace(Xm*Zm)/n from the point stepped from, so
    # the linearized gap identity and the Newton equation see the wrong mu
    monkeypatch.setattr("credible_sdp.solver.assemble_newton", _wrong_mu_assemble)
    rep = solve(example_problem, SolverOptions(epsilon=example_problem.epsilon, mode="audit"))
    first = {rec.id for rec in rep.snapshots[0].records if not rec.passed}
    assert first == {"I7", "I8", "I10"}
    failed = {rec.id for rec in rep.all_records() if not rec.passed}
    assert {"I7", "I10"} <= failed
