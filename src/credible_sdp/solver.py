"""Short-step primal-dual interior-point SDP solver.

The iteration keeps a strictly feasible primal-dual pair (X, Z, p) inside a
narrow central-path neighborhood and shrinks the duality gap trace(X @ Z) by
a fixed factor ``sigma`` per step. Search directions solve the scaled
(Monteiro-Zhang) Newton system built with the symmetric square root of Z:

    Zh  = Z^(1/2),  Zhi = Zh^(-1)
    H   = krons(Zh, Zh)
    r   = sigma * mu * I - Zh @ X @ Zh

    F @ vecs(dZ) = 0,   H @ vecs(dX) = vecs(r),   F' @ dp = -vecs(dX)

each at minimum norm. The minimum-norm solution of the homogeneous dual
equations is exactly dZ = 0, so the dual iterate never moves and the dX
equation loses its dZ coupling term krons(Zhi, Zh @ X) @ vecs(dZ). Zh and
Zhi are therefore computed once per solve (``prepare_newton``), and F',
which never changes, is factored once per problem (``SdpProblem.ft_pinv``,
one QR), for the start's p and every step's dp. A step then costs O(n^3):
krons(Zh, Zh) has the closed-form inverse krons(Zhi, Zhi), so
dX = Zhi @ r @ Zhi, and dp comes from the stored pseudo-inverse of F'.
Nothing reads H itself: ``prepare_newton`` builds it only for the
benchmark's ``solver.krons`` span. The full step (length 1) is always taken.

The solver does not check the directions itself: contract I10 checks dX
against the Newton equation with its right-hand side recomputed, and I9
checks dZ and dp against the feasibility equations. Every problem that
``problem.build_problem`` admits has m = n(n+1)/2 independent constraints,
so F' is invertible and dp solves its equation for any dX. Every input of a
run is admitted by ``problem``: the problem by ``build_problem``, its warm
start X0 by ``admit_x0`` and the options by ``problem.SolverOptions``, which
raises ValueError on a bad value. The warm start is the problem's ``x0``
alone; ``solve`` and ``initialize`` take no other.

The loop is written once, in one generator, ``iterate``: it takes the
steps, has the ``monitor`` module check the contracts of the steps taken
since the last sweep in one sweep (after every step in strict mode, which a
failed record ends; else when a step grows the gap, when ``SWEEP_BLOCK``
steps are pending or when the walk ends), and
stops on the exit rule (``step_exit``). ``solve`` drives it with Newton
directions, the trace checker with those a trace stores. A report stores
each fact once: the iteration count, the final state, the budget and the
exit are read off its start and its snapshots. A state does not store its
predecessor, nor a step its mu and sigma.

A solve runs under the trace checker's floating-point rule, ``FLOAT_RULE``,
so its outcome does not depend on the warnings filter: a starting point
whose contracts overflow is an InitializationError, and an overflow in the
loop raises FloatingPointError, naming the contract or step quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator, Iterator

import numpy as np

from . import monitor
from .linalg import identity, lsqr_solve, sym_inv, sym_sqrt, trace_inner
from .problem import (
    FLOAT_RULE,
    ProblemFormatError,
    SdpProblem,
    SolverOptions,
    admit_x0,
)
from .symvec import krons, mats, symmetrize, vecs_stack


class InitializationError(RuntimeError):
    """The starting point could not be built or violates its contracts."""

    def __init__(self, message: str, records: list | None = None):
        super().__init__(message)
        self.records = records if records is not None else []


class NeighborhoodViolation(InitializationError):
    """The starting pair lies outside the central-path neighborhood
    (``init-neighborhood`` failed, possibly among other contracts)."""


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    DIVERGENCE_GUARD = "DivergenceGuard"
    ITERATION_CAP = "IterationCap"
    INVARIANT_VIOLATION = "InvariantViolation"


def default_options(prob: SdpProblem) -> SolverOptions:
    """Options with the problem file's epsilon filled in."""
    return SolverOptions(epsilon=prob.epsilon)


def iteration_bound(initial_gap: float, epsilon: float, sigma: float) -> int:
    """Iterations guaranteed to reach gap <= epsilon under exact contraction.

    ceil(log(initial_gap / epsilon) / log(1 / sigma)); 0 when already there.
    """
    if initial_gap <= epsilon:
        return 0
    return math.ceil(math.log(initial_gap / epsilon) / math.log(1.0 / sigma))


#: The most steps a solve may take. A report holds every step: a solve of this
#: many steps at n = 16 peaks at about 200 MB. The default sigma certifies at
#: most 2,455 steps, at the smallest epsilon ``SolverOptions`` accepts and the
#: 0.1 gap ceiling.
MAX_BUDGET = 10**4

#: The most steps the loop holds unswept: an audit run sweeps each block of
#: this many steps as it fills, so its sweep's stacks stay bounded however
#: long the run. The monitor gives a step the same bits whether it is swept
#: alone or with others, so the block size moves no record.
SWEEP_BLOCK = 256


def iteration_cap(opts: SolverOptions, budget: int) -> int:
    """``max_iterations``, or by default ten times the certified budget (at least 10)."""
    return opts.max_iterations if opts.max_iterations is not None else max(10, 10 * budget)


@dataclass(frozen=True, slots=True)
class IterateState:
    """The pair (X, Z, p) after ``iteration`` steps, its duality gap ``phi``,
    ``mu = phi / n`` and ``phim``, the gap one step earlier (seeded to
    ``phi / sigma`` at iteration 0, so the contraction contract holds
    vacuously for the starting point). Its predecessor is held by the caller.

    ``mu`` and ``phim`` are stored although derivable: ``init-mu-definition``
    and ``init-phim-seed`` judge the values a run states.
    """

    X: np.ndarray
    Z: np.ndarray
    p: np.ndarray
    mu: float
    phi: float
    phim: float
    iteration: int


@dataclass(frozen=True, slots=True)
class NewtonScaling:
    """The loop invariants of the Newton system, computed once per solve.

    The dual iterate Z never moves, so neither do its scaling pair (Zh, Zhi)
    nor the scaled operator ``H = krons(Zh, Zh)``. No step, contract or
    listing statement reads H; it is kept, with its ``krons`` call, only
    because the benchmark's layer trace times a ``solver.krons`` span.
    ``ft_pinv`` is the problem's pseudo-inverse of F' (``SdpProblem.ft_pinv``):
    it maps a right-hand side to the minimum-norm dp.
    """

    Zh: np.ndarray
    Zhi: np.ndarray
    H: np.ndarray
    ft_pinv: np.ndarray


@dataclass(frozen=True, slots=True)
class NewtonStep:
    """The minimum-norm directions of one Newton step and the scaling pair
    they were computed with. The monitor derives the right-hand side's mu from
    the point stepped from and takes sigma from the run, so a step read back
    from a trace is the same object as a live one.
    """

    dX: np.ndarray
    dZ: np.ndarray
    dp: np.ndarray
    Zh: np.ndarray
    Zhi: np.ndarray


def prepare_newton(prob: SdpProblem, Z: np.ndarray) -> NewtonScaling:
    """Compute the per-solve invariants of the Newton system at the fixed Z."""
    Zh = sym_sqrt(Z)
    Zhi = sym_inv(Zh)
    return NewtonScaling(Zh=Zh, Zhi=Zhi, H=krons(Zh, Zh), ft_pinv=prob.ft_pinv)


def assemble_newton(
    prob: SdpProblem, state: IterateState, sigma: float, scaling: NewtonScaling
) -> np.ndarray:
    """The right-hand side r = sigma * mu * I - Zh @ X @ Zh at ``state``."""
    Zh = scaling.Zh
    return symmetrize(sigma * state.mu * identity(prob.n) - Zh @ state.X @ Zh)


def solve_newton(r: np.ndarray, scaling: NewtonScaling) -> NewtonStep:
    """The minimum-norm directions for the right-hand side ``r``.

    dZ is the minimum-norm solution of F @ vecs(dZ) = 0, which is exactly 0.
    dX = Zhi @ r @ Zhi inverts H in closed form; dp is the minimum-norm
    solution of F' @ dp = -vecs(dX). Contracts I10 and I9 check both.
    """
    dX = symmetrize(scaling.Zhi @ r @ scaling.Zhi)
    dp = scaling.ft_pinv @ -vecs_stack(dX)
    return NewtonStep(dX, np.zeros(dX.shape), dp, scaling.Zh, scaling.Zhi)


def take_step(prob: SdpProblem, state: IterateState, step: NewtonStep) -> IterateState:
    """Advance by the full Newton step and recompute gaps."""
    what = "step X + dX"  # the quantity computed, for an error
    try:
        X = state.X + step.dX
        what = "step Z + dZ"
        Z = state.Z + step.dZ
        what = "step p + dp"
        p = state.p + step.dp
        what = "step gaps"
        phim = trace_inner(state.X, state.Z)
        phi = trace_inner(X, Z)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} ({what})") from None
    return IterateState(X, Z, p, phi / prob.n, phi, phim, state.iteration + 1)


def _starting_point(prob: SdpProblem, opts: SolverOptions) -> IterateState:
    """The starting point ``initialize`` certifies."""
    n = prob.n
    z_vec = lsqr_solve(prob.fmat, -prob.b, equation="initial dual solve")
    Z = mats(z_vec, n)

    if prob.x0 is None:
        raise InitializationError(
            "no primal warm start: the problem has no X0; include one in the problem file"
        )
    try:
        X = admit_x0(prob.x0, n)
    except ProblemFormatError as exc:
        raise InitializationError(str(exc)) from None

    try:
        ft_pinv = prob.ft_pinv
    except np.linalg.LinAlgError as exc:
        raise InitializationError(
            f"F1..Fm are linearly dependent: the factor of F' is singular ({exc})"
        ) from None
    try:
        p = ft_pinv @ -vecs_stack(prob.f0 + X)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} (initial primal solve)") from None

    phi = trace_inner(X, Z)
    return IterateState(X=X, Z=Z, p=p, mu=phi / n, phi=phi, phim=phi / opts.sigma, iteration=0)


def initialize(
    prob: SdpProblem, opts: SolverOptions
) -> tuple[IterateState, list[monitor.InvariantRecord]]:
    """Construct and certify the starting point.

    Z solves the dual-feasibility equations by minimum-norm least squares
    (and stays fixed thereafter); X is the problem's warm start ``x0``,
    admitted here by ``problem.admit_x0`` (an X0 set by ``replace`` has not
    been) and refused as InitializationError; p solves the
    primal-feasibility equations for that X. The initialization contract
    sweep alone judges the result, in both modes: if any record fails, the
    error lists each failed id with its measured value and bound, and is a
    NeighborhoodViolation when ``init-neighborhood`` is among them. It runs
    under ``FLOAT_RULE``: a quantity that leaves the float range is an
    InitializationError naming it.

    Z's solve stays an ``lsqr_solve`` call: the benchmark's layer trace times
    a ``solver.lsqr_solve`` span, and every stored trace starts from lstsq's
    Z. p is the problem's ``ft_pinv`` applied to the right-hand side, the
    factor every step's dp reuses; a singular factor (F1..Fm dependent) is an
    InitializationError.
    """
    try:
        with np.errstate(**FLOAT_RULE):
            state = _starting_point(prob, opts)
            records = monitor.check_initialization(prob, state, opts)
    except FloatingPointError as exc:
        raise InitializationError(f"starting point cannot be evaluated: {exc}") from None
    failed = [rec for rec in records if not rec.passed]
    if failed:
        ids = {rec.id for rec in failed}
        message = "starting point violates initialization contracts: " + "; ".join(
            f"{rec.id} (measured {rec.measured:.6e}, bound {rec.bound:.6e})" for rec in failed
        )
        if ids & {"init-dual-feasibility", "init-primal-feasibility"}:
            cond = np.linalg.cond(prob.fmat)
            message += f"; cond(F) = {cond:.3e} (a large value means F1..Fm are nearly dependent)"
        error = NeighborhoodViolation if "init-neighborhood" in ids else InitializationError
        raise error(message, records=records)
    return state, records


@dataclass
class IterationSnapshot:
    """State after one step, the step that produced it, and its contract records."""

    state: IterateState
    step: NewtonStep
    records: list[monitor.InvariantRecord]


@dataclass
class SolveReport:
    """Full account of one solver run: the starting point with its records
    and one snapshot per step. The iteration count, the final state and gap,
    the certified budget and the exit (``status``, ``violation_id``) are read
    off these, so a report cut down, or a trace's replay, states the exit of
    its own steps."""

    problem: SdpProblem
    options: SolverOptions
    initial_state: IterateState
    init_records: list[monitor.InvariantRecord]
    snapshots: list[IterationSnapshot]

    @property
    def budget(self) -> int:
        opts = self.options
        return iteration_bound(self.initial_state.phi, opts.epsilon, opts.sigma)

    @property
    def _exit(self) -> tuple[SolveStatus, str | None]:
        """(status, violation_id): the ``step_exit`` of the last step, else
        IterationCap if the steps ran out above epsilon, else Converged."""
        if self.snapshots:
            last = self.snapshots[-1]
            stop = step_exit(self.options, last.state, last.records)
            if stop is not None:
                return stop
        if self.final_gap > self.options.epsilon:
            return SolveStatus.ITERATION_CAP, None
        return SolveStatus.CONVERGED, None

    @property
    def status(self) -> SolveStatus:
        return self._exit[0]

    @property
    def violation_id(self) -> str | None:
        return self._exit[1]

    @property
    def iterations(self) -> int:
        return len(self.snapshots)

    @property
    def final_state(self) -> IterateState:
        return self.snapshots[-1].state if self.snapshots else self.initial_state

    @property
    def final_gap(self) -> float:
        return self.final_state.phi

    @property
    def failed_ids(self) -> list[str]:
        """The sorted ids of the contracts with a failed record,
        initialization included."""
        return sorted({rec.id for rec in self.all_records() if not rec.passed})

    @property
    def clean(self) -> bool:
        """True when every contract record, initialization included, passed."""
        return not self.failed_ids

    @property
    def record_count(self) -> int:
        return len(self.init_records) + sum(len(s.records) for s in self.snapshots)

    def all_records(self) -> Iterator[monitor.InvariantRecord]:
        yield from self.init_records
        for snap in self.snapshots:
            yield from snap.records

    def min_slacks(self) -> dict[str, float]:
        """Per record id, the smallest observed margin (bound - measured)."""
        out: dict[str, float] = {}
        for rec in self.all_records():
            slack = rec.bound - rec.measured
            if rec.id not in out or slack < out[rec.id]:
                out[rec.id] = slack
        return out


def step_exit(
    opts: SolverOptions, state: IterateState, records: list[monitor.InvariantRecord]
) -> tuple[SolveStatus, str | None] | None:
    """The exit the loop takes right after a step to ``state`` whose sweep
    gave ``records``: in strict mode the first failed record stops the run
    (InvariantViolation, naming it), then a gap that grew stops it
    (DivergenceGuard); None when the loop goes on."""
    if opts.mode == "strict":
        bad = next((rec for rec in records if not rec.passed), None)
        if bad is not None:
            return SolveStatus.INVARIANT_VIOLATION, bad.id
    if state.phi - state.phim > 0:
        return SolveStatus.DIVERGENCE_GUARD, None
    return None


def iterate(
    prob: SdpProblem,
    opts: SolverOptions,
    state: IterateState,
    next_step: Callable[[IterateState], NewtonStep],
    cap: int,
) -> Iterator[IterationSnapshot]:
    """The short-step iteration from ``state``, one snapshot per step.

    It takes the steps ``next_step(state)`` while the gap exceeds epsilon,
    at most ``cap`` of them. The loop contracts of the steps taken since the
    last sweep are swept at once (``monitor.check_iteration``) when strict
    mode needs their verdict, which is after every step, when a step grew
    the gap, when ``SWEEP_BLOCK`` steps are pending and when the walk ends;
    their snapshots are yielded, and the iteration stops after a step for
    which ``step_exit`` gives an exit. An exception raised while stepping is
    raised after the snapshots of the steps before it.
    """
    states, steps = [state], []
    for _ in range(cap):
        if state.phi <= opts.epsilon:
            break
        try:
            step = next_step(state)
            state = take_step(prob, state, step)
        except Exception:  # noqa: BLE001 — raised after the steps before it
            yield from _sweep(prob, opts, states, steps)
            raise
        states.append(state)
        steps.append(step)
        if opts.mode == "strict" or len(steps) >= SWEEP_BLOCK or step_exit(opts, state, []):
            if (yield from _sweep(prob, opts, states, steps)):
                return
            states, steps = [state], []
    yield from _sweep(prob, opts, states, steps)


def _sweep(
    prob: SdpProblem, opts: SolverOptions, states: list[IterateState], steps: list[NewtonStep]
) -> Generator[IterationSnapshot, None, bool]:
    """Yield the snapshots of ``steps`` from one contract sweep over all of
    them, or from one sweep per step if that raises, so the error surfaces
    at the step that raises it; return whether one of them ends the run."""
    if not steps:
        return False
    try:
        sweeps = monitor.check_iteration(prob, states, steps, opts.sigma)
    except Exception:  # noqa: BLE001 — located by the sweeps below
        sweeps = (
            monitor.check_iteration(prob, states[k:k + 2], [step], opts.sigma)[0]
            for k, step in enumerate(steps)
        )
    for state, step, records in zip(states[1:], steps, sweeps):
        yield IterationSnapshot(state=state, step=step, records=records)
        if step_exit(opts, state, records) is not None:
            return True
    return False


def solve(prob: SdpProblem, options: SolverOptions | None = None) -> SolveReport:
    """Run the short-step iteration to convergence or abort.

    Iterates while the duality gap exceeds epsilon, subject to three guards:
    an iteration cap (``max_iterations``, default ten times the certified
    budget), a strict-mode abort on the first failed contract record, and a
    divergence guard that stops if the gap ever increases. A run that could
    take more than ``MAX_BUDGET`` steps, the lesser of its budget and its
    cap, raises ValueError before the first step.
    """
    opts = options if options is not None else default_options(prob)

    state, init_records = initialize(prob, opts)
    report = SolveReport(prob, opts, state, init_records, snapshots=[])
    budget = report.budget
    cap = iteration_cap(opts, budget)
    if min(budget, cap) > MAX_BUDGET:
        raise ValueError(
            f"sigma {opts.sigma!r} certifies {budget} steps to epsilon {opts.epsilon!r} "
            f"and the cap is {cap}, more than the {MAX_BUDGET} a solve may take: "
            f"lower sigma, raise epsilon or set max_iterations to at most {MAX_BUDGET}"
        )
    with np.errstate(**FLOAT_RULE):
        scaling = prepare_newton(prob, state.Z)
        newton = lambda s: solve_newton(  # noqa: E731
            assemble_newton(prob, s, opts.sigma, scaling), scaling
        )
        report.snapshots.extend(iterate(prob, opts, state, newton, cap))
    return report
