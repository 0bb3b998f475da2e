"""Short-step primal-dual interior-point SDP solver.

The iteration keeps a strictly feasible primal-dual pair (X, Z, p) inside a
narrow central-path neighborhood and shrinks the duality gap trace(X @ Z) by
a fixed factor ``sigma`` per step. Search directions solve the scaled
(Monteiro-Zhang) Newton system built with the symmetric square root of Z:

    Zh  = Z^(1/2),  Zhi = Zh^(-1)
    H   = krons(Zhi @ Z, Zh) = krons(Zh, Zh)
    r   = sigma * mu * I - Zh @ X @ Zh

    F @ vecs(dZ) = 0,   H @ vecs(dX) = vecs(r),   F' @ dp = -vecs(dX)

each at minimum norm. The minimum-norm solution of the homogeneous dual
equations is exactly dZ = 0, so the dual iterate never moves and the dX
equation loses its dZ coupling term krons(Zhi, Zh @ X) @ vecs(dZ). Zh, Zhi,
H and a factor of F' are therefore computed once per solve
(``prepare_newton``). A step then costs O(n^3): krons(Zh, Zh) has the
closed-form inverse krons(Zhi, Zhi), so dX = Zhi @ r @ Zhi, and dp comes from
the stored pseudo-inverse of F'. The full step (length 1) is always taken.

The solver does not check the directions itself: contract I10 checks dX
against the Newton equation with its right-hand side recomputed, and I9
checks dZ and dp against the feasibility equations. Every problem that
``problem.build_problem`` admits has m = n(n+1)/2 independent constraints,
so F' is invertible and dp solves its equation for any dX.

Every iteration is checked against its runtime contracts by the ``monitor``
module; ``solve`` returns a report bundling the trajectory with the per-step
contract records. The report stores each fact once: the iteration count, the
final state and the final gap are read off its snapshots. Neither stores
whether sigma came from nu: that is ``sigma == sigma_from_nu(n, nu)``. Nor
does a state store its predecessor, or a step its mu and sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .linalg import lsqr_solve, sym_inv, sym_sqrt, trace_inner
from .problem import SdpProblem
from .symvec import krons, mats, require_symmetric, symmetrize, vecs

if TYPE_CHECKING:
    from .monitor import InvariantRecord

#: Default gap-contraction factor per iteration.
DEFAULT_SIGMA = 0.75

#: Default potential-function weight; for n = 2 it implies a contraction
#: factor of about 0.75 via ``sigma_from_nu``.
DEFAULT_NU = 0.4714


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


@dataclass(frozen=True)
class SolverOptions:
    """Settings of one ``solve`` run. The contract tolerances are constants
    of the catalog (``monitor``, ``linalg``), not settings.

    ``mode`` selects what happens when a per-iteration contract fails:
    "strict" aborts the run with status InvariantViolation, "audit" records
    the failure and keeps iterating. Initialization contracts are enforced in
    both modes.
    """

    epsilon: float = 1e-8
    nu: float = DEFAULT_NU
    sigma: float = DEFAULT_SIGMA
    mode: str = "audit"
    max_iterations: int | None = None


def validate_options(opts: SolverOptions) -> None:
    if opts.mode not in ("strict", "audit"):
        raise ValueError(f"mode must be 'strict' or 'audit', got {opts.mode!r}")
    if not (math.isfinite(opts.epsilon) and opts.epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {opts.epsilon}")
    if not (math.isfinite(opts.sigma) and 0 < opts.sigma < 1):
        raise ValueError(f"sigma must lie strictly between 0 and 1, got {opts.sigma}")
    if not (math.isfinite(opts.nu) and opts.nu > 0):
        raise ValueError(f"nu must be positive, got {opts.nu}")
    if opts.max_iterations is not None and opts.max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {opts.max_iterations}")


def default_options(prob: SdpProblem) -> SolverOptions:
    """Options with the problem file's epsilon and nu filled in."""
    return SolverOptions(
        epsilon=prob.epsilon,
        nu=prob.nu if prob.nu is not None else DEFAULT_NU,
    )


def sigma_from_nu(n: int, nu: float) -> float:
    """Contraction factor implied by potential weight nu: n / (n + nu * sqrt(n))."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be positive, got {nu}")
    return n / (n + nu * math.sqrt(n))


def iteration_bound(initial_gap: float, epsilon: float, sigma: float) -> int:
    """Iterations guaranteed to reach gap <= epsilon under exact contraction.

    ceil(log(initial_gap / epsilon) / log(1 / sigma)); 0 when already there.
    """
    if initial_gap <= epsilon:
        return 0
    return math.ceil(math.log(initial_gap / epsilon) / math.log(1.0 / sigma))


def iteration_cap(opts: SolverOptions, budget: int) -> int:
    """``max_iterations``, or by default ten times the certified budget (at least 10)."""
    return opts.max_iterations if opts.max_iterations is not None else max(10, 10 * budget)


@dataclass(frozen=True)
class IterateState:
    """The pair (X, Z, p) after ``iteration`` steps, its duality gap ``phi``,
    ``mu = phi / n`` and ``phim``, the gap one step earlier (seeded to
    ``phi / sigma`` at iteration 0, so the contraction contract holds
    vacuously for the starting point). Its predecessor is held by the caller.

    ``mu`` and ``phim`` are stored although derivable: ``init-mu-definition``,
    ``init-phim-seed`` and the ``cts-1`` replay judge the values a run states.
    """

    X: np.ndarray
    Z: np.ndarray
    p: np.ndarray
    mu: float
    phi: float
    phim: float
    iteration: int


@dataclass(frozen=True)
class NewtonScaling:
    """The loop invariants of the Newton system, computed once per solve.

    The dual iterate Z never moves, so neither do its scaling pair (Zh, Zhi)
    nor the scaled operator ``H = krons(Zhi @ Z, Zh)``. No step or contract
    reads H; it is kept, with its ``krons`` call, because the benchmark's
    layer trace times a ``solver.krons`` span. ``ft_pinv`` is the
    pseudo-inverse of F': it maps a right-hand side to the minimum-norm dp,
    as lstsq would.
    """

    Zh: np.ndarray
    Zhi: np.ndarray
    H: np.ndarray
    ft_pinv: np.ndarray


@dataclass(frozen=True)
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
    # the singular-value cutoff lstsq uses with rcond=None
    cutoff = max(prob.fmat.shape) * np.finfo(float).eps
    return NewtonScaling(
        Zh=Zh,
        Zhi=Zhi,
        H=krons(Zhi @ Z, Zh),
        ft_pinv=np.linalg.pinv(prob.fmat.T, rcond=cutoff),
    )


def assemble_newton(
    prob: SdpProblem, state: IterateState, sigma: float, scaling: NewtonScaling
) -> np.ndarray:
    """The right-hand side r = sigma * mu * I - Zh @ X @ Zh at ``state``."""
    Zh = scaling.Zh
    return symmetrize(sigma * state.mu * np.eye(prob.n) - Zh @ state.X @ Zh)


def solve_newton(prob: SdpProblem, r: np.ndarray, scaling: NewtonScaling) -> NewtonStep:
    """The minimum-norm directions for the right-hand side ``r``.

    dZ is the minimum-norm solution of F @ vecs(dZ) = 0, which is exactly 0.
    dX = Zhi @ r @ Zhi inverts H in closed form; dp is the minimum-norm
    solution of F' @ dp = -vecs(dX). Contracts I10 and I9 check both.
    """
    dX = symmetrize(scaling.Zhi @ r @ scaling.Zhi)
    dp = scaling.ft_pinv @ -vecs(dX)
    return NewtonStep(dX=dX, dZ=np.zeros_like(dX), dp=dp, Zh=scaling.Zh, Zhi=scaling.Zhi)


def take_step(prob: SdpProblem, state: IterateState, step: NewtonStep) -> IterateState:
    """Advance by the full Newton step and recompute gaps."""
    X = state.X + step.dX
    Z = state.Z + step.dZ
    p = state.p + step.dp
    phim = trace_inner(state.X, state.Z)
    phi = trace_inner(X, Z)
    return IterateState(
        X=X,
        Z=Z,
        p=p,
        mu=phi / prob.n,
        phi=phi,
        phim=phim,
        iteration=state.iteration + 1,
    )


def initialize(
    prob: SdpProblem,
    opts: SolverOptions,
    X0: np.ndarray | None = None,
) -> tuple[IterateState, list["InvariantRecord"]]:
    """Construct and certify the starting point.

    Z solves the dual-feasibility equations by minimum-norm least squares
    (and stays fixed thereafter); X comes from the explicit warm start
    (argument wins over the problem file), refused before any arithmetic on
    it unless every entry is finite; p solves the primal-feasibility
    equations for that X. The initialization contract sweep alone judges the
    result, in both modes: if any record fails, the error lists each failed
    id with its measured value and bound, and is a NeighborhoodViolation when
    ``init-neighborhood`` is among them.

    Both solves stay ``lsqr_solve`` calls: the benchmark's layer trace times
    a ``solver.lsqr_solve`` span, and every stored trace starts from lstsq's
    bits.
    """
    from . import monitor

    n = prob.n
    z_vec = lsqr_solve(prob.fmat, -prob.b, equation="initial dual solve")
    Z = mats(z_vec, n)

    if X0 is None:
        X0 = prob.x0
    if X0 is None:
        raise InitializationError(
            "no primal warm start: pass X0 or include one in the problem file"
        )
    X = np.array(X0, dtype=float)
    if not np.isfinite(X).all():
        raise InitializationError("X0 has non-finite entries")
    X = require_symmetric(X, what="X0")
    if X.shape != (n, n):
        raise InitializationError(f"X0 has shape {X.shape}, expected {(n, n)}")

    p = lsqr_solve(prob.fmat.T, -vecs(symmetrize(prob.f0 + X)), equation="initial primal solve")

    phi = trace_inner(X, Z)
    state = IterateState(
        X=X,
        Z=Z,
        p=p,
        mu=phi / n,
        phi=phi,
        phim=phi / opts.sigma,
        iteration=0,
    )

    records = monitor.check_initialization(prob, state, opts)
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
    records: list["InvariantRecord"]


@dataclass
class SolveReport:
    """Full account of one solver run. The iteration count, the final state
    and the final gap are read off the snapshots."""

    problem: SdpProblem
    options: SolverOptions
    status: SolveStatus
    initial_state: IterateState
    budget: int
    init_records: list["InvariantRecord"]
    snapshots: list[IterationSnapshot]
    violation_id: str | None = None

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
    def clean(self) -> bool:
        """True when every contract record, initialization included, passed."""
        return all(rec.passed for rec in self.all_records())

    @property
    def record_count(self) -> int:
        return len(self.init_records) + sum(len(s.records) for s in self.snapshots)

    def all_records(self) -> Iterator["InvariantRecord"]:
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

    def min_potential_drop(self, nu: float | None = None) -> float:
        """Smallest per-iteration decrease of the weighted potential."""
        weight = self.options.nu if nu is None else nu
        pot = lambda s: self.problem.potential_tanabe(s.X, s.Z, weight)  # noqa: E731
        drops = []
        prev = self.initial_state
        for snap in self.snapshots:
            drops.append(pot(prev) - pot(snap.state))
            prev = snap.state
        return min(drops) if drops else math.inf


def solve(
    prob: SdpProblem,
    options: SolverOptions | None = None,
    X0: np.ndarray | None = None,
) -> SolveReport:
    """Run the short-step iteration to convergence or abort.

    Iterates while the duality gap exceeds epsilon, subject to three guards:
    an iteration cap (``max_iterations``, default ten times the certified
    budget), a strict-mode abort on the first failed contract record, and a
    divergence guard that stops if the gap ever increases.
    """
    from . import monitor

    opts = options if options is not None else default_options(prob)
    validate_options(opts)

    state, init_records = initialize(prob, opts, X0=X0)
    initial_state = state
    scaling = prepare_newton(prob, state.Z)
    budget = iteration_bound(state.phi, opts.epsilon, opts.sigma)
    cap = iteration_cap(opts, budget)

    snapshots: list[IterationSnapshot] = []
    status = SolveStatus.CONVERGED
    violation_id: str | None = None

    while state.phi > opts.epsilon:
        if len(snapshots) >= cap:
            status = SolveStatus.ITERATION_CAP
            break
        r = assemble_newton(prob, state, opts.sigma, scaling)
        step = solve_newton(prob, r, scaling)
        new_state = take_step(prob, state, step)
        records = monitor.check_iteration(prob, state, new_state, step, opts.sigma)
        snapshots.append(IterationSnapshot(state=new_state, step=step, records=records))
        state = new_state
        if opts.mode == "strict":
            bad = next((rec for rec in records if not rec.passed), None)
            if bad is not None:
                status = SolveStatus.INVARIANT_VIOLATION
                violation_id = bad.id
                break
        if new_state.phi - new_state.phim > 0:
            status = SolveStatus.DIVERGENCE_GUARD
            break

    return SolveReport(
        problem=prob,
        options=opts,
        status=status,
        initial_state=initial_state,
        budget=budget,
        init_records=init_records,
        snapshots=snapshots,
        violation_id=violation_id,
    )
