"""Runtime contract monitoring for the solver.

Each solver step is judged against a fixed catalog of contracts. A contract
evaluation never raises: it produces an ``InvariantRecord`` holding the
measured quantity, the bound it was compared against, and the verdict, so a
failed contract is data, not control flow. Under a floating-point rule that
raises, as the trace checker's does, a sweep's FloatingPointError ends with
the contract and quantity it was computing, e.g. ``(I9 primal residual)``.
A record holds only what was measured; its iteration and the run's sigma
are its holder's. A contract's ``anchor(id, sigma)`` is its expression in
the listing's annotation language, the text that records, listings and
trace checking point at; it is rendered only when read (verbose report,
listing, ``cts-1`` traces).

Two catalogs exist: sixteen initialization contracts (phase "init",
evaluated once on the starting point) and twelve per-iteration contracts
I1..I12 (phase "loop"). They share no id, so one table maps every id to its
anchor template (``anchor``), and a record's phase follows from its id.
Each sweep returns its records as one list in catalog order, and each record
is built by one of four rules, which take columns (one entry per step, or
one entry at initialization) and derive each verdict from the measured
value and the bound the record stores: ``_le`` (measured <= bound, the
contracts whose anchor compares with ``<=``, ``>=`` or ``==``), ``_lt``
(measured < bound, the strict ones), ``_pd`` (``_lt`` on -lambda_min against
-``linalg.PD_TOL``, for ``linalg.min_eigenvalue``) and ``_equal`` (``_le``
on a residual against ``equality_bound``, ``EQUALITY_TOL`` scaled by
max(1, |reference|)). Only the two compound contracts state their own
verdict (``_record``): I2 (phi > 0 and phi <= GAP_CEILING) and I11 (a
chain of two comparisons). Tolerances and bounds are constants of the
catalog, and the anchor templates print them from those constants, so a
trace is checked by rules it cannot state.

The loop sweep (``check_iteration``) judges all the steps it is given at
once: each matrix quantity of I1..I12 is one numpy expression over the
steps stacked as (K, n, n) arrays, and each rule runs once over the
resulting columns (``_loop_sweep``). Every stacked operation makes the same
BLAS or LAPACK call per step that a one-step sweep makes, so a step's
records have the same bits whether it is swept alone or with others.

The two sums over the constraint matrices, init-primal-feasibility's
F0 + sum p[i]*Fi and I9's sum dp[i]*Fi, run through one fold
(``_primal_folds``) over the problem's ``fold_plan``: the m x E stack of the
upper triangle's entries and of the lower entries that differ from their
mirrors in F0 or some Fi, E = n(n+1)/2 for a problem symmetric bit for bit.
The products of a chunk of steps go to one (k, m, E) buffer, the start is
added to the first, the buffer is reduced over m, and each step's E sums
are gathered back to n x n, so every entry gets the multiply-adds of the
loop ``acc = start; acc = acc + p[i] * F[i]`` in the same order.

Rule for monitor arithmetic. A trace stores each record's ``measured``
value, and the checker recomputes it with this code. So a change to how a
rounding-level value is computed (another order of operations, another
formula, another factorisation) must do one of two things: keep every
golden trace checking clean, or bump the trace schema and keep the old
formula for traces of the old schemas. A change that only makes a sweep
cheaper keeps the same numpy operations in the same order, so every
measured value keeps its bits; ``tests/corpus_digest.py`` shows whether it
did.

Six initialization contracts hold before the loop starts, whatever the
solver does. They are kept, since the catalog changes only to become more
rigorous, but none of them can catch a fault of the solver.

By construction, on every run:

- ``init-p-symmetric`` rebuilds P with ``symvec.mats``, which mirrors one
  triangle, so P is symmetric bit for bit and its measured value is
  exactly 0.0 for every p.
- ``init-sigma-constant`` is recorded as 0.0 <= 0.0 and passes, since its
  anchor substitutes the run's own sigma.
- ``init-epsilon-positive``: ``SolverOptions`` refuses every epsilon below
  the smallest normal float.

By admission, on every problem ``problem.build_problem`` admits (a problem
built directly can fail each of them):

- ``init-size``: admission refuses n < 1 and m < 1.
- ``init-fi-symmetric``: admission's per-matrix rule,
  1e-12 * max(1, max|Fi|), is tighter than the contract's
  1e-9 * max(1, max|F|).
- ``init-f0-pd``: admission runs the same ``min_eigenvalue > PD_TOL`` test
  on the same array.

Each loop contract falls in one of three classes for the loop body every
admitted problem runs: m = n(n+1)/2 independent Fi, so dZ = 0 and F' is
invertible. ``tests/test_monitor.py`` evaluates that body exactly, in
``fractions``, at random rational points; a quantity that is 0 at all of
them is an identity of the body (polynomial identity testing, Schwartz,
J. ACM 27(4), 1980).

- Identities: the residuals of I7, I8 and I10; I9's primal residual, under
  the assumption that F' is invertible (its dual residual is F*vecs(0));
  I4's measured XZ - mu*I; and both measured terms of I11's chain. In exact
  arithmetic each is 0 for every input, so these checks catch rounding and
  faults of the implementation (a wrong mu, a skewed operator, an edited
  direction), not a failure of the theory.
- Zero by construction, since dZ = 0: I5's and I6's measured values are 0
  and I12's matrix is the identity.
- Neither: I1, I2 and I3 depend on the start and the run. I3 follows from
  I8 whenever phim > 0, since then phi = sigma*phim.

The module imports the solver's ``IterateState`` and ``NewtonStep`` for
annotations only: ``solver`` imports this module, and the options and the
problem come from ``problem``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import PD_TOL, frob_norm, identity, min_eigenvalue, trace_inner
from .problem import SdpProblem, SolverOptions
from .symvec import asymmetry, mats, sym_dim, symmetrize, vecs, vecs_stack

if TYPE_CHECKING:
    from .solver import IterateState, NewtonStep

#: Radius factor of the central-path neighborhood: ||X@Z - mu*I||_F <= THETA * mu.
THETA = 0.3105

#: Bound on the scaled dual direction norm (contract I5).
DZ_BOUND = 0.7

#: Admission ceiling on the duality gap (init-gap-upper and I2).
GAP_CEILING = 0.1

#: Relative tolerance of the equality contracts, scaled by max(1, |reference|).
EQUALITY_TOL = 1e-9

#: Margin of the contraction contracts (I3, init-phim-seed) over sigma:
#: phi < (sigma + CONTRACTION_MARGIN) * phim.
CONTRACTION_MARGIN = 0.01

#: Entries (256 KB) of I9's primal fold buffer, the (k, m, E) products of k >= 1 steps.
FOLD_CHUNK = 2**15


@dataclass(frozen=True, slots=True)
class InvariantRecord:
    """Outcome of evaluating one contract at one point of the run.

    ``measured`` and ``bound`` are oriented so that, up to the strictness
    noted in the anchor, passing means measured <= bound. This holds by
    construction: every record but I2's and I11's is built by a rule that
    derives ``passed`` from the two (``_le``, ``_lt``, ``_pd``, ``_equal``).
    ``detail`` carries auxiliary numbers (component residuals, eigenvalues,
    raw chain verdicts).
    The contract's text is ``anchor(id, sigma)`` with the run's sigma.
    """

    id: str
    measured: float
    bound: float
    passed: bool
    detail: dict = field(default_factory=dict)


_LOOP_TEMPLATES: list[tuple[str, str]] = [
    ("I1", "X>0 && Z>0"),
    ("I2", "phi>0 && phi<={gap_ceiling}"),
    ("I3", "phi-{sigma1}*phim<0"),
    ("I4", "norm(X*Z-mu*eye(n,n),'fro')<={theta}*mu"),
    ("I5", "norm(Zhi*mats(dZm,n)*Zhi,'fro')<={dz_bound}"),
    ("I6", "norm(Zhi*mats(dXm,n)*mats(dZm,n)*Zh,'fro')<={theta}*sigma*mu"),
    ("I7", "trace(Xm*mats(dZm,n))+trace(mats(dXm,n)*Zm)+trace(Xm*Zm)-sigma*n*mu==0"),
    ("I8", "trace(X*Z)-{sigma}*trace(Xm*Zm)==0"),
    ("I9", "F*dZm==zeros(m,1) && sum(dpm(i)*Fi,i,1,m)+mats(dXm,n)==0"),
    (
        "I10",
        "0.5*(Zhi*(mats(dZm,n)*Xm+Zm*mats(dXm,n))*Zh"
        "+Zh*(Xm*mats(dZm,n)+mats(dXm,n)*Zm)*Zhi)"
        "==sigma*mu*eye(n,n)-Zh*Xm*Zh",
    ),
    (
        "I11",
        "norm(Zh*X*Zh-sigma*mu*eye(n,n),'fro')"
        "<=0.5*norm(Zhi*(Z*X-sigma*mu*eye(n,n))*Zh"
        "+Zh*(X*Z-sigma*mu*eye(n,n))*Zhi,'fro')"
        "<={theta}*sigma*mu",
    ),
    ("I12", "eye(n,n)+Zhi*mats(dZm,n)*Zhi>0"),
]

_INIT_TEMPLATES: list[tuple[str, str]] = [
    ("init-f0-pd", "isposdef(F0)"),
    ("init-fi-symmetric", "transpose(Fi)==Fi for i=1..m"),
    ("init-size", "n>=1 && m>=1"),
    ("init-z0-pd", "Z>0"),
    ("init-dual-feasibility", "F*vecs(Z)+b==zeros(m,1)"),
    ("init-x0-pd", "X>0"),
    ("init-neighborhood", "norm(X*Z-(trace(X*Z)/n)*eye(n,n),'fro')<={theta}*(trace(X*Z)/n)"),
    ("init-gap-upper", "trace(X*Z)<={gap_ceiling}"),
    ("init-gap-positive", "trace(X*Z)>0"),
    ("init-p-symmetric", "transpose(P)==P"),
    ("init-primal-feasibility", "F0+sum(p(i)*Fi,i,1,m)+X==0"),
    ("init-epsilon-positive", "epsilon>0"),
    ("init-sigma-constant", "sigma=={sigma}"),
    ("init-phi-definition", "phi==trace(X*Z)"),
    ("init-phim-seed", "phi-{sigma1}*phim<0"),
    ("init-mu-definition", "n*mu==trace(X*Z)"),
]

LOOP_IDS: tuple[str, ...] = tuple(rid for rid, _ in _LOOP_TEMPLATES)
INIT_IDS: tuple[str, ...] = tuple(rid for rid, _ in _INIT_TEMPLATES)

#: Every contract's anchor template, by id; the two catalogs share no id.
_TEMPLATES = dict(_INIT_TEMPLATES + _LOOP_TEMPLATES)


def fmt_num(x: float) -> str:
    """Shortest round-tripping decimal form, e.g. 0.75 -> '0.75'."""
    return repr(float(x))


def anchor(record_id: str, sigma: float) -> str:
    """The annotation-language expression of a contract, with ``sigma`` and
    the catalog constants (THETA, DZ_BOUND, GAP_CEILING, CONTRACTION_MARGIN)
    substituted; KeyError for an id of neither catalog."""
    return _TEMPLATES[record_id].format(
        sigma=fmt_num(sigma),
        sigma1=fmt_num(sigma + CONTRACTION_MARGIN),
        theta=fmt_num(THETA),
        dz_bound=fmt_num(DZ_BOUND),
        gap_ceiling=fmt_num(GAP_CEILING),
    )


def _primal_folds(
    prob: SdpProblem, dps: Sequence[np.ndarray], start: float | np.ndarray = 0.0
) -> np.ndarray:
    """start + dp[0]*F1 + dp[1]*F2 + ... for each dp, as a (K, n, n) stack:
    bit for bit the loop ``acc = start; acc = acc + dp[i] * Fi`` over the
    full matrices, with ``start`` added to the first product (start + 0.0
    if m = 0). ``start`` is 0.0 or ``prob.f0``, whose lower entries the fold
    plan keeps in columns of their own where their bits differ from their
    mirrors'.

    Reducing axis 1 of a chunk's (k, m, E) products is that running sum
    entry by entry; with E = 1 numpy would sum the axis pairwise, so it
    takes ``accumulate``, a running sum by definition.
    """
    columns, entry = prob.fold_plan
    m, width = columns.shape
    dps = np.asarray(dps, dtype=float).reshape(len(dps), m)
    first = np.zeros(width)  # start by column: a column's entries have the same bits in it
    first[entry] = np.ravel(start)
    sums = first + np.zeros((len(dps), width))
    if m:
        chunk = max(1, FOLD_CHUNK // columns.size)
        terms = np.empty((min(chunk, len(dps)), m, width))
        for lo in range(0, len(dps), chunk):
            part = np.multiply(dps[lo:lo + chunk, :, None], columns, out=terms[: len(dps) - lo])
            part[:, 0] += first
            sums[lo:lo + chunk] = (
                np.add.reduce(part, axis=1) if width > 1 else np.add.accumulate(part, axis=1)[:, -1]
            )
    return sums[:, entry].reshape(len(dps), prob.n, prob.n)


def equality_bound(ref):
    """The bound of an equality contract whose reference magnitude is ``ref``,
    a number or a column: EQUALITY_TOL * max(1.0, abs(ref)), which keeps 1.0
    unless abs(ref) > 1.0 (so for NaN)."""
    size = np.abs(ref)
    return EQUALITY_TOL * np.where(size > 1.0, size, 1.0)


def _record(rid: str, measured, bound, passed, details=None) -> list[InvariantRecord]:
    """One record per entry of the columns ``measured`` and ``passed`` (a
    number ``bound`` holds for all), of Python floats and bools, with empty
    details unless given. I2 and I11 state their verdict here; the rules
    below derive the others'."""
    measured, bound = np.asarray(measured, dtype=float).tolist(), np.asarray(bound, dtype=float)
    bound = bound.tolist() if bound.ndim else [float(bound)] * len(measured)
    details = details or [{} for _ in measured]
    return list(map(InvariantRecord, [rid] * len(measured), measured, bound, passed.tolist(), details))


def _le(rid: str, measured, bound, details=None) -> list[InvariantRecord]:
    """A non-strict contract (``<=``, ``>=``, ``==``): passes when measured <= bound."""
    return _record(rid, measured, bound, np.asarray(measured, dtype=float) <= bound, details)


def _lt(rid: str, measured, bound, details=None) -> list[InvariantRecord]:
    """A strict contract (``<``, ``>``): passes when measured < bound."""
    return _record(rid, measured, bound, np.asarray(measured, dtype=float) < bound, details)


def _pd(rid: str, lam, details=None) -> list[InvariantRecord]:
    """Positive definiteness: the minimum eigenvalue ``lam`` exceeds PD_TOL."""
    lam = np.asarray(lam, dtype=float)
    return _lt(rid, -lam, -PD_TOL, details or [{"min_eigenvalue": x} for x in lam.tolist()])


def _equal(rid: str, residual, ref, details=None) -> list[InvariantRecord]:
    """An equality whose ``residual`` is within ``equality_bound(ref)``."""
    return _le(rid, residual, equality_bound(ref), details)


def check_iteration(
    prob: SdpProblem,
    states: Sequence[IterateState],
    steps: Sequence[NewtonStep],
    sigma: float,
) -> list[list[InvariantRecord]]:
    """Evaluate the twelve per-iteration contracts for K completed steps at
    once; one record list per step.

    ``states`` holds the K + 1 points: step k goes from ``states[k - 1]``
    (Xm, Zm in the anchors) to ``states[k]`` with the directions and the
    scaling pair (Zh, Zhi) of ``steps[k - 1]``. mu is the listing's
    ``trace(Xm*Zm)/n``, derived from the point stepped from rather than
    taken from the solver, so a step built with a wrong mu fails I7 and I10.

    Each matrix quantity is one numpy expression over the (K, n, n) stacks
    whose slice k has the bits of the same expression on step k alone: a
    stacked ``@`` is one gemm per matrix, and ``min_eigenvalue``,
    ``frob_norm`` and ``trace_inner`` take stacks alike. I9's dual residual
    is one gemv per step (``fmat`` times a column). The rules then run once
    each over the K-entry columns (``_loop_sweep``).
    """
    n = prob.n
    eye = identity(n)
    Xs = np.stack([s.X for s in states])
    Zs = np.stack([s.Z for s in states])
    Xm, X, Zm, Z = Xs[:-1], Xs[1:], Zs[:-1], Zs[1:]
    dX, dZ, Zh, Zhi = (
        np.stack([getattr(step, key) for step in steps]) for key in ("dX", "dZ", "Zh", "Zhi")
    )
    mu_next, phi, phim = (np.array([getattr(s, k) for s in states[1:]]) for k in ("mu", "phi", "phim"))
    what = "mu of the points stepped from"  # the quantity computed, for an error
    try:
        gap = trace_inner(Xm, Zm)
        mu = gap / n
        target = (sigma * mu)[:, None, None] * eye  # the central-path points the steps aim at
        what = "I4 X*Z"
        XZ = X @ Z
        what = "I5 scaled dZ"
        scaled_dz = Zhi @ dZ @ Zhi
        what = "I1 min eigenvalues"
        lam_x = min_eigenvalue(X)
        lam_z = min_eigenvalue(Z)
        what = "I4 deviation from mu*I"
        dev4 = frob_norm(XZ - mu_next[:, None, None] * eye)
        what = "I5 norm"
        v5 = frob_norm(scaled_dz)
        what = "I6 cross term"
        v6 = frob_norm(Zhi @ dX @ dZ @ Zh)
        what = "I7 trace terms"
        xm_dz = trace_inner(Xm, dZ)
        dx_zm = trace_inner(dX, Zm)
        what = "I9 dual residual"
        r_dual = frob_norm(np.matmul(prob.fmat, vecs_stack(dZ)[:, :, None]))
        what = "I9 primal residual"
        r_primal = frob_norm(_primal_folds(prob, [step.dp for step in steps]) + dX)
        what = "I9 norm of dX"
        norm_dx = frob_norm(dX)
        what = "I10 residual"
        lhs10 = 0.5 * (Zhi @ (dZ @ Xm + Zm @ dX) @ Zh + Zh @ (Xm @ dZ + dX @ Zm) @ Zhi)
        rhs10 = target - Zh @ Xm @ Zh
        v10 = frob_norm(lhs10 - rhs10)
        norm_rhs10 = frob_norm(rhs10)
        what = "I11 chain"
        a11 = frob_norm(Zh @ X @ Zh - target)
        middle11 = frob_norm(Zhi @ (Z @ X - target) @ Zh + Zh @ (XZ - target) @ Zhi)
        what = "I12 min eigenvalue"
        lam12 = min_eigenvalue(eye + scaled_dz)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} ({what})") from None
    return _loop_sweep(
        sigma, n, mu_next, phi, phim, mu, gap, lam_x, lam_z, dev4, v5, v6, xm_dz, dx_zm,
        r_dual, r_primal, norm_dx, v10, norm_rhs10, a11, middle11, lam12,
    )


def _loop_sweep(
    sigma, n, mu_next, phi, phim, mu, gap, lam_x, lam_z, dev4, v5, v6, xm_dz, dx_zm,
    r_dual, r_primal, norm_dx, v10, norm_rhs10, a11, middle11, lam12,
) -> list[list[InvariantRecord]]:
    """Each step's records, in catalog order, from the measured columns
    (``mu_next``, ``phi``, ``phim`` of the points stepped to). Each rule runs
    once over the columns, with its scalar formula's operations in order,
    under Python's float rule (no flag raises) and tie rule for min and max."""
    with np.errstate(all="ignore"):
        lhs7, rhs7 = xm_dz + dx_zm + gap, sigma * n * mu
        # I11: the outer comparison (first <= bound) is exact; the inner one
        # (first <= middle) gets the equality tolerance since both sides
        # shrink to rounding level.
        b11, c11 = 0.5 * middle11, THETA * sigma * mu
        gaps = [{"phi": a, "phim": b} for a, b in zip(phi.tolist(), phim.tolist())]
        sweep = [
            # I1: both iterates stay positive definite; min(lam_x, lam_z).
            _pd("I1", np.where(lam_z < lam_x, lam_z, lam_x), [
                {"min_eigenvalue_X": x, "min_eigenvalue_Z": z}
                for x, z in zip(lam_x.tolist(), lam_z.tolist())
            ]),
            # I2: the gap stays positive and under the admission ceiling.
            _record("I2", phi, GAP_CEILING, (phi > 0.0) & (phi <= GAP_CEILING), [
                {"lower_ok": ok} for ok in (phi > 0.0).tolist()
            ]),
            # I3: strict contraction with a margin over sigma.
            _lt("I3", phi - (sigma + CONTRACTION_MARGIN) * phim, 0.0, gaps),
            # I4: the new pair stays in the central-path neighborhood (new mu).
            _le("I4", dev4, THETA * mu_next),
            # I5: scaled dual direction is small.
            _le("I5", v5, DZ_BOUND),
            # I6: second-order cross term is small (mu of the point stepped from).
            _le("I6", v6, THETA * sigma * mu),
            # I7: linearized gap identity.
            _equal("I7", np.abs(lhs7 - rhs7), rhs7, [
                {"lhs": a, "rhs": b} for a, b in zip(lhs7.tolist(), rhs7.tolist())
            ]),
            # I8: realized gap contraction equals sigma exactly.
            _equal("I8", np.abs(phi - sigma * phim), phim, [dict(d) for d in gaps]),  # I3's, copied
            # I9: directions preserve dual and primal feasibility; max(r_dual, r_primal).
            _equal("I9", np.where(r_primal > r_dual, r_primal, r_dual), norm_dx, [
                {"dual_residual": a, "primal_residual": b}
                for a, b in zip(r_dual.tolist(), r_primal.tolist())
            ]),
            # I10: the directions satisfy the scaled Newton equation (rhs recomputed).
            _equal("I10", v10, norm_rhs10),
            # I11: proximity chain for the new pair under the old scaling.
            _record("I11", a11, c11, (a11 <= c11) & (a11 <= b11 + equality_bound(b11)), [
                {"chain_first": a, "chain_middle": b, "chain_bound": c,
                 "first_leq_middle": a <= b, "middle_leq_bound": b <= c}
                for a, b, c in zip(a11.tolist(), b11.tolist(), c11.tolist())
            ]),
            # I12: the scaled dual update keeps the next Z positive definite.
            _pd("I12", lam12),
        ]
    return [list(records) for records in zip(*sweep)]


def check_initialization(
    prob: SdpProblem,
    state: IterateState,
    opts: SolverOptions,
) -> list[InvariantRecord]:
    """Evaluate the sixteen initialization contracts on the starting point;
    the records in catalog order, each quantity computed in that order.

    Works on any SdpProblem, validated or not, so deliberately broken data
    (say, an indefinite F0) yields failing records rather than exceptions.
    """
    n, m = prob.n, prob.m
    X, Z = state.X, state.Z
    p = np.asarray(state.p, dtype=float).ravel()
    what = "the gap trace(X*Z)"  # the quantity computed, for an error
    try:
        phi_rec = trace_inner(X, Z)
        mu_rec = phi_rec / n
        what = "init-f0-pd min eigenvalue"
        lam_f0 = min_eigenvalue(prob.f0)
        what = "init-fi-symmetric asymmetry"
        fi_symmetric = _fi_symmetric(prob.fs)
        what = "init-z0-pd min eigenvalue"
        lam_z = min_eigenvalue(Z)
        what = "init-dual-feasibility residual"
        res_dual = frob_norm(prob.fmat @ vecs(symmetrize(Z)) + prob.b)
        norm_b = frob_norm(prob.b)
        what = "init-x0-pd min eigenvalue"
        lam_x = min_eigenvalue(X)
        what = "init-neighborhood deviation from mu*I"
        dev = frob_norm(X @ Z - mu_rec * identity(n))
        what = "init-p-symmetric asymmetry"
        p_symmetric = _p_symmetric(p, n, m)
        what = "init-primal-feasibility residual"
        res_primal = frob_norm(_primal_folds(prob, [p], prob.f0)[0] + X)
        norm_f0 = frob_norm(prob.f0)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} ({what})") from None
    records = (  # each rule over length-one columns, so every verdict is decided there
        _pd("init-f0-pd", [lam_f0]),
        fi_symmetric,
        _le("init-size", [-min(n, m)], -1.0, [{"n": n, "m": m}]),
        _pd("init-z0-pd", [lam_z]),
        _equal("init-dual-feasibility", [res_dual], norm_b, [{"residual": res_dual}]),
        _pd("init-x0-pd", [lam_x]),
        _le("init-neighborhood", [dev], THETA * mu_rec),
        _le("init-gap-upper", [phi_rec], GAP_CEILING),
        _lt("init-gap-positive", [-phi_rec], 0.0, [{"gap": phi_rec}]),
        p_symmetric,
        _equal("init-primal-feasibility", [res_primal], norm_f0, [{"residual": res_primal}]),
        _lt("init-epsilon-positive", [-opts.epsilon], 0.0, [{"epsilon": opts.epsilon}]),
        _le("init-sigma-constant", [0.0], 0.0, [{"sigma": opts.sigma}]),
        _equal("init-phi-definition", [abs(state.phi - phi_rec)], phi_rec, [
            {"stored": state.phi, "recomputed": phi_rec}
        ]),
        _lt("init-phim-seed", [state.phi - (opts.sigma + CONTRACTION_MARGIN) * state.phim], 0.0, [
            {"phi": state.phi, "phim": state.phim}
        ]),
        _equal("init-mu-definition", [abs(n * state.mu - phi_rec)], phi_rec, [{"stored": state.mu}]),
    )
    return [rec for (rec,) in records]


def _fi_symmetric(fs: Sequence[np.ndarray]) -> list[InvariantRecord]:
    """``init-fi-symmetric``, measured on the most asymmetric Fi (the first
    of equals)."""
    if not len(fs):
        return _le("init-fi-symmetric", [0.0], 0.0, [{"note": "no constraint matrices"}])
    asyms = asymmetry(fs)
    worst = int(np.argmax(asyms))
    return _equal("init-fi-symmetric", [asyms[worst]], np.abs(fs).max(), [{"worst_index": worst + 1}])


def _p_symmetric(p: np.ndarray, n: int, m: int) -> list[InvariantRecord]:
    """``init-p-symmetric`` on P = mats(p, n), where p has that shape."""
    if not (m == sym_dim(n) and p.shape[0] == m):
        note = "p reshapes to a square matrix only when m == n*(n+1)/2"
        return _le("init-p-symmetric", [0.0], 0.0, [{"reshaped": False, "note": note}])
    P = mats(p, n)
    return _equal("init-p-symmetric", [asymmetry(P)], np.max(np.abs(P)), [{"reshaped": True}])
