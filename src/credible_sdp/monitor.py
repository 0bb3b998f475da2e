"""Runtime contract monitoring for the solver.

Each solver step is judged against a fixed catalog of contracts. A contract
evaluation never raises: it produces an ``InvariantRecord`` holding the
measured quantity, the bound it was compared against, and the verdict, so a
failed contract is data, not control flow. A record holds only what was
measured; its iteration and the run's sigma are its holder's. A contract's
``anchor(id, sigma)`` is its expression in the listing's annotation
language, the text that records, listings and trace checking point at; it
is rendered only when read (verbose report, listing, ``cts-1`` traces).

Two catalogs exist: sixteen initialization contracts (phase "init",
evaluated once on the starting point) and twelve per-iteration contracts
I1..I12 (phase "loop"). They share no id, so one table maps every id to its
anchor template (``anchor``), and a record's phase follows from its id.
Both sweeps build their records with one builder (``_Sweep``), which states
each kind of rule once: an equality contract passes when its residual is
within ``equality_bound`` (``EQUALITY_TOL`` scaled by max(1, |reference|)),
a positive-definiteness contract when ``linalg.min_eigenvalue`` exceeds
``linalg.PD_TOL``. Tolerances are
constants of the catalog, so a trace is checked by rules it cannot state.

The loop sweep (``check_iteration``) judges all the steps it is given at
once: each matrix quantity of I1..I12 is one numpy expression over the
steps stacked as (K, n, n) arrays, and the records are built per step from
the resulting columns. Every stacked operation makes the same BLAS or
LAPACK call per step that a one-step sweep makes, so a step's records have
the same bits whether it is swept alone or with others.

Sums over the constraint matrices run over the problem's (m, n, n) stack in
one numpy expression that adds the terms in the same order, so they give
the same bits as the loop ``acc = acc + p[i] * F[i]`` (see ``_fold``). I9's
primal fold stays one per step: stacked over the steps it would hold
K * m * n^2 floats at once.

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


@dataclass(frozen=True, slots=True)
class InvariantRecord:
    """Outcome of evaluating one contract at one point of the run.

    ``measured`` and ``bound`` are oriented so that, up to the strictness
    noted in the anchor, passing means measured <= bound; ``detail`` carries
    auxiliary numbers (component residuals, eigenvalues, raw chain verdicts).
    The contract's text is ``anchor(id, sigma)`` with the run's sigma.
    """

    id: str
    measured: float
    bound: float
    passed: bool
    detail: dict = field(default_factory=dict)


_LOOP_TEMPLATES: list[tuple[str, str]] = [
    ("I1", "X>0 && Z>0"),
    ("I2", "phi>0 && phi<=0.1"),
    ("I3", "phi-{sigma1}*phim<0"),
    ("I4", "norm(X*Z-mu*eye(n,n),'fro')<=0.3105*mu"),
    ("I5", "norm(Zhi*mats(dZm,n)*Zhi,'fro')<=0.7"),
    ("I6", "norm(Zhi*mats(dXm,n)*mats(dZm,n)*Zh,'fro')<=0.3105*sigma*mu"),
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
        "<=0.3105*sigma*mu",
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
    ("init-neighborhood", "norm(X*Z-(trace(X*Z)/n)*eye(n,n),'fro')<=0.3105*(trace(X*Z)/n)"),
    ("init-gap-upper", "trace(X*Z)<=0.1"),
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
    """The annotation-language expression of a contract, with ``sigma``
    substituted; KeyError for an id of neither catalog."""
    sigma1 = sigma + CONTRACTION_MARGIN
    return _TEMPLATES[record_id].format(sigma=fmt_num(sigma), sigma1=fmt_num(sigma1))


def _fold(start: np.ndarray | float, coeffs: np.ndarray, F: np.ndarray) -> np.ndarray:
    """start + c[0]*F[0] + c[1]*F[1] + ..., added left to right, bit for bit
    the loop ``acc = start; acc = acc + c[i] * F[i]``.

    Reducing the leading axis of a C-contiguous stack whose matrices have two
    or more entries is that running sum, entry by entry. With 1 x 1 matrices
    numpy would sum the column pairwise instead, so they take ``accumulate``,
    which is a running sum by definition.
    """
    terms = coeffs[:, None, None] * F
    if not len(terms):
        return start + np.zeros(F.shape[1:])
    terms[0] += start
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def equality_bound(ref: float) -> float:
    """The bound of an equality contract whose reference magnitude is ``ref``."""
    return EQUALITY_TOL * max(1.0, abs(ref))


class _Sweep:
    """The records of one contract sweep."""

    def __init__(self):
        self.records: list[InvariantRecord] = []

    def add(
        self, rid: str, measured: float, bound: float, passed: bool, detail: dict | None = None
    ):
        self.records.append(
            InvariantRecord(
                rid, float(measured), float(bound), bool(passed), {} if detail is None else detail
            )
        )

    def pd(self, rid: str, lam: float, detail: dict | None = None):
        """Positive definiteness: the minimum eigenvalue ``lam`` exceeds PD_TOL."""
        detail = detail if detail is not None else {"min_eigenvalue": lam}
        self.add(rid, -lam, -PD_TOL, lam > PD_TOL, detail)

    def equal(self, rid: str, residual: float, ref: float, detail: dict | None = None):
        """An equality whose ``residual`` is within ``equality_bound(ref)``."""
        bound = equality_bound(ref)
        self.add(rid, residual, bound, residual <= bound, detail)


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
    is one gemv per step (``fmat`` times a column). The scalar rules then run
    per step on plain floats, as a one-step sweep runs them.
    """
    n = prob.n
    eye = identity(n)
    Xs = np.stack([s.X for s in states])
    Zs = np.stack([s.Z for s in states])
    Xm, X, Zm, Z = Xs[:-1], Xs[1:], Zs[:-1], Zs[1:]
    dX, dZ, Zh, Zhi = (
        np.stack([getattr(step, key) for step in steps]) for key in ("dX", "dZ", "Zh", "Zhi")
    )
    gap = trace_inner(Xm, Zm)
    mu = gap / n
    target = (sigma * mu)[:, None, None] * eye  # the central-path points the steps aim at
    XZ = X @ Z
    scaled_dz = Zhi @ dZ @ Zhi
    lam_x = min_eigenvalue(X)  # I1
    lam_z = min_eigenvalue(Z)
    dev4 = frob_norm(XZ - np.array([s.mu for s in states[1:]])[:, None, None] * eye)  # I4
    v5 = frob_norm(scaled_dz)  # I5
    v6 = frob_norm(Zhi @ dX @ dZ @ Zh)  # I6
    xm_dz = trace_inner(Xm, dZ)  # I7
    dx_zm = trace_inner(dX, Zm)
    r_dual = frob_norm(np.matmul(prob.fmat, vecs_stack(dZ)[:, :, None]))  # I9
    folds = [_fold(0.0, np.asarray(s.dp, dtype=float).ravel(), prob.fs) for s in steps]
    r_primal = frob_norm(np.stack(folds) + dX)
    norm_dx = frob_norm(dX)
    lhs10 = 0.5 * (  # I10
        Zhi @ (dZ @ Xm + Zm @ dX) @ Zh + Zh @ (Xm @ dZ + dX @ Zm) @ Zhi
    )
    rhs10 = target - Zh @ Xm @ Zh
    v10 = frob_norm(lhs10 - rhs10)
    norm_rhs10 = frob_norm(rhs10)
    a11 = frob_norm(Zh @ X @ Zh - target)  # I11
    middle11 = frob_norm(Zhi @ (Z @ X - target) @ Zh + Zh @ (XZ - target) @ Zhi)
    lam12 = min_eigenvalue(eye + scaled_dz)  # I12
    columns = (
        mu, gap, lam_x, lam_z, dev4, v5, v6, xm_dz, dx_zm,
        r_dual, r_primal, norm_dx, v10, norm_rhs10, a11, middle11, lam12,
    )
    rows = zip(*(col.tolist() for col in columns))
    return [_loop_records(sigma, n, state, *row) for state, row in zip(states[1:], rows)]


def _loop_records(
    sigma, n, state, mu, gap, lam_x, lam_z, dev4, v5, v6, xm_dz, dx_zm,
    r_dual, r_primal, norm_dx, v10, norm_rhs10, a11, middle11, lam12,
) -> list[InvariantRecord]:
    """The records of one step from its measured values."""
    out = _Sweep()

    # I1: both iterates stay positive definite.
    out.pd("I1", min(lam_x, lam_z), {"min_eigenvalue_X": lam_x, "min_eigenvalue_Z": lam_z})

    # I2: the gap stays positive and under the admission ceiling.
    out.add(
        "I2",
        state.phi,
        GAP_CEILING,
        (state.phi > 0.0) and (state.phi <= GAP_CEILING),
        {"lower_ok": state.phi > 0.0},
    )

    # I3: strict contraction with a margin over sigma.
    v3 = state.phi - (sigma + CONTRACTION_MARGIN) * state.phim
    out.add("I3", v3, 0.0, v3 < 0.0, {"phi": state.phi, "phim": state.phim})

    # I4: the new pair stays in the central-path neighborhood (new mu).
    out.add("I4", dev4, THETA * state.mu, dev4 <= THETA * state.mu)

    # I5: scaled dual direction is small.
    out.add("I5", v5, DZ_BOUND, v5 <= DZ_BOUND)

    # I6: second-order cross term is small (mu of the point stepped from).
    b6 = THETA * sigma * mu
    out.add("I6", v6, b6, v6 <= b6)

    # I7: linearized gap identity.
    lhs7 = xm_dz + dx_zm + gap
    rhs7 = sigma * n * mu
    out.equal("I7", abs(lhs7 - rhs7), rhs7, {"lhs": lhs7, "rhs": rhs7})

    # I8: realized gap contraction equals sigma exactly.
    v8 = abs(state.phi - sigma * state.phim)
    out.equal("I8", v8, state.phim, {"phi": state.phi, "phim": state.phim})

    # I9: directions preserve dual and primal feasibility.
    out.equal(
        "I9",
        max(r_dual, r_primal),
        norm_dx,
        {"dual_residual": r_dual, "primal_residual": r_primal},
    )

    # I10: the directions satisfy the scaled Newton equation (rhs recomputed).
    out.equal("I10", v10, norm_rhs10)

    # I11: proximity chain for the new pair under the old scaling. The outer
    # comparison (first <= bound) is exact; the inner one (first <= middle)
    # gets the equality tolerance since both sides shrink to rounding level.
    b11 = 0.5 * middle11
    c11 = THETA * sigma * mu
    out.add(
        "I11",
        a11,
        c11,
        (a11 <= c11) and (a11 <= b11 + equality_bound(b11)),
        {
            "chain_first": a11,
            "chain_middle": b11,
            "chain_bound": c11,
            "first_leq_middle": bool(a11 <= b11),
            "middle_leq_bound": bool(b11 <= c11),
        },
    )

    # I12: the scaled dual update keeps the next Z positive definite.
    out.pd("I12", lam12)

    return out.records


def check_initialization(
    prob: SdpProblem,
    state: IterateState,
    opts: SolverOptions,
) -> list[InvariantRecord]:
    """Evaluate the sixteen initialization contracts on the starting point.

    Works on any SdpProblem, validated or not, so deliberately broken data
    (say, an indefinite F0) yields failing records rather than exceptions.
    """
    n, m = prob.n, prob.m
    X, Z, p = state.X, state.Z, state.p
    sigma = opts.sigma
    phi_rec = trace_inner(X, Z)
    mu_rec = phi_rec / n
    out = _Sweep()

    out.pd("init-f0-pd", min_eigenvalue(prob.f0))

    if m:
        F = prob.fs
        asyms = asymmetry(F)
        worst = int(np.argmax(asyms))
        v = float(asyms[worst])
        out.equal("init-fi-symmetric", v, float(np.abs(F).max()), {"worst_index": worst + 1})
    else:
        out.add("init-fi-symmetric", 0.0, 0.0, True, {"note": "no constraint matrices"})

    out.add("init-size", -min(n, m), -1.0, n >= 1 and m >= 1, {"n": n, "m": m})

    out.pd("init-z0-pd", min_eigenvalue(Z))

    res_dual = float(np.linalg.norm(prob.fmat @ vecs(symmetrize(Z)) + prob.b))
    out.equal(
        "init-dual-feasibility", res_dual, float(np.linalg.norm(prob.b)), {"residual": res_dual}
    )

    out.pd("init-x0-pd", min_eigenvalue(X))

    dev = frob_norm(X @ Z - mu_rec * identity(n))
    out.add("init-neighborhood", dev, THETA * mu_rec, dev <= THETA * mu_rec)

    out.add("init-gap-upper", phi_rec, GAP_CEILING, phi_rec <= GAP_CEILING)

    out.add("init-gap-positive", -phi_rec, 0.0, phi_rec > 0.0, {"gap": phi_rec})

    p_arr = np.asarray(p, dtype=float).ravel()
    if m == sym_dim(n) and p_arr.shape[0] == m:
        P = mats(p_arr, n)
        v_p = float(asymmetry(P))
        out.equal("init-p-symmetric", v_p, float(np.max(np.abs(P))), {"reshaped": True})
    else:
        out.add(
            "init-p-symmetric",
            0.0,
            0.0,
            True,
            {"reshaped": False, "note": "p reshapes to a square matrix only when m == n*(n+1)/2"},
        )

    res_primal = frob_norm(_fold(prob.f0, p_arr, prob.fs) + X)
    out.equal("init-primal-feasibility", res_primal, frob_norm(prob.f0), {"residual": res_primal})

    eps = opts.epsilon
    out.add("init-epsilon-positive", -eps, 0.0, eps > 0.0, {"epsilon": eps})

    out.add("init-sigma-constant", 0.0, 0.0, True, {"sigma": sigma})

    out.equal(
        "init-phi-definition",
        abs(state.phi - phi_rec),
        phi_rec,
        {"stored": state.phi, "recomputed": phi_rec},
    )

    v_seed = state.phi - (sigma + CONTRACTION_MARGIN) * state.phim
    out.add("init-phim-seed", v_seed, 0.0, v_seed < 0.0, {"phi": state.phi, "phim": state.phim})

    out.equal("init-mu-definition", abs(n * state.mu - phi_rec), phi_rec, {"stored": state.mu})

    return out.records
