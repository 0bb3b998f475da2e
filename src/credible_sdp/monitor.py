"""Runtime contract monitoring for the solver.

Each solver step is judged against a fixed catalog of contracts. A contract
evaluation never raises: it produces an ``InvariantRecord`` holding the
measured quantity, the bound it was compared against, and the verdict, so a
failed contract is data, not control flow. A record's ``anchor`` is the
contract as an expression in the annotation language used by the listing
generator, which makes records, annotated listings, and trace checking all
point at the same text. Anchors are derived, not stored: a record keeps the
sigma its anchor is rendered with, and the text is built only when read (by
the slack table of the verbose report and by ``cts-1`` traces).

Two catalogs exist: sixteen initialization contracts (phase "init",
evaluated once on the starting point) and twelve per-iteration contracts
I1..I12 (phase "loop"). Equality contracts are checked to ``EQUALITY_TOL``
scaled by max(1, |reference|); positive-definiteness contracts compare the
minimum eigenvalue against ``linalg.PD_TOL``, strictly. Tolerances are
constants of the catalog, so a trace is checked by rules it cannot state.

Sums over the constraint matrices run over the problem's (m, n, n) stack in
one numpy expression that adds the terms in the same order, so they give
the same bits as the loop ``acc = acc + p[i] * F[i]`` (see ``_fold``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import PD_TOL, frob_norm, trace_inner
from .problem import SdpProblem
from .solver import IterateState, NewtonStep, SolverOptions
from .symvec import mats, sym_dim, symmetrize, vecs

#: Radius factor of the central-path neighborhood: ||X@Z - mu*I||_F <= THETA * mu.
THETA = 0.3105

#: Bound on the scaled dual direction norm (contract I5).
DZ_BOUND = 0.7

#: Admission ceiling on the duality gap (init-gap-upper and I2).
GAP_CEILING = 0.1

#: Relative tolerance of the equality contracts, scaled by max(1, |reference|).
EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class InvariantRecord:
    """Outcome of evaluating one contract at one point of the run.

    ``measured`` and ``bound`` are oriented so that, up to the strictness
    noted in the anchor, passing means measured <= bound; ``detail`` carries
    auxiliary numbers (component residuals, eigenvalues, raw chain verdicts).
    ``anchor`` is a property rendered from ``id``, ``phase`` and ``sigma``.
    """

    id: str
    phase: str
    iteration: int
    sigma: float
    measured: float
    bound: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @property
    def anchor(self) -> str:
        render = loop_anchor if self.phase == "loop" else init_anchor
        return render(self.id, self.sigma)


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

_LOOP_BY_ID = dict(_LOOP_TEMPLATES)
_INIT_BY_ID = dict(_INIT_TEMPLATES)


def fmt_num(x: float) -> str:
    """Shortest round-tripping decimal form, e.g. 0.75 -> '0.75'."""
    return repr(float(x))


def _render(template: str, sigma: float) -> str:
    return template.format(sigma=fmt_num(sigma), sigma1=fmt_num(sigma + 0.01))


def loop_anchor(record_id: str, sigma: float) -> str:
    """The annotation-language expression for a per-iteration contract."""
    return _render(_LOOP_BY_ID[record_id], sigma)


def init_anchor(record_id: str, sigma: float) -> str:
    """The annotation-language expression for an initialization contract."""
    return _render(_INIT_BY_ID[record_id], sigma)


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


def _min_eig(S: np.ndarray) -> float:
    """Minimum eigenvalue of the symmetric part (never raises on asymmetry)."""
    return float(np.linalg.eigvalsh(symmetrize(np.asarray(S, dtype=float)))[0])


def check_iteration(
    prob: SdpProblem,
    state: IterateState,
    step: NewtonStep,
) -> list[InvariantRecord]:
    """Evaluate the twelve per-iteration contracts for one completed step.

    ``state`` is the post-step state; it embeds the point that was stepped
    from as (Xm, Zm, pm) and its gap as phim. ``step`` supplies the
    directions, the scaling pair (Zh, Zhi), and the mu/sigma that built the
    right-hand side. Only those attributes are read — never the assembled
    system G/H/r — so a step reconstructed from a serialized trace is checked
    by exactly the same code path as a live one.
    """
    n = prob.n
    eye = np.eye(n)
    Xm, Zm = state.Xm, state.Zm
    X, Z = state.X, state.Z
    dX, dZ, dp = step.dX, step.dZ, step.dp
    Zh, Zhi = step.Zh, step.Zhi
    sigma, mu = step.sigma, step.mu
    out: list[InvariantRecord] = []

    def rec(rid: str, measured: float, bound: float, passed: bool, detail: dict | None = None):
        out.append(
            InvariantRecord(
                id=rid,
                phase="loop",
                iteration=state.iteration,
                sigma=sigma,
                measured=float(measured),
                bound=float(bound),
                passed=bool(passed),
                detail=detail if detail is not None else {},
            )
        )

    # I1: both iterates stay positive definite.
    lam_x = _min_eig(X)
    lam_z = _min_eig(Z)
    lam = min(lam_x, lam_z)
    rec(
        "I1",
        -lam,
        -PD_TOL,
        lam > PD_TOL,
        {"min_eigenvalue_X": lam_x, "min_eigenvalue_Z": lam_z},
    )

    # I2: the gap stays positive and under the admission ceiling.
    rec(
        "I2",
        state.phi,
        GAP_CEILING,
        (state.phi > 0.0) and (state.phi <= GAP_CEILING),
        {"lower_ok": state.phi > 0.0},
    )

    # I3: strict contraction with a one-percent margin over sigma.
    v3 = state.phi - (sigma + 0.01) * state.phim
    rec("I3", v3, 0.0, v3 < 0.0, {"phi": state.phi, "phim": state.phim})

    # I4: the new pair stays in the central-path neighborhood (new mu).
    dev4 = frob_norm(X @ Z - state.mu * eye)
    rec("I4", dev4, THETA * state.mu, dev4 <= THETA * state.mu)

    # I5: scaled dual direction is small.
    v5 = frob_norm(Zhi @ dZ @ Zhi)
    rec("I5", v5, DZ_BOUND, v5 <= DZ_BOUND)

    # I6: second-order cross term is small (mu of the point stepped from).
    v6 = frob_norm(Zhi @ dX @ dZ @ Zh)
    b6 = THETA * sigma * mu
    rec("I6", v6, b6, v6 <= b6)

    # I7: linearized gap identity.
    lhs7 = trace_inner(Xm, dZ) + trace_inner(dX, Zm) + trace_inner(Xm, Zm)
    rhs7 = sigma * n * mu
    v7 = abs(lhs7 - rhs7)
    b7 = EQUALITY_TOL * max(1.0, abs(rhs7))
    rec("I7", v7, b7, v7 <= b7, {"lhs": lhs7, "rhs": rhs7})

    # I8: realized gap contraction equals sigma exactly.
    v8 = abs(state.phi - sigma * state.phim)
    b8 = EQUALITY_TOL * max(1.0, abs(state.phim))
    rec("I8", v8, b8, v8 <= b8, {"phi": state.phi, "phim": state.phim})

    # I9: directions preserve dual and primal feasibility.
    r_dual = float(np.linalg.norm(prob.fmat @ vecs(symmetrize(dZ))))
    r_primal = frob_norm(_fold(0.0, np.asarray(dp, dtype=float).ravel(), prob.fstack) + dX)
    v9 = max(r_dual, r_primal)
    b9 = EQUALITY_TOL * max(1.0, frob_norm(dX))
    rec("I9", v9, b9, v9 <= b9, {"dual_residual": r_dual, "primal_residual": r_primal})

    # I10: the directions satisfy the scaled Newton equation (rhs recomputed).
    lhs10 = 0.5 * (
        Zhi @ (dZ @ Xm + Zm @ dX) @ Zh + Zh @ (Xm @ dZ + dX @ Zm) @ Zhi
    )
    rhs10 = sigma * mu * eye - Zh @ Xm @ Zh
    v10 = frob_norm(lhs10 - rhs10)
    b10 = EQUALITY_TOL * max(1.0, frob_norm(rhs10))
    rec("I10", v10, b10, v10 <= b10)

    # I11: proximity chain for the new pair under the old scaling. The outer
    # comparison (first <= bound) is exact; the inner one (first <= middle)
    # gets the equality tolerance since both sides shrink to rounding level.
    a11 = frob_norm(Zh @ X @ Zh - sigma * mu * eye)
    b11 = 0.5 * frob_norm(
        Zhi @ (Z @ X - sigma * mu * eye) @ Zh + Zh @ (X @ Z - sigma * mu * eye) @ Zhi
    )
    c11 = THETA * sigma * mu
    rec(
        "I11",
        a11,
        c11,
        (a11 <= c11) and (a11 <= b11 + EQUALITY_TOL * max(1.0, b11)),
        {
            "chain_first": a11,
            "chain_middle": b11,
            "chain_bound": c11,
            "first_leq_middle": bool(a11 <= b11),
            "middle_leq_bound": bool(b11 <= c11),
        },
    )

    # I12: the scaled dual update keeps the next Z positive definite.
    lam12 = _min_eig(eye + Zhi @ dZ @ Zhi)
    rec("I12", -lam12, -PD_TOL, lam12 > PD_TOL, {"min_eigenvalue": lam12})

    return out


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
    eye = np.eye(n)
    X, Z, p = state.X, state.Z, state.p
    sigma = opts.sigma
    phi_rec = trace_inner(X, Z)
    mu_rec = phi_rec / n
    out: list[InvariantRecord] = []

    def rec(rid: str, measured: float, bound: float, passed: bool, detail: dict | None = None):
        out.append(
            InvariantRecord(
                id=rid,
                phase="init",
                iteration=state.iteration,
                sigma=sigma,
                measured=float(measured),
                bound=float(bound),
                passed=bool(passed),
                detail=detail if detail is not None else {},
            )
        )

    lam0 = _min_eig(prob.f0)
    rec("init-f0-pd", -lam0, -PD_TOL, lam0 > PD_TOL, {"min_eigenvalue": lam0})

    if m:
        F = prob.fstack
        asyms = np.abs(F - F.transpose(0, 2, 1)).max(axis=(1, 2))
        worst = int(np.argmax(asyms))
        scale = max(1.0, float(np.abs(F).max()))
        v = float(asyms[worst])
        rec(
            "init-fi-symmetric",
            v,
            EQUALITY_TOL * scale,
            v <= EQUALITY_TOL * scale,
            {"worst_index": worst + 1},
        )
    else:
        rec("init-fi-symmetric", 0.0, 0.0, True, {"note": "no constraint matrices"})

    rec("init-size", -min(n, m), -1.0, n >= 1 and m >= 1, {"n": n, "m": m})

    lam_z = _min_eig(Z)
    rec("init-z0-pd", -lam_z, -PD_TOL, lam_z > PD_TOL, {"min_eigenvalue": lam_z})

    res_dual = float(np.linalg.norm(prob.fmat @ vecs(symmetrize(Z)) + prob.b))
    b_dual = EQUALITY_TOL * max(1.0, float(np.linalg.norm(prob.b)))
    rec("init-dual-feasibility", res_dual, b_dual, res_dual <= b_dual, {"residual": res_dual})

    lam_x = _min_eig(X)
    rec("init-x0-pd", -lam_x, -PD_TOL, lam_x > PD_TOL, {"min_eigenvalue": lam_x})

    dev = frob_norm(X @ Z - mu_rec * eye)
    rec("init-neighborhood", dev, THETA * mu_rec, dev <= THETA * mu_rec)

    rec("init-gap-upper", phi_rec, GAP_CEILING, phi_rec <= GAP_CEILING)

    rec("init-gap-positive", -phi_rec, 0.0, phi_rec > 0.0, {"gap": phi_rec})

    p_arr = np.asarray(p, dtype=float).ravel()
    if m == sym_dim(n) and p_arr.shape[0] == m:
        P = mats(p_arr, n)
        asym_p = float(np.max(np.abs(P - P.T)))
        scale_p = EQUALITY_TOL * max(1.0, float(np.max(np.abs(P))))
        rec("init-p-symmetric", asym_p, scale_p, asym_p <= scale_p, {"reshaped": True})
    else:
        rec(
            "init-p-symmetric",
            0.0,
            0.0,
            True,
            {"reshaped": False, "note": "p reshapes to a square matrix only when m == n*(n+1)/2"},
        )

    res_primal = frob_norm(_fold(prob.f0, p_arr, prob.fstack) + X)
    b_primal = EQUALITY_TOL * max(1.0, frob_norm(prob.f0))
    rec(
        "init-primal-feasibility",
        res_primal,
        b_primal,
        res_primal <= b_primal,
        {"residual": res_primal},
    )

    rec("init-epsilon-positive", -opts.epsilon, 0.0, opts.epsilon > 0.0, {"epsilon": opts.epsilon})

    rec("init-sigma-constant", 0.0, 0.0, True, {"sigma": sigma})

    v_phi = abs(state.phi - phi_rec)
    b_phi = EQUALITY_TOL * max(1.0, abs(phi_rec))
    rec(
        "init-phi-definition",
        v_phi,
        b_phi,
        v_phi <= b_phi,
        {"stored": state.phi, "recomputed": phi_rec},
    )

    v_seed = state.phi - (sigma + 0.01) * state.phim
    rec("init-phim-seed", v_seed, 0.0, v_seed < 0.0, {"phi": state.phi, "phim": state.phim})

    v_mu = abs(n * state.mu - phi_rec)
    b_mu = EQUALITY_TOL * max(1.0, abs(phi_rec))
    rec("init-mu-definition", v_mu, b_mu, v_mu <= b_mu, {"stored": state.mu})

    return out
