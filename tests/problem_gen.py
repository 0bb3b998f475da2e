"""Problem instances for exercising the solver: random strictly feasible
ones, and the Lovász theta SDP of a graph, whose optimum is known.

The construction plants the dual solution: with m = n(n+1)/2 linearly
independent symmetric constraint matrices, the minimum-norm dual solve has a
unique solution, so choosing b = -fmat @ vecs(Z) makes the solver recover the
planted positive definite Z exactly. The primal warm start is placed on (or
optionally nudged slightly off) the central path, comfortably inside the
neighborhood and under the gap ceiling, so every initialization contract
holds by construction.
"""

from __future__ import annotations

import numpy as np

from credible_sdp import SdpProblem, build_problem
from credible_sdp.linalg import min_eigenvalue, sym_inv, trace_inner
from credible_sdp.monitor import THETA
from credible_sdp.symvec import sym_dim, symmetrize, vecs


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """A comfortably conditioned random symmetric positive definite matrix."""
    A = rng.normal(size=(n, n))
    return symmetrize(scale * (A @ A.T + 0.5 * n * np.eye(n)))


def random_problem(
    rng: np.random.Generator,
    n: int | None = None,
    gap: float = 0.05,
    epsilon: float = 1e-5,
    perturb: bool = True,
):
    """Build a problem whose initialization contract sweep passes.

    ``gap`` is the target initial duality gap (must stay under the 0.1
    ceiling); ``perturb`` nudges the warm start off the exact central path
    while keeping it well inside the neighborhood.
    """
    if n is None:
        n = int(rng.integers(1, 5))
    N = sym_dim(n)
    while True:
        fs = [symmetrize(rng.normal(size=(n, n))) for _ in range(N)]
        fmat = np.vstack([vecs(f) for f in fs])
        if np.linalg.matrix_rank(fmat) == N:
            break

    Z = random_spd(rng, n)
    b = -(fmat @ vecs(Z))

    mu = gap / n
    X = mu * sym_inv(Z)
    if perturb and n > 1:
        E = symmetrize(rng.normal(size=(n, n)))
        denom = max(1e-12, float(np.linalg.norm(E, 2)) * float(np.linalg.norm(Z, 2)))
        scale = 0.05 * mu / denom
        for _ in range(8):
            cand = symmetrize(X + scale * E)
            g = trace_inner(cand, Z)
            dev = float(np.linalg.norm(cand @ Z - (g / n) * np.eye(n), "fro"))
            if min_eigenvalue(cand) > 1e-10 and 0 < g <= 0.09 and dev <= 0.25 * (g / n):
                X = cand
                break
            scale *= 0.25

    f0 = random_spd(rng, n)
    return build_problem(f0, fs, b, x0=X, epsilon=epsilon)


def theta_problem(n: int, edges) -> SdpProblem:
    """The Lovász theta SDP of the graph on vertices 0..n-1 with ``edges``:
    maximize tr(J @ Z) over Z >= 0 with tr(Z) = 1 and Z[i, j] = 0 on every
    edge (i, j). Its optimum is the graph's theta, which is 1 only for a
    complete graph.

    In the repository's form, dual feasibility reads tr(Fk @ Z) + b[k] = 0:
    F1 = I with b1 = -1 states tr(Z) = 1, and one E_ij (ones at (i, j) and
    (j, i)) per edge with b = 0 states Z[i, j] = 0. The objective enters as
    F0 = s(J + I), shifted by I to be positive definite. So m = 1 + |edges|,
    fewer than n(n+1)/2, and ``build_problem`` refuses the problem; it is
    built directly.

    The start. The minimum-norm Z solving the dual equations has equal
    diagonal entries and no off-diagonal ones, so lstsq gives Z0 = I/n on
    every graph. The primal warm start is X0 = s(alpha I - J): F0 + X0 =
    s(alpha + 1) I lies in span(F1), so p0 solves its equations exactly.
    - X0 is positive definite when alpha > n, the largest eigenvalue of J.
    - The gap is tr(X0 Z0) = s(alpha n - n)/n = s(alpha - 1), so
      s = 0.09/(alpha - 1) puts it at 0.09, under the 0.1 ceiling, and
      mu = 0.09/n.
    - With Zh = I/sqrt(n), Zh X0 Zh - mu I = s(I - J)/n, whose Frobenius
      norm is s sqrt(n(n-1))/n. It is at most THETA mu = THETA s(alpha-1)/n
      when alpha - 1 >= sqrt(n(n-1))/THETA; alpha = 1 + 1.05 sqrt(n(n-1))/THETA
      keeps a 5 % margin, and is above n for every n >= 2, since
      sqrt(n(n-1)) >= n - 1 and 1.05/THETA > 1.
    """
    alpha = 1 + 1.05 * np.sqrt(n * (n - 1)) / THETA
    s = 0.09 / (alpha - 1)
    I, J = np.eye(n), np.ones((n, n))
    fs = [I]
    for i, j in edges:
        E = np.zeros((n, n))
        E[i, j] = E[j, i] = 1.0
        fs.append(E)
    b = np.zeros(len(fs))
    b[0] = -1.0
    return SdpProblem(f0=s * (J + I), fs=fs, b=b, x0=s * (alpha * I - J))
