"""Seeded problem files for the benchmark workloads.

Uses the planted-dual construction: with m = n(n+1)/2 symmetric constraint
matrices whose vectorizations are linearly independent, the dual
feasibility equations trace(Fi @ Z) + b_i = 0 have exactly one solution, so
setting b_i = -trace(Fi @ Z) for a random positive definite Z makes the
solver recover that Z. The primal warm start sits near the central path,
inside the neighborhood and under the 0.1 gap ceiling, so every
initialization contract holds.

Only numpy is used here, never the package under test: the inputs must not
change when the solver's own helpers change. Problem ``index`` of a seed is
drawn from its own random stream, so any one problem can be rebuilt without
the ones before it, and the same (seed, n, index) always gives a
byte-identical file.
"""

from __future__ import annotations

import json

import numpy as np

#: Convergence threshold written into every problem file.
EPSILON = 1e-8

#: Initial duality gap trace(X0 @ Z0) of the warm start.
INITIAL_GAP = 0.05


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.normal(size=(n, n))
    return _sym(A @ A.T + 0.5 * n * np.eye(n))


def _upper(M: np.ndarray) -> np.ndarray:
    """Upper-triangle entries: injective on symmetric matrices, enough for a rank test."""
    return M[np.triu_indices(M.shape[0])]


def problem_data(seed: int, n: int, index: int) -> dict:
    """The problem as a JSON-ready dict with keys F0, F, b, X0 and epsilon."""
    rng = np.random.default_rng([seed, n, index])
    N = n * (n + 1) // 2
    while True:
        fs = [_sym(rng.normal(size=(n, n))) for _ in range(N)]
        if np.linalg.matrix_rank(np.vstack([_upper(F) for F in fs])) == N:
            break

    Z = _random_spd(rng, n)
    b = [-float(np.sum(F * Z)) for F in fs]

    mu = INITIAL_GAP / n
    X = mu * _sym(np.linalg.inv(Z))
    if n > 1:
        # Nudge the warm start off the exact central path, keeping it well
        # inside the 0.3105 * mu neighborhood; shrink the nudge until it fits.
        E = _sym(rng.normal(size=(n, n)))
        scale = 0.05 * mu / max(1e-12, float(np.linalg.norm(E, 2) * np.linalg.norm(Z, 2)))
        for _ in range(8):
            cand = _sym(X + scale * E)
            gap = float(np.sum(cand * Z))
            dev = float(np.linalg.norm(cand @ Z - (gap / n) * np.eye(n), "fro"))
            if (
                float(np.linalg.eigvalsh(cand)[0]) > 1e-10
                and 0 < gap <= 0.09
                and dev <= 0.25 * (gap / n)
            ):
                X = cand
                break
            scale *= 0.25

    F0 = _random_spd(rng, n)
    return {
        "F0": F0.tolist(),
        "F": [F.tolist() for F in fs],
        "b": b,
        "X0": X.tolist(),
        "epsilon": EPSILON,
    }


def problem_bytes(seed: int, n: int, index: int) -> bytes:
    """The problem file's bytes; floats are written as their shortest exact repr."""
    return json.dumps(problem_data(seed, n, index)).encode("utf-8")


def write_problem(path, seed: int, n: int, index: int) -> int:
    """Write problem ``index`` of ``seed`` at size ``n`` to ``path``; return its size."""
    data = problem_bytes(seed, n, index)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)

