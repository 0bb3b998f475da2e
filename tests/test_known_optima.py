"""SDPs whose optimum is known in closed form, and what today's solver does
with them.

The Lovász theta SDP of a graph has m = 1 + |edges| < n(n+1)/2 constraints,
so admission refuses it, and the dual iterate of a solve never leaves
lstsq's Z0 = I/n, whose objective tr(J Z) is 1. The evidence must then refuse
every run whose answer is wrong: I9 fails exactly when theta != 1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from problem_gen import theta_problem

from credible_sdp.problem import ProblemFormatError, build_problem
from credible_sdp.solver import SolveStatus, default_options, initialize, solve


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


_PETERSEN = _cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]

#: name: (n, edges, theta). theta(C_n) = n cos(pi/n) / (1 + cos(pi/n)) for odd
#: n and n/2 for even n; theta(K_n) = 1; theta of the empty graph is n; theta
#: of the Petersen graph is 4.
GRAPHS = {
    "C5": (5, _cycle(5), math.sqrt(5)),
    "C6": (6, _cycle(6), 3.0),
    "C7": (7, _cycle(7), 7 * math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7))),
    "C16": (16, _cycle(16), 8.0),
    "K5": (5, list(itertools.combinations(range(5), 2)), 1.0),
    "empty5": (5, [], 5.0),
    "Petersen": (10, _PETERSEN, 4.0),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_admission_refuses_the_theta_sdp_by_the_m_rule(name):
    n, edges, _ = GRAPHS[name]
    prob = theta_problem(n, edges)
    message = f"n = {n} needs {n * (n + 1) // 2}, got m = {1 + len(edges)}"
    with pytest.raises(ProblemFormatError, match=message):
        build_problem(prob.f0, prob.fs, prob.b, x0=prob.x0)


@pytest.mark.parametrize("name", GRAPHS)
def test_the_closed_form_theta_start_passes_every_initialization_contract(name):
    n, edges, _ = GRAPHS[name]
    prob = theta_problem(n, edges)
    state, records = initialize(prob, default_options(prob))
    assert len(records) == 16 and all(rec.passed for rec in records)
    np.testing.assert_allclose(state.Z, np.eye(n) / n, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", GRAPHS)
def test_the_evidence_refuses_exactly_the_wrong_theta_answers(name):
    n, edges, theta = GRAPHS[name]
    report = solve(theta_problem(n, edges))
    assert (report.status, report.iterations) == (SolveStatus.CONVERGED, 56)
    # Z never moves, so the objective stays tr(J Z0) = 1
    assert np.sum(report.final_state.Z) == pytest.approx(1.0, rel=0, abs=1e-15)
    assert report.failed_ids == ([] if theta == 1 else ["I9"])
