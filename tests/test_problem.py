from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from credible_sdp.problem import (
    ProblemFormatError,
    SdpProblem,
    build_problem,
    compute_problem_hash,
    load_problem,
    load_problem_file,
    running_example,
)
from credible_sdp.symvec import sym_dim, vecs

F0 = np.array([[2.0, 0.0], [0.0, 1.0]])
F1 = np.array([[1.0, 0.0], [0.0, -1.0]])
F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
B = np.array([0.5, -0.25])


def toy_problem(**kwargs):
    return build_problem(F0, [F1, F2], B, **kwargs)


# -- bundled example ----------------------------------------------------------


def test_running_example_shape_and_metadata(example_problem):
    prob = example_problem
    assert (prob.n, prob.m) == (2, 3)
    assert prob.epsilon == 1e-8
    assert prob.nu is None
    assert prob.x0 is not None and prob.x0.shape == (2, 2)
    assert prob.fmat.shape == (3, sym_dim(2))
    assert len(prob.problem_hash) == 64
    np.testing.assert_array_equal(prob.b, [0.4, -0.2, 0.2])


def test_running_example_hash_is_stable(example_problem):
    assert running_example().problem_hash == example_problem.problem_hash


def test_fmat_rows_are_vectorized_constraints(example_problem):
    prob = example_problem
    for i, Fi in enumerate(prob.fs):
        np.testing.assert_array_equal(prob.fmat[i], vecs(Fi))


# -- construction and validation ----------------------------------------------


def test_build_assembles_consistent_problem():
    prob = toy_problem(x0=np.eye(2), epsilon=1e-6, nu=0.5)
    assert (prob.n, prob.m) == (2, 2)
    assert prob.epsilon == 1e-6
    assert prob.nu == 0.5
    np.testing.assert_array_equal(prob.x0, np.eye(2))


def test_build_rejects_nonsquare_f0():
    with pytest.raises(ProblemFormatError):
        build_problem(np.zeros((2, 3)), [F1], [0.0])


def test_build_rejects_asymmetric_f0():
    with pytest.raises(ProblemFormatError):
        build_problem(np.array([[1.0, 0.5], [0.0, 1.0]]), [F1], [0.0])


def test_build_rejects_indefinite_f0():
    with pytest.raises(ProblemFormatError, match="positive definite"):
        build_problem(-np.eye(2), [F1], [0.0])


def test_build_rejects_empty_constraint_list():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [], [])


def test_build_rejects_wrong_b_length():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [F1, F2], [1.0])


def test_build_rejects_constraint_shape_mismatch():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [np.eye(3)], [0.0])


def test_build_rejects_asymmetric_constraint():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [np.array([[0.0, 1.0], [0.0, 0.0]])], [0.0])


def test_build_rejects_bad_scalars():
    with pytest.raises(ProblemFormatError):
        toy_problem(epsilon=0.0)
    with pytest.raises(ProblemFormatError):
        toy_problem(epsilon=float("nan"))
    with pytest.raises(ProblemFormatError):
        toy_problem(nu=-1.0)


def test_build_rejects_bad_x0():
    with pytest.raises(ProblemFormatError):
        toy_problem(x0=np.eye(3))
    with pytest.raises(ProblemFormatError):
        toy_problem(x0=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_validation_can_be_bypassed_for_diagnostic_inputs():
    # deliberately broken data must be constructible so the initialization
    # contract sweep can run against it and report the failures
    prob = build_problem(-np.eye(2), [F1, F2], B, validate=False)
    assert prob.n == 2
    assert not np.all(np.linalg.eigvalsh(prob.f0) > 0)


def test_direct_dataclass_construction_skips_validation():
    prob = SdpProblem(
        n=2, m=1, f0=-np.eye(2), fs=(F1,), b=np.array([0.0]),
        fmat=vecs(F1)[None, :],
    )
    assert prob.epsilon == 1e-8 and prob.nu is None


# -- hashing --------------------------------------------------------------------


def test_hash_covers_constraints_only():
    base = toy_problem()
    assert toy_problem(x0=np.eye(2)).problem_hash == base.problem_hash
    assert toy_problem(epsilon=1e-3).problem_hash == base.problem_hash
    assert toy_problem(nu=1.0).problem_hash == base.problem_hash


def test_hash_changes_with_constraint_data():
    base = toy_problem()
    changed_b = build_problem(F0, [F1, F2], [0.5, -0.2])
    assert changed_b.problem_hash != base.problem_hash
    changed_f = build_problem(F0, [F1, 2.0 * F2], B)
    assert changed_f.problem_hash != base.problem_hash


def test_hash_function_is_deterministic():
    h1 = compute_problem_hash(2, 2, F0, (F1, F2), B)
    h2 = compute_problem_hash(2, 2, F0.copy(), (F1.copy(), F2.copy()), B.copy())
    assert h1 == h2 and len(h1) == 64


def test_hash_is_sha256_of_the_little_endian_bytes():
    data = struct.pack("<2q", 2, 2)
    data += b"".join(struct.pack("<4d", *M.ravel()) for M in (F0, F1, F2))
    data += struct.pack("<2d", *B)
    base = toy_problem().problem_hash
    assert base == hashlib.sha256(data).hexdigest()
    # row by row whatever the memory layout; equal bits, not equal values
    assert compute_problem_hash(2, 2, np.asfortranarray(F0), (F1, F2), B) == base
    signed_zero = F1.copy()
    signed_zero[0, 1] = -0.0
    assert compute_problem_hash(2, 2, F0, (signed_zero, F2), B) != base


def _text_hash_by_generator(prob) -> str:
    """The cts-1 hash exactly as the first solver wrote it."""
    parts = [f"n={prob.n}", f"m={prob.m}"]
    for name, M in [("F0", prob.f0), *[(f"F{i + 1}", Fi) for i, Fi in enumerate(prob.fs)]]:
        entries = ",".join(f"{v:.17g}" for v in np.asarray(M, dtype=float).ravel())
        parts.append(f"{name}=[{entries}]")
    parts.append("b=[" + ",".join(f"{v:.17g}" for v in np.asarray(prob.b, dtype=float).ravel()) + "]")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def test_text_hash_matches_the_generator_it_replaced(example_problem):
    assert example_problem.text_hash == _text_hash_by_generator(example_problem)
    tiny, huge = 5e-324, 1.7976931348623157e308
    odd = np.array([[-0.0, tiny], [-tiny, 1e308]])
    fs = (np.array([[-1e308, 2.2250738585072014e-308 / 3], [0.1, huge]]),)
    prob = SdpProblem(n=2, m=1, f0=odd, fs=fs, b=np.array([-huge]), fmat=np.zeros((1, 3)))
    assert prob.text_hash == _text_hash_by_generator(prob)


# -- JSON loading ----------------------------------------------------------------


def test_load_problem_roundtrip(tmp_path):
    payload = {
        "F0": F0.tolist(),
        "F": [F1.tolist(), F2.tolist()],
        "b": B.tolist(),
        "X0": np.eye(2).tolist(),
        "epsilon": 1e-7,
        "nu": 0.3,
    }
    prob = load_problem(json.dumps(payload))
    assert (prob.n, prob.m) == (2, 2)
    assert prob.epsilon == 1e-7 and prob.nu == 0.3
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    assert load_problem_file(str(path)).problem_hash == prob.problem_hash


def test_load_rejects_invalid_json():
    with pytest.raises(ProblemFormatError, match="JSON"):
        load_problem("{not json")


def test_load_rejects_non_object_document():
    with pytest.raises(ProblemFormatError):
        load_problem("[1, 2, 3]")


@pytest.mark.parametrize("missing", ["F0", "F", "b"])
def test_load_rejects_missing_required_key(missing):
    payload = {"F0": F0.tolist(), "F": [F1.tolist(), F2.tolist()], "b": B.tolist()}
    del payload[missing]
    with pytest.raises(ProblemFormatError, match=missing):
        load_problem(json.dumps(payload))


def test_load_rejects_non_numeric_and_non_finite_data():
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps({"F0": [["a", 0], [0, 1]], "F": [F1.tolist()], "b": [0.0]}))
    with pytest.raises(ProblemFormatError):
        load_problem('{"F0": [[1, 0], [0, Infinity]], "F": [[[1, 0], [0, -1]]], "b": [0.0]}')


def test_load_rejects_ragged_matrix():
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps({"F0": [[1.0, 0.0], [0.0]], "F": [F1.tolist()], "b": [0.0]}))


def test_load_rejects_empty_constraint_list():
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps({"F0": F0.tolist(), "F": [], "b": []}))


def test_load_rejects_non_numeric_epsilon():
    payload = {"F0": F0.tolist(), "F": [F1.tolist(), F2.tolist()], "b": B.tolist(),
               "epsilon": "small"}
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps(payload))


# -- potentials -------------------------------------------------------------------


def test_potentials_match_their_closed_forms():
    prob = toy_problem()
    X = np.diag([0.5, 0.25])
    Z = np.array([[2.0, 0.5], [0.5, 1.0]])
    gap = float(np.trace(X @ Z))
    logdet = lambda S: float(np.sum(np.log(np.linalg.eigvalsh(S))))  # noqa: E731
    n = 2
    for nu in (0.4714, 1.0, 3.0):
        expected = (n + nu * np.sqrt(n)) * np.log(gap) - logdet(X) - logdet(Z) - n * np.log(n)
        assert prob.potential_tanabe(X, Z, nu) == pytest.approx(expected, rel=1e-13)
    # on the central path (X = mu * Z^-1) only the weighted log-gap term remains
    mu = 0.01
    on_path = mu * np.linalg.inv(Z)
    assert prob.potential_tanabe(on_path, Z, 1.0) == pytest.approx(
        np.sqrt(n) * np.log(n * mu), rel=1e-12
    )


def test_potentials_reject_indefinite_arguments():
    prob = toy_problem()
    from credible_sdp.linalg import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError, match="potential X"):
        prob.potential_tanabe(np.diag([2.0, -1.0]), np.eye(2), 1.0)
    with pytest.raises(NotPositiveDefiniteError, match="potential Z"):
        prob.potential_tanabe(np.eye(2), np.diag([2.0, -1.0]), 1.0)
