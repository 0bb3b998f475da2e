from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import struct
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credible_sdp import problem
from credible_sdp.linalg import PD_TOL
from credible_sdp.problem import (
    ProblemFormatError,
    json_numbers,
    SdpProblem,
    build_problem,
    load_problem,
    load_problem_file,
    running_example,
)
from credible_sdp.solver import SolverOptions, default_options, initialize
from credible_sdp.symvec import SYMMETRY_TOL, sym_dim, symmetrize, vecs

GOLDEN_N6 = Path(__file__).parent / "golden" / "random_n6_problem.json"

F0 = np.array([[2.0, 0.0], [0.0, 1.0]])
F1 = np.array([[1.0, 0.0], [0.0, -1.0]])
F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
F3 = np.eye(2)
B = np.array([0.5, -0.25, 1.0])


def running_example_json() -> str:
    return resources.files("credible_sdp").joinpath("data/running_example.json").read_text()


def toy_problem(**kwargs):
    return build_problem(F0, [F1, F2, F3], B, **kwargs)


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


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("order", ["C", "F"])
def test_constraints_are_one_c_contiguous_stack(order):
    # m = 21 at n = 6; Fortran-ordered inputs must not leak into the layout,
    # since the BLAS order of fmat @ v (and so init-dual-feasibility's
    # measured value) follows the layout of fmat
    rng = np.random.default_rng(7)
    n, m = 6, sym_dim(6)
    fs = [np.asarray(symmetrize(rng.normal(size=(n, n))), order=order) for _ in range(m)]
    # a signed zero and an asymmetry at rounding level must come through as is
    fs[3][0, 1], fs[3][1, 0] = -0.0, 0.0
    fs[4][1, 2] += 1e-15
    prob = build_problem(np.eye(n), fs, rng.normal(size=m))
    assert isinstance(prob.fs, np.ndarray) and prob.fs.shape == (m, n, n)
    assert prob.fs.flags.c_contiguous and prob.fmat.flags.c_contiguous
    assert len(prob.fs) == m
    for Fi_in, Fi, row in zip(fs, prob.fs, prob.fmat):
        np.testing.assert_array_equal(_bits(Fi), _bits(Fi_in))
        np.testing.assert_array_equal(_bits(row), _bits(vecs(symmetrize(Fi))))


def test_load_tests_each_constraint_for_symmetry_once(monkeypatch):
    # one rule for every input matrix: F0, the stack of F1..Fm in one test,
    # and X0, whether it comes from the file or is set by replace
    calls = []
    rule = problem._refuse_asymmetric

    def counted(a, names):
        calls.append((a.shape, list(names)))
        rule(a, names)

    monkeypatch.setattr(problem, "_refuse_asymmetric", counted)
    prob = load_problem(GOLDEN_N6.read_text())
    stack_names = [f"F{i}" for i in range(1, 22)]
    assert calls == [((1, 6, 6), ["F0"]), ((21, 6, 6), stack_names), ((1, 6, 6), ["X0"])]
    calls.clear()
    initialize(dataclasses.replace(prob, x0=prob.x0.copy()), default_options(prob))
    assert calls == [((1, 6, 6), ["X0"])]


@pytest.mark.parametrize("name", ["F0", "F3", "X0"])
def test_every_input_matrix_meets_the_same_symmetry_tolerance(example_problem, name):
    # 1e-12 * max(1, max |a|), with the same message for each matrix
    p = example_problem
    data = {"F0": p.f0.copy(), "F3": p.fs[2].copy(), "X0": p.x0.copy()}

    def build(skew):
        edited = {**data, name: data[name] + [[0.0, skew], [0.0, 0.0]]}
        return build_problem(edited["F0"], [*p.fs[:2], edited["F3"]], p.b, x0=edited["X0"])

    assert build(0.5 * SYMMETRY_TOL).m == 3
    with pytest.raises(ProblemFormatError, match=f"^{name} is not symmetric: max "):
        build(2.0 * SYMMETRY_TOL)


# -- construction and validation ----------------------------------------------


def test_build_assembles_consistent_problem():
    prob = toy_problem(x0=np.eye(2), epsilon=1e-6, nu=0.5)
    assert (prob.n, prob.m) == (2, 3)
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


def test_build_rejects_f0_with_minimum_eigenvalue_at_the_margin():
    with pytest.raises(ProblemFormatError, match="F0 must be positive definite"):
        build_problem(np.diag([PD_TOL, 1.0]), [F1, F2, F3], B)


def test_build_rejects_empty_constraint_list():
    with pytest.raises(ProblemFormatError, match="^at least one constraint matrix is required$"):
        build_problem(F0, [], [])
    with pytest.raises(ProblemFormatError, match="^matrix dimension must be at least 1$"):
        build_problem(np.zeros((0, 0)), [], [])


def test_build_rejects_wrong_b_length():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [F1, F2], [1.0])


def test_build_rejects_constraint_shape_mismatch():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [np.eye(3)], [0.0])


def test_build_rejects_asymmetric_constraint():
    with pytest.raises(ProblemFormatError):
        build_problem(F0, [np.array([[0.0, 1.0], [0.0, 0.0]])], [0.0])


def test_the_first_asymmetric_constraint_is_named():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ProblemFormatError) as exc:
        build_problem(F0, [F1, skew, 3.0 * skew], [0.0, 0.0, 0.0])
    assert str(exc.value) == "F2 is not symmetric: max |a - a.T| = 1.000e+00"
    # the relative tolerance: 1e-12 * max(1, max |Fi|)
    big = np.array([[1e6, 1e6], [1e6 * (1 + 1e-13), 1e6]])
    assert build_problem(F0, [big, F1, F2], [0.0, 0.0, 0.0]).m == 3
    with pytest.raises(ProblemFormatError, match="F1 is not symmetric"):
        build_problem(F0, [big + [[0.0, 0.0], [1e-5, 0.0]]], [0.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["F0", "F2", "b", "X0"])
def test_build_refuses_non_finite_data_by_name(example_problem, name, bad):
    # refused before any symmetry test or SVD could misname the fault (the
    # suite turns the RuntimeWarning of arithmetic on inf into an error)
    p = example_problem
    data = {"F0": p.f0.copy(), "F2": p.fs[1].copy(), "b": p.b.copy(), "X0": p.x0.copy()}
    data[name].flat[0] = bad
    fs = [p.fs[0], data["F2"], *p.fs[2:]]
    with pytest.raises(ProblemFormatError, match=f"^{name} has non-finite entries$"):
        build_problem(data["F0"], fs, data["b"], x0=data["X0"])


def test_build_rejects_bad_scalars():
    with pytest.raises(ProblemFormatError):
        toy_problem(epsilon=0.0)
    with pytest.raises(ProblemFormatError):
        toy_problem(epsilon=float("nan"))
    with pytest.raises(ProblemFormatError):
        toy_problem(nu=-1.0)


@pytest.mark.parametrize("key,value", [("epsilon", 1e-320), ("epsilon", -1.0), ("nu", 0.0)])
def test_file_epsilon_and_nu_follow_the_option_rules(key, value):
    # the message is the one SolverOptions gives for the same value
    data = {**json.loads(running_example_json()), key: value}
    with pytest.raises(ValueError) as expected:
        SolverOptions(**{key: value})
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(json.dumps(data))
    assert str(exc.value) == str(expected.value)


def test_build_rejects_bad_x0():
    with pytest.raises(ProblemFormatError):
        toy_problem(x0=np.eye(3))
    with pytest.raises(ProblemFormatError):
        toy_problem(x0=np.array([[1.0, 0.5], [0.0, 1.0]]))


# -- admission -------------------------------------------------------------------


def _underdetermined_n3():
    rng = np.random.default_rng(5)
    return np.eye(3), [symmetrize(rng.normal(size=(3, 3))) for _ in range(5)], np.zeros(5)


def _dependent_square_set():
    # m = 3 = n(n+1)/2 at n = 2, but F3 = F1 + F2
    return F0, [F1, F2, F1 + F2], B


def test_admission_needs_n_times_n_plus_one_over_two_constraints():
    with pytest.raises(ProblemFormatError) as exc:
        build_problem(*_underdetermined_n3())
    assert str(exc.value) == (
        "m = n(n+1)/2 constraint matrices are required, so that every symmetric "
        "direction dX is a combination of F1..Fm: n = 3 needs 6, got m = 5"
    )
    with pytest.raises(ProblemFormatError, match="n = 2 needs 3, got m = 4"):
        build_problem(F0, [F1, F2, F3, F1 - F3], [0.0] * 4)


def test_admission_needs_independent_constraints():
    with pytest.raises(ProblemFormatError) as exc:
        build_problem(*_dependent_square_set())
    assert str(exc.value).startswith(
        "F1..Fm must be linearly independent: rank(F) = 2 < m = 3 (cond(F) = "
    )
    # a zero constraint leaves a zero singular value: cond(F) reads inf
    zero_row = r"rank\(F\) = 2 < m = 3 \(cond\(F\) = inf\)"
    with pytest.raises(ProblemFormatError, match=zero_row):
        build_problem(F0, [F1, F2, 0.0 * F3], B)
    with pytest.raises(ProblemFormatError, match=r"rank\(F\) = 0 < m = 1"):
        build_problem(np.eye(1), [np.zeros((1, 1))], [0.0])


@pytest.mark.parametrize("data", [_underdetermined_n3, _dependent_square_set])
def test_load_refuses_what_admission_refuses(data):
    f0, fs, b = data()
    payload = {"F0": f0.tolist(), "F": [Fi.tolist() for Fi in fs], "b": list(b)}
    with pytest.raises(ProblemFormatError, match="m = |linearly independent"):
        load_problem(json.dumps(payload))


def test_generated_and_golden_problems_are_admitted():
    from problem_gen import random_problem

    for seed in range(8):
        for n in (1, 2, 3, 4, 6):
            prob = random_problem(np.random.default_rng(seed), n=n)
            assert prob.m == sym_dim(n)
    assert load_problem(GOLDEN_N6.read_text()).m == sym_dim(6)


def test_validation_can_be_bypassed_for_diagnostic_inputs():
    # deliberately broken data must be constructible so the initialization
    # contract sweep can run against it and report the failures
    prob = SdpProblem(f0=-np.eye(2), fs=(F1, F2, F3), b=B)
    assert prob.n == 2
    assert not np.all(np.linalg.eigvalsh(prob.f0) > 0)


def test_direct_dataclass_construction_skips_validation():
    prob = SdpProblem(f0=-np.eye(2), fs=(F1,), b=np.array([0.0]))
    assert prob.epsilon == 1e-8 and prob.nu is None
    # the matrices given are copied into one stack, held as fs
    assert prob.fs.shape == (1, 2, 2) and prob.fs.flags.c_contiguous
    np.testing.assert_array_equal(prob.fs[0], F1)
    # a C-contiguous float stack is held as given, not copied
    stack = np.stack([F1, F2, F3])
    assert SdpProblem(f0=F0, fs=stack, b=B).fs is stack


# -- hashing --------------------------------------------------------------------


def test_hash_covers_constraints_only():
    base = toy_problem()
    assert toy_problem(x0=np.eye(2)).problem_hash == base.problem_hash
    assert toy_problem(epsilon=1e-3).problem_hash == base.problem_hash
    assert toy_problem(nu=1.0).problem_hash == base.problem_hash


def test_hash_changes_with_constraint_data():
    base = toy_problem()
    changed_b = build_problem(F0, [F1, F2, F3], [0.5, -0.2, 1.0])
    assert changed_b.problem_hash != base.problem_hash
    changed_f = build_problem(F0, [F1, 2.0 * F2, F3], B)
    assert changed_f.problem_hash != base.problem_hash


def test_hash_function_is_deterministic():
    h1 = SdpProblem(f0=F0, fs=(F1, F2, F3), b=B).problem_hash
    h2 = SdpProblem(f0=F0.copy(), fs=(F1.copy(), F2.copy(), F3.copy()), b=B.copy()).problem_hash
    assert h1 == h2 and len(h1) == 64


def test_hash_is_sha256_of_the_little_endian_bytes():
    data = struct.pack("<2q", 2, 3)
    data += b"".join(struct.pack("<4d", *M.ravel()) for M in (F0, F1, F2, F3))
    data += struct.pack("<3d", *B)
    base = toy_problem().problem_hash
    assert base == hashlib.sha256(data).hexdigest()
    # row by row whatever the memory layout; equal bits, not equal values
    assert SdpProblem(f0=np.asfortranarray(F0), fs=(F1, F2, F3), b=B).problem_hash == base
    signed_zero = F1.copy()
    signed_zero[0, 1] = -0.0
    assert SdpProblem(f0=F0, fs=(signed_zero, F2, F3), b=B).problem_hash != base


def test_replace_derives_the_hash_and_fmat_of_the_new_constraints(example_problem):
    changed_b = dataclasses.replace(example_problem, b=1.01 * example_problem.b)
    assert changed_b.problem_hash != example_problem.problem_hash
    np.testing.assert_array_equal(changed_b.fmat, example_problem.fmat)
    scaled = tuple(2.0 * Fi for Fi in example_problem.fs)
    changed_f = dataclasses.replace(example_problem, fs=scaled)
    np.testing.assert_array_equal(changed_f.fmat, 2.0 * example_problem.fmat)
    assert changed_f.problem_hash != example_problem.problem_hash


def test_direct_construction_derives_what_build_problem_does():
    built = toy_problem()
    direct = SdpProblem(f0=F0, fs=(F1, F2, F3), b=B)
    assert (direct.n, direct.m) == (built.n, built.m) == (2, 3)
    assert direct.problem_hash == built.problem_hash
    assert direct.fmat.tobytes() == built.fmat.tobytes()


# -- JSON loading ----------------------------------------------------------------


def test_load_problem_roundtrip(tmp_path):
    payload = {
        "F0": F0.tolist(),
        "F": [F1.tolist(), F2.tolist(), F3.tolist()],
        "b": B.tolist(),
        "X0": np.eye(2).tolist(),
        "epsilon": 1e-7,
        "nu": 0.3,
    }
    prob = load_problem(json.dumps(payload))
    assert (prob.n, prob.m) == (2, 3)
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


@pytest.mark.parametrize("b,depth", [([[0.4]], 2), (0.4, 0)], ids=["nested-list", "scalar"])
def test_load_requires_b_as_a_flat_list(b, depth):
    data = {"F0": [[2.0]], "F": [[[1.0]]]}
    assert load_problem(json.dumps({**data, "b": [0.4]})).b.tolist() == [0.4]
    with pytest.raises(ProblemFormatError, match=f'^"b" is not a numeric vector: {depth}-d, '):
        load_problem(json.dumps({**data, "b": b}))
    # the array entry point still ravels a numpy column
    assert build_problem(np.array(data["F0"]), [np.eye(1)], np.array([[0.4]])).b.shape == (1,)


def test_load_rejects_empty_constraint_list():
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps({"F0": F0.tolist(), "F": [], "b": []}))


def _example_payload() -> dict:
    return json.loads(running_example_json())


_ENTRIES = [
    ("epsilon", ()),
    ("nu", ()),
    ("b", (1,)),
    ("F0", (1, 1)),
    ("F", (2, 1, 1)),
    ("X0", (0, 0)),
]
_COERCED = {"true": True, "false": False, "int1e400": 10**400, "-int1e400": -(10**400),
            "null": None, "string": "1"}


@pytest.mark.parametrize(
    "field,path,value",
    [
        pytest.param(field, path, value, id=f"{field}-{label}")
        for field, path in _ENTRIES
        for label, value in _COERCED.items()
        if (field, value) != ("nu", None)  # "nu": null means no nu
    ],
)
def test_load_refuses_entries_numpy_would_coerce(field, path, value):
    # a JSON true would read as 1.0 and 10**400 would escape as OverflowError
    data = _example_payload()
    if path:
        target = data[field]
        for i in path[:-1]:
            target = target[i]
        target[path[-1]] = value
    else:
        data[field] = value
    name = f"F{path[0] + 1}" if field == "F" else field
    with pytest.raises(ProblemFormatError, match=name):
        load_problem(json.dumps(data))


def test_load_still_reads_integers_within_float_range():
    data = _example_payload()
    data["b"] = [10**30, 0, -(2**63)]
    data["epsilon"] = 1
    prob = load_problem(json.dumps(data))
    assert prob.b.tolist() == [1e30, 0.0, -(2.0**63)]
    assert prob.epsilon == 1.0 and type(prob.epsilon) is float


def _json_numbers_before(obj, ndim=None, shape=None):
    """``json_numbers`` before its one-pass path: numpy's nested read of
    every input, the reference whose bits and messages the new one keeps."""
    try:
        arr = np.array(obj)
    except ValueError:
        raise ValueError("ragged nesting") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{arr.ndim}-d, expected {ndim}-d")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"shape {arr.shape}, expected {shape}")
    entries = [obj] if arr.ndim == 0 else obj
    for _ in range(arr.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    odd = set(map(type, entries)) - {int, float}
    if odd:
        raise ValueError("it holds " + ", ".join(sorted(t.__name__ for t in odd)))
    try:
        arr = arr.astype(float, copy=False)
    except OverflowError:
        raise ValueError("an integer beyond the float range") from None
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    return arr


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 2**53 + 1, -(2**63), 2**64 - 1]),
)
#: the entries a JSON parse yields that are not numbers of the float range
_ODD = st.sampled_from(
    [float("inf"), None, 10**400, True, float("nan"), "1", float("-inf"), -(10**400), False, "",
     {}, {"a": 1}]
)


@st.composite
def _nestings(draw):
    """A regular nesting of numbers, sometimes with one odd entry, one
    sub-list cut short (ragged) or one entry wrapped in a list (too deep);
    or any nesting of lists at all. Some regular nestings are 63 to 80
    deep, around the 64 dimensions numpy reads."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.recursive(st.one_of(_NUMBERS, _ODD), lambda kids: st.lists(kids, max_size=3)))
    if draw(st.integers(0, 4)) == 0:
        shape = [1] * draw(st.integers(63, 80))
        for i in draw(st.lists(st.integers(0, len(shape) - 1), max_size=2)):
            shape[i] = draw(st.integers(0, 2))
    else:
        shape = draw(st.lists(st.integers(0, 3), max_size=4))
    flat = draw(st.lists(_NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape)))
    edit = draw(st.sampled_from(["none", "odd", "ragged", "deeper"]))
    if flat and edit in ("odd", "deeper"):
        i = draw(st.integers(0, len(flat) - 1))
        flat[i] = draw(_ODD) if edit == "odd" else [flat[i]]
    entries = iter(flat)

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else next(entries)

    obj = build(shape)
    if edit == "ragged" and len(shape) >= 2 and shape[0] and shape[1]:
        obj[-1].pop()
    return obj


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_nestings())
def test_json_numbers_keeps_the_nested_reads_bits_and_messages(obj):
    try:  # the nesting's own shape, as numpy finds it
        own = np.array(obj, dtype=object).shape
    except ValueError:
        own = (1, 2)

    def outcome(read, ndim, shape):
        try:
            arr = read(obj, ndim, shape)
        except ValueError as exc:
            return "raises", str(exc)
        return arr.shape, arr.dtype.str, arr.flags.c_contiguous, arr.tobytes()

    # every ask: any nesting, the nesting's own depth or shape, or another
    for ndim, shape in [(None, None), (len(own), None), (None, own), (len(own) + 1, None), (None, (*own, 1))]:
        assert outcome(json_numbers, ndim, shape) == outcome(_json_numbers_before, ndim, shape)


def test_load_rejects_non_numeric_epsilon():
    payload = {"F0": F0.tolist(), "F": [F1.tolist(), F2.tolist()], "b": B.tolist(),
               "epsilon": "small"}
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps(payload))
