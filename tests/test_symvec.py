from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from credible_sdp.linalg import sym_inv, sym_sqrt
from credible_sdp.problem import ProblemFormatError, build_problem
from credible_sdp.symvec import (
    SYMMETRY_TOL,
    DimensionError,
    SymmetryError,
    krons,
    layout,
    mats,
    require_symmetric,
    sym_dim,
    symmetrize,
    vecs,
    vecs_stack,
)

RT2 = np.sqrt(2.0)

seeds = st.integers(0, 2**32 - 1)


def random_symmetric(rng, n):
    return symmetrize(rng.normal(size=(n, n)))


def test_sym_dim_small_values():
    assert [sym_dim(k) for k in range(1, 6)] == [1, 3, 6, 10, 15]


def test_symmetrize_is_exact_average():
    A = np.array([[1.0, 3.0], [1.0, 2.0]])
    np.testing.assert_array_equal(symmetrize(A), [[1.0, 2.0], [2.0, 2.0]])


def test_symmetrize_of_a_stack_is_that_of_each_matrix():
    stack = np.random.default_rng(7).normal(size=(5, 4, 4))
    got = symmetrize(stack)
    for k, M in enumerate(stack):
        assert got[k].tobytes() == symmetrize(M).tobytes()


def test_require_symmetric_accepts_within_tolerance():
    # the tolerance is relative to max(1, max|a|) = 2 here
    A = np.array([[1.0, 2.0 + SYMMETRY_TOL], [2.0, 1.0]])
    assert require_symmetric(A) is A


def test_require_symmetric_rejects_beyond_tolerance():
    A = np.array([[1.0, 2.0 + 4 * SYMMETRY_TOL], [2.0, 1.0]])
    with pytest.raises(SymmetryError, match="max \\|a - a.T\\| = 4.000e-12"):
        require_symmetric(A)


#: Off-diagonals 5e-11 apart: within 1e-10, beyond the rule's 1e-12.
NEAR_SYMMETRIC = np.array([[2.0, 0.5 + 5e-11], [0.5, 1.0]])


@pytest.mark.parametrize("fn", [vecs, sym_sqrt, sym_inv], ids=lambda fn: fn.__name__)
def test_every_symmetric_input_obeys_the_one_rule(fn):
    with pytest.raises(SymmetryError, match="is not symmetric"):
        fn(NEAR_SYMMETRIC)
    with pytest.raises(ProblemFormatError, match="F0 is not symmetric"):
        build_problem(NEAR_SYMMETRIC, [np.eye(2)] * 3, np.zeros(3))


def test_require_symmetric_rejects_a_nan_asymmetry():
    # each is symmetric bit for bit, yet a NaN or infinite entry fails the
    # rule, in require_symmetric and in vecs alike
    for M in (
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
    ):
        M = np.array(M)
        with pytest.raises(SymmetryError, match="nan"):
            require_symmetric(M, what="X0")
        with pytest.raises(SymmetryError, match="nan"):
            vecs(M)


def test_vecs_stack_of_one_matrix_is_its_row_of_a_stack():
    rng = np.random.default_rng(5)
    S = rng.normal(size=(4, 3, 3))
    rows = vecs_stack(S)
    for k, M in enumerate(S):
        one = vecs_stack(M)
        assert one.shape == (6,) and one.flags.c_contiguous
        assert one.tobytes() == rows[k].tobytes() == vecs(symmetrize(M)).tobytes()


def test_require_symmetric_rejects_nonsquare():
    with pytest.raises(DimensionError):
        require_symmetric(np.zeros((2, 3)))


def test_vecs_ordering_and_offdiagonal_scaling():
    A = np.array([[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_array_equal(vecs(A), [1.0, 2.0 * RT2, 5.0])


def test_vecs_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        vecs(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_mats_rejects_wrong_length():
    with pytest.raises(DimensionError):
        mats(np.arange(4.0), 2)


def test_layout_maps_each_entry_to_its_triangle_slot():
    i, j, scale, pos = layout(3)
    np.testing.assert_array_equal(i, [0, 0, 0, 1, 1, 2])
    np.testing.assert_array_equal(j, [0, 1, 2, 1, 2, 2])
    np.testing.assert_array_equal(scale, [1, RT2, RT2, 1, RT2, 1])
    np.testing.assert_array_equal(pos, [[0, 1, 2], [1, 3, 4], [2, 4, 5]])
    assert not any(a.flags.writeable for a in layout(3))


@given(st.integers(1, 8), seeds)
def test_vecs_mats_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, n)
    v = vecs(A)
    assert v.shape == (sym_dim(n),)
    np.testing.assert_allclose(mats(v, n), A, rtol=1e-13, atol=1e-13)


@given(st.integers(1, 8), seeds)
def test_mats_vecs_roundtrip(n, seed):
    v = np.random.default_rng(seed).normal(size=(sym_dim(n),))
    M = mats(v, n)
    assert M.tobytes() == M.T.tobytes()
    np.testing.assert_allclose(vecs(M), v, rtol=1e-13, atol=1e-13)


@given(st.integers(1, 8), seeds)
def test_vecs_preserves_trace_inner_product(n, seed):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, n)
    B = random_symmetric(rng, n)
    assert float(np.dot(vecs(A), vecs(B))) == pytest.approx(
        float(np.sum(A * B)), rel=1e-12, abs=1e-12
    )


@given(st.integers(1, 5), seeds)
def test_krons_action_matches_symmetrized_two_sided_product(n, seed):
    rng = np.random.default_rng(seed)
    Q1 = rng.normal(size=(n, n))
    Q2 = rng.normal(size=(n, n))
    M = random_symmetric(rng, n)
    K = krons(Q1, Q2)
    expected = 0.5 * (Q1 @ M @ Q2.T + Q2 @ M @ Q1.T)
    np.testing.assert_allclose(mats(K @ vecs(M), n), expected, rtol=1e-10, atol=1e-10)


@given(st.integers(1, 5), seeds)
def test_krons_is_symmetric_in_its_arguments(n, seed):
    rng = np.random.default_rng(seed)
    Q1 = rng.normal(size=(n, n))
    Q2 = rng.normal(size=(n, n))
    np.testing.assert_allclose(krons(Q1, Q2), krons(Q2, Q1), rtol=1e-12, atol=1e-12)


def test_krons_identity_pair_is_identity_operator():
    n = 3
    K = krons(np.eye(n), np.eye(n))
    np.testing.assert_allclose(K, np.eye(sym_dim(n)), rtol=0, atol=1e-15)


def test_krons_shape_validation():
    with pytest.raises(DimensionError):
        krons(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        krons(np.eye(2), np.eye(3))
