from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from credible_sdp.annotator import LEGACY_LSQR_TOL
from credible_sdp.linalg import (
    PD_TOL,
    NotPositiveDefiniteError,
    frob_norm,
    identity,
    lsqr_solve,
    min_eigenvalue,
    require_pd,
    sym_inv,
    sym_sqrt,
    trace_inner,
)
from credible_sdp.symvec import DimensionError, symmetrize

seeds = st.integers(0, 2**32 - 1)


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return symmetrize(A @ A.T + n * np.eye(n))


# -- positive definiteness ---------------------------------------------------


def test_certificate_truthiness_tracks_margin():
    # the verdict is min eigenvalue > PD_TOL = 1e-12, strictly
    assert require_pd(np.diag([1.0, 2.0])) == 1.0
    for lam in (1e-13, -1.0):
        with pytest.raises(NotPositiveDefiniteError):
            require_pd(np.diag([lam, 2.0]))


def test_require_pd_on_definite_and_indefinite_matrices():
    assert require_pd(np.eye(3)) == 1.0
    assert min_eigenvalue(-np.eye(2)) == -1.0
    # eigenvalues -1 and 3: symmetric but indefinite
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert min_eigenvalue(indefinite) == pytest.approx(-1.0)
    for S in (-np.eye(2), indefinite):
        with pytest.raises(NotPositiveDefiniteError):
            require_pd(S)


def test_require_pd_treats_zero_matrix_as_not_definite():
    assert min_eigenvalue(np.zeros((2, 2))) == 0.0
    with pytest.raises(NotPositiveDefiniteError):
        require_pd(np.zeros((2, 2)))


def test_require_pd_refuses_a_minimum_eigenvalue_equal_to_the_margin():
    S = np.diag([PD_TOL, 1.0])
    assert min_eigenvalue(S) == PD_TOL
    with pytest.raises(NotPositiveDefiniteError) as exc_info:
        require_pd(S)
    assert exc_info.value.min_eigenvalue == PD_TOL


def test_min_eigenvalue_reads_the_symmetric_part():
    # no symmetry error: the eigenvalues are those of 0.5 * (S + S.T)
    S = np.array([[1.0, 1.0], [0.0, 1.0]])
    lam = min_eigenvalue(S)
    assert lam == float(np.linalg.eigvalsh(symmetrize(S))[0]) == pytest.approx(0.5)
    assert require_pd(S) == lam


def test_measures_of_a_stack_are_those_of_its_matrices_bit_for_bit():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 8, 16):
        A = rng.normal(size=(5, n, n)) * 10.0 ** rng.uniform(-8, 8, size=(5, n, n))
        B = rng.normal(size=(5, n, n))
        lam, norms, inners = min_eigenvalue(A), frob_norm(A), trace_inner(A, B)
        for k in range(5):
            assert lam[k] == min_eigenvalue(A[k])
            assert norms[k] == frob_norm(A[k])
            assert inners[k] == trace_inner(A[k], B[k])


def _stack_cases():
    rng = np.random.default_rng(19)
    A = random_spd(rng, 5)
    A[0, 3] = A[3, 0] = 0.0
    nudged, signed = A.copy(), A.copy()
    nudged[2, 2] = np.nextafter(A[2, 2], np.inf)
    signed[0, 3] = -0.0  # equal to A under ==, not bit for bit
    return {
        "all-equal": (np.stack([A] * 6), 1),
        "one-differs-in-the-last-bit": (np.stack([A, A, A, nudged, A, A]), 6),
        "one-differs-in-a-zero-sign": (np.stack([A, A, signed, A]), 4),
        "one-matrix": (A[None], 1),
    }


@pytest.mark.parametrize("case", list(_stack_cases()))
def test_an_equal_stack_is_decomposed_once_with_the_bits_of_each_matrix(case, monkeypatch):
    S, decomposed = _stack_cases()[case]
    expected = [min_eigenvalue(M) for M in S]
    eigvalsh, sizes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: sizes.append(len(M)) or eigvalsh(M))
    lam = min_eigenvalue(S)
    assert sizes == [decomposed]
    assert lam.shape == (len(S),)
    np.testing.assert_array_equal(lam.view(np.int64), np.array(expected).view(np.int64))


def test_require_pd_reports_the_offending_eigenvalue():
    with pytest.raises(NotPositiveDefiniteError) as exc_info:
        require_pd(np.diag([2.0, -3.0]), what="test matrix")
    err = exc_info.value
    assert err.what == "test matrix"
    assert err.min_eigenvalue == pytest.approx(-3.0)
    assert err.tolerance == PD_TOL
    assert "test matrix" in str(err)


def test_require_pd_returns_certificate_on_success():
    # the certificate is the minimum eigenvalue that passed the margin
    assert require_pd(np.diag([2.0, 5.0])) == pytest.approx(2.0)


# -- spectral square root and inverse ----------------------------------------


@given(st.integers(1, 6), seeds)
def test_sym_sqrt_squares_back(n, seed):
    rng = np.random.default_rng(seed)
    S = random_spd(rng, n)
    T = sym_sqrt(S)
    np.testing.assert_array_equal(T, T.T)
    assert min_eigenvalue(T) > 0
    np.testing.assert_allclose(T @ T, S, rtol=1e-10, atol=1e-10)


@given(st.integers(1, 6), seeds)
def test_sym_inv_inverts(n, seed):
    rng = np.random.default_rng(seed)
    S = random_spd(rng, n)
    W = sym_inv(S)
    np.testing.assert_array_equal(W, W.T)
    np.testing.assert_allclose(S @ W, np.eye(n), rtol=1e-10, atol=1e-10)


def test_sym_sqrt_rejects_indefinite_input():
    with pytest.raises(NotPositiveDefiniteError):
        sym_sqrt(np.diag([1.0, -1.0]))


def test_sym_inv_rejects_indefinite_input():
    with pytest.raises(NotPositiveDefiniteError):
        sym_inv(np.diag([0.0, 1.0]))


# -- least squares ------------------------------------------------------------


def test_lsqr_solves_square_systems_exactly():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = lsqr_solve(A, np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-14)


@given(st.integers(1, 5), st.integers(1, 5), seeds)
def test_lsqr_returns_the_minimum_norm_solution(rows, cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rows, cols))
    b = A @ rng.normal(size=cols)  # consistent by construction
    x = lsqr_solve(A, b)
    np.testing.assert_allclose(x, np.linalg.pinv(A) @ b, rtol=1e-8, atol=1e-10)


def test_lsqr_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        lsqr_solve(np.eye(2), np.ones(3))


def test_lsqr_refuses_a_solution_beyond_the_float_range():
    # lstsq returns [inf, 0.0] here and raises no floating-point error
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match=r"in lsqr_solve \(dual\)$"):
        lsqr_solve(np.eye(2) * 1e-10, np.array([1e300, 0.0]), equation="dual")


def test_lsqr_rejects_non_finite_input():
    with pytest.raises(ValueError):
        lsqr_solve(np.eye(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        lsqr_solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))


def test_default_lsqr_tolerance_value():
    # every cts-1 header states it, and the checker compares it
    assert LEGACY_LSQR_TOL == 1e-9


# -- small helpers ------------------------------------------------------------


def test_frob_norm_matches_numpy():
    A = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert frob_norm(A) == pytest.approx(5.0)


def test_frob_norm_gives_numpys_bits_in_any_layout():
    rng = np.random.default_rng(3)
    for n in (1, 2, 6, 16):
        A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-8, 8, size=(n, n))
        for M in (A, np.asfortranarray(A), A.T, A[::-1], (A @ A)[:, ::2]):
            assert frob_norm(M) == float(np.linalg.norm(M, "fro"))


@given(st.integers(1, 6), seeds)
def test_trace_inner_matches_trace_of_product(n, seed):
    rng = np.random.default_rng(seed)
    A = symmetrize(rng.normal(size=(n, n)))
    B = symmetrize(rng.normal(size=(n, n)))
    assert trace_inner(A, B) == pytest.approx(float(np.trace(A @ B)), rel=1e-12, abs=1e-12)


def test_trace_inner_gives_numpys_sum_bits_in_any_layout():
    rng = np.random.default_rng(4)
    for shape in ((1, 1), (2, 2), (6, 6), (16, 16), (3, 5), (7,)):
        A = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        B = rng.normal(size=shape)
        pairs = [(A, B), (np.asfortranarray(A), B), (A[::-1], B[::-1])]
        if A.ndim == 2:
            pairs.append((A.T, B.T))
        for P, Q in pairs:
            assert trace_inner(P, Q) == float((P * Q).sum())


def test_identity_is_shared_and_read_only():
    eye = identity(3)
    assert eye is identity(3)
    np.testing.assert_array_equal(eye, np.eye(3))
    assert not eye.flags.writeable


def test_trace_inner_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        trace_inner(np.eye(2), np.eye(3))
