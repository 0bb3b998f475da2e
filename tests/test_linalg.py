from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from credible_sdp.annotator import LEGACY_LSQR_TOL
from credible_sdp.linalg import (
    PD_TOL,
    NotPositiveDefiniteError,
    PdCertificate,
    frob_norm,
    is_pd,
    lsqr_solve,
    min_eigenvalue,
    require_pd,
    sym_inv,
    sym_sqrt,
    trace_inner,
)
from credible_sdp.symvec import DimensionError, SymmetryError, symmetrize

seeds = st.integers(0, 2**32 - 1)


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return symmetrize(A @ A.T + n * np.eye(n))


# -- positive definiteness ---------------------------------------------------


def test_certificate_truthiness_tracks_margin():
    assert PdCertificate(min_eigenvalue=1.0, tolerance=1e-12).ok
    assert bool(PdCertificate(min_eigenvalue=1.0, tolerance=1e-12))
    assert not PdCertificate(min_eigenvalue=1e-13, tolerance=1e-12).ok
    assert not PdCertificate(min_eigenvalue=-1.0, tolerance=1e-12).ok


def test_is_pd_on_definite_and_indefinite_matrices():
    assert is_pd(np.eye(3)).ok
    assert not is_pd(-np.eye(2)).ok
    # eigenvalues -1 and 3: symmetric but indefinite
    assert not is_pd(np.array([[1.0, 2.0], [2.0, 1.0]])).ok


def test_is_pd_treats_zero_matrix_as_not_definite():
    assert not is_pd(np.zeros((2, 2))).ok


def test_min_eigenvalue_requires_symmetry():
    with pytest.raises(SymmetryError):
        min_eigenvalue(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_require_pd_reports_the_offending_eigenvalue():
    with pytest.raises(NotPositiveDefiniteError) as exc_info:
        require_pd(np.diag([2.0, -3.0]), what="test matrix")
    err = exc_info.value
    assert err.what == "test matrix"
    assert err.min_eigenvalue == pytest.approx(-3.0)
    assert err.tolerance == PD_TOL
    assert "test matrix" in str(err)


def test_require_pd_returns_certificate_on_success():
    cert = require_pd(np.diag([2.0, 5.0]))
    assert cert.ok and cert.min_eigenvalue == pytest.approx(2.0)


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


def test_trace_inner_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        trace_inner(np.eye(2), np.eye(3))
