"""Dense kernel tests: solve, singular values, condition number.

Oracle routes are kept independent of the implementation: lu_solve, which
is numpy.linalg.solve, is checked against a row-by-row Gaussian elimination
(oracles.gauss_solve) and by substitution, singular values against an
eigendecomposition of A^T A.
"""

import math

import numpy as np
import pytest

from oracles import gauss_solve
from vqls_precond.dense import condition_number, lu_solve, singular_values


def test_lu_solve_identity():
    x = lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=0)


def test_lu_solve_diagonal():
    x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=0)


def test_lu_solve_tridiagonal_closed_form():
    # u(x) = x(4-x)/2 sampled at x = 1, 2, 3; verified by substitution below
    A = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
    b = np.ones(3)
    x = lu_solve(A, b)
    np.testing.assert_allclose(x, [1.5, 2.0, 1.5], atol=1e-14)
    np.testing.assert_allclose(A @ x, b, atol=1e-14)


def test_lu_solve_matches_lapack_oracle():
    # lu_solve is the LAPACK solve, so the oracle is an independent elimination
    rng = np.random.default_rng(42)
    for _ in range(20):
        A = rng.normal(size=(9, 9)) + 3 * np.eye(9)
        b = rng.normal(size=9)
        np.testing.assert_allclose(lu_solve(A, b), gauss_solve(A, b),
                                   rtol=1e-10, atol=1e-12)


def test_lu_solve_residual_property():
    # 100 seeded well-conditioned instances: ||Ax - b||_inf <= 1e-8 ||b||_inf
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        A = rng.uniform(-1, 1, size=(n, n)) + np.diag(rng.choice([-4.0, 4.0], size=n))
        b = rng.uniform(-1, 1, size=n)
        x = lu_solve(A, b)
        assert np.abs(A @ x - b).max() <= 1e-8 * np.abs(b).max()


def test_lu_solve_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        lu_solve(A, np.ones(2))


def test_lu_solve_takes_a_tiny_nonzero_pivot():
    # The last pivot is the 1e-15 as stored, 5 * 2**-52. LAPACK stops only at
    # an exact zero pivot, so the solve goes through and x fits exactly.
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    x = lu_solve(A, np.ones(2))
    np.testing.assert_array_equal(x, [1.0, 0.0])
    np.testing.assert_array_equal(A @ x, np.ones(2))


def test_lu_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.array([[np.nan, 0], [0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(2), np.array([1.0, np.inf]))


def test_singular_values_trivial():
    np.testing.assert_allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0], atol=0)
    np.testing.assert_allclose(singular_values(np.array([[0.0, 2.0], [0.0, 0.0]])),
                               [2.0, 0.0], atol=1e-15)


def test_singular_values_against_eigh_oracle():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1, 1, size=(8, 8))
    oracle = np.sqrt(np.maximum(np.sort(np.linalg.eigvalsh(A.T @ A))[::-1], 0.0))
    np.testing.assert_allclose(singular_values(A), oracle, rtol=1e-9, atol=1e-12)


def test_singular_values_orthogonal_invariance():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(10, 10))
    Q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    np.testing.assert_allclose(singular_values(Q.T @ A @ Q), singular_values(A),
                               rtol=1e-9, atol=1e-9)


def test_singular_values_scaling_and_ordering():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.normal(size=(7, 7))
        s = singular_values(A)
        assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(singular_values(-2.5 * A), 2.5 * s,
                                   rtol=1e-10, atol=1e-13)


def test_condition_number_trivial():
    assert condition_number(np.eye(4)) == 1.0
    assert condition_number(np.diag([10.0, 0.1])) == pytest.approx(100.0, rel=1e-13)


def test_condition_number_tridiagonal_against_oracle():
    n = 8
    A = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)
    s = np.sqrt(np.maximum(np.sort(np.linalg.eigvalsh(A.T @ A))[::-1], 0.0))
    assert condition_number(A) == pytest.approx(s[0] / s[-1], rel=1e-10)


def test_condition_number_singular_sentinel():
    assert condition_number(np.array([[1.0, 0.0], [0.0, 0.0]])) == math.inf


def test_condition_number_rejects_empty_and_non_finite_matrices():
    with pytest.raises(ValueError, match="non-empty"):
        condition_number(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="square"):
        condition_number(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        condition_number(np.array([[1.0, 0.0], [0.0, np.inf]]))
