"""Dense real-matrix kernels: exact solve, singular values, condition number.

These are the classical reference kernels every experiment compares against.
``lu_solve`` is LAPACK's LU with partial pivoting through ``numpy.linalg.solve``,
the factorization ``ilu.preconditioned_system`` uses, so an exactly singular
matrix raises ``numpy.linalg.LinAlgError`` on either path (the test suite
cross-checks the solve against a row-by-row elimination). Singular values
come from LAPACK via ``numpy.linalg.svd`` (cross-checked against an
independent eigendecomposition of A^T A).
"""

from __future__ import annotations

import math

import numpy as np

# Singular-value floor below which a matrix is reported as effectively
# singular (condition number = inf rather than an exception, so spectrum
# sweeps never abort).
SIGMA_FLOOR = 1e-300


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def lu_solve(A, b) -> np.ndarray:
    """Solve A x = b by LU factorization with partial (row) pivoting.

    Raises numpy.linalg.LinAlgError when LAPACK meets an exactly zero pivot.
    """
    A = _as_square(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("matrix and rhs entries must be finite")
    return np.linalg.solve(A, b)


def singular_values(A) -> np.ndarray:
    """All singular values of A, sorted descending, each >= 0.

    Accepts any rectangular matrix with finite entries. Convergence failure
    inside LAPACK surfaces as numpy.linalg.LinAlgError rather than a silent
    wrong answer.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.svd(A, compute_uv=False)


def condition_number(A) -> float:
    """sigma_max / sigma_min of a non-empty square matrix.

    Returns math.inf when sigma_min < 1e-300 so that spectrum reports over
    many seeds never abort on a degenerate instance.
    """
    A = _as_square(A)
    if not len(A):
        raise ValueError("expected a non-empty matrix")
    sigma = singular_values(A)
    if sigma[-1] < SIGMA_FLOOR:
        return math.inf
    return float(sigma[0] / sigma[-1])
