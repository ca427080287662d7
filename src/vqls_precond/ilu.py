"""Zero-fill incomplete LU factorization and preconditioner application.

The factorization runs right-looking (KIJ) Gaussian elimination on a dense
n x n copy of A, restricted to the stored pattern: step k scales the stored
entries below the pivot and updates the rows and columns that column k and
row k store. Values that land outside the pattern are never read back, so L
and U together occupy exactly the pattern of A (L's unit diagonal is
implicit and never stored). Each stored entry receives the same updates in
the same order as in row-by-row (IKJ) elimination, so the factors agree with
it bit for bit. On patterns where elimination creates no fill, the result is
the exact LU factorization. The workspace costs O(n^2) memory, which is
small at workbench sizes (n <= 256), where preconditioned_system builds
dense n x n matrices anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix

PIVOT_FLOOR = 1e-12


class ZeroPivotError(RuntimeError):
    """A diagonal pivot fell below the floor during elimination.

    No perturbation is applied; the caller decides how to proceed (the
    experiment harness redraws the instance under the next seed).
    """

    def __init__(self, row: int, value: float):
        super().__init__(f"pivot |u[{row},{row}]| = {abs(value):.3e} below {PIVOT_FLOOR:g}")
        self.row = row
        self.value = value


@dataclass
class IluFactors:
    """L strictly lower (unit diagonal implicit) and U upper including diagonal."""

    L: CsrMatrix
    U: CsrMatrix


def ilu0(A: CsrMatrix) -> IluFactors:
    """Incomplete LU with zero fill on the pattern of A.

    Requires every diagonal position to be stored. Defining property:
    (L U)[i, j] equals A[i, j] exactly for every stored (i, j).
    """
    n = A.n
    row_of = A.row_index()
    pattern = np.zeros((n, n), dtype=bool)
    pattern[row_of, A.col_idx] = True
    missing = np.flatnonzero(~pattern.diagonal())
    if len(missing):
        i = int(missing[0])
        raise ValueError(f"diagonal position ({i},{i}) missing from the pattern")

    # Step k updates the whole block rows x cols, stored or not. Updates that
    # land off the pattern are scratch: every later read (l, u_kj, the pivot)
    # is of a stored position, so they never reach a factor entry.
    W = A.to_dense()
    for k in range(n):
        u_kk = W[k, k]
        if abs(u_kk) < PIVOT_FLOOR:
            raise ZeroPivotError(k, float(u_kk))
        rows = k + 1 + np.flatnonzero(pattern[k + 1:, k])
        if not len(rows):
            continue
        l = W[rows, k] / u_kk
        W[rows, k] = l
        cols = k + 1 + np.flatnonzero(pattern[k, k + 1:])
        W[np.ix_(rows, cols)] -= np.outer(l, W[k, cols])

    vals = W[row_of, A.col_idx]
    lower = A.col_idx < row_of
    upper = ~lower
    return IluFactors(L=CsrMatrix.from_rows(n, row_of[lower], A.col_idx[lower], vals[lower]),
                      U=CsrMatrix.from_rows(n, row_of[upper], A.col_idx[upper], vals[upper]))


def apply_minv(factors: IluFactors, v) -> np.ndarray:
    """x = U^-1 (L^-1 v) by sparse forward then backward substitution."""
    v = np.asarray(v, dtype=float)
    if v.shape != (factors.U.n,):
        raise ValueError(f"vector length {v.shape} does not match n={factors.U.n}")
    return _usolve(factors.U, _lsolve(factors.L, v))


def _lsolve(L: CsrMatrix, v: np.ndarray) -> np.ndarray:
    """Forward substitution with implicit unit diagonal; v may be (n,) or (n, m)."""
    x = np.array(v, dtype=float)
    for i in range(L.n):
        cols, vals = L.row(i)
        if len(cols):
            x[i] -= vals @ x[cols]
    return x


def _usolve(U: CsrMatrix, v: np.ndarray) -> np.ndarray:
    """Backward substitution; row diagonals are the leading stored entries."""
    x = np.array(v, dtype=float)
    for i in range(U.n - 1, -1, -1):
        cols, vals = U.row(i)
        if len(cols) > 1:
            x[i] -= vals[1:] @ x[cols[1:]]
        x[i] /= vals[0]
    return x


def preconditioned_system(A: CsrMatrix, b, factors: IluFactors):
    """Assemble (M^-1 A, M^-1 b) with M = L U from the incomplete factors.

    M^-1 A is generally dense, so it is materialized column by column as
    apply_minv(F, A e_j); at workbench sizes (n <= 256) that is cheap and the
    downstream cost function and spectrum reports want dense access anyway.
    """
    b = np.asarray(b, dtype=float)
    A_tilde = _usolve(factors.U, _lsolve(factors.L, A.to_dense()))
    b_tilde = apply_minv(factors, b)
    return A_tilde, b_tilde
