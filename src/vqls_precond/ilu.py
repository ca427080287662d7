"""Zero-fill incomplete LU factorization and the preconditioned system.

The factorization runs right-looking (KIJ) Gaussian elimination on a dense
n x n copy of A, restricted to the stored pattern: step k scales the stored
entries below the pivot and updates the rows and columns that column k and
row k store. Values that land outside the pattern are never read back and
are zeroed at the end, so L and U are dense n x n arrays that together
occupy exactly the pattern of A, plus L's stored unit diagonal. Each stored
entry receives the same updates in the same order as in row-by-row (IKJ)
elimination, so the factors agree with it bit for bit. On patterns where
elimination creates no fill, the result is the exact LU factorization.

The preconditioner M = L @ U is applied once per instance, to A and b
together: one forward and one backward substitution over the dense rows of
[A | b] give (M^-1 A, M^-1 b). Dense factors cost O(n^2) memory, which is
small at workbench sizes (n <= 256), where M^-1 A is a dense n x n matrix
anyway.
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
    """Dense n x n factors of M = L @ U: L unit lower triangular with its
    diagonal stored, U upper triangular; both are zero off the pattern of A."""

    L: np.ndarray
    U: np.ndarray


def ilu0(A: CsrMatrix) -> IluFactors:
    """Incomplete LU with zero fill on the pattern of A.

    Requires every diagonal position to be stored. Defining property:
    (L U)[i, j] equals A[i, j] exactly for every stored (i, j).
    """
    n = A.n
    pattern = np.zeros((n, n), dtype=bool)
    pattern[A.row_index(), A.col_idx] = True
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

    W[~pattern] = 0.0
    L = np.tril(W, -1)
    np.fill_diagonal(L, 1.0)
    return IluFactors(L=L, U=np.triu(W))


def preconditioned_system(A: CsrMatrix, b, factors: IluFactors):
    """(M^-1 A, M^-1 b) with M = L U, from one substitution on X = [A | b].

    The forward pass runs X[i] -= L[i, :i] @ X[:i] down the rows, the
    backward pass X[i] = (X[i] - U[i, i+1:] @ X[i+1:]) / U[i, i] up them.
    M^-1 A is generally dense; the downstream cost function and spectrum
    reports want dense access anyway.
    """
    L, U = factors.L, factors.U
    n = len(U)
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match n={n}")
    X = np.column_stack((A.to_dense(), b))
    for i in range(1, n):
        X[i] -= L[i, :i] @ X[:i]
    for i in range(n - 1, -1, -1):
        X[i] -= U[i, i + 1:] @ X[i + 1:]
        X[i] /= U[i, i]
    return X[:, :-1], X[:, -1]
