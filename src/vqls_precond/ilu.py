"""Zero-fill incomplete LU factorization and the preconditioned system.

The factorization runs right-looking (KIJ) Gaussian elimination on a dense
n x n copy of A, restricted to the stored pattern. The pattern is fixed, so
the index sets of every step are computed once per instance, before any
elimination, as a schedule of flat positions in the raveled workspace: for
step k, the stored entries below the pivot in column k and the stored
entries right of it in row k. Step k is then a few gathers and scatters:
scale the column entries by the pivot, and subtract their outer product with
the row entries from the rows x cols block the two span, whose positions one
``np.add.outer`` of row starts and column indices gives in row-major order.
Block cells off the pattern are scratch: every later read (l, u_kj, the
pivot) is of a stored position, so they never reach a factor entry, and they
are zeroed at the end. L and U are dense n x n arrays that together occupy
exactly the pattern of A, plus L's stored unit diagonal.

The schedule changes where the index sets come from, not the arithmetic.
Each stored entry (i, j) receives w_ij - l_ik u_kj for every stored pair
(i, k), (k, j) with k < min(i, j), in ascending k, and each l_ik divides the
same value of w_ik by the same pivot; row-by-row (IKJ) elimination does the
same operations in the same order per entry, so the factors agree with it
bit for bit. On patterns where elimination creates no fill, the result is
the exact LU factorization. The schedule holds O(nnz) positions and each
block lives for one step only, so the factorization stays in O(n^2) memory;
holding every block up front would take one position per multiply-add,
about density^2 n^3 / 3 of them.

The preconditioner is applied once per instance, to A and b together: M =
L @ U is formed once as a dense matrix, and one LAPACK solve of M X =
[A | b] gives (M^-1 A, M^-1 b). Dense factors and M cost O(n^2) memory,
which is small at workbench sizes (n <= 256), where M^-1 A is a dense n x n
matrix anyway.
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


def _schedule(pattern: np.ndarray):
    """Flat workspace positions that elimination step k reads and writes.

    Returns (l_at, row_base, u_at, cols, l_off, u_off). Step k's slices
    ``[l_off[k]:l_off[k + 1]]`` of l_at and row_base are the stored (i, k)
    with i > k in ascending i, as the flat position i n + k and the row start
    i n; its slices ``[u_off[k]:u_off[k + 1]]`` of u_at and cols are the
    stored (k, j) with j > k in ascending j, as k n + j and j. The block that
    the step updates is ``np.add.outer(row_base[...], cols[...])``, built in
    the loop, so the schedule holds O(nnz) positions and ilu0 O(n^2) memory.
    The positions are intp arrays, the offsets Python lists.
    """
    n = len(pattern)

    def past_diagonal(p):
        outer, inner = np.divmod(np.flatnonzero(p), n)
        keep = inner > outer
        return outer[keep], inner[keep]

    def offsets(k):
        return [0] + np.cumsum(np.bincount(k, minlength=n)).tolist()

    lower_k, lower_i = past_diagonal(pattern.T)
    upper_k, upper_j = past_diagonal(pattern)
    row_base = lower_i * n
    return (row_base + lower_k, row_base, upper_k * n + upper_j, upper_j,
            offsets(lower_k), offsets(upper_k))


def ilu0(A: CsrMatrix) -> IluFactors:
    """Incomplete LU with zero fill on the pattern of A.

    Requires every diagonal position to be stored (ValueError naming the
    first one missing). Defining property: (L U)[i, j] equals A[i, j]
    exactly for every stored (i, j). Builds the elimination schedule once,
    then runs the steps in ascending k on the raveled workspace; the factors
    are bit for bit those of IKJ elimination. Raises ZeroPivotError at the
    first k whose pivot falls below PIVOT_FLOOR.
    """
    n = A.n
    pattern = np.zeros((n, n), dtype=bool)
    pattern[A.row_index(), A.col_idx] = True
    missing = np.flatnonzero(~pattern.diagonal())
    if len(missing):
        i = int(missing[0])
        raise ValueError(f"diagonal position ({i},{i}) missing from the pattern")

    l_at, row_base, u_at, cols, l_off, u_off = _schedule(pattern)
    W = A.to_dense()
    w = W.reshape(-1)
    for k in range(n):
        u_kk = w[k * (n + 1)]
        if abs(u_kk) < PIVOT_FLOOR:
            raise ZeroPivotError(k, float(u_kk))
        lower = slice(l_off[k], l_off[k + 1])
        if lower.start == lower.stop:
            continue
        at = l_at[lower]
        l = w[at] / u_kk
        w[at] = l
        upper = slice(u_off[k], u_off[k + 1])
        cells = np.add.outer(row_base[lower], cols[upper]).ravel()
        w[cells] -= np.multiply.outer(l, w[u_at[upper]]).ravel()

    W[~pattern] = 0.0
    L = np.tril(W, -1)
    np.fill_diagonal(L, 1.0)
    return IluFactors(L=L, U=np.triu(W))


def preconditioned_system(A: CsrMatrix, b, factors: IluFactors):
    """(M^-1 A, M^-1 b) with M = L U, from one LAPACK solve on X = [A | b].

    M is formed once per instance and factored by ``np.linalg.solve`` (LU
    with partial pivoting), which solves for every column of [A | b] at
    once. M^-1 A is generally dense; the downstream cost function and
    spectrum reports want dense access anyway.
    """
    n = len(factors.U)
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match n={n}")
    X = np.linalg.solve(factors.L @ factors.U, np.column_stack((A.to_dense(), b)))
    return X[:, :-1], X[:, -1]
