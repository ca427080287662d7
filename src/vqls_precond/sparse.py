"""CSR sparse matrices and the two problem generators.

The stored pattern is structural: explicitly stored zeros stay in the
pattern, which is what the zero-fill incomplete factorization keys on.
Random generation is backed by numpy's PCG64 with SeedSequence stream keys
so the matrix draw, the right-hand-side draw and the optimizer's parameter
initialization never share a stream (see README for the exact layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# SeedSequence stream ids, one per independent consumer of a user seed.
STREAM_MATRIX = 0
STREAM_RHS = 1
STREAM_THETA = 2


class DensityTooLowError(ValueError):
    """Requested density cannot host the mandatory diagonal."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


@dataclass
class CsrMatrix:
    """Square sparse matrix in compressed sparse row form.

    row_ptr has length n+1, col_idx is strictly increasing within each row,
    and vals holds one value per stored position.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=float)
        if self.row_ptr.shape != (self.n + 1,):
            raise ValueError("row_ptr must have length n+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.vals):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(self.col_idx) != len(self.vals):
            raise ValueError("col_idx and vals must have equal length")
        if self.nnz and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column indices out of range")
        for i in range(self.n):
            cols = self.col_idx[self.row_ptr[i]:self.row_ptr[i + 1]]
            if np.any(np.diff(cols) <= 0):
                raise ValueError(f"columns in row {i} must be strictly increasing")

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def row(self, i: int):
        """(cols, vals) views of stored row i."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[lo:hi], self.vals[lo:hi]

    def matvec(self, x) -> np.ndarray:
        """y = A x using only stored entries."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector length {x.shape} does not match n={self.n}")
        row_of = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        return np.bincount(row_of, weights=self.vals * x[self.col_idx], minlength=self.n)

    def transpose(self) -> "CsrMatrix":
        """Exact structural transpose (an involution, bit for bit)."""
        order = np.argsort(self.col_idx, kind="stable")
        row_of = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        t_row_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.col_idx, minlength=self.n), out=t_row_ptr[1:])
        return CsrMatrix(self.n, t_row_ptr, row_of[order], self.vals[order].copy())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        row_of = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        out[row_of, self.col_idx] = self.vals
        return out

    @classmethod
    def from_dense(cls, A, keep_zeros: bool = False) -> "CsrMatrix":
        """Build from a dense array; by default zeros are not stored."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("expected a square matrix")
        mask = np.ones_like(A, dtype=bool) if keep_zeros else (A != 0.0)
        return cls.from_mask(mask, A[mask])

    @classmethod
    def from_mask(cls, mask, vals) -> "CsrMatrix":
        """Build from a boolean pattern mask plus row-major values."""
        mask = np.asarray(mask, dtype=bool)
        n = mask.shape[0]
        rows, cols = np.nonzero(mask)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
        return cls(n, row_ptr, cols, np.asarray(vals, dtype=float))

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(n, np.arange(n + 1), np.arange(n), np.ones(n))


def check_random_sparse(n: int, density: float, diag_offset: float) -> None:
    """Raise ValueError unless random_sparse can draw an instance from these arguments."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    if diag_offset < 0.0:
        raise ValueError("diag_offset must be nonnegative")
    if density * n * n < n:
        raise DensityTooLowError(
            f"density {density} cannot host the {n} mandatory diagonal entries")


def random_sparse(n: int, density: float, seed: int,
                  diag_offset: float = 3.0) -> CsrMatrix:
    """Random sparse matrix: full diagonal plus Bernoulli off-diagonal pattern.

    All n diagonal positions are always stored and the off-diagonal
    probability is deflated so the expected total nnz is density * n**2.
    Off-diagonal values are i.i.d. uniform on [-1, 1], drawn row-major over
    the stored positions. Diagonal values keep their uniform draw but are
    pushed away from zero by diag_offset (d = u + sign(u) * diag_offset):
    the zero-fill factorization both needs structural pivots and is
    numerically worthless without diagonal weight - near-zero pivots make
    the restricted elimination blow up by many orders of magnitude, and the
    factor product then approximates nothing. The default offset keeps the
    instances clearly non-trivial (condition numbers in the tens) while the
    factorization stays stable for essentially every seed.

    Deterministic in seed: the same seed reproduces the matrix bit for bit.
    """
    check_random_sparse(n, density, diag_offset)
    p_off = (density * n * n - n) / (n * n - n)
    rng = _rng(seed, STREAM_MATRIX)
    mask = rng.random((n, n)) < p_off
    np.fill_diagonal(mask, True)
    vals = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    A = CsrMatrix.from_mask(mask, vals)
    for i in range(n):
        cols, row_vals = A.row(i)
        pos = int(np.searchsorted(cols, i))
        u = row_vals[pos]
        row_vals[pos] = u + diag_offset if u >= 0 else u - diag_offset
    return A


def random_rhs(n: int, seed: int) -> np.ndarray:
    """Uniform [-1, 1] right-hand side, from a stream independent of the matrix draw."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rng(seed, STREAM_RHS).uniform(-1.0, 1.0, size=n)


def poisson_1d(n_interior: int, heat_rate: float = 1.0, length: float = 1.0):
    """Steady 1-D heat diffusion with zero Dirichlet ends, uniform source.

    Discretizes -u'' = f on (0, L) with n_interior interior nodes and
    u(0) = u(L) = 0, both sides scaled by dh^2 so the matrix is the integer
    tridiagonal (-1, 2, -1). Returns (A, b) with b = f * dh**2 * ones.
    """
    if n_interior < 1:
        raise ValueError("n_interior must be >= 1")
    if length <= 0:
        raise ValueError("length must be positive")
    n = n_interior
    dh = length / (n + 1)
    rows, cols, vals = [], [], []
    for i in range(n):
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        rows.append(i); cols.append(i); vals.append(2.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.array(rows), minlength=n), out=row_ptr[1:])
    A = CsrMatrix(n, row_ptr, np.array(cols), np.array(vals))
    b = np.full(n, heat_rate * dh * dh)
    return A, b


def save_matrix_market(A: CsrMatrix, path) -> None:
    """Write in Matrix Market coordinate format, 17 significant digits.

    17 digits make the decimal text round-trip every float64 exactly.
    Stored zeros are written out so the structural pattern survives.
    """
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{A.n} {A.n} {A.nnz}"]
    row_of = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
    for i, j, v in zip(row_of, A.col_idx, A.vals):
        lines.append(f"{i + 1} {j + 1} {v:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix_market(path) -> CsrMatrix:
    """Read a square real general Matrix Market coordinate file."""
    with open(path) as fh:
        header = fh.readline().strip().lower().split()
        if header[:4] != ["%%matrixmarket", "matrix", "coordinate", "real"]:
            raise ValueError("unsupported Matrix Market header")
        if len(header) > 4 and header[4] != "general":
            raise ValueError(f"unsupported symmetry kind {header[4]!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        n_rows, n_cols, nnz = (int(t) for t in line.split())
        if n_rows != n_cols:
            raise ValueError("only square matrices are supported")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        k = 0
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            i, j, v = line.split()
            rows[k], cols[k], vals[k] = int(i) - 1, int(j) - 1, float(v)
            k += 1
        if k != nnz:
            raise ValueError(f"expected {nnz} entries, file held {k}")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
        raise ValueError("duplicate coordinate entries")
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    return CsrMatrix(n_rows, row_ptr, cols, vals)
