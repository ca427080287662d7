"""CSR sparse matrices and the two problem generators.

The stored pattern is structural: explicitly stored zeros stay in the
pattern, which is what the zero-fill incomplete factorization keys on.
Random generation is backed by numpy's PCG64 with SeedSequence stream keys
so the matrix draw, the right-hand-side draw and the optimizer's parameter
initialization never share a stream (see README for the exact layout).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # a step between neighbouring entries of one row must increase
        row_of = self.row_index()
        bad = (np.diff(self.col_idx) <= 0) & (row_of[1:] == row_of[:-1])
        if bad.any():
            i = int(row_of[np.argmax(bad)])
            raise ValueError(f"columns in row {i} must be strictly increasing")

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def row_index(self) -> np.ndarray:
        """The row of every stored entry, aligned with col_idx and vals."""
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.row_index(), self.col_idx] = self.vals
        return out

    @classmethod
    def from_mask(cls, mask, vals) -> "CsrMatrix":
        """Build from a boolean pattern mask plus row-major values."""
        mask = np.asarray(mask, dtype=bool)
        n = mask.shape[0]
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=row_ptr[1:])
        return cls(n, row_ptr, np.nonzero(mask)[1], vals)


def check_random_sparse(n: int, density: float) -> None:
    """Raise ValueError unless random_sparse can draw an n x n instance of this density."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
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
    check_random_sparse(n, density)
    if diag_offset < 0.0:
        raise ValueError("diag_offset must be nonnegative")
    p_off = (density * n * n - n) / (n * n - n)
    rng = _rng(seed, STREAM_MATRIX)
    mask = rng.random((n, n)) < p_off
    np.fill_diagonal(mask, True)
    vals = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    A = CsrMatrix.from_mask(mask, vals)
    diag = np.flatnonzero(A.col_idx == A.row_index())
    u = A.vals[diag]
    A.vals[diag] = np.where(u >= 0, u + diag_offset, u - diag_offset)
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
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    A = CsrMatrix.from_mask(T != 0.0, T[T != 0.0])
    b = np.full(n, heat_rate * dh * dh)
    return A, b


def format_matrix_market(A: CsrMatrix) -> str:
    """A as Matrix Market coordinate text, 17 significant digits.

    17 digits make the decimal text round-trip every float64 exactly.
    Stored zeros are written out so the structural pattern survives.
    """
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{A.n} {A.n} {A.nnz}"]
    for i, j, v in zip(A.row_index(), A.col_idx, A.vals):
        lines.append(f"{i + 1} {j + 1} {v:.17g}")
    return "\n".join(lines) + "\n"
