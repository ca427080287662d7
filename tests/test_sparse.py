"""CSR structure, generators and Matrix Market round trips."""

import numpy as np
import pytest

from vqls_precond.dense import lu_solve
from vqls_precond.sparse import (CsrMatrix, DensityTooLowError, format_matrix_market,
                                 poisson_1d, random_rhs, random_sparse)


def test_csr_validation():
    with pytest.raises(ValueError):
        CsrMatrix(2, np.array([0, 1, 1]), np.array([0, 0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # decreasing columns within a row
        CsrMatrix(2, np.array([0, 2, 2]), np.array([1, 0]), np.array([1.0, 2.0]))


def _csr(rows):
    """CsrMatrix with the given per-row column lists, all values 1."""
    row_ptr = np.cumsum([0] + [len(cols) for cols in rows])
    col_idx = [c for cols in rows for c in cols]
    return CsrMatrix(len(rows), row_ptr, np.array(col_idx, dtype=np.int64),
                     np.ones(len(col_idx)))


@pytest.mark.parametrize("rows, bad_row", [
    ([[0, 1], [1, 2], [0, 3], [1, 4, 2], [4]], 3),     # descending pair inside row 3
    ([[0], [1, 1], [2]], 1),                            # repeated column
    ([[], [], [0, 2], [], [3, 0], []], 4),              # empty rows before the bad one
], ids=["descending", "repeated", "after-empty-rows"])
def test_csr_validation_names_the_offending_row(rows, bad_row):
    with pytest.raises(ValueError, match=f"row {bad_row} must be strictly increasing"):
        _csr(rows)


def test_csr_validation_accepts_empty_rows_and_drops_at_row_boundaries():
    rows = [[], [3, 4], [], [0, 2], [1], [], [0, 1, 2, 3, 4], [0], []]
    A = _csr(rows)
    assert A.nnz == sum(len(cols) for cols in rows)
    for i, cols in enumerate(rows):
        np.testing.assert_array_equal(A.col_idx[A.row_ptr[i]:A.row_ptr[i + 1]], cols)
    _csr([[], [], []])      # no stored entries at all
    _csr([[1], [0]])        # the column drops from 1 to 0 across the boundary


def test_random_sparse_has_full_diagonal():
    A = random_sparse(128, 0.2, seed=1)
    dense = A.to_dense()
    assert np.all(dense[np.arange(128), np.arange(128)] != 0.0)
    row_of = A.row_index()
    assert np.sum(row_of == A.col_idx) == 128


def test_random_sparse_nnz_within_binomial_bounds():
    # expected off-diagonal count 3148.8, six-sigma band precomputed from
    # binomial(16256, p') around total mean 3276.8
    A = random_sparse(128, 0.2, seed=1)
    assert 3000 <= A.nnz <= 3560


def test_random_sparse_deterministic():
    A = random_sparse(128, 0.2, seed=77)
    B = random_sparse(128, 0.2, seed=77)
    np.testing.assert_array_equal(A.row_ptr, B.row_ptr)
    np.testing.assert_array_equal(A.col_idx, B.col_idx)
    np.testing.assert_array_equal(A.vals, B.vals)
    C = random_sparse(128, 0.2, seed=78)
    assert not np.array_equal(A.vals, C.vals)


def test_random_sparse_offdiagonal_values_in_range():
    A = random_sparse(100, 0.2, seed=3)
    row_of = A.row_index()
    off = A.vals[row_of != A.col_idx]
    assert np.all(np.abs(off) <= 1.0)
    diag = A.vals[row_of == A.col_idx]
    assert np.all(np.abs(diag) >= 3.0) and np.all(np.abs(diag) <= 4.0)


def test_random_sparse_density_too_low():
    with pytest.raises(DensityTooLowError):
        random_sparse(100, 0.005, seed=0)


def test_random_rhs_range_and_determinism():
    b = random_rhs(1000, seed=4)
    assert np.all(np.abs(b) <= 1.0)
    np.testing.assert_array_equal(b, random_rhs(1000, seed=4))


def test_random_rhs_moments():
    # U(-1,1): mean 0, variance 1/3; bounds are five-sigma for n = 1e4
    b = random_rhs(10_000, seed=12)
    assert abs(b.mean()) < 0.03
    assert 0.30 < b.var(ddof=1) < 0.37


def test_random_rhs_stream_independent_of_matrix():
    A = random_sparse(64, 0.2, seed=21)
    b_after = random_rhs(64, seed=21)
    b_alone = random_rhs(64, seed=21)
    np.testing.assert_array_equal(b_after, b_alone)
    # and not a prefix of the matrix value stream
    assert not np.array_equal(np.sort(b_alone), np.sort(A.vals[:64]))


def test_poisson_1d_small():
    A, b = poisson_1d(3, heat_rate=1.0, length=4.0)
    np.testing.assert_array_equal(A.to_dense(), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    np.testing.assert_array_equal(b, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(lu_solve(A.to_dense(), b), [1.5, 2.0, 1.5], atol=1e-14)


def test_poisson_1d_single_node():
    A, b = poisson_1d(1, heat_rate=2.0, length=1.0)
    np.testing.assert_array_equal(A.to_dense(), [[2.0]])
    assert b[0] == pytest.approx(2.0 * 0.25)


def test_poisson_1d_matches_parabola_at_scale():
    # the 3-point stencil reproduces quadratics exactly at the nodes
    n, L, f = 128, 1.0, 1.0
    A, b = poisson_1d(n, heat_rate=f, length=L)
    u = lu_solve(A.to_dense(), b)
    xs = np.arange(1, n + 1) * (L / (n + 1))
    exact = f * xs * (L - xs) / 2.0
    assert np.abs(u - exact).max() / np.abs(exact).max() < 1e-10


def test_poisson_1d_spd_known_spectrum():
    n = 128
    A, _ = poisson_1d(n)
    eigs = np.sort(np.linalg.eigvalsh(A.to_dense()))
    assert eigs[0] > 0.0
    k = np.arange(1, n + 1)
    expected = np.sort(2.0 - 2.0 * np.cos(k * np.pi / (n + 1)))
    np.testing.assert_allclose(eigs, expected, atol=1e-10)


def test_to_dense_round_trip():
    A = random_sparse(32, 0.3, seed=8)
    row_of = A.row_index()
    np.testing.assert_array_equal(A.to_dense()[row_of, A.col_idx], A.vals)


def mtx_round_trip(A, path):
    """Write A's Matrix Market text to path; return its header and (i, j, v) rows."""
    path.write_text(format_matrix_market(A))
    return path.read_text().split("\n")[:2], np.loadtxt(path, skiprows=2, ndmin=2)


def test_matrix_market_round_trip(tmp_path):
    A = random_sparse(40, 0.2, seed=19)
    header, entries = mtx_round_trip(A, tmp_path / "instance.mtx")
    assert header == ["%%MatrixMarket matrix coordinate real general", f"40 40 {A.nnz}"]
    np.testing.assert_array_equal(entries[:, 0] - 1, A.row_index())
    np.testing.assert_array_equal(entries[:, 1] - 1, A.col_idx)
    np.testing.assert_array_equal(entries[:, 2], A.vals)


def test_matrix_market_stored_zero_survives(tmp_path):
    A = CsrMatrix(2, np.array([0, 2, 3]), np.array([0, 1, 1]), np.array([1.0, 0.0, 2.0]))
    _, entries = mtx_round_trip(A, tmp_path / "z.mtx")
    assert len(entries) == 3 and entries[1, 2] == 0.0
