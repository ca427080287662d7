"""Zero-fill incomplete factorization: exactness on the pattern, the IKJ
oracle, preconditioned-system assembly against a LAPACK solve, and the
dense-LU oracle on no-fill patterns."""

import tracemalloc

import numpy as np
import pytest

from oracles import csr_from_dense, ilu0_ikj, substitute
from vqls_precond.dense import condition_number, lu_solve
from vqls_precond.ilu import ZeroPivotError, ilu0, preconditioned_system
from vqls_precond.sparse import CsrMatrix, poisson_1d, random_rhs, random_sparse

SEEDS = list(range(1, 11))


def dense_restricted_elimination(A, pattern):
    """Independent reference: dense IKJ elimination discarding updates off-pattern."""
    n = A.shape[0]
    W = A.copy()
    for i in range(n):
        for k in range(i):
            if not pattern[i, k]:
                continue
            l = W[i, k] / W[k, k]
            W[i, k] = l
            for j in range(k + 1, n):
                if pattern[i, j] and pattern[k, j]:
                    W[i, j] -= l * W[k, j]
    return np.tril(W, -1) * pattern + np.eye(n), np.triu(W) * pattern


def test_ilu0_diagonal_matrix():
    A = csr_from_dense(np.diag([2.0, -3.0, 5.0]), keep_zeros=False)
    F = ilu0(A)
    np.testing.assert_array_equal(F.L, np.eye(3))
    np.testing.assert_array_equal(F.U, np.diag([2.0, -3.0, 5.0]))


def test_ilu0_dense_2x2_hand_elimination():
    A = csr_from_dense(np.array([[4.0, 3.0], [6.0, 3.0]]))
    F = ilu0(A)
    np.testing.assert_allclose(F.L, [[1.0, 0.0], [1.5, 1.0]], atol=0)
    np.testing.assert_allclose(F.U, [[4.0, 3.0], [0.0, -1.5]], atol=0)


def test_ilu0_no_fill_pattern_equals_lu():
    A_dense = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 2.0]])
    A = csr_from_dense(A_dense)
    F = ilu0(A)
    assert F.L[2, 0] == pytest.approx(0.5)
    assert F.U[2, 2] == pytest.approx(1.5)
    assert np.abs(F.L @ F.U - A_dense).max() < 1e-15


def test_ilu0_matches_dense_reference():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        mask = rng.random((n, n)) < 0.4
        np.fill_diagonal(mask, True)
        A_dense = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
        d = np.diag(A_dense).copy()
        A_dense[np.arange(n), np.arange(n)] = np.where(d >= 0, d + 2.0, d - 2.0)
        L_ref, U_ref = dense_restricted_elimination(A_dense, mask)
        F = ilu0(CsrMatrix.from_mask(mask, A_dense[mask]))
        np.testing.assert_allclose(F.L, L_ref, atol=1e-13)
        np.testing.assert_allclose(F.U, U_ref, atol=1e-13)


def test_ilu0_pattern_exactness_at_scale():
    for seed in SEEDS[:3]:
        A = random_sparse(128, 0.2, seed)
        dense = A.to_dense()
        F = ilu0(A)
        prod = F.L @ F.U
        mask = dense != 0.0
        assert np.abs(prod - dense)[mask].max() < 1e-10 * np.abs(dense).max()


def test_ilu0_zero_fill_in():
    A = random_sparse(64, 0.2, seed=2)
    F = ilu0(A)
    dense = A.to_dense()
    np.testing.assert_array_equal(F.L.diagonal(), 1.0)
    strict_lower = (np.tril(F.L, -1) != 0.0)
    upper = (F.U != 0.0)
    assert not np.any(np.triu(F.L, 1))
    assert not np.any(strict_lower & (dense == 0.0))
    assert not np.any(upper & (dense == 0.0))
    assert not np.any(np.triu(strict_lower))
    assert not np.any(np.tril(upper, -1))


def test_ilu0_requires_diagonal_in_pattern():
    A = csr_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))  # no diagonal stored
    with pytest.raises(ValueError, match=r"\(0,0\) missing"):
        ilu0(A)
    A = csr_from_dense(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"\(1,1\) missing"):      # rows 1 and 2 lack it
        ilu0(A)


def test_ilu0_zero_pivot_raises_with_row():
    # structurally stored zero pivot: pattern membership is not value-based
    A = CsrMatrix(2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                  np.array([0.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ZeroPivotError) as info:
        ilu0(A)
    assert info.value.row == 0


def test_ilu0_pivot_lost_during_elimination():
    # exact cancellation: u_11 = 1 - 2*0.5 = 0
    A = csr_from_dense(np.array([[2.0, 1.0], [1.0, 0.5]]))
    with pytest.raises(ZeroPivotError) as info:
        ilu0(A)
    assert info.value.row == 1


def _outcome(factor, A):
    """Every byte of the factors, or the zero pivot's row and value."""
    try:
        F = factor(A)
    except ZeroPivotError as exc:
        return ("zero pivot", exc.row, np.float64(exc.value).tobytes())
    return F.L.tobytes(), F.U.tobytes()


def _integer_instances():
    """Random patterns with small integer values: exact cancellations give
    zero pivots at many rows, and stored zeros are common."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        mask = rng.random((n, n)) < rng.uniform(0.3, 1.0)
        np.fill_diagonal(mask, True)
        yield CsrMatrix.from_mask(mask, rng.integers(-2, 3, size=int(mask.sum())))


def _schedule_edge_cases():
    """Patterns at the edges of the elimination schedule: steps with no rows
    below the pivot, steps with rows but no block, and empty blocks throughout."""
    rng = np.random.default_rng(26)
    full = rng.uniform(-1, 1, (8, 8)) + np.diag(np.full(8, 4.0))
    yield csr_from_dense(np.tril(full))         # lower only: every block is empty
    yield csr_from_dense(np.triu(full))         # upper only: every step skips
    arrow = np.diag(np.diag(full))
    arrow[1:, 0] = full[1:, 0]                  # column 0 stores every row, row 0 nothing
    arrow[5, 3], arrow[3, 6], arrow[6, 3] = full[5, 3], full[3, 6], full[6, 3]
    yield csr_from_dense(arrow)                 # step 0: rows, empty block; step 3: 2 x 1
    yield CsrMatrix(2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                    np.array([3.0, 0.0, 1.5, 2.0]))    # n = 2, stored off-diagonal zero


def _oracle_corpus():
    for n, density in [(16, 0.2), (16, 1.0), (32, 0.5), (64, 0.2), (128, 0.05), (128, 0.2),
                       (128, 0.6)]:
        for diag_offset in (0.0, 1.0, 3.0):
            for seed in (1, 2, 3):
                yield random_sparse(n, density, seed, diag_offset)
    yield from _integer_instances()
    yield from _schedule_edge_cases()
    yield CsrMatrix(3, np.array([0, 2, 4, 6]), np.array([0, 2, 0, 1, 1, 2]),
                    np.array([2.0, 0.0, 0.0, 3.0, 0.0, 4.0]))      # stored zeros
    yield csr_from_dense(np.eye(1))
    yield CsrMatrix(1, np.array([0, 1]), np.array([0]), np.array([-7.5]))
    yield csr_from_dense(np.eye(6))
    yield poisson_1d(16)[0]
    yield poisson_1d(128)[0]


def test_ilu0_matches_ikj_oracle_bit_for_bit():
    zero_pivot_rows = set()
    for A in _oracle_corpus():
        got = _outcome(ilu0, A)
        assert got == _outcome(ilu0_ikj, A)
        if got[0] == "zero pivot":
            zero_pivot_rows.add(got[1])
    # zero pivots must turn up at several rows, not only at the first pivot
    assert {0, 1, 2, 3} <= zero_pivot_rows



def test_ilu0_memory_stays_quadratic():
    # The schedule holds O(nnz) positions and each step builds only its own
    # block, so the peak stays a few n x n workspaces. A schedule holding every
    # step's block up front would need one position per multiply-add, about
    # density^2 n^3 / 3: some 34 workspaces at n = 256 and density 0.5.
    n = 256
    A = random_sparse(n, 0.5, 1)
    tracemalloc.start()
    try:
        ilu0(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n * 8

def minv_b(A, v):
    """M^-1 v: the b output of preconditioned_system."""
    return preconditioned_system(A, v, ilu0(A))[1]


def test_preconditioned_rhs_identity_and_diagonal():
    v = np.array([1.0, -2.0, 3.0, 4.0])
    np.testing.assert_array_equal(minv_b(csr_from_dense(np.eye(4)), v), v)
    A2 = csr_from_dense(np.diag([2.0, 4.0]))
    np.testing.assert_array_equal(minv_b(A2, np.array([2.0, 4.0])), [1.0, 1.0])


def test_preconditioned_rhs_full_pattern_equals_dense_solve():
    A_dense = np.array([[4.0, 3.0], [6.0, 3.0]])
    v = np.array([1.0, 0.0])
    np.testing.assert_allclose(minv_b(csr_from_dense(A_dense), v), lu_solve(A_dense, v),
                               atol=1e-14)


def _full_pattern_12():
    rng = np.random.default_rng(6)
    A_dense = rng.uniform(-1, 1, (12, 12)) + np.diag(rng.choice([-4.0, 4.0], 12))
    return csr_from_dense(A_dense, keep_zeros=True), rng.uniform(-1, 1, 12)


def _lapack_corpus():
    for seed in (1, 2, 3):
        yield random_sparse(128, 0.2, seed), random_rhs(128, seed)
    yield poisson_1d(128)
    yield _full_pattern_12()


def test_preconditioned_system_matches_lapack_oracle():
    for A, b in _lapack_corpus():
        F = ilu0(A)
        X_ref = np.linalg.solve(F.L @ F.U, np.column_stack((A.to_dense(), b)))
        A_tilde, b_tilde = preconditioned_system(A, b, F)
        for got, ref in ((A_tilde, X_ref[:, :-1]), (b_tilde, X_ref[:, -1])):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_preconditioned_system_matches_substitution_oracle():
    for A, b in _lapack_corpus():
        F = ilu0(A)
        X_ref = substitute(F.L, F.U, np.column_stack((A.to_dense(), b)))
        A_tilde, b_tilde = preconditioned_system(A, b, F)
        for got, ref in ((A_tilde, X_ref[:, :-1]), (b_tilde, X_ref[:, -1])):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [16, 128, 1024])
def test_preconditioned_rod_is_identity_and_parabola(n):
    # The rod's pattern takes no fill, so M = A and M^-1 A = I exactly; M^-1 b is the
    # discrete solution, which matches the parabola u_i = h^2 i (n + 1 - i) / 2 at the nodes.
    A, b = poisson_1d(n)
    A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
    h = 1.0 / (n + 1)
    i = np.arange(1, n + 1)
    u = h * h * i * (n + 1 - i) / 2
    assert np.abs(A_tilde - np.eye(n)).max() <= 1e-12
    assert np.abs(b_tilde - u).max() <= 1e-11 * np.abs(u).max()


def test_preconditioned_system_identity():
    A = csr_from_dense(np.eye(5))
    b = np.arange(1.0, 6.0)
    A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
    np.testing.assert_array_equal(A_tilde, np.eye(5))
    np.testing.assert_array_equal(b_tilde, b)


def test_preconditioned_system_full_pattern_is_exact():
    A, b = _full_pattern_12()
    A_dense = A.to_dense()
    A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
    assert np.abs(A_tilde - np.eye(12)).max() < 1e-8
    np.testing.assert_allclose(b_tilde, lu_solve(A_dense, b), rtol=1e-10, atol=1e-12)


def normalized(v):
    return v / np.linalg.norm(v)


def test_solution_preserved_under_preconditioning():
    for seed in SEEDS[:3]:
        A = random_sparse(128, 0.2, seed)
        b = random_rhs(128, seed)
        A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
        x = normalized(lu_solve(A.to_dense(), b))
        x_tilde = normalized(lu_solve(A_tilde, b_tilde))
        if x @ x_tilde < 0:
            x_tilde = -x_tilde
        assert np.abs(x - x_tilde).max() < 1e-6


def test_condition_number_improves_for_committed_seeds():
    improved = 0
    for seed in SEEDS:
        A = random_sparse(128, 0.2, seed)
        b = random_rhs(128, seed)
        A_tilde, _ = preconditioned_system(A, b, ilu0(A))
        if condition_number(A_tilde) <= condition_number(A.to_dense()):
            improved += 1
    assert improved >= 9
