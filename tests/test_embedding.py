"""Padding, ancilla-block symmetrization, Pauli decomposition, extraction.

The Pauli decomposition is the test oracle in ``oracles.py``; it is checked
here against brute force before the cost tests lean on it.
"""

import itertools

import numpy as np
import pytest

from oracles import dense_op, pauli_decompose, pauli_reconstruct, pauli_word_matrix
from vqls_precond.dense import lu_solve
from vqls_precond.embedding import (DegenerateBlockError, QuantumSystem, build_system,
                                    extract_solution)
from vqls_precond.ilu import ilu0, preconditioned_system
from vqls_precond.sparse import poisson_1d
from vqls_precond.vqls import _apply


def test_pad_noop_for_power_of_two():
    A = np.eye(128)
    b = np.ones(128)
    sys = build_system(A, b, "direct")
    assert sys.block.shape == (128, 128) and sys.rhs_state.shape == (128,)
    np.testing.assert_array_equal(sys.block, A)
    assert sys.block is not A


def test_pad_small_identity():
    sys = build_system(np.eye(3), np.array([1.0, 2.0, 3.0]), "direct")
    np.testing.assert_array_equal(sys.block, np.eye(4))
    np.testing.assert_allclose(sys.rhs_state, np.array([1.0, 2.0, 3.0, 0.0]) / np.sqrt(14.0),
                               rtol=0, atol=1e-15)
    assert sys.n_qubits == 2


def test_pad_preserves_solution():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 65))
        A = rng.uniform(-1, 1, (n, n)) + np.diag(rng.choice([-4.0, 4.0], n))
        b = rng.uniform(-1, 1, n)
        sys = build_system(A, b, "direct")
        np.testing.assert_allclose(lu_solve(sys.block, np.linalg.norm(b) * sys.rhs_state)[:n],
                                   lu_solve(A, b), rtol=1e-9, atol=1e-10)


def test_hermitize_block_layout():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    sys = build_system(A, np.array([1.0, 0.0]), "hermitized")
    np.testing.assert_array_equal(sys.block, A)
    np.testing.assert_array_equal(dense_op(sys), [[0, 0, 1, 2], [0, 0, 3, 4],
                                                  [1, 3, 0, 0], [2, 4, 0, 0]])
    np.testing.assert_array_equal(sys.rhs_state, [1.0, 0.0, 0.0, 0.0])
    assert sys.n_qubits == 2 and sys.hermitized


def test_hermitize_symmetric_bitwise():
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, (8, 8))
    sys = build_system(A, rng.uniform(-1, 1, 8), "hermitized")
    assert np.array_equal(dense_op(sys), dense_op(sys).T)
    # the production apply of op and of op^T is one map, bit for bit
    for x in rng.normal(size=(5, 16)):
        assert np.array_equal(_apply(sys, x), _apply(sys, x, transpose=True))


def test_hermitize_minimizer_structure():
    # the embedded solution has a zero top block and bottom block ~ A^-1 b
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    sys = build_system(A, b, "hermitized")
    x_embedded = lu_solve(dense_op(sys), np.concatenate([b, [0, 0]]))
    np.testing.assert_allclose(x_embedded[:2], 0.0, atol=1e-12)
    np.testing.assert_allclose(x_embedded[2:], lu_solve(A, b), rtol=1e-12)


def test_hermitize_rejects_zero_rhs():
    for mode in ("direct", "hermitized"):
        with pytest.raises(ValueError, match="zero norm"):
            build_system(np.eye(2), np.zeros(2), mode)
        with pytest.raises(ValueError, match="square"):
            build_system(np.eye(2), np.ones(3), mode)


@pytest.mark.parametrize("n, heat_rate", [(8, 1e-160), (128, 1e157)])
def test_rhs_whose_squared_norm_is_not_normal_gets_its_own_error(n, heat_rate):
    # M^-1 b of these rods has a squared norm that underflows to a subnormal
    # or overflows; a RuntimeWarning here fails the test
    A, b = poisson_1d(n, heat_rate)
    arm = preconditioned_system(A, b, ilu0(A))
    for mode in ("direct", "hermitized"):
        with pytest.raises(ValueError, match="cannot be normalized"):
            build_system(*arm, mode)


@pytest.mark.parametrize("heat_rate", [1e-140, 1.0, 1e150])
def test_normalization_of_a_valid_rhs_is_b_over_its_norm(heat_rate):
    A, b = poisson_1d(8, heat_rate)
    for op, rhs in ((A.to_dense(), b), preconditioned_system(A, b, ilu0(A))):
        sys = build_system(op, rhs, "direct")
        assert sys.rhs_state.tobytes() == (rhs / np.linalg.norm(rhs)).tobytes()


def test_pauli_decompose_single_qubit_x():
    terms = pauli_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert [(t.word, t.coeff) for t in terms] == [("X", 1.0)]


def test_pauli_decompose_identity_two_qubits():
    terms = pauli_decompose(np.eye(4))
    assert [(t.word, t.coeff) for t in terms] == [("II", 1.0)]


def test_pauli_decompose_xi_convention():
    # X on the most significant qubit
    op = np.zeros((4, 4))
    op[0, 2] = op[1, 3] = op[2, 0] = op[3, 1] = 1.0
    # brute-force oracle over all 16 two-qubit words
    expected = {}
    for letters in itertools.product("IXYZ", repeat=2):
        word = "".join(letters)
        coeff = np.trace(pauli_word_matrix(word).conj().T @ op).real / 4.0
        if abs(coeff) > 1e-12:
            expected[word] = coeff
    assert expected == {"XI": 1.0}
    terms = pauli_decompose(op)
    assert [(t.word, t.coeff) for t in terms] == [("XI", 1.0)]


def test_pauli_reconstruction_random_symmetric():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 4):
        A = rng.uniform(-1, 1, (2 ** m, 2 ** m))
        op = A + A.T
        terms = pauli_decompose(op, tol=0.0)
        assert np.abs(pauli_reconstruct(terms, m) - op).max() < 1e-12


def test_pauli_even_y_parity():
    rng = np.random.default_rng(4)
    A = rng.uniform(-1, 1, (8, 8))
    terms = pauli_decompose(A + A.T, tol=0.0)
    for t in terms:
        assert t.word.count("Y") % 2 == 0
        assert isinstance(t.coeff, float)


def test_pauli_truncation_tolerance():
    op = np.diag([1.0, 1.0 + 1e-9])
    terms = pauli_decompose(op, tol=1e-6)
    assert [t.word for t in terms] == ["I"]


def test_pauli_rejects_nonsymmetric_and_bad_size():
    with pytest.raises(ValueError):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(3))


def test_extract_hermitized_bottom_block():
    sys = build_system(np.eye(2), np.array([1.0, 1.0]), "hermitized")
    x = extract_solution(np.array([0.0, 0.0, 0.6, 0.8]), sys, original_n=2)
    np.testing.assert_allclose(x, [0.6, 0.8], atol=1e-15)


def test_extract_direct_truncates_and_renormalizes():
    sys = build_system(np.eye(4), np.array([1.0, 0.0, 0.0, 0.0]), "direct")
    x = extract_solution(np.array([0.6, 0.8, 0.0, 0.0]), sys, original_n=2)
    np.testing.assert_allclose(x, [0.6, 0.8], atol=1e-15)


def test_extract_round_trip():
    rng = np.random.default_rng(5)
    v = rng.uniform(-1, 1, 8)
    sys = build_system(np.eye(8), np.ones(8), "hermitized")
    state = np.concatenate([np.zeros(8), v]) / np.linalg.norm(v)
    np.testing.assert_array_equal(extract_solution(state, sys, 8), v / np.linalg.norm(v))


def test_extract_degenerate_block():
    sys = build_system(np.eye(2), np.array([1.0, 1.0]), "hermitized")
    with pytest.raises(DegenerateBlockError):
        extract_solution(np.array([1.0, 0.0, 0.0, 0.0]), sys, original_n=2)


def test_extract_rejects_original_n_outside_the_block():
    # a 4-long solution block: 0 would read as a degenerate block, 50 would
    # silently return all 4 entries
    sys = build_system(np.eye(4), np.ones(4), "hermitized")
    state = np.concatenate([np.zeros(4), [0.5, 0.5, 0.5, 0.5]])
    for bad in (0, -1, 5, 50):
        with pytest.raises(ValueError, match="original_n"):
            extract_solution(state, sys, original_n=bad)
    np.testing.assert_array_equal(extract_solution(state, sys, 4), [0.5] * 4)


def test_quantum_system_rejects_a_wrong_shaped_rhs():
    unit8 = np.full(8, 8 ** -0.5)
    for rhs in (unit8, np.eye(2) / np.sqrt(2.0), unit8[:4].reshape(4, 1) * np.sqrt(2.0)):
        with pytest.raises(ValueError, match="rhs_state shape"):
            QuantumSystem(n_qubits=2, block=np.eye(4), rhs_state=rhs, hermitized=False)
    QuantumSystem(n_qubits=2, block=np.eye(4), rhs_state=np.full(4, 0.5), hermitized=False)


def test_quantum_system_rejects_a_block_that_does_not_fit():
    # m = 2^n for a direct system, 2^(n-1) for a hermitized one
    unit4 = np.full(4, 0.5)
    for block, hermitized in ((np.eye(2), False), (np.eye(8), False), (np.ones((4, 2)), False),
                              (np.eye(4), True), (np.eye(1), True), (np.ones((2, 4)), True),
                              (np.ones(4), False)):
        with pytest.raises(ValueError, match="block shape"):
            QuantumSystem(n_qubits=2, block=block, rhs_state=unit4, hermitized=hermitized)
    with pytest.raises(ValueError, match="block shape"):
        QuantumSystem(n_qubits=0, block=np.zeros((0, 0)), rhs_state=np.ones(1), hermitized=True)
    QuantumSystem(n_qubits=2, block=np.eye(4), rhs_state=unit4, hermitized=False)
    QuantumSystem(n_qubits=2, block=np.eye(2), rhs_state=unit4, hermitized=True)


def test_hermitized_system_holds_only_its_block():
    # m^2 doubles, not the (2m)^2 of the dilation; the block owns its memory
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 100, 128):
        m = 1 << (n - 1).bit_length()
        sys = build_system(rng.uniform(-1, 1, (n, n)) + 4 * np.eye(n), rng.normal(size=n),
                           "hermitized")
        assert sys.block.shape == (m, m) and sys.block.dtype == np.float64
        assert sys.block.nbytes == 8 * m * m and sys.block.base is None
        assert sys.rhs_state.nbytes == 8 * 2 * m


def test_build_system_modes():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0])
    direct = build_system(A, b, "direct")
    assert direct.n_qubits == 1 and not direct.hermitized
    herm = build_system(A, b, "hermitized")
    assert herm.n_qubits == 2 and herm.hermitized
    with pytest.raises(ValueError):
        build_system(A, b, "other")
