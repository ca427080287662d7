"""Gate semantics, circuit layering, shifted states and the batched kernel."""

import numpy as np
import pytest

from oracles import shift_columns, shift_rule_tangent, shifted_state
from vqls_precond import AnsatzParams, StateVector, prepare_state
from vqls_precond.ansatz import _cnot_kernel, _ry_kernel, _run_circuit


def random_state(n_qubits, rng):
    amps = rng.normal(size=2 ** n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def ry(amps, qubit, angle):
    """RY through the kernel on a (dim, 1) copy of ``amps``."""
    buf = amps[:, None].copy()
    _ry_kernel(buf, qubit, angle)
    return buf[:, 0]


def cnot(amps, control, target):
    """CNOT through the kernel on a (dim, 1) copy of ``amps``."""
    buf = amps[:, None].copy()
    _cnot_kernel(buf, control, target)
    return buf[:, 0]


def test_ry_zero_is_identity():
    rng = np.random.default_rng(0)
    s = random_state(3, rng)
    np.testing.assert_array_equal(ry(s.amps, 1, 0.0), s.amps)


def test_ry_pi_flips_single_qubit():
    np.testing.assert_allclose(ry(StateVector.zero(1).amps, 0, np.pi), [0.0, 1.0],
                               atol=1e-16)


def test_ry_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_state(3, rng)
        a1, a2 = rng.uniform(-np.pi, np.pi, 2)
        q = int(rng.integers(3))
        via_two = ry(ry(s.amps, q, a1), q, a2)
        direct = ry(s.amps, q, a1 + a2)
        assert np.abs(via_two - direct).max() < 1e-12


def test_cnot_on_basis_states():
    s00 = StateVector.zero(2).amps
    np.testing.assert_array_equal(cnot(s00, 0, 1), s00)
    s10 = np.array([0.0, 0.0, 1.0, 0.0])  # |10>, qubit 0 is MSB
    np.testing.assert_array_equal(cnot(s10, 0, 1), [0.0, 0.0, 0.0, 1.0])


def test_cnot_reversed_control():
    s01 = np.array([0.0, 1.0, 0.0, 0.0])  # |01>
    np.testing.assert_array_equal(cnot(s01, 1, 0), [0.0, 0.0, 0.0, 1.0])


def test_cnot_involution():
    rng = np.random.default_rng(2)
    s = random_state(4, rng)
    np.testing.assert_array_equal(cnot(cnot(s.amps, 1, 3), 1, 3), s.amps)


def test_prepare_state_zero_angles():
    params = AnsatzParams(3, 2, np.zeros((3, 3)))
    out = prepare_state(params, StateVector.zero(3))
    np.testing.assert_array_equal(out.amps, StateVector.zero(3).amps)


def test_prepare_state_single_qubit_closed_form():
    t0, t1 = 0.7, -0.3
    params = AnsatzParams(1, 1, np.array([[t0], [t1]]))
    out = prepare_state(params, StateVector.zero(1))
    np.testing.assert_allclose(out.amps, [np.cos((t0 + t1) / 2), np.sin((t0 + t1) / 2)],
                               atol=1e-15)


def test_prepare_state_hand_traced_two_qubits():
    theta = np.array([[np.pi, 0.0], [0.0, 0.0]])
    out = prepare_state(AnsatzParams(2, 1, theta), StateVector.zero(2))
    np.testing.assert_allclose(out.amps, [0.0, 0.0, 0.0, 1.0], atol=1e-16)


def test_prepare_state_norm_preserved_long_random_circuit():
    rng = np.random.default_rng(3)
    amps = random_state(4, rng).amps
    for _ in range(200):
        if rng.random() < 0.5:
            amps = ry(amps, int(rng.integers(4)), rng.uniform(-np.pi, np.pi))
        else:
            q = rng.choice(4, size=2, replace=False)
            amps = cnot(amps, int(q[0]), int(q[1]))
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_prepare_state_is_orthogonal_map():
    rng = np.random.default_rng(4)
    n, depth = 3, 2
    params = AnsatzParams.random(n, depth, 0.8, rng)
    cols = []
    for i in range(2 ** n):
        e = np.zeros(2 ** n)
        e[i] = 1.0
        cols.append(prepare_state(params, StateVector(n, e)).amps)
    V = np.column_stack(cols)
    assert np.abs(V.T @ V - np.eye(2 ** n)).max() < 1e-10


def test_shifted_state_examples():
    params = AnsatzParams(1, 0, np.zeros((1, 1)))
    plus = shifted_state(params, 0, np.pi / 2, StateVector.zero(1))
    np.testing.assert_allclose(plus.amps, [np.cos(np.pi / 4), np.sin(np.pi / 4)],
                               atol=1e-15)
    with pytest.raises(IndexError):
        shifted_state(params, 1, np.pi / 2, StateVector.zero(1))


def test_shift_up_then_down_restores():
    rng = np.random.default_rng(5)
    params = AnsatzParams.random(3, 2, 0.5, rng)
    init = random_state(3, rng)
    flat = params.flat()
    flat[4] += np.pi / 2
    flat[4] -= np.pi / 2
    np.testing.assert_array_equal(prepare_state(params.with_flat(flat), init).amps,
                                  prepare_state(params, init).amps)


def test_tangent_matches_finite_differences():
    rng = np.random.default_rng(6)
    n, depth = 3, 2
    params = AnsatzParams.random(n, depth, 0.9, rng)
    init = random_state(n, rng)
    h = 1e-5
    for j in range(params.count):
        tangent = shift_rule_tangent(params, j, init)
        fd = (shifted_state(params, j, +h, init).amps
              - shifted_state(params, j, -h, init).amps) / (2 * h)
        assert np.abs(tangent - fd).max() < 1e-9


def test_batched_kernel_matches_sequential_shifts():
    rng = np.random.default_rng(7)
    n, depth = 3, 2
    params = AnsatzParams.random(n, depth, 0.7, rng)
    init = random_state(n, rng)
    batch = _run_circuit(shift_columns(params.flat()), n, depth, init.amps)
    np.testing.assert_array_equal(batch[:, 0], prepare_state(params, init).amps)
    for j in range(params.count):
        plus = shifted_state(params, j, +np.pi / 2, init).amps
        minus = shifted_state(params, j, -np.pi / 2, init).amps
        np.testing.assert_array_equal(batch[:, 2 * j + 1], plus)
        np.testing.assert_array_equal(batch[:, 2 * j + 2], minus)
