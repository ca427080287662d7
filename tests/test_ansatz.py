"""Gate semantics, circuit layering, shifted states and the batched kernel."""

import numpy as np
import pytest

from oracles import shift_columns, shift_rule_tangent, shifted_state
from vqls_precond import (AnsatzParams, GateCounter, StateVector, apply_cnot, apply_ry,
                          prepare_state)
from vqls_precond.ansatz import _run_circuit


def random_state(n_qubits, rng):
    amps = rng.normal(size=2 ** n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def test_ry_zero_is_identity():
    rng = np.random.default_rng(0)
    s = random_state(3, rng)
    np.testing.assert_array_equal(apply_ry(s, 1, 0.0).amps, s.amps)


def test_ry_pi_flips_single_qubit():
    s = apply_ry(StateVector.zero(1), 0, np.pi)
    np.testing.assert_allclose(s.amps, [0.0, 1.0], atol=1e-16)


def test_ry_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_state(3, rng)
        a1, a2 = rng.uniform(-np.pi, np.pi, 2)
        q = int(rng.integers(3))
        via_two = apply_ry(apply_ry(s, q, a1), q, a2)
        direct = apply_ry(s, q, a1 + a2)
        assert np.abs(via_two.amps - direct.amps).max() < 1e-12


def test_ry_out_of_range():
    with pytest.raises(IndexError):
        apply_ry(StateVector.zero(2), 2, 0.1)


def test_cnot_on_basis_states():
    s00 = StateVector.zero(2)
    np.testing.assert_array_equal(apply_cnot(s00, 0, 1).amps, s00.amps)
    s10 = StateVector(2, np.array([0.0, 0.0, 1.0, 0.0]))  # |10>, qubit 0 is MSB
    np.testing.assert_array_equal(apply_cnot(s10, 0, 1).amps, [0.0, 0.0, 0.0, 1.0])


def test_cnot_reversed_control():
    s01 = StateVector(2, np.array([0.0, 1.0, 0.0, 0.0]))  # |01>
    np.testing.assert_array_equal(apply_cnot(s01, 1, 0).amps, [0.0, 0.0, 0.0, 1.0])


def test_cnot_involution_and_validation():
    rng = np.random.default_rng(2)
    s = random_state(4, rng)
    twice = apply_cnot(apply_cnot(s, 1, 3), 1, 3)
    np.testing.assert_array_equal(twice.amps, s.amps)
    with pytest.raises(ValueError):
        apply_cnot(s, 2, 2)
    with pytest.raises(IndexError):
        apply_cnot(s, 0, 4)


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
    s = random_state(4, rng)
    for _ in range(200):
        if rng.random() < 0.5:
            s = apply_ry(s, int(rng.integers(4)), rng.uniform(-np.pi, np.pi))
        else:
            q = rng.choice(4, size=2, replace=False)
            s = apply_cnot(s, int(q[0]), int(q[1]))
    assert abs(s.norm() - 1.0) < 1e-10


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


def test_gate_count_formula():
    counter = GateCounter()
    n, depth = 4, 3
    params = AnsatzParams(n, depth, np.zeros((depth + 1, n)))
    prepare_state(params, StateVector.zero(n), counter)
    assert counter.ry == n * (depth + 1)
    assert counter.cnot == depth * (n - 1)


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
