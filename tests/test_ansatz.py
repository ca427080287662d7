"""Gate semantics, circuit layering, shifted states and the batched kernels."""

import numpy as np
import pytest

from oracles import (_adjoint_pass_serial, cnot_reshape, dense_circuit, kron_factors,
                     random_params, ry_reshape, run_circuit_serial, shift_rule_tangent,
                     shift_states, shifted_state)
from vqls_precond.ansatz import (AnsatzParams, _adjoint_pass, _cnot_chain, _cnot_kernel,
                                 _layer_factors, _ry_kernel, _run_circuit, prepare_state)

# Quarter, half and whole turns (half angles where cos and sin are equal, 0
# or +-1 in exact arithmetic), signed zeros, and a large angle with a long
# argument reduction.
EDGE_ANGLES = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
               1e3, -1e3)


def random_state(n_qubits, rng):
    amps = rng.normal(size=2 ** n_qubits)
    return amps / np.linalg.norm(amps)


def zero_state(n_qubits):
    """|0...0>."""
    return np.eye(2 ** n_qubits)[0]


def close(got, want, rtol):
    """Max-norm agreement of two arrays, relative to the larger entry of ``want``."""
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def kernel_layer(buf, layer_angles, undo=False):
    """One RY layer with (n, batch) ``layer_angles`` on the rows of the (batch, dim)
    ``buf``, in place, through ``_ry_kernel`` and the factors the circuit passes
    build; ``undo`` transposes both factors, as the adjoint walk does."""
    k1, k2 = (k[0] for k in _layer_factors(np.asarray(layer_angles, dtype=float)[None]))
    if undo:
        k1, k2 = k1.swapaxes(1, 2), k2.swapaxes(1, 2)
    _ry_kernel(buf.copy(), k1, k2, buf)


def kernel_ry(buf, qubit, angles, undo=False):
    """RY by the (batch,) ``angles`` on one qubit of the (batch, dim) ``buf``, in
    place: a ``kernel_layer`` with every other angle 0."""
    layer_angles = np.zeros((buf.shape[1].bit_length() - 1, buf.shape[0]))
    layer_angles[qubit] = angles
    kernel_layer(buf, layer_angles, undo)


def ry(amps, qubit, angle):
    """RY through the production kernel on a (1, dim) copy of ``amps``."""
    buf = amps[None, :].copy()
    kernel_ry(buf, qubit, np.array([angle]))
    return buf[0]


def cnot(amps, control, target):
    """CNOT through the reference swap kernel on a (dim, 1) copy of ``amps``."""
    buf = amps[:, None].copy()
    cnot_reshape(buf, control, target)
    return buf[:, 0]


def test_ry_zero_is_identity():
    rng = np.random.default_rng(0)
    s = random_state(3, rng)
    np.testing.assert_array_equal(ry(s, 1, 0.0), s)


def test_ry_pi_flips_single_qubit():
    np.testing.assert_allclose(ry(zero_state(1), 0, np.pi), [0.0, 1.0], atol=1e-16)


def test_ry_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_state(3, rng)
        a1, a2 = rng.uniform(-np.pi, np.pi, 2)
        q = int(rng.integers(3))
        via_two = ry(ry(s, q, a1), q, a2)
        direct = ry(s, q, a1 + a2)
        assert np.abs(via_two - direct).max() < 1e-12


def test_cnot_on_basis_states():
    s00 = zero_state(2)
    np.testing.assert_array_equal(cnot(s00, 0, 1), s00)
    s10 = np.array([0.0, 0.0, 1.0, 0.0])  # |10>, qubit 0 is MSB
    np.testing.assert_array_equal(cnot(s10, 0, 1), [0.0, 0.0, 0.0, 1.0])


def test_cnot_reversed_control():
    s01 = np.array([0.0, 1.0, 0.0, 0.0])  # |01>
    np.testing.assert_array_equal(cnot(s01, 1, 0), [0.0, 0.0, 0.0, 1.0])


def test_cnot_involution():
    rng = np.random.default_rng(2)
    s = random_state(4, rng)
    np.testing.assert_array_equal(cnot(cnot(s, 1, 3), 1, 3), s)


def test_cnot_chain_permutations_match_the_kernels():
    # the Gray-code permutations, gathered by the production kernel, against
    # the chain of reference swaps: forward runs it, inverse undoes it
    rng = np.random.default_rng(20)
    for n in range(1, 13):
        amps = rng.normal(size=(2 ** n, 3))
        chained = amps.copy()
        for q in range(n - 1):
            cnot_reshape(chained, q, q + 1)
        forward, inverse = _cnot_chain(n)
        assert not (forward.flags.writeable or inverse.flags.writeable)
        out = np.empty((3, 2 ** n))
        _cnot_kernel(amps.T.copy(), forward, out)
        np.testing.assert_array_equal(out, chained.T)
        _cnot_kernel(chained.T.copy(), inverse, out)
        np.testing.assert_array_equal(out, amps.T)


def test_run_circuit_columns_match_gate_by_gate_runs():
    # per-row angles and per-row starts, against one-column runs that apply
    # the CNOT chain and the RYs gate by gate, every stored layer compared
    rng = np.random.default_rng(21)
    for n, depth, batch in ((1, 2, 3), (3, 0, 2), (4, 3, 5), (8, 6, 4)):
        theta = rng.uniform(-np.pi, np.pi, (depth + 1, n, batch))
        starts = rng.normal(size=(2 ** n, batch))
        out, _ = _run_circuit(theta, starts.T.copy())
        assert out.shape == (depth + 1, batch, 2 ** n)
        for b in range(batch):
            one = run_circuit_serial(theta[:, :, b:b + 1], starts[:, b])[:, :, 0]
            assert close(out[:, b], one, 1e-12), (n, depth, b)


def test_run_circuit_matches_dense_kron_oracle():
    # every layer of every column against gate-by-gate dense matrices; n = 1
    # has an empty top factor
    rng = np.random.default_rng(25)
    for n in range(1, 11):
        depth = 3 if n <= 8 else 1
        theta = rng.uniform(-np.pi, np.pi, (depth + 1, n, 2))
        starts = rng.normal(size=(2, 2 ** n))
        layers, _ = _run_circuit(theta, starts)
        for b in range(2):
            assert close(layers[:, b], dense_circuit(theta[:, :, b], starts[b]), 1e-13), (n, b)


def test_run_circuit_layers_are_the_shorter_circuits():
    # [d] of the stored layers is, byte for byte, the output of the circuit
    # cut after layer d
    rng = np.random.default_rng(23)
    for n in (1, 4, 8):
        theta = rng.uniform(-np.pi, np.pi, (15, n, 3))
        starts = rng.normal(size=(3, 2 ** n))
        layers, _ = _run_circuit(theta, starts)
        for d in range(15):
            assert layers[d].tobytes() == _run_circuit(theta[:d + 1], starts)[0][-1].tobytes()


def test_adjoint_pass_leaves_its_inputs_unchanged():
    # the factors come from _run_circuit, which must hand back _layer_factors(theta)
    rng = np.random.default_rng(24)
    for n, depth in ((1, 3), (4, 14), (8, 2)):
        theta = rng.uniform(-np.pi, np.pi, (depth + 1, n, 3))
        layers, factors = _run_circuit(theta, rng.normal(size=(3, 2 ** n)))
        adjoints = rng.normal(size=(3, 2 ** n))
        layers_before, adjoints_before = layers.tobytes(), adjoints.tobytes()
        factors_before = [k.tobytes() for k in factors]
        assert factors_before == [k.tobytes() for k in _layer_factors(theta)]
        _adjoint_pass(factors, layers, adjoints)
        assert layers.tobytes() == layers_before
        assert adjoints.tobytes() == adjoints_before
        assert [k.tobytes() for k in factors] == factors_before


def test_layer_factors_equal_the_kronecker_chain():
    # the gather forms each factor entry as the product the chain of 2x2 gates
    # forms, in the same nesting, so the two agree exactly; only the sign of a
    # zero may differ, where a sine is +-0
    rng = np.random.default_rng(25)
    shapes = ((21, 8, 20), (15, 8, 4), (7, 8, 4), (1, 7, 2), (11, 9, 3), (5, 10, 2),
              (1, 13, 2), (3, 1, 2), (4, 2, 1), (1, 3, 1))
    cases = [rng.uniform(-np.pi, np.pi, shape) * rng.choice([1e-3, 1.0, 10.0, 1e3], shape)
             for shape in shapes]
    edges = np.array(EDGE_ANGLES)
    for n in (1, 2, 3, 5, 8):
        theta = np.stack([np.roll(np.tile(edges, (n, 1)), shift, axis=1) for shift in range(3)])
        theta[:, ::2] = theta[:, ::2, ::-1]
        cases.append(theta)
    for theta in cases:
        got, want = _layer_factors(theta), kron_factors(theta)
        for k_got, k_want in zip(got, want, strict=True):
            assert k_got.shape == k_want.shape, theta.shape
            assert np.array_equal(k_got, k_want), theta.shape


def test_ry_kernel_matches_reshape_oracle():
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        for batch in range(1, 6):
            amps = rng.normal(size=(2 ** n, batch))
            amps.flat[::7] = 0.0
            amps.flat[3::7] = -0.0
            angle_sets = [rng.uniform(-2 * np.pi, 2 * np.pi, batch)]
            angle_sets += [np.full(batch, a) for a in EDGE_ANGLES]
            for undo in (False, True):
                # one gate at a time, then a whole layer of random angles
                for q in range(n):
                    for angles in angle_sets:
                        got, want = amps.T.copy(), amps.copy()
                        kernel_ry(got, q, angles, undo)
                        ry_reshape(want, q, -angles if undo else angles)
                        assert close(got, want.T, 1e-13), (n, batch, q, angles, undo)
                layer_angles = rng.uniform(-2 * np.pi, 2 * np.pi, (n, batch))
                got, want = amps.T.copy(), amps.copy()
                kernel_layer(got, layer_angles, undo)
                for q in range(n):
                    ry_reshape(want, q, -layer_angles[q] if undo else layer_angles[q])
                assert close(got, want.T, 1e-13), (n, batch, undo)
    # whole circuits and adjoint walks, against the gate-by-gate oracles on the
    # reshape-view kernel, column by column
    for n in (1, 4, 8):
        for depth in (0, 1, 14):
            theta = rng.uniform(-np.pi, np.pi, (depth + 1, n, 3))
            theta[0, 0] = EDGE_ANGLES[2:5]
            starts = rng.normal(size=(2 ** n, 3))
            layers, factors = _run_circuit(theta, starts.T.copy())
            adjoints = rng.normal(size=(2 ** n, 3)).T.copy()
            grads = _adjoint_pass(factors, layers, adjoints)
            for b in range(3):
                one = run_circuit_serial(theta[:, :, b:b + 1], starts[:, b])[:, :, 0]
                assert close(layers[:, b], one, 1e-13), (n, depth, b)
                walked = _adjoint_pass_serial(theta[:, :, b], one, adjoints[b])
                assert close(grads[:, :, b], walked, 1e-13), (n, depth, b)


def test_angle_array_fixes_the_circuit_shape():
    single = AnsatzParams(np.zeros((3, 4)))
    assert (single.depth, single.n_qubits) == (2, 4)
    batched = AnsatzParams(np.zeros((1, 5, 7)))
    assert (batched.depth, batched.n_qubits) == (0, 5)
    for bad in (np.zeros(4), np.zeros((0, 3)), np.zeros((2, 3, 4, 1))):
        with pytest.raises(ValueError, match="theta shape"):
            AnsatzParams(bad)
    with pytest.raises(ValueError, match="one circuit"):
        prepare_state(AnsatzParams(np.zeros((2, 2, 1))), zero_state(2))


def test_prepare_state_zero_angles():
    params = AnsatzParams(np.zeros((3, 3)))
    out = prepare_state(params, zero_state(3))
    np.testing.assert_array_equal(out, zero_state(3))
    with pytest.raises(ValueError, match="length"):
        prepare_state(params, zero_state(2))


def test_prepare_state_single_qubit_closed_form():
    t0, t1 = 0.7, -0.3
    params = AnsatzParams(np.array([[t0], [t1]]))
    out = prepare_state(params, zero_state(1))
    np.testing.assert_allclose(out, [np.cos((t0 + t1) / 2), np.sin((t0 + t1) / 2)],
                               atol=1e-15)


def test_prepare_state_hand_traced_two_qubits():
    theta = np.array([[np.pi, 0.0], [0.0, 0.0]])
    out = prepare_state(AnsatzParams(theta), zero_state(2))
    np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 1.0], atol=1e-16)


def test_prepare_state_norm_preserved_long_random_circuit():
    rng = np.random.default_rng(3)
    amps = random_state(4, rng)
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
    params = random_params(n, depth, 0.8, rng)
    V = np.column_stack([prepare_state(params, e) for e in np.eye(2 ** n)])
    assert np.abs(V.T @ V - np.eye(2 ** n)).max() < 1e-10


def test_shifted_state_examples():
    params = AnsatzParams(np.zeros((1, 1)))
    plus = shifted_state(params, 0, np.pi / 2, zero_state(1))
    np.testing.assert_allclose(plus, [np.cos(np.pi / 4), np.sin(np.pi / 4)],
                               atol=1e-15)
    with pytest.raises(IndexError):
        shifted_state(params, 1, np.pi / 2, zero_state(1))


def test_shift_up_then_down_restores():
    rng = np.random.default_rng(5)
    params = random_params(3, 2, 0.5, rng)
    init = random_state(3, rng)
    theta = params.theta.copy()
    theta.flat[4] += np.pi / 2
    theta.flat[4] -= np.pi / 2
    np.testing.assert_array_equal(prepare_state(AnsatzParams(theta), init),
                                  prepare_state(params, init))


def test_tangent_matches_finite_differences():
    rng = np.random.default_rng(6)
    n, depth = 3, 2
    params = random_params(n, depth, 0.9, rng)
    init = random_state(n, rng)
    h = 1e-5
    for j in range(params.theta.size):
        tangent = shift_rule_tangent(params, j, init)
        fd = (shifted_state(params, j, +h, init)
              - shifted_state(params, j, -h, init)) / (2 * h)
        assert np.abs(tangent - fd).max() < 1e-9


def test_batched_kernel_matches_sequential_shifts():
    rng = np.random.default_rng(7)
    n, depth = 3, 2
    params = random_params(n, depth, 0.7, rng)
    init = random_state(n, rng)
    batch = shift_states(params, init)
    np.testing.assert_array_equal(batch[0], prepare_state(params, init))
    for j in range(params.theta.size):
        plus = shifted_state(params, j, +np.pi / 2, init)
        minus = shifted_state(params, j, -np.pi / 2, init)
        np.testing.assert_array_equal(batch[2 * j + 1], plus)
        np.testing.assert_array_equal(batch[2 * j + 2], minus)
