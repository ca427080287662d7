"""Exact real-amplitude statevector simulation of the RY/CNOT ansatz.

Layer layout: one initial RY layer (row 0 of the angle table), then D blocks
of [CNOT chain over adjacent qubits, RY layer]. Parameters flatten row-major
as layer * n_qubits + qubit, and that order is shared by gradients, the
optimizer state and checkpoints. Gates are orthogonal maps on real
amplitudes, so no complex storage is ever needed.

The kernels operate on amplitude arrays of shape (2**n, batch). The forward
pass runs one column; the adjoint walk carries the state and the cost's
adjoint side by side as two columns of one buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class StateVector:
    """Real amplitudes over 2**n_qubits basis states (qubit 0 = MSB)."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=float)
        if self.amps.shape != (2 ** self.n_qubits,):
            raise ValueError(f"amplitude length {self.amps.shape} != 2^{self.n_qubits}")

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2 ** n_qubits)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_amplitudes(cls, vec) -> "StateVector":
        vec = np.asarray(vec, dtype=float)
        n = len(vec).bit_length() - 1
        if 2 ** n != len(vec):
            raise ValueError("amplitude length must be a power of two")
        return cls(n, vec.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass
class AnsatzParams:
    """Rotation angles for an n-qubit, depth-D circuit: shape (D+1, n)."""

    n_qubits: int
    depth: int
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.depth + 1, self.n_qubits):
            raise ValueError(
                f"theta shape {self.theta.shape} != ({self.depth + 1}, {self.n_qubits})")

    @property
    def count(self) -> int:
        return self.n_qubits * (self.depth + 1)

    def flat(self) -> np.ndarray:
        return self.theta.ravel().copy()

    def with_flat(self, flat) -> "AnsatzParams":
        flat = np.asarray(flat, dtype=float)
        return AnsatzParams(self.n_qubits, self.depth,
                            flat.reshape(self.depth + 1, self.n_qubits).copy())

    @classmethod
    def random(cls, n_qubits: int, depth: int, scale: float,
               rng: np.random.Generator) -> "AnsatzParams":
        return cls(n_qubits, depth,
                   rng.uniform(-scale, scale, size=(depth + 1, n_qubits)))


@dataclass
class GateCounter:
    """Optional instrumentation: counts gates applied by prepare_state."""

    ry: int = 0
    cnot: int = 0


def _ry_kernel(amps: np.ndarray, qubit: int, angle) -> None:
    """In-place RY on one qubit of a (dim, batch) buffer.

    ``angle`` may be a scalar or a (batch,)-vector of per-column angles.
    RY(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]].
    """
    c = np.cos(np.multiply(angle, 0.5))
    s = np.sin(np.multiply(angle, 0.5))
    batch = amps.shape[1]
    view = amps.reshape(2 ** qubit, 2, -1, batch)
    a0, a1 = view[:, 0], view[:, 1]
    new0 = c * a0 - s * a1
    view[:, 1] = s * a0 + c * a1
    view[:, 0] = new0


def _cnot_kernel(amps: np.ndarray, control: int, target: int) -> None:
    """In-place CNOT on a (dim, batch) buffer; swaps target pairs where control=1."""
    lo, hi = sorted((control, target))
    batch = amps.shape[1]
    view = amps.reshape(2 ** lo, 2, 2 ** (hi - lo - 1), 2, -1, batch)
    if control < target:
        block = view[:, 1]
        tmp = block[:, :, 0].copy()
        block[:, :, 0] = block[:, :, 1]
        block[:, :, 1] = tmp
    else:
        tmp = view[:, 0, :, 1].copy()
        view[:, 0, :, 1] = view[:, 1, :, 1]
        view[:, 1, :, 1] = tmp


def _run_circuit(theta_cols: np.ndarray, n_qubits: int, depth: int,
                 initial: np.ndarray, counter: GateCounter | None = None) -> np.ndarray:
    """Apply the full ansatz for every angle column.

    theta_cols has shape (P, batch) with P = n_qubits * (depth + 1); column b
    of the returned (dim, batch) array is the circuit run with angle set b,
    starting from the shared ``initial`` amplitudes.
    """
    n_params, batch = theta_cols.shape
    if n_params != n_qubits * (depth + 1):
        raise ValueError("angle table does not match circuit size")
    amps = np.repeat(initial[:, None], batch, axis=1)
    for q in range(n_qubits):
        _ry_kernel(amps, q, theta_cols[q])
    if counter:
        counter.ry += n_qubits
    for d in range(1, depth + 1):
        for q in range(n_qubits - 1):
            _cnot_kernel(amps, q, q + 1)
        for q in range(n_qubits):
            _ry_kernel(amps, q, theta_cols[d * n_qubits + q])
        if counter:
            counter.cnot += n_qubits - 1
            counter.ry += n_qubits
    return amps


def apply_ry(state: StateVector, qubit: int, angle: float) -> StateVector:
    """RY(angle) on one qubit; returns a new state."""
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    amps = state.amps[:, None].copy()
    _ry_kernel(amps, qubit, angle)
    return StateVector(state.n_qubits, amps[:, 0])


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """CNOT with the given control and target; returns a new state."""
    n = state.n_qubits
    if not (0 <= control < n and 0 <= target < n):
        raise IndexError(f"qubit pair ({control},{target}) out of range for {n} qubits")
    if control == target:
        raise ValueError("control and target must differ")
    amps = state.amps[:, None].copy()
    _cnot_kernel(amps, control, target)
    return StateVector(n, amps[:, 0])


def prepare_state(params: AnsatzParams, initial: StateVector,
                  counter: GateCounter | None = None) -> StateVector:
    """V(theta) applied to ``initial``.

    Row 0 of the angle table is the leading RY layer; each of the D blocks
    that follow is the ascending CNOT chain (control q, target q+1) and
    another RY layer.
    """
    if initial.n_qubits != params.n_qubits:
        raise ValueError("initial state size does not match the ansatz")
    out = _run_circuit(params.flat()[:, None], params.n_qubits, params.depth,
                       initial.amps, counter)
    return StateVector(params.n_qubits, out[:, 0])


@lru_cache(maxsize=None)
def _flip_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(flip, sign), each (n_qubits, 2**n): (J_q v)[i] = sign[q, i] * v[flip[q, i]].

    J = [[0, -1], [1, 0]] is the derivative generator of RY:
    d RY(a) / da = 0.5 * J @ RY(a).
    """
    index = np.arange(2 ** n_qubits)
    masks = 1 << np.arange(n_qubits - 1, -1, -1)          # qubit 0 = MSB
    flip = index[None, :] ^ masks[:, None]
    sign = np.where(index[None, :] & masks[:, None], 1.0, -1.0)
    return flip, sign


def _adjoint_pass(theta: np.ndarray, state: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """Angle gradient sum_i adjoint[i] * d state[i] / d theta, flattened layer * n + qubit.

    ``theta`` is the (D+1, n) angle table, ``state`` the circuit output and
    ``adjoint`` the cost's derivative with respect to it. Walking layers
    D..0, the RYs of a layer commute, so all n derivatives of layer d are
    0.5 * adjoint^T J_q state at that point of the circuit (one gather). The
    state and the adjoint are then carried back through the layer together:
    RY with negated angles, and the CNOT chain in reverse order (each CNOT
    is its own inverse).
    """
    n_layers, n_qubits = theta.shape
    flip, sign = _flip_tables(n_qubits)
    buf = np.column_stack((state, adjoint))
    grad = np.empty((n_layers, n_qubits))
    for d in range(n_layers - 1, -1, -1):
        grad[d] = 0.5 * (sign * buf[flip, 0]) @ buf[:, 1]
        if d == 0:
            break
        for q in range(n_qubits):
            _ry_kernel(buf, q, -theta[d, q])
        for q in range(n_qubits - 2, -1, -1):
            _cnot_kernel(buf, q, q + 1)
    return grad.ravel()
