"""Exact real-amplitude statevector simulation of the RY/CNOT ansatz.

Layer layout: one initial RY layer (row 0 of the angle array), then D blocks
of [CNOT chain over adjacent qubits, RY layer]. Angles live in one array,
``theta[d, q]`` for layer d and qubit q: shape (D+1, n) for one circuit and
(D+1, n, B) for B circuits side by side, where ``theta[d, q]`` is the (B,)
vector of that gate's angles. Gradients and the optimizer state use the
same layout. Gates are orthogonal maps on real amplitudes, so no complex
storage is ever needed.

The circuit passes keep B circuits of one shape as the rows of a (B, 2**n)
buffer, each with its own angles and start state, so elementwise ops run
along contiguous rows. The forward pass stores every layer's state in one
(D+1, B, 2**n) array; the adjoint walk reads those and carries only the B
cost adjoints back. A layer's CNOT chain is one fixed permutation of the
basis, applied as a single gather.

RY on qubit q is RY(a) = cos(a/2) I + sin(a/2) J_q, where J = [[0, -1],
[1, 0]] acts on qubit q as one gather with signs, (J_q v)[i] = sign[q, i] *
v[flip[q, i]], from the cached per-n tables of ``_flip_tables``. The same
table pair gives the gate, its inverse (the sine term negated) and its
derivative d RY(a) / da = 0.5 J_q RY(a), so a gate is four whole-buffer
numpy calls on contiguous (batch, dim) operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class AnsatzParams:
    """Rotation angles of one circuit, (D+1, n), or of B lockstep circuits, (D+1, n, B)."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim not in (2, 3) or 0 in self.theta.shape:
            raise ValueError(f"theta shape {self.theta.shape} is not (D+1, n) or (D+1, n, B)")

    @property
    def depth(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def n_qubits(self) -> int:
        return self.theta.shape[1]


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
    flip.flags.writeable = sign.flags.writeable = False     # shared by the cache
    return flip, sign


def _ry_kernel(amps: np.ndarray, flip: np.ndarray, cos: np.ndarray,
               signed_sin: np.ndarray) -> None:
    """In-place RY on one qubit q of a (batch, dim) buffer: amps <- cos amps + sin J_q amps.

    ``flip`` is row q of the flip table, ``cos`` the (batch, 1) cosines of the
    rows' half angles and ``signed_sin`` the (batch, dim) table
    sin(a_b / 2) * sign[q, i] (``_ry_layer`` builds it). Per amplitude pair
    this rounds as [[c, -s], [s, c]] applied to (a0, a1) does: multiplying
    by +-1 is exact and the sum is taken in either order. Negating
    ``signed_sin`` applies RY(-a), the inverse.
    """
    tmp = amps.take(flip, axis=1)
    tmp *= signed_sin
    amps *= cos
    amps += tmp


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


@lru_cache(maxsize=None)
def _cnot_chain(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) basis permutations of one layer's CNOT chain.

    ``amps[..., forward]`` applies the ascending chain (control q, target
    q+1) to (batch, dim) rows, ``amps[..., inverse]`` undoes it. Both come
    from running ``_cnot_kernel`` over a column of basis indices, the
    inverse with the chain reversed (each CNOT is its own inverse).
    """
    forward = np.arange(2 ** n_qubits)[:, None]
    inverse = forward.copy()
    for q in range(n_qubits - 1):
        _cnot_kernel(forward, q, q + 1)
        _cnot_kernel(inverse, n_qubits - 2 - q, n_qubits - 1 - q)
    forward.flags.writeable = inverse.flags.writeable = False   # shared by the cache
    return forward[:, 0], inverse[:, 0]


def _ry_layer(amps: np.ndarray, cos: np.ndarray, sin: np.ndarray, flip: np.ndarray,
              sign: np.ndarray) -> None:
    """RY on every qubit of a (batch, dim) buffer, in place.

    ``cos`` and ``sin`` are the layer's (n, batch) half-angle cosines and
    sines, ``flip`` and ``sign`` the tables of ``_flip_tables``; the negated
    ``sign`` undoes the layer. One (n, batch, dim) signed-sine table serves
    all n gates.
    """
    signed = sin[:, :, None] * sign[:, None, :]
    cos = cos[:, :, None]
    for q in range(len(cos)):
        _ry_kernel(amps, flip[q], cos[q], signed[q])


def _run_circuit(theta: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """(D+1, batch, 2**n) states of every row after each layer of the ansatz.

    ``theta`` has shape (D+1, n, batch) and ``initial`` shape (batch, 2**n):
    row b of ``[d]`` is the state after layer d of the circuit with angles
    ``theta[..., b]`` run from start ``initial[b]``; ``[-1]`` is the output.
    """
    n_layers, n_qubits = theta.shape[:2]
    half = np.multiply(theta, 0.5)
    cos, sin = np.cos(half), np.sin(half)
    flip, sign = _flip_tables(n_qubits)
    chain, _ = _cnot_chain(n_qubits)
    states = np.empty((n_layers,) + np.shape(initial))
    states[0] = initial
    _ry_layer(states[0], cos[0], sin[0], flip, sign)
    for d in range(1, n_layers):
        # "clip" lets take write straight into ``out``; a permutation never clips.
        states[d - 1].take(chain, axis=1, out=states[d], mode="clip")
        _ry_layer(states[d], cos[d], sin[d], flip, sign)
    return states


def prepare_state(params: AnsatzParams, initial: np.ndarray) -> np.ndarray:
    """V(theta) applied to the (2**n,) amplitudes ``initial``, as a new array.

    Row 0 of the (D+1, n) angle array is the leading RY layer; each of the D
    blocks that follow is the ascending CNOT chain (control q, target q+1)
    and another RY layer.
    """
    if params.theta.ndim != 2:
        raise ValueError(f"prepare_state takes one circuit's (D+1, n) angles, "
                         f"got shape {params.theta.shape}")
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (2 ** params.n_qubits,):
        raise ValueError(f"initial state length {initial.shape} != 2^{params.n_qubits}")
    return _run_circuit(params.theta[:, :, None], initial[None, :])[-1, 0]


def _adjoint_pass(angles: AnsatzParams, layers: np.ndarray,
                  adjoints: np.ndarray) -> np.ndarray:
    """(D+1, n, B) angle gradients: [..., b] = sum_i adjoints[b, i] d layers[-1, b, i] / d angles.

    ``angles`` holds the B circuits' (D+1, n, B) angles, ``layers`` their
    (D+1, B, dim) states after each layer and ``adjoints`` the costs' (B, dim)
    derivatives with respect to the outputs; neither is written. Walking
    layers D..0, the RYs of a layer commute, so all n derivatives of layer d
    are 0.5 * adjoint^T J_q layers[d]: one gather for every row, then one
    matrix-vector product per row. The adjoints then go back through the
    layer: the RY layer with its sine term negated, then the inverse CNOTs.
    """
    theta = angles.theta
    n_layers, n_qubits, batch = theta.shape
    flip, sign = _flip_tables(n_qubits)
    _, inverse = _cnot_chain(n_qubits)
    half = np.multiply(theta, 0.5)
    cos, sin = np.cos(half), np.sin(half)
    undo = -sign
    mu = adjoints.copy()
    grad = np.empty((n_layers, n_qubits, batch))
    for d in range(n_layers - 1, -1, -1):
        # (B, n, dim) @ (B, dim, 1) on C-ordered operands: per row, the same BLAS
        # product as a one-row walk; a strided operand may be summed in another order.
        gathered = sign * layers[d].take(flip, axis=1)
        grad[d] = 0.5 * np.matmul(gathered, mu[:, :, None])[:, :, 0].T
        if d == 0:
            break
        _ry_layer(mu, cos[d], sin[d], flip, undo)
        mu = mu.take(inverse, axis=1)
    return grad
