"""Exact real-amplitude statevector simulation of the RY/CNOT ansatz.

Layer layout: one initial RY layer (row 0 of the angle array), then D blocks
of [CNOT chain over adjacent qubits, RY layer]. Angles live in one array,
``theta[d, q]`` for layer d and qubit q: shape (D+1, n) for one circuit and
(D+1, n, B) for B circuits side by side, where ``theta[d, q]`` is the (B,)
vector of that gate's angles. Gradients and the optimizer state use the
same layout. Gates are orthogonal maps on real amplitudes, so no complex
storage is ever needed.

The circuit passes keep B circuits of one shape as the rows of a (B, 2**n)
buffer, each with its own angles and start state. The forward pass stores
every layer's state in one (D+1, B, 2**n) array; the adjoint walk reads
those and carries only the B cost adjoints back. A layer's CNOT chain is one
fixed permutation of the basis, the Gray code (``_cnot_chain``), and
``_cnot_kernel`` applies it as a single gather: the forward permutation in
the forward pass, its inverse in the walk.

An RY layer is the tensor product of its n gates, so it splits into two
Kronecker factors (Van Loan, "The ubiquitous Kronecker product", J. Comput.
Appl. Math. 123, 2000): K1 over the top h = n // 2 qubits and K2 over the
rest. With a row viewed as the (2**h, 2**(n-h)) matrix X (qubit 0 is the
most significant bit), the layer is K1 X K2^T, two batched matrix products
for all B rows. Entry (i, j) of a half's factor is sigma(i, j) c[i ^ j],
where c[t] is the product over the half's qubits of cos or sin of its half
angle, chosen by the qubit's bit of t, and sigma a fixed +-1 table; so
``_layer_factors`` builds every layer's and column's pair with one gather
(two cached tables, ``_factor_tables``). ``_run_circuit`` builds them once
and hands them back with the states, so the adjoint walk reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# RY(a) = cos(a/2) I + sin(a/2) J, and d RY(a) / da = 0.5 J RY(a).
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


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
def _factor_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(picks, entries): the two gather tables of ``_layer_factors`` on n qubits.

    A layer's values are v = [cos(a_q/2) per qubit q, sin(a_q/2) per q, 1].
    Column t of ``picks`` lists the entries of v whose product is entry t of
    c = [c1, c2]: for c1 (2**h entries, the top h = n // 2 qubits) and c2
    (2**(n-h), the rest), qubit q of the half gives its cosine where bit q of t
    is 0 and its sine where it is 1 (qubit 0 of the half is the most
    significant bit). The qubits are listed last first, so a product from row
    0 down is nested as the Kronecker chain multiplies; c1, one qubit shorter
    at odd n, ends with the 1. Entry (i, j) of a half's factor is
    sigma(i, j) c_half[i ^ j], with sigma the product of a -1 for every qubit
    whose bit is 0 in i and 1 in j; ``entries`` reads both factors, flattened
    one after the other, off [c, -c].
    """
    top = n_qubits // 2
    width = n_qubits - top
    n_values = 2 ** top + 2 ** width
    picks, entries, offset = [], [], 0
    for first, k in ((0, top), (top, width)):
        t = np.arange(2 ** k)
        qubit = np.arange(k - 1, -1, -1)[:, None]
        bits = (t >> (k - 1 - qubit)) & 1
        picks.append(np.vstack([first + qubit + n_qubits * bits,
                                np.full((width - k, 2 ** k), 2 * n_qubits)]))
        sign = np.ones((1, 1))
        for _ in range(k):
            sign = np.kron([[1.0, -1.0], [1.0, 1.0]], sign)
        entries.append((offset + (t[:, None] ^ t) + n_values * (sign < 0)).ravel())
        offset += 2 ** k
    picks, entries = np.hstack(picks), np.concatenate(entries)
    picks.flags.writeable = entries.flags.writeable = False   # shared by the cache
    return picks, entries


def _layer_factors(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K1, K2) of every RY layer and column: (D+1, B, 2**h, 2**h) and
    (D+1, B, 2**(n-h), 2**(n-h)) for (D+1, n, B) angles, h = n // 2.

    Layer d of column b is K1[d, b] (x) K2[d, b], the Kronecker product of
    its gates [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]] in qubit order.
    Both come from one gather through ``_factor_tables``: one ``take`` and one
    product form each half's vector c, and one ``take`` from [c, -c] fills
    both factors, two views of one buffer. Every entry is the product the
    Kronecker chain forms, so the factors equal it bit for bit, up to the
    sign of a zero.
    """
    n_layers, n_qubits, batch = theta.shape
    picks, entries = _factor_tables(n_qubits)
    half = np.multiply(theta, 0.5)
    values = np.concatenate((np.cos(half), np.sin(half), np.ones((n_layers, 1, batch))), axis=1)
    c = values.take(picks, axis=1).prod(axis=1).swapaxes(1, 2)     # (D+1, B, len(c))
    flat = np.concatenate((c, -c), axis=-1).take(entries, axis=-1)
    side = 2 ** (n_qubits // 2)
    return (flat[..., :side * side].reshape(n_layers, batch, side, side),
            flat[..., side * side:].reshape(n_layers, batch, 2 ** n_qubits // side, -1))


@lru_cache(maxsize=None)
def _generator_table(n_qubits: int) -> np.ndarray:
    """The +-1 table that reads a layer's n angle derivatives off [S M^T | M^T S].

    Rows 0 .. 4**h - 1 match S M^T flattened, the rest M^T S. Column q holds
    J_q^T for a top qubit q < h and J_q for the others, where J_q is J on
    that qubit of its half and the identity on the rest of the half.
    """
    top = n_qubits // 2
    split = 4 ** top
    table = np.zeros((split + 4 ** (n_qubits - top), n_qubits))
    for q in range(n_qubits):
        size, pos = (top, q) if q < top else (n_qubits - top, q - top)
        j_q = np.kron(np.kron(np.eye(2 ** pos), _J), np.eye(2 ** (size - pos - 1)))
        if q < top:
            table[:split, q] = j_q.T.ravel()
        else:
            table[split:, q] = j_q.ravel()
    table.flags.writeable = False        # shared by the cache
    return table


def _ry_kernel(amps: np.ndarray, k1: np.ndarray, k2: np.ndarray, out: np.ndarray) -> None:
    """out <- one RY layer on every row of the (batch, dim) ``amps``: K1 X K2^T per row.

    ``k1`` and ``k2`` are the rows' (batch, 2**h, 2**h) and
    (batch, 2**(n-h), 2**(n-h)) Kronecker factors; passing both transposed
    applies the inverse layer. ``out`` is a C-ordered (batch, dim) buffer
    that does not overlap ``amps``. numpy multiplies the stack slice by
    slice, so each row rounds as it would in a batch of one.
    """
    x = amps.reshape(k1.shape[:2] + (-1,))
    np.matmul(np.matmul(k1, x), k2.swapaxes(1, 2), out=out.reshape(x.shape))


def _cnot_kernel(amps: np.ndarray, perm: np.ndarray, out: np.ndarray) -> None:
    """out <- the (batch, dim) rows of ``amps`` gathered by a ``_cnot_chain`` permutation.

    ``out`` is a (batch, dim) buffer that does not overlap ``amps``.
    """
    # "clip" lets take write straight into ``out``; a permutation never clips.
    amps.take(perm, axis=1, out=out, mode="clip")


@lru_cache(maxsize=None)
def _cnot_chain(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) basis permutations of one layer's CNOT chain.

    The ascending chain (control q, target q+1) leaves qubit q holding the
    XOR of qubits 0..q, so amplitude j after it is amplitude j ^ (j >> 1),
    the Gray code of j, before it: ``amps[..., forward]`` applies the chain
    and ``amps[..., inverse]`` undoes it.
    """
    index = np.arange(2 ** n_qubits)
    forward = index ^ (index >> 1)
    inverse = np.empty_like(forward)
    inverse[forward] = index
    forward.flags.writeable = inverse.flags.writeable = False   # shared by the cache
    return forward, inverse


def _run_circuit(theta: np.ndarray, initial: np.ndarray) -> tuple[np.ndarray, tuple]:
    """((D+1, batch, 2**n) states of every row after each layer, the layers' factors).

    ``theta`` has shape (D+1, n, batch) and ``initial`` shape (batch, 2**n):
    row b of ``states[d]`` is the state after layer d of the circuit with
    angles ``theta[..., b]`` run from start ``initial[b]``; ``states[-1]`` is
    the output. The factors are ``_layer_factors(theta)``, returned for the
    adjoint walk.
    """
    factors = k1, k2 = _layer_factors(theta)
    forward, _ = _cnot_chain(theta.shape[1])
    states = np.empty((len(k1),) + np.shape(initial))
    _ry_kernel(initial, k1[0], k2[0], states[0])
    chained = np.empty_like(states[0])
    for d in range(1, len(k1)):
        _cnot_kernel(states[d - 1], forward, chained)
        _ry_kernel(chained, k1[d], k2[d], states[d])
    return states, factors


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
    return _run_circuit(params.theta[:, :, None], initial[None, :])[0][-1, 0]


def _adjoint_pass(factors: tuple, layers: np.ndarray, adjoints: np.ndarray) -> np.ndarray:
    """(D+1, n, B) angle gradients: [..., b] = sum_i adjoints[b, i] d layers[-1, b, i] / d angles.

    ``factors`` holds the B circuits' ``_layer_factors``, ``layers`` their
    (D+1, B, dim) states after each layer and ``adjoints`` the costs' (B, dim)
    derivatives with respect to the outputs; neither is written. Walking
    layers D..0 with S the stored state and M the adjoint, each viewed as a
    (2**h, 2**(n-h)) matrix per row, the RYs of a layer commute, so its n
    derivatives are 0.5 <M, J_q applied to S>: 0.5 <S M^T, J_q^T> for a top
    qubit, where J_q multiplies S from the left, and 0.5 <M^T S, J_q> for
    the rest, where S J_q^T applies it; both read against
    ``_generator_table``. The adjoints then go back through the layer,
    K1^T M K2, and the inverse CNOT chain.
    """
    k1, k2 = factors
    n_layers, batch = k1.shape[:2]
    shape = (batch, k1.shape[-1], k2.shape[-1])
    split = shape[1] ** 2
    n_qubits = layers.shape[-1].bit_length() - 1
    table = _generator_table(n_qubits)
    _, inverse = _cnot_chain(n_qubits)
    mu, undone = adjoints.copy(), np.empty_like(adjoints)
    products = np.empty((batch, 1, len(table)))
    grad = np.empty((n_layers, n_qubits, batch))
    for d in range(n_layers - 1, -1, -1):
        s, m = layers[d].reshape(shape), mu.reshape(shape)
        products[:, 0, :split] = np.matmul(s, m.swapaxes(1, 2)).reshape(batch, -1)
        products[:, 0, split:] = np.matmul(m.swapaxes(1, 2), s).reshape(batch, -1)
        # A (B, 1, K) @ (K, n) stack: each row takes the product it would take
        # alone, where a (B, K) @ (K, n) product may round B-dependently.
        grad[d] = 0.5 * np.matmul(products, table)[:, 0].T
        if d == 0:
            break
        _ry_kernel(mu, k1[d].swapaxes(1, 2), k2[d].swapaxes(1, 2), undone)
        _cnot_kernel(undone, inverse, mu)
    return grad
