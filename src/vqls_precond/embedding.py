"""Maps a classical linear system into quantum-ready form.

Qubit ordering convention, fixed package-wide: basis index i's binary
expansion has qubit 0 as the most significant bit. The ancilla introduced by
the hermitized embedding is qubit 0, so the top half of the amplitude vector
is the ancilla-0 block and the bottom half the ancilla-1 block.

A system stores only the padded m x m matrix A. Direct systems apply it as
it is. The hermitized operator is the dilation [[0, A], [A^T, 0]] on 2m
amplitudes; its m x m block carries all of it, so the dense (2m)^2 array is
never formed (``vqls`` applies it block by block), and a hermitized system
holds m^2 doubles, not 4 m^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np


def is_normal_float(x: float) -> bool:
    """x is a normal float: finite, nonzero and not subnormal."""
    return float_info.min <= abs(x) <= float_info.max


class DegenerateBlockError(RuntimeError):
    """The solution block of the optimized state carries (almost) no weight."""


@dataclass
class QuantumSystem:
    """Padded matrix plus unit-norm right-hand-side state for the variational solver.

    ``hermitized`` records whether the ancilla block embedding was applied:
    the operator is then [[0, block], [block^T, 0]] on 2^n_qubits amplitudes,
    else ``block`` itself (it also changes how solutions are extracted).
    ``block`` is m x m, m = 2^(n_qubits - 1) if hermitized, else 2^n_qubits.
    """

    n_qubits: int
    block: np.ndarray
    rhs_state: np.ndarray
    hermitized: bool

    def __post_init__(self):
        dim = 2 ** self.n_qubits
        side = dim // 2 if self.hermitized else dim
        if self.block.shape != (side, side) or side == 0:
            raise ValueError(f"block shape {self.block.shape} does not fit "
                             f"{'a hermitized' if self.hermitized else 'a direct'} system "
                             f"on {self.n_qubits} qubits")
        if self.rhs_state.shape != (dim,):
            raise ValueError(f"rhs_state shape {self.rhs_state.shape} != (2^{self.n_qubits},)")
        if abs(np.linalg.norm(self.rhs_state) - 1.0) > 1e-12:
            raise ValueError("rhs_state must have unit 2-norm")


def build_system(A, b, mode: str) -> QuantumSystem:
    """Pad (A, b) to the next power-of-two dimension, then wrap it per mode.

    The padding's complement block is the identity and b is zero-padded, so
    the padded solution restricted to the first n coordinates equals the
    original one. 'direct' uses the padded operator as-is (it need not be
    symmetric). 'hermitized' is the symmetric block embedding
    [[0, A], [A^T, 0]] with one ancilla qubit: the right-hand-side state is
    (b, 0) normalized, so the input lives in the ancilla-0 block and the
    solution of the embedded system in the ancilla-1 block (bottom half).
    Either way the system keeps only the padded matrix.
    """
    if mode not in ("direct", "hermitized"):
        raise ValueError(f"unknown mode {mode!r}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ValueError("A must be square and match b")
    m = 1 << (n - 1).bit_length()
    A_pad = np.eye(m)
    A_pad[:n, :n] = A
    b_pad = np.zeros(m)
    b_pad[:n] = b
    # Normalizing squares the entries: a squared norm that underflows or
    # overflows leaves b / |b| off unit norm.
    with np.errstate(over="ignore"):
        square = float(b_pad @ b_pad)
    if not is_normal_float(square):
        raise ValueError(f"right-hand side has (near) zero norm or cannot be normalized: "
                         f"its squared 2-norm {square} is not a normal float")
    norm_b = float(np.linalg.norm(b_pad))
    k = m.bit_length() - 1
    if mode == "direct":
        return QuantumSystem(n_qubits=k, block=A_pad, rhs_state=b_pad / norm_b, hermitized=False)
    rhs = np.zeros(2 * m)
    rhs[:m] = b_pad / norm_b
    return QuantumSystem(n_qubits=k + 1, block=A_pad, rhs_state=rhs, hermitized=True)


def extract_solution(x_state, sys: QuantumSystem, original_n: int) -> np.ndarray:
    """Recover the unit-norm classical solution from an optimized state.

    Hermitized systems keep the solution in the bottom (ancilla-1) block;
    after selecting it, padding is truncated and the result renormalized.
    ``original_n``, the unpadded length, must lie in 1..len(block).
    """
    x_state = np.asarray(x_state, dtype=float)
    dim = 2 ** sys.n_qubits
    if x_state.shape != (dim,):
        raise ValueError(f"state length {x_state.shape} != 2^{sys.n_qubits}")
    block = x_state[dim // 2:] if sys.hermitized else x_state
    if not 1 <= original_n <= len(block):
        raise ValueError(f"original_n = {original_n} is not in 1..{len(block)}")
    if np.linalg.norm(block) < 1e-10:
        raise DegenerateBlockError(
            "solution block norm below 1e-10; optimizer left the solution block empty")
    vec = block[:original_n]
    norm = np.linalg.norm(vec)
    if norm < 1e-10:
        raise DegenerateBlockError("solution weight sits entirely in the padding")
    return vec / norm
