"""Reference gradients the tests check the adjoint gradient against.

The parameter-shift rule (Schuld et al., arXiv:1811.11184) is what a device
would measure: every derivative comes from two whole-circuit preparations
with one angle shifted by +-pi/2. With the RY(a/2) convention the state is a
frequency-1/2 trig polynomial in each angle while quadratic functionals are
frequency-1, so the exact +-pi/2 shift divisors differ: 2 sqrt(2) for the
linear overlap g and 2 for the quadratic norm h. The batched form runs all
2P + 1 preparations of one gradient as a single circuit pass.
"""

import numpy as np

from vqls_precond import AnsatzParams, QuantumSystem, StateVector, prepare_state
from vqls_precond.ansatz import _run_circuit

SQRT2 = float(np.sqrt(2.0))


def make_system(op, rhs) -> QuantumSystem:
    """A QuantumSystem on op as given (no padding or embedding)."""
    rhs = np.asarray(rhs, dtype=float)
    return QuantumSystem(n_qubits=int(np.log2(len(rhs))), op=np.asarray(op, dtype=float),
                         rhs_state=rhs / np.linalg.norm(rhs),
                         scale=float(np.linalg.norm(rhs)), hermitized=False)


def shifted_state(params: AnsatzParams, index: int, shift: float,
                  initial: StateVector) -> StateVector:
    """prepare_state with one flattened angle replaced by theta_j + shift."""
    if not 0 <= index < params.count:
        raise IndexError(f"parameter index {index} out of range ({params.count} params)")
    flat = params.flat()
    flat[index] += shift
    return prepare_state(params.with_flat(flat), initial)


def shift_rule_tangent(params: AnsatzParams, index: int,
                       initial: StateVector) -> np.ndarray:
    """Exact d|x(theta)>/d theta_j from the two pi/2-shifted preparations.

    The divisor for +-pi/2 shifts of a frequency-1/2 polynomial is
    4 sin(pi/4) = 2 sqrt(2).
    """
    plus = shifted_state(params, index, +np.pi / 2, initial)
    minus = shifted_state(params, index, -np.pi / 2, initial)
    return (plus.amps - minus.amps) / (2.0 * SQRT2)


def shift_columns(flat: np.ndarray) -> np.ndarray:
    """(P, 2P + 1) angle table: column 0 unshifted, columns 2j+1 / 2j+2 shift
    angle j by +pi/2 / -pi/2."""
    n_params = len(flat)
    cols = np.repeat(flat[:, None], 2 * n_params + 1, axis=1)
    idx = np.arange(n_params)
    cols[idx, 2 * idx + 1] += np.pi / 2
    cols[idx, 2 * idx + 2] -= np.pi / 2
    return cols


def shift_rule_cost_and_grad(params: AnsatzParams, sys: QuantumSystem):
    """(cost, gradient) from one batched pass of 2P + 1 state preparations.

        dg_j = (g+ - g-) / (2 sqrt 2)        (g linear in the state)
        dh_j = (h+ - h-) / 2                 (h quadratic in the state)
        dC_j = -(2 g h dg_j - g^2 dh_j) / h^2
    """
    states = _run_circuit(shift_columns(params.flat()), params.n_qubits, params.depth,
                          sys.rhs_state)
    y = sys.op @ states
    g_all = sys.rhs_state @ y
    h_all = np.einsum("ib,ib->b", y, y)
    g, h = float(g_all[0]), float(h_all[0])
    dg = (g_all[1::2] - g_all[2::2]) / (2.0 * SQRT2)
    dh = (h_all[1::2] - h_all[2::2]) / 2.0
    grad = -(2.0 * g * h * dg - g * g * dh) / (h * h)
    return 1.0 - g * g / h, grad

