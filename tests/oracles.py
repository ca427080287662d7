"""Reference implementations the tests check the production paths against.

Shift-rule gradients. The parameter-shift rule (Schuld et al.,
arXiv:1811.11184) is what a device would measure: every derivative comes
from two whole-circuit preparations with one angle shifted by +-pi/2. With
the RY(a/2) convention the state is a frequency-1/2 trig polynomial in each
angle while quadratic functionals are frequency-1, so the exact +-pi/2 shift
divisors differ: 2 sqrt(2) for the linear overlap g and 2 for the quadratic
norm h. The batched form runs all 2P + 1 preparations of one gradient as a
single circuit pass. Angle j is entry j of the (D+1, n) angle array read
row-major, j = layer * n + qubit.

IKJ ILU(0). ``ilu0_ikj`` is the row-by-row sparse elimination that the
dense right-looking ``ilu.ilu0`` replaced. It touches only stored positions,
locating each row's matching upper entries with ``searchsorted``, and
scatters the eliminated values into dense factors once at the end; ``ilu0``
must reproduce its factors bit for bit and its zero pivots row for row.

Reshape-view gates. ``ry_reshape`` is the gate as the 2x2 matrix
[[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]] applied to the amplitude
pairs of a strided (2**q, 2, 2**(n-q-1), batch) view, and ``j_reshape``
applies its generator J = [[0, -1], [1, 0]] the same way. The Kronecker
layer ``ansatz._ry_kernel`` rounds differently (each factor entry is a
product of cosines and sines, each row of K1 X K2^T a sum over 2**h or
2**(n-h) terms), so it must agree with them to 1e-13, not bit for bit.
``cnot_reshape`` is one CNOT as an in-place swap of the target pairs where
the control is 1, on a view of the same kind; the chain of them must give
exactly the Gray-code permutation ``ansatz._cnot_chain``. The serial
oracles below run on these three and share no gate code with production.

Kronecker chain. ``kron_factors`` builds every gate as the 2x2 block
cos(a/2) I + sin(a/2) J and each half's factor as the Kronecker product of
its blocks, grown from the last block, the build that the gather in
``ansatz._layer_factors`` replaced. Its factors hold the same products in
the same order, so the two must agree exactly.

Dense circuit. ``dense_circuit`` builds every gate as a full 2**n matrix
from ``np.kron`` factors and applies the gates one by one, an oracle that
shares no code with the Kronecker split or the Gray-code CNOT permutation.

Serial training. ``train_serial`` is the one-system training loop that
lockstep ``vqls.train`` replaced: one column per circuit pass, the CNOT
chain and the RY gates one by one through the reshape-view kernels, each
layer's state kept, an adjoint walk that reads those states and carries
only the one-column adjoint back, and Adam on one circuit's (D+1, n) angles.
Lockstep training must agree with it to the tolerances the tests state.
``adam_textbook`` is the out-of-place Adam update that ``vqls.Adam``'s
in-place step must equal bit for bit.
``cost_and_grad_one`` runs the production step on a single column, and
``cost`` gives the one-state cost at given angles through
``_cost_from_state``, the per-column cost that the production step forms
inline. It writes the products with ``@`` where the step calls
``ndarray.dot``; both reach the same BLAS products, so the two costs must
agree bit for bit.

Dense operator. A ``QuantumSystem`` keeps only its padded m x m block;
``dense_op`` writes out the operator it stands for, the (2m)^2 dilation
[[0, A], [A^T, 0]] of a hermitized system, for the oracles above and below
and for the tests of the production block apply.

Pauli sums. ``pauli_decompose`` expands a real symmetric operator over
Pauli words and ``cost_via_decomposition`` assembles the cost term by term,
the quantities Hadamard-test estimators would measure on a device (the cost
of Bravo-Prieto et al., arXiv:1909.05820). Exponential in the qubit count;
the statevector cost must match it.

Exact seed summaries. ``exact_mean_sem`` is the per-column mean and
standard error that ``experiments.mean_sem`` replaced: ``statistics.fmean``
and ``statistics.stdev``, which sum exactly through ``Fraction``s, one
column of a ``(seeds, ...)`` sample array at a time. The array reduction
must agree with it to the tolerances the tests state.
"""

import itertools
import statistics
import time
from dataclasses import dataclass

import numpy as np

from vqls_precond.ansatz import AnsatzParams, _run_circuit, prepare_state
from vqls_precond.embedding import QuantumSystem
from vqls_precond.ilu import PIVOT_FLOOR, IluFactors, ZeroPivotError
from vqls_precond.sparse import STREAM_THETA, CsrMatrix
from vqls_precond.vqls import (INIT_SCALE, Adam, DegenerateOperatorError, DivergedError,
                               TrainResult, _apply, cost_and_grad)

SQRT2 = float(np.sqrt(2.0))

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def make_system(op, rhs) -> QuantumSystem:
    """A direct QuantumSystem on op as given (no padding or embedding)."""
    rhs = np.asarray(rhs, dtype=float)
    return QuantumSystem(n_qubits=int(np.log2(len(rhs))), block=np.asarray(op, dtype=float),
                         rhs_state=rhs / np.linalg.norm(rhs), hermitized=False)


def dense_op(sys: QuantumSystem) -> np.ndarray:
    """The 2**n x 2**n operator of ``sys``: its block if direct, else the dilation
    [[0, A], [A^T, 0]] of its block A, built from zeros and two block writes."""
    if not sys.hermitized:
        return sys.block
    m = len(sys.block)
    op = np.zeros((2 * m, 2 * m))
    op[:m, m:] = sys.block
    op[m:, :m] = sys.block.T
    return op


def csr_from_dense(A, keep_zeros: bool = False) -> CsrMatrix:
    """CSR of a dense square array; by default zeros are not stored."""
    A = np.asarray(A, dtype=float)
    mask = np.ones_like(A, dtype=bool) if keep_zeros else (A != 0.0)
    return CsrMatrix.from_mask(mask, A[mask])


def random_params(n_qubits: int, depth: int, scale: float,
                  rng: np.random.Generator) -> AnsatzParams:
    """Angles drawn uniform on [-scale, scale], row-major over the (depth + 1, n) table."""
    return AnsatzParams(rng.uniform(-scale, scale, size=(depth + 1, n_qubits)))


def _cost_from_state(x: np.ndarray, sys: QuantumSystem):
    """(cost, g, h, op x) at the state x; the cost is clamped at 0."""
    y = _apply(sys, x)
    g = float(sys.rhs_state @ y)
    h = float(y @ y)
    if h < 1e-300:
        raise DegenerateOperatorError("operator norm of the prepared state underflowed")
    c = 1.0 - g * g / h
    if c < 0.0:
        c = 0.0
    return c, g, h, y


def cost(params: AnsatzParams, sys: QuantumSystem) -> float:
    """Exact statevector cost at the given angles."""
    return _cost_from_state(prepare_state(params, sys.rhs_state), sys)[0]


def shifted_state(params: AnsatzParams, index: int, shift: float,
                  initial: np.ndarray) -> np.ndarray:
    """prepare_state with one flattened angle replaced by theta_j + shift."""
    if not 0 <= index < params.theta.size:
        raise IndexError(f"parameter index {index} out of range ({params.theta.size} params)")
    theta = params.theta.copy()
    theta.flat[index] += shift
    return prepare_state(AnsatzParams(theta), initial)


def shift_rule_tangent(params: AnsatzParams, index: int,
                       initial: np.ndarray) -> np.ndarray:
    """Exact d|x(theta)>/d theta_j from the two pi/2-shifted preparations.

    The divisor for +-pi/2 shifts of a frequency-1/2 polynomial is
    4 sin(pi/4) = 2 sqrt(2).
    """
    plus = shifted_state(params, index, +np.pi / 2, initial)
    minus = shifted_state(params, index, -np.pi / 2, initial)
    return (plus - minus) / (2.0 * SQRT2)


def shift_states(params: AnsatzParams, initial: np.ndarray) -> np.ndarray:
    """(2P + 1, dim) states from one circuit pass: row 0 unshifted, rows
    2j+1 / 2j+2 with angle j shifted by +pi/2 / -pi/2."""
    n_params = params.theta.size
    cols = np.repeat(params.theta.reshape(n_params, 1), 2 * n_params + 1, axis=1)
    idx = np.arange(n_params)
    cols[idx, 2 * idx + 1] += np.pi / 2
    cols[idx, 2 * idx + 2] -= np.pi / 2
    theta = cols.reshape(params.theta.shape + (2 * n_params + 1,))
    return _run_circuit(theta, np.repeat(initial[None, :], 2 * n_params + 1, axis=0))[0][-1]


def shift_rule_cost_and_grad(params: AnsatzParams, sys: QuantumSystem):
    """(cost, gradient) from one batched pass of 2P + 1 state preparations.

        dg_j = (g+ - g-) / (2 sqrt 2)        (g linear in the state)
        dh_j = (h+ - h-) / 2                 (h quadratic in the state)
        dC_j = -(2 g h dg_j - g^2 dh_j) / h^2
    """
    states = shift_states(params, sys.rhs_state)
    y = states @ dense_op(sys).T
    g_all = y @ sys.rhs_state
    h_all = np.einsum("bi,bi->b", y, y)
    g, h = float(g_all[0]), float(h_all[0])
    dg = (g_all[1::2] - g_all[2::2]) / (2.0 * SQRT2)
    dh = (h_all[1::2] - h_all[2::2]) / 2.0
    grad = -(2.0 * g * h * dg - g * g * dh) / (h * h)
    return 1.0 - g * g / h, grad.reshape(params.theta.shape)


def cost_and_grad_one(params: AnsatzParams, sys: QuantumSystem):
    """(cost, (D+1, n) gradient) of one column through the production lockstep step."""
    costs, grads = cost_and_grad(AnsatzParams(params.theta[:, :, None]), [sys],
                                 sys.rhs_state[None, :])
    return float(costs[0]), grads[:, :, 0]


def ry_reshape(amps: np.ndarray, qubit: int, angle) -> None:
    """In-place RY on one qubit of a (dim, batch) buffer through a reshape view.

    ``angle`` may be a scalar or a (batch,)-vector of per-column angles.
    """
    c = np.cos(np.multiply(angle, 0.5))
    s = np.sin(np.multiply(angle, 0.5))
    batch = amps.shape[1]
    view = amps.reshape(2 ** qubit, 2, -1, batch)
    a0, a1 = view[:, 0], view[:, 1]
    new0 = c * a0 - s * a1
    view[:, 1] = s * a0 + c * a1
    view[:, 0] = new0


def cnot_reshape(amps: np.ndarray, control: int, target: int) -> None:
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


def j_reshape(amps: np.ndarray, qubit: int) -> np.ndarray:
    """J = [[0, -1], [1, 0]] on one qubit of a (dim,) state, through a reshape view,
    as a new array."""
    view = amps.reshape(2 ** qubit, 2, -1)
    out = np.empty_like(view)
    out[:, 0] = -view[:, 1]
    out[:, 1] = view[:, 0]
    return out.reshape(amps.shape)


def _kron_gate(n_qubits: int, ops: dict) -> np.ndarray:
    """Dense 2**n matrix of ops[q] on each listed qubit q and I elsewhere (qubit 0 leftmost)."""
    out = np.eye(1)
    for q in range(n_qubits):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def _kron_chain(blocks: np.ndarray) -> np.ndarray:
    """(..., 2**k, 2**k) Kronecker product of the k (..., 2, 2) ``blocks``, in order.

    ``blocks`` has the qubit axis first; with no qubits the product is [[1]].
    The product grows from the last block.
    """
    if not len(blocks):
        return np.ones(blocks.shape[1:-2] + (1, 1))
    out = blocks[-1]
    for block in blocks[-2::-1]:
        size = 2 * out.shape[-1]
        out = (block[..., :, None, :, None] * out[..., None, :, None, :]).reshape(
            out.shape[:-2] + (size, size))
    return out


def kron_factors(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K1, K2) of every layer and column of the (D+1, n, B) angles, as
    ``ansatz._layer_factors`` returns them, from the Kronecker chain of 2x2 gates."""
    half = np.multiply(theta, 0.5).transpose(1, 0, 2)[..., None, None]  # (n, D+1, B, 1, 1)
    blocks = np.cos(half) * np.eye(2) + np.sin(half) * np.array([[0.0, -1.0], [1.0, 0.0]])
    top = len(blocks) // 2
    return _kron_chain(blocks[:top]), _kron_chain(blocks[top:])


def dense_circuit(theta: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """(D+1, dim) states after each layer of one circuit with (D+1, n) angles,
    every gate a dense 2**n matrix applied to the state in turn."""
    n_layers, n_qubits = theta.shape
    low, high = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    amps, layers = np.asarray(initial, dtype=float), []
    for d in range(n_layers):
        if d:
            for q in range(n_qubits - 1):
                amps = (_kron_gate(n_qubits, {q: low}) @ amps
                        + _kron_gate(n_qubits, {q: high, q + 1: flip}) @ amps)
        for q in range(n_qubits):
            c, s = np.cos(theta[d, q] / 2), np.sin(theta[d, q] / 2)
            amps = _kron_gate(n_qubits, {q: np.array([[c, -s], [s, c]])}) @ amps
        layers.append(amps)
    return np.array(layers)


def run_circuit_serial(theta: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """(D+1, dim, B) states after each layer of the ansatz for (D+1, n, B) angles
    from one shared (dim,) start, the CNOT chain and the RYs gate by gate
    through the reshape-view kernels."""
    n_layers, n_qubits, batch = theta.shape
    amps = np.repeat(initial[:, None], batch, axis=1)
    layers = []
    for d in range(n_layers):
        if d:
            for q in range(n_qubits - 1):
                cnot_reshape(amps, q, q + 1)
        for q in range(n_qubits):
            ry_reshape(amps, q, theta[d, q])
        layers.append(amps.copy())
    return np.stack(layers)


def _adjoint_pass_serial(theta: np.ndarray, layers: np.ndarray,
                         adjoint: np.ndarray) -> np.ndarray:
    """(D+1, n) gradient of one circuit from its (D+1, dim) stored layer states,
    walking only the adjoint back through RY(-theta) and the reversed CNOTs."""
    n_layers, n_qubits = theta.shape
    mu = adjoint[:, None].copy()
    grad = np.empty((n_layers, n_qubits))
    for d in range(n_layers - 1, -1, -1):
        grad[d] = [0.5 * j_reshape(layers[d], q) @ mu[:, 0] for q in range(n_qubits)]
        if d == 0:
            break
        for q in range(n_qubits):
            ry_reshape(mu, q, -theta[d, q])
        for q in range(n_qubits - 2, -1, -1):
            cnot_reshape(mu, q, q + 1)
    return grad


def cost_and_grad_serial(params: AnsatzParams, sys: QuantumSystem):
    """(cost, gradient) of one system from a one-column pass and a one-column walk."""
    layers = run_circuit_serial(params.theta[:, :, None], sys.rhs_state)[:, :, 0]
    c, g, h, y = _cost_from_state(layers[-1], sys)
    mu = (-2.0 * g / h * sys.rhs_state + 2.0 * g * g / (h * h) * y) @ dense_op(sys)
    return c, _adjoint_pass_serial(params.theta, layers, mu)


def adam_textbook(theta: np.ndarray, grads, lr: float) -> list[np.ndarray]:
    """The angles after each step of Adam driven by the gradients ``grads`` in turn.

    The textbook update (Kingma & Ba, arXiv:1412.6980, Algorithm 1) with
    ``vqls.Adam``'s constants, every moment and iterate a new array.
    """
    m = v = np.zeros_like(theta)
    iterates = []
    for t, grad in enumerate(grads, start=1):
        m = Adam.BETA1 * m + (1 - Adam.BETA1) * grad
        v = Adam.BETA2 * v + (1 - Adam.BETA2) * grad * grad
        m_hat = m / (1 - Adam.BETA1 ** t)
        v_hat = v / (1 - Adam.BETA2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + Adam.EPSILON)
        iterates.append(theta)
    return iterates


def _checked_step_serial(params: AnsatzParams, sys: QuantumSystem, iteration: int):
    c, grad = cost_and_grad_serial(params, sys)
    if not (np.isfinite(c) and np.isfinite(grad).all()):
        raise DivergedError(f"non-finite cost or gradient at iteration {iteration}")
    return c, grad


def train_serial(sys: QuantumSystem, cfg) -> TrainResult:
    """The Adam loop on one system, as it ran before lockstep training."""
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), STREAM_THETA]))
    params = random_params(sys.n_qubits, cfg.depth, INIT_SCALE, rng)
    adam = Adam(cfg.learning_rate)

    t0 = time.perf_counter()
    c, grad = _checked_step_serial(params, sys, 0)
    costs, grad_norms, elapsed = [c], [float(np.linalg.norm(grad))], [time.perf_counter() - t0]
    best_cost, best_params = c, params

    for it in range(1, cfg.iterations + 1):
        params = AnsatzParams(adam.step(params.theta, grad))
        c, grad = _checked_step_serial(params, sys, it)
        if c < best_cost:
            best_cost, best_params = c, params
        costs.append(c)
        grad_norms.append(float(np.linalg.norm(grad)))
        elapsed.append(time.perf_counter() - t0)
    return TrainResult(params=params, best_params=best_params, costs=np.array(costs),
                       grad_norms=np.array(grad_norms), elapsed=np.array(elapsed))


def ilu0_ikj(A: CsrMatrix) -> IluFactors:
    """Incomplete LU with zero fill on the pattern of A.

    Requires every diagonal position to be stored. Defining property:
    (L U)[i, j] equals A[i, j] exactly for every stored (i, j).
    """
    n = A.n
    work = A.vals.copy()
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        pos = np.searchsorted(A.col_idx[lo:hi], i)
        if pos == hi - lo or A.col_idx[lo + pos] != i:
            raise ValueError(f"diagonal position ({i},{i}) missing from the pattern")
        diag_pos[i] = lo + pos

    for i in range(n):
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        cols_i = A.col_idx[lo:hi]
        row_i = work[lo:hi]
        n_lower = int(np.searchsorted(cols_i, i))
        for t in range(n_lower):
            k = cols_i[t]
            u_kk = work[diag_pos[k]]
            if abs(u_kk) < PIVOT_FLOOR:
                raise ZeroPivotError(int(k), float(u_kk))
            l_ik = row_i[t] / u_kk
            row_i[t] = l_ik
            # subtract l_ik * U[k, j] wherever row i stores a j > k
            k_up_lo, k_up_hi = diag_pos[k] + 1, A.row_ptr[k + 1]
            cols_k = A.col_idx[k_up_lo:k_up_hi]
            pos = np.searchsorted(cols_i, cols_k)
            hit = (pos < hi - lo)
            hit[hit] = cols_i[pos[hit]] == cols_k[hit]
            row_i[pos[hit]] -= l_ik * work[k_up_lo:k_up_hi][hit]
        if abs(work[diag_pos[i]]) < PIVOT_FLOOR:
            raise ZeroPivotError(i, float(work[diag_pos[i]]))

    W = np.zeros((n, n))
    W[A.row_index(), A.col_idx] = work
    L = np.tril(W, -1)
    L[np.diag_indices(n)] = 1.0
    return IluFactors(L=L, U=np.triu(W))


@dataclass
class PauliTerm:
    coeff: float
    word: str  # over {I,X,Y,Z}; leftmost character acts on qubit 0 (MSB)


def pauli_word_matrix(word: str) -> np.ndarray:
    """Tensor-product matrix of a Pauli word (leftmost factor = qubit 0)."""
    mat = np.array([[1.0 + 0j]])
    for ch in word:
        mat = np.kron(mat, _PAULI_1Q[ch])
    return mat


def pauli_decompose(op, tol: float = 1e-12) -> list[PauliTerm]:
    """Expand a real symmetric operator over Pauli words.

    coeff(word) = trace(P_word op) / 2^m. Only words with an even number of
    Y factors survive for symmetric real input (their matrices are real);
    terms with |coeff| <= tol are dropped. With tol = 0 the surviving terms
    reconstruct op to rounding.
    """
    op = np.asarray(op, dtype=float)
    dim = op.shape[0]
    if op.ndim != 2 or op.shape != (dim, dim) or dim & (dim - 1) or dim == 0:
        raise ValueError("operator must be square with power-of-two dimension")
    scale = max(1.0, float(np.max(np.abs(op))))
    if np.max(np.abs(op - op.T)) > 1e-12 * scale:
        raise ValueError("operator must be symmetric")
    m = dim.bit_length() - 1
    terms = []
    for letters in itertools.product("IXYZ", repeat=m):
        word = "".join(letters)
        if word.count("Y") % 2:
            continue  # purely imaginary word matrix, coefficient vanishes
        P = pauli_word_matrix(word).real
        coeff = float(np.tensordot(P, op, axes=2)) / dim  # trace(P @ op), P symmetric
        if abs(coeff) > tol:
            terms.append(PauliTerm(coeff=coeff, word=word))
    return terms


def pauli_reconstruct(terms: list[PauliTerm], n_qubits: int) -> np.ndarray:
    """Sum coeff * P_word back into a dense operator."""
    out = np.zeros((2 ** n_qubits, 2 ** n_qubits))
    for term in terms:
        out += term.coeff * pauli_word_matrix(term.word).real
    return out


def cost_via_decomposition(params: AnsatzParams, sys: QuantumSystem,
                           terms: list[PauliTerm]) -> float:
    """Cost assembled term-by-term from a Pauli decomposition of op.

    g = sum_k a_k <rhs|P_k|x> and h = sum_{k,k'} a_k a_k' <x|P_k' P_k|x>.
    """
    x = prepare_state(params, sys.rhs_state)
    applied = np.stack([pauli_word_matrix(t.word).real @ x for t in terms])
    coeffs = np.array([t.coeff for t in terms])
    g = float(coeffs @ (applied @ sys.rhs_state))
    overlaps = applied @ applied.T  # <x|P_k' P_k|x> for real symmetric words
    h = float(coeffs @ overlaps @ coeffs)
    if h < 1e-300:
        raise DegenerateOperatorError("operator norm of the prepared state underflowed")
    return 1.0 - g * g / h


def exact_mean_sem(samples) -> tuple[np.ndarray, np.ndarray]:
    """(mean, SEM) arrays of each column over axis 0, in exact arithmetic.

    The sums are exact; only the final divisions and square root round. The
    SEM is 0 for one sample.
    """
    samples = np.asarray(samples, dtype=float)
    columns = samples.reshape(len(samples), -1).T.tolist()
    k = len(samples)
    mean = [statistics.fmean(c) for c in columns]
    sem = [statistics.stdev(c) / k ** 0.5 if k > 1 else 0.0 for c in columns]
    return (np.reshape(mean, samples.shape[1:]), np.reshape(sem, samples.shape[1:]))
