"""Variational solver: cost function, exact adjoint gradient, Adam loop.

The cost is computed exactly from statevectors:

    C(theta) = 1 - <rhs|op|x(theta)>^2 / <x(theta)|op^T op|x(theta)>

with |x(theta)> = V(theta)|rhs> and all quantities real. Cauchy-Schwarz pins
C into [0, 1]; rounding can take 1 - g^2/h a few ulps below 0 when the state
solves the system, so the shared cost helper clamps it at 0.

Gradients use the adjoint (reverse-mode) method of Jones & Gacon
(arXiv:2009.02823): one forward circuit pass gives x, the cost's adjoint is
mu = dC/dx = op^T (-(2g/h) rhs + (2g^2/h^2) op x), and one backward walk over
the layers carries x and mu together as a two-column buffer, reading off each
layer's angle derivatives on the way (``ansatz._adjoint_pass``). A step costs
about three one-column circuit passes, linear in depth. The parameter-shift
rule, which is what hardware would measure, is kept in the test suite as the
oracle this gradient is checked against.

A term-by-term path summing Pauli-decomposition contributions is provided as
a cross-check of what hardware Hadamard tests would estimate; the training
loop never pays its 4^m cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzParams, StateVector, _adjoint_pass, _run_circuit, prepare_state
from .embedding import PauliTerm, QuantumSystem, pauli_word_matrix
from .sparse import STREAM_THETA


class DegenerateOperatorError(RuntimeError):
    """op annihilates the prepared state; the cost is undefined."""


class DivergedError(ArithmeticError):
    """Training produced a non-finite cost or gradient."""


@dataclass
class VqlsConfig:
    """Hyperparameters of one optimization run.

    Defaults follow the reference protocol: learning rate 0.001, 10,000
    iterations, depth 20, standard Adam moments. ``mode`` selects the
    embedding ('hermitized' adds the ancilla block, 'direct' uses the
    operator as-is); ``preconditioned`` is carried as metadata so a run
    records which system it optimized.
    """

    depth: int = 20
    iterations: int = 10_000
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    init_scale: float = 0.1
    seed: int = 0
    mode: str = "hermitized"
    preconditioned: bool = True
    trace_every: int = 1

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.mode not in ("direct", "hermitized"):
            raise ValueError(f"mode must be 'direct' or 'hermitized', got {self.mode!r}")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class TraceRecord:
    """Telemetry for one optimizer iteration (cost after that many steps)."""

    iteration: int
    cost: float
    grad_norm: float
    elapsed: float


@dataclass
class TrainResult:
    params: AnsatzParams          # final iterate
    trace: list[TraceRecord]
    best_params: AnsatzParams     # minimum-cost iterate seen
    best_cost: float
    best_iteration: int

    @property
    def final_cost(self) -> float:
        return self.trace[-1].cost


class Adam:
    """Textbook Adam with bias correction, kept separate from the trainer."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = None
        self.v = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


def _cost_from_state(x: np.ndarray, sys: QuantumSystem):
    """(cost, g, h, op x) at the state x; the cost is clamped at 0."""
    y = sys.op @ x
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
    x = prepare_state(params, StateVector(sys.n_qubits, sys.rhs_state.copy()))
    return _cost_from_state(x.amps, sys)[0]


def cost_and_grad(params: AnsatzParams, sys: QuantumSystem):
    """(cost, gradient) from one forward pass and one adjoint walk.

    The seed of the walk is mu = dC/dx = op^T (-(2g/h) rhs + (2g^2/h^2) op x);
    the gradient is flattened layer * n_qubits + qubit.
    """
    x = _run_circuit(params.flat()[:, None], params.n_qubits, params.depth,
                     sys.rhs_state)[:, 0]
    c, g, h, y = _cost_from_state(x, sys)
    mu = (-2.0 * g / h * sys.rhs_state + 2.0 * g * g / (h * h) * y) @ sys.op
    return c, _adjoint_pass(params.theta, x, mu)


def _checked_step(params: AnsatzParams, sys: QuantumSystem, iteration: int):
    c, grad = cost_and_grad(params, sys)
    if not (np.isfinite(c) and np.isfinite(grad).all()):
        raise DivergedError(f"non-finite cost or gradient at iteration {iteration}")
    return c, grad


def train(sys: QuantumSystem, cfg: VqlsConfig) -> TrainResult:
    """Run the Adam loop from a uniform [-init_scale, init_scale] start.

    Deterministic given (sys, cfg): the angle initialization draws from the
    theta stream of cfg.seed. The trace records the cost after every
    ``trace_every``-th step (iteration 0 = initial angles, always kept, as is
    the final iteration); the reported solution is the final iterate, with
    the best-cost iterate carried alongside. Raises DivergedError at the
    first non-finite cost or gradient.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), STREAM_THETA]))
    params = AnsatzParams.random(sys.n_qubits, cfg.depth, cfg.init_scale, rng)
    adam = Adam(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon)

    trace: list[TraceRecord] = []
    t0 = time.perf_counter()
    c, grad = _checked_step(params, sys, 0)
    trace.append(TraceRecord(0, c, float(np.linalg.norm(grad)), time.perf_counter() - t0))
    best_cost, best_params, best_iter = c, params, 0

    flat = params.flat()
    for it in range(1, cfg.iterations + 1):
        flat = adam.step(flat, grad)
        params = params.with_flat(flat)
        c, grad = _checked_step(params, sys, it)
        if c < best_cost:
            best_cost, best_params, best_iter = c, params, it
        if it % cfg.trace_every == 0 or it == cfg.iterations:
            trace.append(TraceRecord(it, c, float(np.linalg.norm(grad)),
                                     time.perf_counter() - t0))
    return TrainResult(params=params, trace=trace, best_params=best_params,
                       best_cost=best_cost, best_iteration=best_iter)


def residuals(x_vqls, x_exact) -> np.ndarray:
    """Componentwise |s x_vqls - x_exact| with s the least-squares scale.

    s = <x_vqls, x_exact> / <x_vqls, x_vqls> absorbs both the arbitrary
    normalization and the sign freedom of the variational solution.
    """
    x_vqls = np.asarray(x_vqls, dtype=float)
    x_exact = np.asarray(x_exact, dtype=float)
    if x_vqls.shape != x_exact.shape:
        raise ValueError("solution vectors must have equal length")
    if not np.any(x_exact):
        raise ValueError("exact solution is identically zero")
    s = float(x_vqls @ x_exact) / float(x_vqls @ x_vqls)
    return np.abs(s * x_vqls - x_exact)


def cost_via_decomposition(params: AnsatzParams, sys: QuantumSystem,
                           terms: list[PauliTerm]) -> float:
    """Cost assembled term-by-term from a Pauli decomposition of op.

    g = sum_k a_k <rhs|P_k|x> and h = sum_{k,k'} a_k a_k' <x|P_k' P_k|x>,
    the quantities a Hadamard-test estimator would measure. Exponential in
    qubit count; cross-check use only.
    """
    x = prepare_state(params, StateVector(sys.n_qubits, sys.rhs_state.copy())).amps
    applied = np.stack([pauli_word_matrix(t.word).real @ x for t in terms])
    coeffs = np.array([t.coeff for t in terms])
    g = float(coeffs @ (applied @ sys.rhs_state))
    overlaps = applied @ applied.T  # <x|P_k' P_k|x> for real symmetric words
    h = float(coeffs @ overlaps @ coeffs)
    if h < 1e-300:
        raise DegenerateOperatorError("operator norm of the prepared state underflowed")
    return 1.0 - g * g / h


def write_trace_csv(trace: list[TraceRecord], path) -> None:
    """Trace export with the canonical header iteration,cost,grad_norm,elapsed_s."""
    lines = ["iteration,cost,grad_norm,elapsed_s"]
    for rec in trace:
        lines.append(f"{rec.iteration},{rec.cost!r},{rec.grad_norm!r},{rec.elapsed:.6f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
