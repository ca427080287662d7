"""Variational solver: cost function, exact adjoint gradient, Adam loop.

The cost is computed exactly from statevectors:

    C(theta) = 1 - <rhs|op|x(theta)>^2 / <x(theta)|op^T op|x(theta)>

with |x(theta)> = V(theta)|rhs> and all quantities real. Cauchy-Schwarz pins
C into [0, 1]; rounding can take 1 - g^2/h a few ulps below 0 when the state
solves the system, so the shared cost helper clamps it at 0.

Gradients use the adjoint (reverse-mode) method of Jones & Gacon
(arXiv:2009.02823): one forward circuit pass gives x, the cost's adjoint is
mu = dC/dx = op^T (-(2g/h) rhs + (2g^2/h^2) op x), and one backward walk over
the layers carries x and mu together, reading off each layer's angle
derivatives on the way (``ansatz._adjoint_pass``). The parameter-shift rule,
which is what hardware would measure, is kept in the test suite as the
oracle this gradient is checked against.

Training is lockstep: ``train`` moves B columns, each one (system, config)
pair of the same circuit shape, with one forward pass over a (dim, B)
buffer, one adjoint walk over a (dim, 2B) buffer and one Adam step on the
(P, B) angle table per iteration. A step costs about three circuit passes
over its B columns, linear in depth, and pays the per-gate Python overhead
once for all of them. Each column's operator is applied on its own, so
every column's numbers are bit for bit those of training it alone; a single
system is the B = 1 case.

The protocol is fixed apart from what ``VqlsConfig`` carries: angles start
uniform on [-INIT_SCALE, INIT_SCALE], Adam keeps the standard moments of
Kingma & Ba (arXiv:1412.6980), and the trace records every step. This
module does no file IO: ``experiments`` writes the trace CSVs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ansatz import AngleTable, AnsatzParams, _adjoint_pass, _run_circuit
from .embedding import QuantumSystem
from .sparse import STREAM_THETA, _rng

# Half-width of the uniform angle initialization.
INIT_SCALE = 0.1


class DegenerateOperatorError(RuntimeError):
    """op annihilates the prepared state; the cost is undefined.

    ``cost_and_grad`` sets ``column`` to the lockstep column it happened in.
    """


class DivergedError(ArithmeticError):
    """Training produced a non-finite cost or gradient."""


@dataclass
class VqlsConfig:
    """Hyperparameters of one optimization run.

    Defaults follow the reference protocol: learning rate 0.001, 10,000
    iterations, depth 20. ``mode`` selects the embedding ('hermitized' adds
    the ancilla block, 'direct' uses the operator as-is); ``preconditioned``
    is metadata that training never reads.
    """

    depth: int = 20
    iterations: int = 10_000
    learning_rate: float = 1e-3
    seed: int = 0
    mode: str = "hermitized"
    preconditioned: bool = True

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.mode not in ("direct", "hermitized"):
            raise ValueError(f"mode must be 'direct' or 'hermitized', got {self.mode!r}")


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

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grad * grad
        m_hat = self.m / (1 - self.BETA1 ** self.t)
        v_hat = self.v / (1 - self.BETA2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.EPSILON)


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


def cost_and_grad(angles: AngleTable, systems: list[QuantumSystem]):
    """(costs (B,), gradients (P, B)) of B columns: angle column b on systems[b].

    One forward pass runs every column from its own right-hand side; the
    seed of the adjoint walk is mu = dC/dx = op^T (-(2g/h) rhs + (2g^2/h^2)
    op x), formed column by column with that column's operator. Gradient
    rows are flattened layer * n_qubits + qubit.
    """
    states = _run_circuit(angles.table, angles.n_qubits, angles.depth,
                          np.column_stack([sys.rhs_state for sys in systems]))
    costs = np.empty(len(systems))
    adjoints = np.empty_like(states)
    for b, (x, sys) in enumerate(zip(states.T.copy(), systems)):
        try:
            costs[b], g, h, y = _cost_from_state(x, sys)
        except DegenerateOperatorError as exc:
            exc.column = b
            raise
        adjoints[:, b] = (-2.0 * g / h * sys.rhs_state + 2.0 * g * g / (h * h) * y) @ sys.op
    return costs, _adjoint_pass(angles, states, adjoints)


# Config fields every column of one lockstep run must share.
_LOCKSTEP_FIELDS = ("depth", "iterations", "learning_rate")


def _checked_step(angles: AngleTable, systems: list, iteration: int, labels: list):
    try:
        costs, grads = cost_and_grad(angles, systems)
    except DegenerateOperatorError as exc:
        raise DegenerateOperatorError(
            f"{exc} at iteration {iteration} in {labels[exc.column]}") from exc
    finite = np.isfinite(costs) & np.isfinite(grads).all(axis=0)
    if not finite.all():
        raise DivergedError(f"non-finite cost or gradient at iteration {iteration} "
                            f"in {labels[int(np.argmin(finite))]}")
    return costs, grads


def _record(traces: list, iteration: int, costs, grads, elapsed: float) -> None:
    for b, trace in enumerate(traces):
        trace.append(TraceRecord(iteration, float(costs[b]),
                                 float(np.linalg.norm(grads[:, b])), elapsed))


def train(systems, cfgs, labels=None):
    """Run the Adam loop on every column from a uniform [-INIT_SCALE, INIT_SCALE] start.

    ``systems`` and ``cfgs`` are equal-length lists, one (system, config)
    column each, and the result is one TrainResult per column in the same
    order; a single QuantumSystem with a single VqlsConfig gives a single
    TrainResult. Columns train in lockstep, so they must share the qubit
    count and every field of ``_LOCKSTEP_FIELDS``; seeds and operators may
    differ.

    Deterministic given (system, config) per column: each column's angle
    initialization draws from the theta stream of its cfg.seed, and its
    numbers do not depend on the other columns. The trace records the cost
    after every step (iteration 0 = initial angles); the reported solution
    is the final iterate, with the best-cost iterate carried alongside.
    Raises DivergedError at the first non-finite cost or gradient in any
    column, and DegenerateOperatorError where a column's operator
    annihilates its state, naming that column by its entry of ``labels``
    (default: its index and seed).
    """
    if isinstance(systems, QuantumSystem):
        return train([systems], [cfgs], labels)[0]
    if len(cfgs) != len(systems):
        raise ValueError("train needs one config per system")
    cfg = cfgs[0]
    if any(getattr(c, f) != getattr(cfg, f) for c in cfgs for f in _LOCKSTEP_FIELDS):
        raise ValueError(f"lockstep columns must share {', '.join(_LOCKSTEP_FIELDS)}")
    n_qubits = systems[0].n_qubits
    if any(sys.n_qubits != n_qubits for sys in systems):
        raise ValueError("lockstep columns must share the qubit count")
    if labels is None:
        labels = [f"column {b} (seed {c.seed})" for b, c in enumerate(cfgs)]

    n_params = n_qubits * (cfg.depth + 1)
    angles = AngleTable(n_qubits, cfg.depth, np.column_stack(
        [_rng(c.seed, STREAM_THETA).uniform(-INIT_SCALE, INIT_SCALE, n_params) for c in cfgs]))
    adam = Adam(cfg.learning_rate)

    traces: list[list[TraceRecord]] = [[] for _ in systems]
    t0 = time.perf_counter()
    costs, grads = _checked_step(angles, systems, 0, labels)
    _record(traces, 0, costs, grads, time.perf_counter() - t0)
    best_costs, best_table = costs.copy(), angles.table
    best_iters = np.zeros(len(systems), dtype=int)

    for it in range(1, cfg.iterations + 1):
        angles = AngleTable(n_qubits, cfg.depth, adam.step(angles.table, grads))
        costs, grads = _checked_step(angles, systems, it, labels)
        better = costs < best_costs
        if better.any():
            best_costs = np.where(better, costs, best_costs)
            best_table = np.where(better, angles.table, best_table)
            best_iters[better] = it
        _record(traces, it, costs, grads, time.perf_counter() - t0)

    best = AngleTable(n_qubits, cfg.depth, best_table)
    return [TrainResult(params=angles.column(b), trace=traces[b], best_params=best.column(b),
                        best_cost=float(best_costs[b]), best_iteration=int(best_iters[b]))
            for b in range(len(systems))]


def aligned(x, x_exact) -> np.ndarray:
    """s x with s = <x, x_exact> / <x, x>, the least-squares scale of x onto x_exact.

    s absorbs both the arbitrary normalization and the sign freedom of the
    variational solution.
    """
    s = float(x @ x_exact) / float(x @ x)
    return s * x


def residuals(x_vqls, x_exact) -> np.ndarray:
    """Componentwise |aligned(x_vqls, x_exact) - x_exact|."""
    x_vqls = np.asarray(x_vqls, dtype=float)
    x_exact = np.asarray(x_exact, dtype=float)
    if x_vqls.shape != x_exact.shape:
        raise ValueError("solution vectors must have equal length")
    if not np.any(x_exact):
        raise ValueError("exact solution is identically zero")
    return np.abs(aligned(x_vqls, x_exact) - x_exact)
