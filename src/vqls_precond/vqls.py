"""Variational solver: cost function, exact adjoint gradient, Adam loop.

The cost is computed exactly from statevectors:

    C(theta) = 1 - <rhs|op|x(theta)>^2 / <x(theta)|op^T op|x(theta)>

with |x(theta)> = V(theta)|rhs> and all quantities real. Cauchy-Schwarz pins
C into [0, 1]; rounding can take 1 - g^2/h a few ulps below 0 when the state
solves the system, so the shared cost helper clamps it at 0.

Gradients use the adjoint (reverse-mode) method of Jones & Gacon
(arXiv:2009.02823): one forward pass gives x and stores every layer's
state, the cost's adjoint is mu = dC/dx = op^T (-(2g/h) rhs + (2g^2/h^2)
op x), and one backward walk carries mu alone, reading each layer's angle
derivatives off mu and that layer's stored state (``ansatz._adjoint_pass``).
The parameter-shift rule, which is what hardware would measure, is kept in
the test suite as the oracle this gradient is checked against.

Training is lockstep: ``train`` moves B (system, seed) columns under one
config with one forward pass over (B, dim) rows, one adjoint walk and one
Adam step on the (D+1, n, B) angle array per iteration; the gradients
share that layout. A step costs about two circuit passes over its B
columns, linear in depth, and stores (D+1) B dim amplitudes. Every RY gate
of a pass is four whole-buffer numpy calls in the gather form of
``ansatz``, so the per-gate Python overhead is paid once for all columns.
Each column's operator is applied on its own, so every column's numbers
are bit for bit those of training it alone; a single system is B = 1.

The protocol is fixed apart from what ``VqlsConfig`` carries: angles start
uniform on [-INIT_SCALE, INIT_SCALE], Adam keeps the standard moments of
Kingma & Ba (arXiv:1412.6980), and every step's cost is kept. This module
does no file IO: ``experiments`` writes the trace CSVs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from sys import float_info

import numpy as np

from .ansatz import AnsatzParams, _adjoint_pass, _run_circuit
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


# Checks keyed on a config field's declared type: ``int`` and ``float`` refuse
# bools, a ``float`` (an int passes) must be finite; other types must match exactly.
_TYPE_CHECKS = {"int": lambda v: type(v) is int,
                "float": lambda v: type(v) in (int, float) and abs(v) <= float_info.max,
                "list[int]": lambda v: type(v) is list and all(type(x) is int for x in v)}


def check_field_types(cfg) -> None:
    """Raise ValueError unless every field of the dataclass ``cfg`` holds its declared type."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _TYPE_CHECKS.get(f.type, lambda v: type(v).__name__ == f.type)(value):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")


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
        check_field_types(self)
        if self.seed < 0 or self.depth < 0 or self.iterations < 1 or self.learning_rate <= 0:
            raise ValueError(f"need seed >= 0, depth >= 0, iterations >= 1 and "
                             f"learning_rate > 0, got {self}")
        if self.mode not in ("direct", "hermitized"):
            raise ValueError(f"mode must be 'direct' or 'hermitized', got {self.mode!r}")


@dataclass
class TrainResult:
    """One column's run; row t of each history is the state after t Adam steps."""

    params: AnsatzParams          # final iterate, (D+1, n)
    best_params: AnsatzParams     # first minimum-cost iterate, (D+1, n)
    costs: np.ndarray             # (T+1,)
    grad_norms: np.ndarray        # (T+1,)
    elapsed: np.ndarray           # (T+1,) seconds since the start, shared by all columns

    @property
    def final_cost(self) -> float:
        return float(self.costs[-1])

    @property
    def best_iteration(self) -> int:
        return int(np.argmin(self.costs))

    @property
    def best_cost(self) -> float:
        return float(self.costs[self.best_iteration])


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


def cost_and_grad(angles: AnsatzParams, systems: list[QuantumSystem]):
    """(costs (B,), gradients (D+1, n, B)) of B columns: angles[..., b] on systems[b].

    ``angles`` holds (D+1, n, B) angles, and the gradients come back in the
    same layout. One forward pass runs every column from its own right-hand
    side; the seed of the adjoint walk is mu = dC/dx = op^T (-(2g/h) rhs +
    (2g^2/h^2) op x), formed column by column with that column's operator.
    """
    layers = _run_circuit(angles.theta, np.stack([sys.rhs_state for sys in systems]))
    costs = np.empty(len(systems))
    adjoints = np.empty_like(layers[-1])
    for b, (x, sys) in enumerate(zip(layers[-1], systems)):
        try:
            costs[b], g, h, y = _cost_from_state(x, sys)
        except DegenerateOperatorError as exc:
            exc.column = b
            raise
        adjoints[b] = (-2.0 * g / h * sys.rhs_state + 2.0 * g * g / (h * h) * y) @ sys.op
    return costs, _adjoint_pass(angles, layers, adjoints)


def _checked_step(angles: AnsatzParams, systems: list, iteration: int, labels: list):
    try:
        costs, grads = cost_and_grad(angles, systems)
    except DegenerateOperatorError as exc:
        raise DegenerateOperatorError(
            f"{exc} at iteration {iteration} in {labels[exc.column]}") from exc
    finite = np.isfinite(costs) & np.isfinite(grads).all(axis=(0, 1))
    if not finite.all():
        raise DivergedError(f"non-finite cost or gradient at iteration {iteration} "
                            f"in {labels[int(np.argmin(finite))]}")
    return costs, grads


def train(systems, cfg: VqlsConfig, seeds=None, labels=None):
    """Run cfg's Adam loop on every column from a uniform [-INIT_SCALE, INIT_SCALE] start.

    ``systems`` share one qubit count and train in lockstep under ``cfg``;
    ``seeds`` holds one start seed per system (default: cfg.seed for all).
    The result is one TrainResult per column in the same order, or a single
    TrainResult for a single QuantumSystem.

    Deterministic given (system, seed) per column: each column's angle
    initialization draws from the theta stream of its seed, and its numbers
    do not depend on the other columns. Raises DivergedError at the first
    non-finite cost or gradient in any column, and DegenerateOperatorError
    where a column's operator annihilates its state, naming that column by
    its entry of ``labels`` (default: its index and seed).
    """
    if isinstance(systems, QuantumSystem):
        return train([systems], cfg, seeds, labels)[0]
    n_cols = len(systems)
    if seeds is None:
        seeds = [cfg.seed] * n_cols
    if len(seeds) != n_cols:
        raise ValueError("train needs one seed per system")
    n_qubits = systems[0].n_qubits
    if any(sys.n_qubits != n_qubits for sys in systems):
        raise ValueError("lockstep columns must share the qubit count")
    if labels is None:
        labels = [f"column {b} (seed {seed})" for b, seed in enumerate(seeds)]

    shape = (cfg.depth + 1, n_qubits)
    theta = np.stack([_rng(seed, STREAM_THETA).uniform(-INIT_SCALE, INIT_SCALE, shape)
                      for seed in seeds], axis=-1)
    adam = Adam(cfg.learning_rate)
    costs = np.empty((cfg.iterations + 1, n_cols))
    grad_norms = np.empty((cfg.iterations + 1, n_cols))
    elapsed = np.empty(cfg.iterations + 1)
    best_costs, best_theta = np.full(n_cols, np.inf), theta

    t0 = time.perf_counter()
    for it in range(cfg.iterations + 1):
        if it:
            theta = adam.step(theta, grads)
        costs[it], grads = _checked_step(AnsatzParams(theta), systems, it, labels)
        for b in range(n_cols):
            grad_norms[it, b] = np.linalg.norm(grads[:, :, b])
        better = costs[it] < best_costs
        if better.any():
            best_costs = np.where(better, costs[it], best_costs)
            best_theta = np.where(better, theta, best_theta)
        elapsed[it] = time.perf_counter() - t0

    return [TrainResult(params=AnsatzParams(theta[:, :, b].copy()),
                        best_params=AnsatzParams(best_theta[:, :, b].copy()),
                        costs=costs[:, b], grad_norms=grad_norms[:, b], elapsed=elapsed)
            for b in range(n_cols)]


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
