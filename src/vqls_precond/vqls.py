"""Variational solver: cost function, exact adjoint gradient, Adam loop.

The cost is computed exactly from statevectors:

    C(theta) = 1 - <rhs|op|x(theta)>^2 / <x(theta)|op^T op|x(theta)>

with |x(theta)> = V(theta)|rhs> and all quantities real. A direct system's
op is its padded matrix A; a hermitized system's is the dilation
[[0, A], [A^T, 0]], applied by its blocks: op x = (A x_bot, A^T x_top), and
the same map gives op^T x, since the dilation is symmetric. Cauchy-Schwarz pins
C into [0, 1]; rounding can take 1 - g^2/h a few ulps below 0 when the state
solves the system, so ``cost_and_grad`` clamps it at 0.

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
columns, linear in depth, and stores (D+1) B dim amplitudes. Every RY layer
of a pass is two batched matrix products with the layer's Kronecker
factors (``ansatz``), built by one gather once per step for both passes, so
the per-layer Python overhead is paid once for all columns. The products and
each column's operator act row by row, so every column's numbers are bit for
bit those of training it alone; a single system is B = 1.

What is fixed for a run, ``train`` builds once: the (B, dim) stack of the
start states, the start angles, the cost, gradient-norm and time histories,
and Adam's two moment arrays, which every step updates in place. Each step
builds the new angles, the layers' factors and (D+1, B, dim) states, the B
cost adjoints and the gradients, and takes every column's gradient norm
from one stacked product.

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
        # In place, in the textbook's operation order, so the moments round as
        # BETA1 * m + (1 - BETA1) * grad and BETA2 * v + (1 - BETA2) * grad * grad.
        self.m *= self.BETA1
        self.m += (1 - self.BETA1) * grad
        self.v *= self.BETA2
        self.v += (1 - self.BETA2) * grad * grad
        m_hat = self.m / (1 - self.BETA1 ** self.t)
        v_hat = self.v / (1 - self.BETA2 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.EPSILON)


def _apply(sys: QuantumSystem, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """op x, or x op (that is op^T x) with ``transpose``, for a (2**n,) vector x.

    A direct system's op is its block A. The hermitized op [[0, A], [A^T, 0]]
    is symmetric, so either way it maps (x_top, x_bot) to (A x_bot, A^T x_top).
    """
    a = sys.block
    if not sys.hermitized:
        return x.dot(a) if transpose else a.dot(x)
    m = len(a)
    return np.concatenate((a.dot(x[m:]), x[:m].dot(a)))


def cost_and_grad(angles: AnsatzParams, systems: list[QuantumSystem], initial: np.ndarray):
    """(costs (B,), gradients (D+1, n, B)) of B columns: angles[..., b] on systems[b].

    ``angles`` holds (D+1, n, B) angles, and the gradients come back in the
    same layout; ``initial`` is the (B, 2**n) stack of the systems'
    right-hand-side states. One forward pass runs every column from its row
    of ``initial``, and its layers' Kronecker factors serve the adjoint walk
    too. Column by column, with that column's operator, y = op x gives
    g = <rhs, y>, h = <y, y> and the cost 1 - g^2/h, clamped at 0; the seed
    of the walk is mu = dC/dx = op^T (-(2g/h) rhs + (2g^2/h^2) y).
    """
    layers, factors = _run_circuit(angles.theta, initial)
    costs = np.empty(len(systems))
    adjoints = np.empty_like(initial)
    for b, (x, rhs, sys) in enumerate(zip(layers[-1], initial, systems)):
        y = _apply(sys, x)
        g = float(rhs.dot(y))
        h = float(y.dot(y))
        if h < 1e-300:
            exc = DegenerateOperatorError("operator norm of the prepared state underflowed")
            exc.column = b
            raise exc
        c = 1.0 - g * g / h
        costs[b] = 0.0 if c < 0.0 else c
        adjoints[b] = _apply(sys, -2.0 * g / h * rhs + 2.0 * g * g / (h * h) * y,
                             transpose=True)
    return costs, _adjoint_pass(factors, layers, adjoints)


def _checked_step(angles: AnsatzParams, systems: list, initial: np.ndarray, iteration: int,
                  labels: list):
    try:
        costs, grads = cost_and_grad(angles, systems, initial)
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
    its entry of ``labels`` (default: its index and seed). Raises ValueError
    before any step for an empty ``systems``, ``seeds`` or ``labels`` of
    another length, or columns of different qubit counts.
    """
    if isinstance(systems, QuantumSystem):
        return train([systems], cfg, seeds, labels)[0]
    n_cols = len(systems)
    if not n_cols:
        raise ValueError("train needs at least one system")
    if seeds is None:
        seeds = [cfg.seed] * n_cols
    if len(seeds) != n_cols:
        raise ValueError("train needs one seed per system")
    if labels is None:
        labels = [f"column {b} (seed {seed})" for b, seed in enumerate(seeds)]
    if len(labels) != n_cols:
        raise ValueError("train needs one label per system")
    n_qubits = systems[0].n_qubits
    if any(sys.n_qubits != n_qubits for sys in systems):
        raise ValueError("lockstep columns must share the qubit count")

    shape = (cfg.depth + 1, n_qubits)
    theta = np.stack([_rng(seed, STREAM_THETA).uniform(-INIT_SCALE, INIT_SCALE, shape)
                      for seed in seeds], axis=-1)
    initial = np.stack([sys.rhs_state for sys in systems])
    adam = Adam(cfg.learning_rate)
    costs = np.empty((cfg.iterations + 1, n_cols))
    grad_norms = np.empty((cfg.iterations + 1, n_cols))
    elapsed = np.empty(cfg.iterations + 1)
    best_costs, best_theta = np.full(n_cols, np.inf), theta

    t0 = time.perf_counter()
    for it in range(cfg.iterations + 1):
        if it:
            theta = adam.step(theta, grads)
        costs[it], grads = _checked_step(AnsatzParams(theta), systems, initial, it, labels)
        # Each column's norm as one dot product of its contiguous copy, the
        # reduction np.linalg.norm makes, for all columns in one stacked call.
        rows = grads.reshape(-1, n_cols).T.copy()
        np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]), out=grad_norms[it, :, None, None])
        better = costs[it] < best_costs
        if np.count_nonzero(better):
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
