"""Cost function, adjoint gradient, Adam and the training loop."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import (adam_textbook, cost, cost_and_grad_one, cost_via_decomposition, dense_op,
                     make_system, pauli_decompose, random_params, shift_rule_cost_and_grad,
                     train_serial)
from vqls_precond import vqls
from vqls_precond.ansatz import AnsatzParams, prepare_state
from vqls_precond.embedding import build_system
from vqls_precond.ilu import ilu0, preconditioned_system
from vqls_precond.sparse import STREAM_THETA, _rng, poisson_1d
from vqls_precond.vqls import (INIT_SCALE, MAX_DEPTH, MAX_ITERATIONS, Adam,
                               DegenerateOperatorError, DivergedError, VqlsConfig, _apply,
                               residuals, train)


def zero_params(n, depth=0):
    return AnsatzParams(np.zeros((depth + 1, n)))


def test_cost_identity_at_zero_angles():
    sys = make_system(np.eye(2), [1.0, 0.0])
    assert cost(zero_params(1), sys) == 0.0


def test_cost_one_qubit_analytic_optimum():
    # op = diag(2, 1), rhs = (1,1)/sqrt2: exact solution direction (1, 2)/sqrt5,
    # reached from the rhs start by a rotation of 2*atan(2) - pi/2
    sys = make_system(np.diag([2.0, 1.0]), [1.0, 1.0])
    theta_star = 2.0 * np.arctan(2.0) - np.pi / 2.0
    assert cost(AnsatzParams([[theta_star]]), sys) < 1e-12
    assert cost(zero_params(1), sys) == pytest.approx(0.1, abs=1e-12)
    # brute-force scan oracle: the analytic angle is the global minimum
    grid = np.linspace(-np.pi, np.pi, 20001)
    costs = [cost(AnsatzParams([[t]]), sys) for t in grid]
    assert abs(grid[int(np.argmin(costs))] - theta_star) < 2e-4


def test_cost_reaches_zero_for_constructed_target():
    # target (cos a, sin a) from rhs e0 needs the single angle 2a
    a = 0.93
    target = np.array([np.cos(a), np.sin(a)])
    # rows (target, target-perp) send the target direction to e0
    op = np.array([[target[0], target[1]], [-target[1], target[0]]])
    sys = make_system(op, [1.0, 0.0])
    assert cost(AnsatzParams([[2 * a]]), sys) < 1e-12


def test_cost_bounds_and_scale_invariance_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        op = rng.uniform(-1, 1, (2 ** n, 2 ** n))
        rhs = rng.normal(size=2 ** n)
        while np.linalg.norm(op) < 1e-6 or np.linalg.norm(rhs) < 1e-6:
            op = rng.uniform(-1, 1, (2 ** n, 2 ** n))
            rhs = rng.normal(size=2 ** n)
        sys = make_system(op, rhs)
        params = random_params(n, depth, np.pi, rng)
        c = cost(params, sys)
        assert 0.0 <= c <= 1.0 + 1e-12
        for scale in (-2.0, 0.5, 10.0):
            scaled = make_system(scale * op, rhs)
            assert cost(params, scaled) == pytest.approx(c, abs=1e-12)


def test_cost_degenerate_operator():
    sys = make_system(np.zeros((2, 2)), [1.0, 0.0])
    with pytest.raises(DegenerateOperatorError):
        cost(zero_params(1), sys)


def test_grad_zero_at_reachable_minimum():
    sys = make_system(np.diag([2.0, 1.0]), [1.0, 1.0])
    theta_star = 2.0 * np.arctan(2.0) - np.pi / 2.0
    _, grad = cost_and_grad_one(AnsatzParams([[theta_star]]), sys)
    assert np.abs(grad).max() < 1e-8


def test_grad_closed_form_two_layer_identity():
    # op = I, rhs = e0: C = sin^2((t0+t1)/2), dC/dt0 = sin(t0+t1)/2 = 0.5 at pi/4, pi/4
    sys = make_system(np.eye(2), [1.0, 0.0])
    params = AnsatzParams([[np.pi / 4], [np.pi / 4]])
    c, grad = cost_and_grad_one(params, sys)
    assert c == pytest.approx(np.sin(np.pi / 4) ** 2, abs=1e-14)
    np.testing.assert_allclose(grad, [[0.5], [0.5]], atol=1e-13)


def finite_difference_grad(params, sys, h=1e-5):
    out = np.zeros_like(params.theta)
    for j in range(params.theta.size):
        up, down = params.theta.copy(), params.theta.copy()
        up.flat[j] += h
        down.flat[j] -= h
        out.flat[j] = (cost(AnsatzParams(up), sys)
                       - cost(AnsatzParams(down), sys)) / (2 * h)
    return out


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n, depth = 3, 2
        A = rng.uniform(-1, 1, (8, 8)) + np.diag(rng.choice([-3.0, 3.0], 8))
        sys = make_system(A, rng.normal(size=8))
        params = random_params(n, depth, np.pi / 2, rng)
        _, grad = cost_and_grad_one(params, sys)
        fd = finite_difference_grad(params, sys)
        mask = np.abs(grad) > 1e-8
        assert np.all(np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask]) < 1e-5)


def test_grad_matches_fd_hermitized():
    rng = np.random.default_rng(10)
    A = rng.uniform(-1, 1, (4, 4))
    sys = build_system(A, rng.normal(size=4), "hermitized")
    params = random_params(3, 2, 0.4, rng)
    fd = finite_difference_grad(params, sys)
    # the shift-rule oracle is held to the same differences as the adjoint
    for _, grad in (cost_and_grad_one(params, sys), shift_rule_cost_and_grad(params, sys)):
        mask = np.abs(grad) > 1e-8
        assert np.all(np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask]) < 1e-5)


@pytest.mark.parametrize("mode", ["direct", "hermitized"])
@pytest.mark.parametrize("depth", [0, 1, 2, 6, 14, 20])
def test_adjoint_matches_shift_rule_oracle(depth, mode):
    rng = np.random.default_rng(100 + depth)
    for n_qubits in range(1, 10):
        dim = 2 ** n_qubits if mode == "direct" else 2 ** (n_qubits - 1)
        A = rng.uniform(-1, 1, (dim, dim)) + np.diag(rng.choice([-3.0, 3.0], dim))
        sys = build_system(A, rng.normal(size=dim), mode)
        params = random_params(n_qubits, depth, np.pi, rng)
        c, grad = cost_and_grad_one(params, sys)
        _, oracle = shift_rule_cost_and_grad(params, sys)
        assert c == cost(params, sys)
        assert np.abs(grad - oracle).max() <= 1e-12 * np.abs(oracle).max(), n_qubits


def test_cost_clamped_at_zero_when_solved():
    # op = I at zero angles: x = rhs exactly, so g = h and 1 - g^2/h is 0 up
    # to rounding, on either side of it
    rng = np.random.default_rng(16)
    rounded_below = 0
    for _ in range(200):
        sys = make_system(np.eye(8), rng.normal(size=8))
        h = float(sys.rhs_state @ sys.rhs_state)
        raw = 1.0 - h * h / h
        rounded_below += raw < 0.0
        c, _ = cost_and_grad_one(zero_params(3), sys)
        assert c == cost(zero_params(3), sys) == max(raw, 0.0)
    assert rounded_below > 0


def test_train_raises_at_first_non_finite_cost():
    op = np.eye(4)
    op[1, 2] = np.nan
    sys = make_system(op, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DivergedError, match="iteration 0"):
        train(sys, VqlsConfig(depth=1, iterations=5, mode="direct"))


def test_train_names_the_diverged_column():
    ok = make_system(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    op = np.eye(4)
    op[1, 2] = np.inf
    bad = make_system(op, [1.0, 2.0, 3.0, 4.0])
    cfg = VqlsConfig(depth=1, iterations=5, mode="direct")
    with pytest.raises(DivergedError, match="iteration 0 in right"):
        train([ok, ok, bad], cfg, [7, 8, 9], ["left", "middle", "right"])
    with pytest.raises(DivergedError, match=r"iteration 0 in column 1 \(seed 8\)"):
        train([ok, bad, ok], cfg, [7, 8, 9])


def _fake_cost_and_grad(bad_cost, bad_grad):
    """A cost_and_grad with cost 0.5 and zero gradients on every column but the bad ones.

    ``bad_cost`` and ``bad_grad`` are None, a column (whose cost becomes inf,
    or one of whose gradient entries NaN) or a (column, value) pair.
    """
    def fake(angles, systems, initial):
        costs = np.full(len(systems), 0.5)
        grads = np.zeros_like(angles.theta)
        for bad, default, entries in ((bad_cost, np.inf, costs), (bad_grad, np.nan, grads[1, 0])):
            if bad is not None:
                b, value = bad if isinstance(bad, tuple) else (bad, default)
                entries[b] = value
        return costs, grads
    return fake


@pytest.mark.parametrize("bad_cost, bad_grad, named", [
    (None, 1, "middle"),          # a gradient entry only, under a finite cost
    (2, None, "right"),           # a cost only, under a finite gradient
    (2, 1, "middle"),             # both: the first non-finite column
    pytest.param(None, (1, np.inf), "middle", id="inf-gradient"),
    pytest.param(None, (1, -np.inf), "middle", id="minus-inf-gradient"),
    pytest.param((0, np.nan), None, "left", id="nan-cost"),
])
def test_train_names_the_column_of_a_non_finite_gradient_or_cost(monkeypatch, bad_cost,
                                                                  bad_grad, named):
    monkeypatch.setattr(vqls, "cost_and_grad", _fake_cost_and_grad(bad_cost, bad_grad))
    ok = make_system(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    cfg = VqlsConfig(depth=1, iterations=5, mode="direct")
    with pytest.raises(DivergedError, match=f"iteration 0 in {named}$"):
        train([ok, ok, ok], cfg, [7, 8, 9], ["left", "middle", "right"])


def test_train_stops_where_a_finite_gradient_entry_squares_to_inf(monkeypatch):
    # 1e200 is finite, but its square overflows, so its column's gradient norm
    # is inf: training stops there, after numpy's overflow warning, rather
    # than hand Adam an infinite second moment.
    monkeypatch.setattr(vqls, "cost_and_grad", _fake_cost_and_grad(None, (1, 1e200)))
    ok = make_system(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    cfg = VqlsConfig(depth=1, iterations=5, mode="direct")
    with pytest.raises(DivergedError, match="iteration 0 in middle$"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            train([ok, ok, ok], cfg, [7, 8, 9], ["left", "middle", "right"])


def test_train_rejects_columns_that_cannot_run_in_lockstep():
    sys3 = make_system(np.eye(8), np.ones(8))
    sys2 = make_system(np.eye(4), np.ones(4))
    cfg = VqlsConfig(depth=1, iterations=2, mode="direct")
    with pytest.raises(ValueError, match="qubit count"):
        train([sys3, sys2], cfg)
    with pytest.raises(ValueError, match="one seed per system"):
        train([sys3, sys3], cfg, [1])


def test_train_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="at least one system"):
        train([], VqlsConfig(depth=1, iterations=2, mode="direct"))


def test_train_refuses_a_label_list_of_another_length():
    ok = make_system(np.eye(4), [1.0, 2.0, 3.0, 4.0])
    op = np.eye(4)
    op[1, 2] = np.inf
    bad = make_system(op, [1.0, 2.0, 3.0, 4.0])
    cfg = VqlsConfig(depth=1, iterations=5, mode="direct")
    for labels in (["left"], ["left", "right", "extra"]):
        with pytest.raises(ValueError, match="one label per system"):
            train([ok, bad], cfg, [7, 8], labels)


@pytest.mark.parametrize("n_qubits", [5, 7, 8, 9])
@pytest.mark.parametrize("batch", [1, 2, 4, 20])
def test_grad_norms_equal_linalg_norm_bit_for_bit(batch, n_qubits):
    # The stacked reduction in train against np.linalg.norm of each column's
    # gradient at its start angles, from the production step run alone.
    rng = np.random.default_rng(17 + 10 * batch + n_qubits)
    m = 2 ** (n_qubits - 1)
    cfg = VqlsConfig(depth=3, iterations=1)
    systems = [build_system(rng.uniform(-1, 1, (m, m)) + 3 * np.eye(m), rng.normal(size=m),
                            "hermitized") for _ in range(batch)]
    seeds = [int(s) for s in rng.integers(100, size=batch)]
    results = train(systems, cfg, seeds)
    for sys, seed, result in zip(systems, seeds, results):
        start = _rng(seed, STREAM_THETA).uniform(-INIT_SCALE, INIT_SCALE, (cfg.depth + 1, n_qubits))
        _, grad = cost_and_grad_one(AnsatzParams(start), sys)
        assert result.grad_norms[0].tobytes() == np.linalg.norm(grad).tobytes()


def test_adam_in_place_step_equals_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(18)
    theta = rng.uniform(-np.pi, np.pi, (21, 8, 20))
    # gradients over ten decades, with exact zeros, as training meets them
    grads = [rng.normal(size=theta.shape) * 10.0 ** rng.integers(-8, 3, theta.shape)
             * (rng.random(theta.shape) > 0.05) for _ in range(300)]
    adam = Adam(lr=0.01)
    current = theta
    for step, expected in enumerate(adam_textbook(theta, grads, 0.01)):
        current = adam.step(current, grads[step])
        assert current.tobytes() == expected.tobytes(), step


def _training_bytes(result):
    """Every number a TrainResult carries, as exact bytes and reprs."""
    return (result.params.theta.tobytes(), len(result.costs), result.costs.tobytes(),
            result.grad_norms.tobytes(), result.best_params.theta.tobytes(),
            repr(result.best_cost), result.best_iteration)


def _serial_oracle_agrees(result, oracle):
    """``result`` against ``train_serial``'s run of the same column: the same
    step count, costs and gradient norms within 1e-11 and final angles within
    1e-10.

    The Kronecker RY layer and the oracle's gate-by-gate reshape views round
    differently, and Adam carries the difference from step to step. Where
    costs tie, the first minimum may fall on another iterate, so the best
    angles are not compared.
    """
    assert len(result.costs) == len(oracle.costs)
    assert np.abs(result.costs - oracle.costs).max() <= 1e-11
    assert np.abs(result.grad_norms - oracle.grad_norms).max() <= 1e-11
    assert np.abs(result.params.theta - oracle.params.theta).max() <= 1e-10


# (qubits, columns, iterations): every batch width and both run lengths
# appear at every depth and embedding.
LOCKSTEP_CASES = [(3, 6, 25), (4, 1, 25), (5, 2, 1), (6, 4, 25), (7, 6, 1), (8, 4, 25)]


def _lockstep_runs(depth, mode):
    """(cfg, system, seed, lockstep TrainResult) of every column of LOCKSTEP_CASES."""
    rng = np.random.default_rng(300 + depth)
    for n_qubits, batch, iterations in LOCKSTEP_CASES:
        dim = 2 ** n_qubits if mode == "direct" else 2 ** (n_qubits - 1)
        # a large step makes the cost bounce, so the best iterate is not
        # always the last
        cfg = VqlsConfig(depth=depth, iterations=iterations, mode=mode, learning_rate=0.2)
        systems, seeds = [], []
        for _ in range(batch):
            A = rng.uniform(-1, 1, (dim, dim)) + np.diag(rng.choice([-3.0, 3.0], dim))
            systems.append(build_system(A, rng.normal(size=dim), mode))
            seeds.append(int(rng.integers(4)))   # seeds repeat across columns now and then
        results = (train(systems, cfg, seeds) if batch > 1
                   else [train(systems[0], replace(cfg, seed=seeds[0]))])
        for sys, seed, result in zip(systems, seeds, results):
            yield replace(cfg, seed=seed), sys, result


@pytest.mark.parametrize("mode", ["direct", "hermitized"])
@pytest.mark.parametrize("depth", [0, 1, 2, 6, 14])
def test_lockstep_train_matches_serial_oracle_bit_for_bit(depth, mode):
    # The serial reference is each column trained alone, a batch of one,
    # through the production step: a column's numbers never depend on the
    # columns beside it.
    for cfg, sys, result in _lockstep_runs(depth, mode):
        assert _training_bytes(result) == _training_bytes(train(sys, cfg)), cfg


@pytest.mark.parametrize("mode", ["direct", "hermitized"])
@pytest.mark.parametrize("depth", [0, 1, 2, 6, 14])
def test_lockstep_train_agrees_with_reshape_oracle(depth, mode):
    for cfg, sys, result in _lockstep_runs(depth, mode):
        _serial_oracle_agrees(result, train_serial(sys, cfg))


def test_heat_precond_arm_keeps_the_first_of_tied_minima():
    # The exact ILU of the rod starts the precond arm at the solution, so its
    # cost clamps to 0.0 on many iterates; the best iterate is the first.
    A, b = poisson_1d(16)
    sys = build_system(*preconditioned_system(A, b, ilu0(A)), "direct")
    cfg = VqlsConfig(depth=0, iterations=1500, mode="direct", seed=1)
    result = train(sys, cfg)
    assert np.count_nonzero(result.costs == 0.0) > 1
    assert result.best_iteration == np.flatnonzero(result.costs == 0.0)[0]
    _serial_oracle_agrees(result, train_serial(sys, cfg))


def test_adam_first_step_zero_gradient():
    adam = Adam(lr=0.001)
    theta = np.array([0.3, -0.2])
    np.testing.assert_array_equal(adam.step(theta, np.zeros(2)), theta)


def test_adam_first_step_closed_form():
    adam = Adam(lr=0.001)
    new = adam.step(np.array([0.0]), np.array([0.5]))
    assert new[0] == pytest.approx(-0.001 * 0.5 / (0.5 + 1e-8), abs=1e-15)


def test_adam_first_step_magnitude_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        adam = Adam(lr=0.001)
        g = rng.normal(size=6) * 10.0 ** float(rng.integers(-6, 4))
        delta = adam.step(np.zeros(6), g)
        assert np.all(np.abs(delta) <= 0.001 * (1 + 1e-7))


def test_train_converges_on_identity_system():
    sys = make_system(np.eye(4), [1.0, 0.0, 0.0, 0.0])
    cfg = VqlsConfig(depth=1, iterations=2000, mode="direct", seed=3)
    result = train(sys, cfg)
    assert result.final_cost < 1e-6
    assert len(result.costs) == len(result.grad_norms) == 2001   # every step


def test_train_deterministic():
    rng = np.random.default_rng(12)
    A = rng.uniform(-1, 1, (4, 4)) + 3 * np.eye(4)
    sys = build_system(A, rng.normal(size=4), "hermitized")
    cfg = VqlsConfig(depth=2, iterations=50, seed=5)
    r1, r2 = train(sys, cfg), train(sys, cfg)
    np.testing.assert_array_equal(r1.costs, r2.costs)
    np.testing.assert_array_equal(r1.grad_norms, r2.grad_norms)
    np.testing.assert_array_equal(r1.params.theta, r2.params.theta)


def test_train_min_so_far_improves():
    rng = np.random.default_rng(13)
    A = rng.uniform(-1, 1, (8, 8)) + np.diag(rng.choice([-3.0, 3.0], 8))
    sys = build_system(A, rng.normal(size=8), "direct")
    cfg = VqlsConfig(depth=2, iterations=400, mode="direct", seed=1)
    result = train(sys, cfg)
    assert result.best_cost <= result.costs[100]
    assert result.best_cost <= result.costs[0]


def test_residuals_exact_and_sign_flip():
    x_exact = np.array([3.0, -4.0])
    unit = x_exact / 5.0
    assert residuals(unit, x_exact).max() < 1e-15
    assert residuals(-unit, x_exact).max() < 1e-15


def test_residuals_orthogonal_projection():
    x_exact = np.array([2.0, 0.0])
    x_orth = np.array([0.0, 1.0])
    np.testing.assert_array_equal(residuals(x_orth, x_exact), np.abs(x_exact))


def test_residuals_zero_exact_raises():
    with pytest.raises(ValueError):
        residuals(np.array([1.0, 0.0]), np.zeros(2))


def test_decomposition_path_matches_direct_cost():
    rng = np.random.default_rng(14)
    for _ in range(5):
        A = rng.uniform(-1, 1, (4, 4))
        sys = build_system(A, rng.normal(size=4), "hermitized")  # 3 qubits, symmetric
        terms = pauli_decompose(dense_op(sys), tol=0.0)
        params = random_params(3, 2, 0.8, rng)
        direct = cost(params, sys)
        summed = cost_via_decomposition(params, sys, terms)
        assert abs(direct - summed) < 1e-10


def test_block_apply_matches_the_dense_operator():
    # op x and x op from the stored block, against the dense 2^n operator
    rng = np.random.default_rng(15)
    for n_qubits in range(1, 10):
        for mode in ("direct", "hermitized"):
            m = 2 ** (n_qubits - (mode == "hermitized"))
            A = rng.uniform(-1, 1, (m, m)) * rng.choice([1e-3, 1.0, 1e3], (m, m))
            sys = build_system(A, rng.normal(size=m), mode)
            assert sys.n_qubits == n_qubits
            op = dense_op(sys)
            for x in rng.normal(size=(3, 2 ** n_qubits)):
                for got, want in ((_apply(sys, x), op @ x),
                                  (_apply(sys, x, transpose=True), x @ op)):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
                        (n_qubits, mode)


def test_cost_zero_implies_proportionality():
    sys = make_system(np.diag([2.0, 1.0]), [1.0, 1.0])
    theta_star = 2.0 * np.arctan(2.0) - np.pi / 2.0
    params = AnsatzParams([[theta_star]])
    assert cost(params, sys) < 1e-12
    x = prepare_state(params, sys.rhs_state)
    y = dense_op(sys) @ x
    y_hat = y / np.linalg.norm(y)
    assert min(np.abs(y_hat - sys.rhs_state).max(),
               np.abs(y_hat + sys.rhs_state).max()) < 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        VqlsConfig(iterations=0)
    with pytest.raises(ValueError):
        VqlsConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        VqlsConfig(mode="other")
    VqlsConfig(depth=MAX_DEPTH, iterations=MAX_ITERATIONS)
    for too_large in ({"depth": MAX_DEPTH + 1}, {"iterations": MAX_ITERATIONS + 1}):
        with pytest.raises(ValueError, match="need depth <="):
            VqlsConfig(**too_large)
