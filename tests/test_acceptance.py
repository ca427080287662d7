"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. Criterion 9 (the full paper-scale reproduction, 8.9 seconds in
one run on a 2-CPU box) is skipped unless VQLS_RUN_PAPER_PROFILE=1 is set;
everything else runs by default, with criterion 8 the long pole (4.1 seconds
in one run on the same box, of a 29-second suite).
"""

import os
import time

import numpy as np
import pytest

from oracles import (cost, cost_and_grad_one, cost_via_decomposition, csr_from_dense,
                     dense_op, make_system, pauli_decompose, pauli_reconstruct,
                     random_params)
from vqls_precond.ansatz import AnsatzParams
from vqls_precond.dense import condition_number, lu_solve
from vqls_precond.embedding import build_system
from vqls_precond.experiments import ExperimentConfig, load_config, run
from vqls_precond.ilu import ilu0, preconditioned_system
from vqls_precond.sparse import poisson_1d, random_rhs, random_sparse
from vqls_precond.vqls import VqlsConfig

COMMITTED_SEEDS = list(range(1, 11))


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, watch, message):
    print(f"\ncriterion {num:02d} PASS ({watch.elapsed:.2f} s): {message}")


def test_criterion_01_pattern_exactness():
    with Stopwatch() as watch:
        for seed in COMMITTED_SEEDS:
            A = random_sparse(128, 0.2, seed)
            dense = A.to_dense()
            F = ilu0(A)
            prod = F.L @ F.U
            mask = dense != 0.0
            err = np.abs(prod - dense)[mask].max()
            assert err < 1e-10 * np.abs(dense).max(), f"seed {seed}: {err:.3e}"
    assert watch.elapsed < 1.0
    report(1, watch, "ILU(0) reproduces A exactly on the stored pattern, 10 seeds")


def test_criterion_02_no_fill_exactness():
    with Stopwatch() as watch:
        rng = np.random.default_rng(2024)
        D = rng.uniform(-1, 1, (32, 32)) + np.diag(rng.choice([-5.0, 5.0], 32))
        A = csr_from_dense(D, keep_zeros=True)
        A_tilde, _ = preconditioned_system(A, np.ones(32), ilu0(A))
        assert np.abs(A_tilde - np.eye(32)).max() < 1e-8
        T, b = poisson_1d(128)
        T_tilde, _ = preconditioned_system(T, b, ilu0(T))
        assert np.abs(T_tilde - np.eye(128)).max() < 1e-8
    assert watch.elapsed < 1.0
    report(2, watch, "dense and tridiagonal patterns give M^-1 A = I (no fill)")


def test_criterion_03_solution_preservation():
    with Stopwatch() as watch:
        for seed in COMMITTED_SEEDS:
            A = random_sparse(128, 0.2, seed)
            b = random_rhs(128, seed)
            A_tilde, b_tilde = preconditioned_system(A, b, ilu0(A))
            x = lu_solve(A.to_dense(), b)
            x_tilde = lu_solve(A_tilde, b_tilde)
            x /= np.linalg.norm(x)
            x_tilde /= np.linalg.norm(x_tilde)
            if x @ x_tilde < 0:
                x_tilde = -x_tilde
            err = np.abs(x - x_tilde).max()
            assert err < 1e-6, f"seed {seed}: {err:.3e}"
    assert watch.elapsed < 5.0
    report(3, watch, "normalized solutions agree before/after preconditioning, 10 seeds")


def test_criterion_04_gradient_correctness():
    with Stopwatch() as watch:
        rng = np.random.default_rng(404)
        h = 1e-5
        for trial in range(20):
            A = rng.uniform(-1, 1, (8, 8)) + np.diag(rng.choice([-3.0, 3.0], 8))
            sys = make_system(A, rng.normal(size=8))
            params = random_params(3, 2, np.pi / 2, rng)
            _, grad = cost_and_grad_one(params, sys)
            for j in range(params.theta.size):
                if abs(grad.flat[j]) <= 1e-8:
                    continue
                up, down = params.theta.copy(), params.theta.copy()
                up.flat[j] += h
                down.flat[j] -= h
                fd = (cost(AnsatzParams(up), sys)
                      - cost(AnsatzParams(down), sys)) / (2 * h)
                rel = abs(grad.flat[j] - fd) / abs(grad.flat[j])
                assert rel < 1e-5, f"trial {trial} param {j}: rel err {rel:.3e}"
    assert watch.elapsed < 10.0
    report(4, watch, "gradient matches central finite differences, 20 trials")


def test_criterion_05_cost_bounds_and_scale_invariance():
    with Stopwatch() as watch:
        rng = np.random.default_rng(505)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            op = rng.uniform(-1, 1, (2 ** n, 2 ** n))
            rhs = rng.normal(size=2 ** n)
            if np.linalg.norm(op @ (rhs / np.linalg.norm(rhs))) < 1e-3:
                continue
            sys = make_system(op, rhs)
            params = random_params(n, int(rng.integers(0, 3)), np.pi, rng)
            c = cost(params, sys)
            assert 0.0 <= c <= 1.0 + 1e-12
            for scale in (-2.0, 0.5, 10.0):
                c_scaled = cost(params, make_system(scale * op, rhs))
                assert abs(c_scaled - c) <= 1e-12
    assert watch.elapsed < 30.0
    report(5, watch, "cost in [0, 1] and scale-invariant over 1000 fuzzed systems")


def test_criterion_06_decomposition_path_equivalence():
    with Stopwatch() as watch:
        rng = np.random.default_rng(606)
        for _ in range(5):
            A = rng.uniform(-1, 1, (4, 4))
            sys = build_system(A, rng.normal(size=4), "hermitized")  # 3 qubits, symmetric
            terms = pauli_decompose(dense_op(sys), tol=0.0)
            assert np.abs(pauli_reconstruct(terms, 3) - dense_op(sys)).max() < 1e-12
            params = random_params(3, 2, 0.9, rng)
            direct = cost(params, sys)
            summed = cost_via_decomposition(params, sys, terms)
            assert abs(direct - summed) < 1e-10
    assert watch.elapsed < 30.0
    report(6, watch, "Pauli-summed cost equals the direct cost on 3-qubit systems")


def test_criterion_07_condition_number_improvement():
    with Stopwatch() as watch:
        improved = 0
        for seed in COMMITTED_SEEDS:
            A = random_sparse(128, 0.2, seed)
            b = random_rhs(128, seed)
            A_tilde, _ = preconditioned_system(A, b, ilu0(A))
            if condition_number(A_tilde) < condition_number(A.to_dense()):
                improved += 1
        assert improved >= 9, f"only {improved}/10 seeds improved"
    assert watch.elapsed < 30.0
    report(7, watch, f"condition number improved for {improved}/10 committed seeds")


def test_criterion_08_depth_reduction_ci_scale(tmp_path):
    with Stopwatch() as watch:
        cfg = load_config("sweep_depth", "ci", {"output_dir": str(tmp_path)})
        run(cfg)
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        i_plain = header.index("mean_cost_plain")
        i_pre = header.index("mean_cost_precond")
        orderings = []
        for line in lines[1:]:
            parts = line.split(",")
            depth = int(parts[0])
            mean_plain, mean_pre = float(parts[i_plain]), float(parts[i_pre])
            assert mean_pre < mean_plain, (
                f"depth {depth}: precond {mean_pre:.4f} !< plain {mean_plain:.4f}")
            orderings.append(f"d{depth}: {mean_pre:.3f} < {mean_plain:.3f}")
    assert watch.elapsed < 1200.0
    report(8, watch, "preconditioned mean final cost below plain at every depth ("
           + "; ".join(orderings) + ")")


@pytest.mark.skipif(os.environ.get("VQLS_RUN_PAPER_PROFILE") != "1",
                    reason="paper-scale run (~10 s); set VQLS_RUN_PAPER_PROFILE=1")
def test_criterion_09_paper_scale_reproduction(tmp_path):
    with Stopwatch() as watch:
        cfg = load_config("solve", "paper", {"output_dir": str(tmp_path)})
        run(cfg)
        final_costs = {}
        for arm in ("plain", "precond"):
            last = (tmp_path / f"trace_{arm}.csv").read_text().strip().split("\n")[-1]
            final_costs[arm] = float(last.split(",")[1])
        assert final_costs["precond"] < final_costs["plain"]
        rows = (tmp_path / "residuals.csv").read_text().strip().split("\n")[1:]
        res_plain = max(float(r.split(",")[1]) for r in rows)
        res_pre = max(float(r.split(",")[2]) for r in rows)
        assert res_pre < res_plain
    report(9, watch, f"paper scale: precond cost {final_costs['precond']:.3e} < "
           f"plain {final_costs['plain']:.3e}; max residual {res_pre:.3e} < {res_plain:.3e}")


def test_criterion_10_heat_diffusion_pipeline(tmp_path):
    # The criterion's depth is counted in rotation layers: the run uses a
    # single rotation layer (no entangler block), which is what makes the
    # warm start b-tilde ~ solution reachable at all - see ledger.
    with Stopwatch() as watch:
        cfg = load_config("heat", "ci", {"output_dir": str(tmp_path)})
        run(cfg)
        traces = {}
        for arm in ("plain", "precond"):
            last = (tmp_path / f"trace_{arm}.csv").read_text().strip().split("\n")[-1]
            traces[arm] = float(last.split(",")[1])
        assert traces["precond"] < 1e-8
        assert traces["plain"] > traces["precond"]
        rows = (tmp_path / "residuals.csv").read_text().strip().split("\n")[1:]
        res_pre = max(float(r.split(",")[2]) for r in rows)
        # aligned residual against the lu_solve parabola, normalized scale
        A, b = poisson_1d(128)
        x_exact = lu_solve(A.to_dense(), b)
        assert res_pre < 1e-3 * np.abs(x_exact).max()
    assert watch.elapsed < 300.0
    report(10, watch, f"heat: precond cost {traces['precond']:.2e} < 1e-8, plain "
           f"{traces['plain']:.2e} higher, max residual {res_pre:.2e}")


def _masked_csv_bytes(out_dir):
    data = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix != ".csv":
            continue
        text = path.read_text()
        if path.name.startswith("trace_"):
            # wall-clock column is telemetry, inherently non-reproducible
            lines = text.strip().split("\n")
            text = "\n".join(",".join(line.split(",")[:3]) for line in lines)
        data[path.name] = text
    return data


def test_criterion_11_determinism(tmp_path):
    with Stopwatch() as watch:
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"solve_{tag}"
            cfg = ExperimentConfig(kind="solve", n=16, seeds=[2], output_dir=str(out),
                                   vqls=VqlsConfig(depth=2, iterations=60))
            run(cfg)
            runs.append(_masked_csv_bytes(out))
        assert runs[0] == runs[1]
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"spectrum_{tag}"
            cfg = ExperimentConfig(kind="spectrum", n=16, seeds=[1, 2],
                                   output_dir=str(out))
            run(cfg)
            runs.append(_masked_csv_bytes(out))
        assert runs[0] == runs[1]
    report(11, watch, "reruns produce byte-identical CSVs (wall-clock column masked)")
