"""Correctness checks on a round's outputs, computed apart from the program.

The reference arithmetic here shares no code with ``src/``: instances are
regenerated from the documented PCG64 / ``SeedSequence([seed, stream])``
recipe, ILU(0) is a dense elimination restricted to the stored pattern,
circuits are dense products of ``np.kron`` factors, and sweep statistics
are recomputed from the raw rows. The program is called only to retrain the
sampled deep cell, because the sweep does not write its final angles.

Each ``check_*`` function returns a list of failure messages; empty means
the outputs passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

STREAM_MATRIX, STREAM_RHS = 0, 1

COST_TOL = 1e-10          # dense-circuit cost against the reported cost
PARABOLA_EXACT_TOL = 1e-10
PARABOLA_VQLS_TOL = 1e-3
COND_PLAIN_TOL = 1e-12
COND_PRECOND_TOL = 1e-9
STATS_TOL = 1e-12
# C = 1 - g^2/h lies in [0, 1] exactly; in floating point it can land a few
# ulps below 0 when the state solves the system.
COST_SLACK = 1e-14


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cost_in_range(c: float) -> bool:
    return math.isfinite(c) and -COST_SLACK <= c <= 1.0 + COST_SLACK


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# reference arithmetic


def regenerate_instance(n: int, density: float, seed: int, diag_offset: float = 3.0):
    """(A dense, stored-pattern mask, b) from the documented generator recipe."""
    p_off = (density * n * n - n) / (n * n - n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_MATRIX]))
    mask = rng.random((n, n)) < p_off
    np.fill_diagonal(mask, True)
    A = np.zeros((n, n))
    A[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))   # row-major positions
    d = np.diag(A).copy()
    np.fill_diagonal(A, np.where(d >= 0, d + diag_offset, d - diag_offset))
    b = np.random.default_rng(np.random.SeedSequence([seed, STREAM_RHS])).uniform(-1.0, 1.0, n)
    return A, mask, b


def dense_ilu0(A: np.ndarray, mask: np.ndarray):
    """(L, U) of IKJ elimination whose updates land only on stored positions."""
    n = len(A)
    W = A.copy()
    for i in range(1, n):
        for k in np.flatnonzero(mask[i, :i]):
            W[i, k] /= W[k, k]
            W[i, k + 1:] -= W[i, k] * W[k, k + 1:] * mask[i, k + 1:]
    return np.tril(W, -1) + np.eye(n), np.triu(W)


def dense_preconditioned(A: np.ndarray, mask: np.ndarray, b: np.ndarray):
    L, U = dense_ilu0(A, mask)
    M = L @ U
    return np.linalg.solve(M, A), np.linalg.solve(M, b)


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def _kron_all(factors) -> np.ndarray:
    out = np.eye(1)
    for f in factors:          # leftmost factor acts on qubit 0, the MSB
        out = np.kron(out, f)
    return out


def circuit_matrix(theta: np.ndarray) -> np.ndarray:
    """Dense unitary of the layered RY/CNOT ansatz, theta of shape (D+1, n)."""
    depth, nq = theta.shape[0] - 1, theta.shape[1]
    eye, p0, p1 = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cnots = []
    for q in range(nq - 1):
        keep = [eye] * nq
        keep[q] = p0
        flip = [eye] * nq
        flip[q], flip[q + 1] = p1, x
        cnots.append(_kron_all(keep) + _kron_all(flip))
    U = _kron_all(_ry(a) for a in theta[0])
    for d in range(1, depth + 1):
        for gate in cnots:
            U = gate @ U
        U = _kron_all(_ry(a) for a in theta[d]) @ U
    return U


def hermitized_cost(A: np.ndarray, b: np.ndarray, theta: np.ndarray) -> float:
    """1 - <rhs|op|x>^2 / |op x|^2 on the [[0, A], [A^T, 0]] embedding."""
    n = len(A)
    op = np.zeros((2 * n, 2 * n))
    op[:n, n:] = A
    op[n:, :n] = A.T
    rhs = np.zeros(2 * n)
    rhs[:n] = b / np.linalg.norm(b)
    y = op @ (circuit_matrix(theta) @ rhs)
    return 1.0 - float(rhs @ y) ** 2 / float(y @ y)


# ---------------------------------------------------------------------------
# deep


def _sweep_stats(values: list[float]):
    k = len(values)
    mean = sum(values) / k
    sem = math.sqrt(sum((v - mean) ** 2 for v in values) / (k - 1) / k) if k > 1 else 0.0
    s = sorted(values)
    median = s[k // 2] if k % 2 else (s[k // 2 - 1] + s[k // 2]) / 2
    return mean, sem, median


def sampled_cell(config: dict, bench_seed: int) -> tuple[int, int]:
    """(requested seed, depth) of the deep cell retrained for the circuit check."""
    seeds = config["seeds"]
    return seeds[bench_seed % len(seeds)], max(config["depths"])


def check_deep(out: Path, config: dict, bench_seed: int) -> list[str]:
    errors = []
    raw = read_csv(out / "sweep_raw.csv")
    arms = ("plain", "precond")
    costs = {}
    for row in raw:
        for arm in arms:
            c = float(row[f"final_cost_{arm}"])
            costs[(int(row["depth"]), int(row["seed"]), arm)] = c
            if not _cost_in_range(c):
                errors.append(f"sweep_raw: {arm} cost {c!r} at {row} not in [0, 1]")
    expected_cells = {(d, s) for d in config["depths"] for s in config["seeds"]}
    if {(d, s) for d, s, _ in costs} != expected_cells:
        errors.append("sweep_raw: cells differ from the configured seed x depth grid")
        return errors

    for row in read_csv(out / "sweep.csv"):
        depth = int(row["depth"])
        if int(row["n_seeds"]) != len(config["seeds"]):
            errors.append(f"sweep: n_seeds {row['n_seeds']} at depth {depth}")
        for arm in arms:
            mean, sem, median = _sweep_stats([costs[(depth, s, arm)] for s in config["seeds"]])
            reported = (float(row[f"mean_cost_{arm}"]),
                        float(row["sem_plain" if arm == "plain" else "sem_precond"]),
                        float(row[f"median_cost_{arm}"]))
            for what, mine, theirs in zip(("mean", "sem", "median"), (mean, sem, median), reported):
                if abs(mine - theirs) > STATS_TOL * max(abs(mine), 1e-3):
                    errors.append(f"sweep: {arm} {what} at depth {depth}: "
                                  f"reported {theirs!r}, recomputed {mine!r}")

    errors += _check_deep_cell(out, config, bench_seed, costs)
    return errors


def _check_deep_cell(out: Path, config: dict, bench_seed: int, costs: dict) -> list[str]:
    from vqls_precond.embedding import build_system
    from vqls_precond.experiments import ExperimentConfig, generate_instance
    from vqls_precond.ilu import preconditioned_system
    from vqls_precond.vqls import train

    seed, depth = sampled_cell(config, bench_seed)
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = ExperimentConfig.from_dict(manifest["config"])
    A, b, factors, status = generate_instance(cfg, seed)
    systems = {"plain": (A.to_dense(), b), "precond": preconditioned_system(A, b, factors)}

    A_ref, mask, b_ref = regenerate_instance(config["n"], config["density"], status.used,
                                             config.get("diag_offset", 3.0))
    refs = {"plain": (A_ref, b_ref), "precond": dense_preconditioned(A_ref, mask, b_ref)}

    errors = []
    for arm, (A_arm, b_arm) in systems.items():
        vqls_cfg = replace(cfg.vqls, seed=status.used, depth=depth,
                           preconditioned=arm == "precond")
        theta = train(build_system(A_arm, b_arm, vqls_cfg.mode), vqls_cfg).params.theta
        mine = hermitized_cost(*refs[arm], theta)
        reported = costs[(depth, seed, arm)]
        if not abs(mine - reported) <= COST_TOL:
            errors.append(f"deep cell (seed {seed}, depth {depth}, {arm}): dense-circuit "
                          f"cost {mine!r} vs reported {reported!r}")
    return errors


# ---------------------------------------------------------------------------
# heat


def _rel_err(v: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(v - ref) / np.linalg.norm(ref))


def check_heat(out: Path, config: dict, bench_seed: int) -> list[str]:
    errors = []
    n, f, L = config["n"], config["heat_rate"], config["rod_length"]
    pos = np.arange(1, n + 1) * (L / (n + 1))
    parabola = f * pos * (L - pos) / 2.0
    rows = read_csv(out / "solution.csv")
    if len(rows) != n:
        return [f"solution.csv has {len(rows)} rows, expected {n}"]
    x_exact = np.array([float(r["x_exact"]) for r in rows])
    x_pre = np.array([float(r["x_vqls_precond"]) for r in rows])
    err = _rel_err(x_exact, parabola)
    if not err <= PARABOLA_EXACT_TOL:
        errors.append(f"heat: x_exact off the parabola by {err:.3e} relative")
    err = _rel_err(x_pre, parabola)
    if not err <= PARABOLA_VQLS_TOL:
        errors.append(f"heat: preconditioned solution off the parabola by {err:.3e} relative")
    for arm in ("plain", "precond"):
        c = float(read_csv(out / f"trace_{arm}.csv")[-1]["cost"])
        if not _cost_in_range(c):
            errors.append(f"heat: final {arm} cost {c!r} not in [0, 1]")
    return errors


# ---------------------------------------------------------------------------
# spectrum


def check_spectrum(out: Path, config: dict, bench_seed: int) -> list[str]:
    errors = []
    manifest = json.loads((out / "manifest.json").read_text())
    requested = [s["requested"] for s in manifest["seeds"]]
    if requested != config["seeds"]:
        errors.append("spectrum: manifest seeds differ from the configured seeds")
    rows = read_csv(out / "condition.csv")
    used = [s["used"] for s in manifest["seeds"]]
    if [int(r["seed"]) for r in rows] != used:
        return errors + ["spectrum: condition.csv seeds differ from the manifest lineage"]
    for row in rows:
        seed = int(row["seed"])
        A, mask, b = regenerate_instance(config["n"], config["density"], seed,
                                         config.get("diag_offset", 3.0))
        A_tilde, _ = dense_preconditioned(A, mask, b)
        for col, M, tol in (("cond_plain", A, COND_PLAIN_TOL),
                            ("cond_precond", A_tilde, COND_PRECOND_TOL)):
            mine, theirs = float(np.linalg.cond(M)), float(row[col])
            if not _close(mine, theirs, tol):
                errors.append(f"spectrum seed {seed}: {col} {theirs!r}, recomputed {mine!r}")
    return errors


CHECKS = {"sweep_depth": check_deep, "heat": check_heat, "spectrum": check_spectrum}


def check(out: Path, config: dict, bench_seed: int) -> list[str]:
    """Run the checks of the workload whose outputs sit in ``out``."""
    try:
        return CHECKS[config["kind"]](out, config, bench_seed)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{config['kind']}: outputs unreadable: {exc!r}"]
