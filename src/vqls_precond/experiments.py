"""Experiment harness: the four result-set pipelines behind the CLI.

Each command regenerates one result set as plot-ready CSV plus a JSON
manifest recording the config snapshot, per-seed status (including zero
pivot skips and their replacement lineage) and the emitted files. Outputs
are deterministic per config; files are written atomically.

Every command compares the same named arms of each instance: ``plain``
(A, b) and ``precond`` (M^-1 A, M^-1 b). ``_arms`` builds that list once
per instance, and every command iterates it to train, to take spectra and
to lay out its CSV columns; ``--no-precond`` drops the ``precond`` arm
there. Cells run serially, depth-major, in config order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import StateVector, prepare_state
from .dense import condition_number, lu_solve, singular_values
from .embedding import build_system, extract_solution
from .ilu import IluFactors, ZeroPivotError, ilu0, preconditioned_system
from .sparse import (CsrMatrix, check_random_sparse, poisson_1d, random_rhs, random_sparse,
                     save_matrix_market)
from .vqls import TrainResult, VqlsConfig, residuals, train, write_trace_csv

DEFAULT_SEEDS = list(range(1, 11))   # the 10 committed paper-scale seeds
CI_SEEDS = [1, 2, 3]                 # reduced profile for minutes-scale runs

MAX_SKIP_ATTEMPTS = 100


@dataclass
class ExperimentConfig:
    """Run configuration; every default matches the reference protocol.

    An empty JSON config therefore reproduces the paper-scale experiment:
    128 x 128 random sparse instances of density 0.2, depths 1..20 and the
    10 committed seeds.
    """

    kind: str = "solve"
    n: int = 128
    density: float = 0.2
    diag_offset: float = 3.0
    seeds: list = field(default_factory=lambda: list(DEFAULT_SEEDS))
    depths: list = field(default_factory=lambda: list(range(1, 21)))
    vqls: VqlsConfig = field(default_factory=VqlsConfig)
    output_dir: str = "results"
    instance: str = "random"      # or "identity" (smoke tests)
    heat_rate: float = 1.0        # uniform source strength f (heat runs)
    rod_length: float = 1.0       # rod length L (heat runs)
    no_precond: bool = False
    dump_matrix: bool = False

    def __post_init__(self):
        if self.kind not in ("solve", "sweep_depth", "spectrum", "heat"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.instance not in ("random", "identity"):
            raise ValueError(f"unknown instance kind {self.instance!r}")
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not self.seeds or not all(_is_int(s) for s in self.seeds):
            raise ValueError("seeds must be a non-empty list of integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.kind == "sweep_depth" and len(self.seeds) < 2:
            raise ValueError("the depth sweep needs at least 2 seeds")
        if not self.depths or not all(_is_int(d) and d >= 0 for d in self.depths):
            raise ValueError(f"depths must be a non-empty list of integers >= 0, "
                             f"got {self.depths}")
        if self.instance == "random" and self.kind != "heat":
            check_random_sparse(self.n, self.density, self.diag_offset)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "vqls" in data and isinstance(data["vqls"], dict):
            vqls_known = {f.name for f in dataclasses.fields(VqlsConfig)}
            vqls_unknown = set(data["vqls"]) - vqls_known
            if vqls_unknown:
                raise ValueError(f"unknown vqls config keys: {sorted(vqls_unknown)}")
            data["vqls"] = VqlsConfig(**data["vqls"])
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return out


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def ci_profile(kind: str) -> ExperimentConfig:
    """Reduced profile: 3 seeds, depths {2, 6, 10}, 2,000 iterations."""
    cfg = ExperimentConfig(kind=kind, seeds=list(CI_SEEDS), depths=[2, 6, 10],
                           vqls=VqlsConfig(depth=6, iterations=2000))
    return _apply_kind_defaults(cfg)


def paper_profile(kind: str) -> ExperimentConfig:
    """Full protocol: 10 seeds, depths 1..20, 10,000 iterations, depth 20."""
    cfg = ExperimentConfig(kind=kind)
    return _apply_kind_defaults(cfg)


def _apply_kind_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    # The heat system is symmetric and its preconditioned right-hand side is
    # already proportional to the solution, so it runs without the ancilla
    # block, and a single rotation layer (depth 0, no entangler block)
    # suffices: any entangler at zero angles would scramble the warm start.
    if cfg.kind == "heat":
        cfg = replace(cfg, vqls=replace(cfg.vqls, mode="direct", depth=0,
                                        iterations=2000))
    return cfg


# ---------------------------------------------------------------------------
# instance generation with zero-pivot skip logic


class NoFactorableInstanceError(RuntimeError):
    """Every draw within MAX_SKIP_ATTEMPTS seeds hit a zero pivot."""


@dataclass
class SeedStatus:
    requested: int
    used: int
    skipped_zero_pivot: list


def generate_instance(cfg: ExperimentConfig, seed: int):
    """Draw (A, b) and factor A, advancing the seed past zero-pivot draws.

    Returns (A, b, factors, status); a skipped seed never enters any
    averaged statistic, and the manifest keeps the replacement lineage.
    """
    skipped = []
    s = seed
    for _ in range(MAX_SKIP_ATTEMPTS):
        if cfg.instance == "identity":
            A = CsrMatrix.identity(cfg.n)
        else:
            A = random_sparse(cfg.n, cfg.density, s, cfg.diag_offset)
        b = random_rhs(cfg.n, s)
        try:
            factors = ilu0(A)
        except ZeroPivotError:
            skipped.append(s)
            s += 1
            continue
        return A, b, factors, SeedStatus(requested=seed, used=s, skipped_zero_pivot=skipped)
    raise NoFactorableInstanceError(
        f"no factorable instance within {MAX_SKIP_ATTEMPTS} draws from seed {seed}")


# ---------------------------------------------------------------------------
# arms: the systems every command compares on one instance


def _arms(A: CsrMatrix, b: np.ndarray, factors: IluFactors, cfg: ExperimentConfig) -> dict:
    """The named dense systems of one instance: plain (A, b), then ILU(0)-preconditioned.

    Every command iterates this dict, so its order fixes the column order of
    every output; ``no_precond`` drops the preconditioned arm here only.
    """
    arms = {"plain": (A.to_dense(), b)}
    if not cfg.no_precond:
        arms["precond"] = preconditioned_system(A, b, factors)
    return arms


def _train_arm(system: tuple, vqls_cfg: VqlsConfig) -> tuple:
    """Embed one arm's (A, b) and train on it; returns (QuantumSystem, TrainResult)."""
    sys = build_system(*system, vqls_cfg.mode)
    return sys, train(sys, vqls_cfg)


@dataclass
class ArmResult:
    result: TrainResult
    x_final: np.ndarray   # unit norm
    x_best: np.ndarray    # unit norm, minimum-cost iterate


def solve_instance(A: CsrMatrix, b: np.ndarray, factors: IluFactors,
                   cfg: ExperimentConfig, seed: int) -> tuple:
    """Train every arm on one instance; returns (x_exact, {arm name: ArmResult})."""
    vqls_cfg = replace(cfg.vqls, seed=seed)
    arms = _arms(A, b, factors, cfg)
    x_exact = lu_solve(arms["plain"][0], b)
    results = {}
    for name, system in arms.items():
        sys, result = _train_arm(system, vqls_cfg)
        results[name] = ArmResult(result=result,
                                  x_final=_unit_solution(sys, result.params, A.n),
                                  x_best=_unit_solution(sys, result.best_params, A.n))
    return x_exact, results


def _unit_solution(sys, params, original_n: int) -> np.ndarray:
    state = prepare_state(params, StateVector(sys.n_qubits, sys.rhs_state))
    return extract_solution(state.amps, sys, original_n)


# ---------------------------------------------------------------------------
# output helpers


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def mean_sem(values) -> tuple:
    """(mean, standard error of the mean); SEM is 0 for a single value."""
    values = list(values)
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, statistics.stdev(values) / len(values) ** 0.5


def _aligned(x_unit: np.ndarray, x_exact: np.ndarray) -> np.ndarray:
    s = float(x_unit @ x_exact) / float(x_unit @ x_unit)
    return s * x_unit


def _write_manifest(out: Path, cfg: ExperimentConfig, statuses: list,
                    artifacts: list) -> None:
    manifest = {
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "seeds": [dataclasses.asdict(s) for s in statuses],
        "artifacts": sorted(artifacts),
    }
    _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: ExperimentConfig) -> list:
    """One instance, every arm: traces, solutions and residuals (Fig. 2 data)."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    A, b, factors, status = generate_instance(cfg, cfg.seeds[0])
    x_exact, arms = solve_instance(A, b, factors, cfg, status.used)
    return _emit_solve_outputs(out, cfg, A, x_exact, arms, [status])


def _emit_solve_outputs(out: Path, cfg: ExperimentConfig, A: CsrMatrix,
                        x_exact: np.ndarray, arms: dict, statuses: list,
                        extra_artifacts: list | None = None) -> list:
    artifacts = list(extra_artifacts or [])
    for name, arm in arms.items():
        write_trace_csv(arm.result.trace, out / f"trace_{name}.csv")
        artifacts.append(f"trace_{name}.csv")

    for fname, pick in (("solution.csv", lambda a: a.x_final),
                        ("solution_best.csv", lambda a: a.x_best)):
        header = ["index", "x_exact"] + [f"x_vqls_{name}" for name in arms]
        cols = [_aligned(pick(arm), x_exact) for arm in arms.values()]
        rows = [[i, float(x_exact[i])] + [float(c[i]) for c in cols]
                for i in range(A.n)]
        _write_csv(out / fname, header, rows)
        artifacts.append(fname)

    header = ["index"] + [f"residual_{name}" for name in arms]
    res = [residuals(arm.x_final, x_exact) for arm in arms.values()]
    rows = [[i] + [float(r[i]) for r in res] for i in range(A.n)]
    _write_csv(out / "residuals.csv", header, rows)
    artifacts.append("residuals.csv")

    if cfg.dump_matrix:
        save_matrix_market(A, out / "instance.mtx")
        artifacts.append("instance.mtx")
    _write_manifest(out, cfg, statuses, artifacts)
    return artifacts + ["manifest.json"]


def cmd_sweep_depth(cfg: ExperimentConfig) -> list:
    """Final cost vs depth, averaged over seeds (Fig. 3(a) data)."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    instances, statuses = [], []
    for seed in cfg.seeds:
        A, b, factors, status = generate_instance(cfg, seed)
        instances.append(_arms(A, b, factors, cfg))
        statuses.append(status)
    names = list(instances[0])

    # One row per (depth, seed) cell, depth-major: the rows of one depth are
    # consecutive, which the aggregates below rely on.
    raw_rows = []
    for depth in cfg.depths:
        for status, arms in zip(statuses, instances):
            vqls_cfg = replace(cfg.vqls, seed=status.used, depth=depth)
            raw_rows.append([depth, status.requested]
                            + [_train_arm(system, vqls_cfg)[1].final_cost
                               for system in arms.values()])
    _write_csv(out / "sweep_raw.csv",
               ["depth", "seed"] + [f"final_cost_{name}" for name in names], raw_rows)

    n_seeds = len(cfg.seeds)
    rows = []
    for i, depth in enumerate(cfg.depths):
        # costs[j]: arm j's final costs over the seeds at this depth
        costs = list(zip(*(row[2:] for row in raw_rows[i * n_seeds:(i + 1) * n_seeds])))
        rows.append([depth] + [v for arm_costs in costs for v in mean_sem(arm_costs)]
                    + [n_seeds] + [statistics.median(arm_costs) for arm_costs in costs])
    header = (["depth"]
              + [col for name in names for col in (f"mean_cost_{name}", f"sem_{name}")]
              + ["n_seeds"] + [f"median_cost_{name}" for name in names])
    _write_csv(out / "sweep.csv", header, rows)

    artifacts = ["sweep.csv", "sweep_raw.csv"]
    _write_manifest(out, cfg, statuses, artifacts)
    return artifacts + ["manifest.json"]


def cmd_spectrum(cfg: ExperimentConfig) -> list:
    """Singular-value spectra and condition numbers, per arm (Fig. 3(b) data)."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    statuses = []
    sigma, cond = {}, {}      # arm name -> one entry per seed
    for seed in cfg.seeds:
        A, b, factors, status = generate_instance(cfg, seed)
        statuses.append(status)
        for name, (M, _) in _arms(A, b, factors, cfg).items():
            sigma.setdefault(name, []).append(singular_values(M))
            cond.setdefault(name, []).append(float(condition_number(M)))
    seeds = [status.used for status in statuses]

    raw_rows = [[seed, rank] + [float(sigma[name][i][rank]) for name in sigma]
                for i, seed in enumerate(seeds) for rank in range(cfg.n)]
    _write_csv(out / "spectrum_raw.csv",
               ["seed", "rank"] + [f"sigma_{name}" for name in sigma], raw_rows)

    # Raw and sigma_i / sigma_max spectra, averaged rank-by-rank across seeds.
    groups = {f"sigma_{name}": s for name, s in sigma.items()}
    groups.update({f"sigma_norm_{name}": [v / v[0] for v in s] for name, s in sigma.items()})
    rows = [[rank] + [v for group in groups.values()
                      for v in mean_sem([float(s[rank]) for s in group])]
            for rank in range(cfg.n)]
    _write_csv(out / "spectrum.csv",
               ["rank"] + [f"{stat}_{g}" for g in groups for stat in ("mean", "sem")], rows)

    _write_csv(out / "condition.csv", ["seed"] + [f"cond_{name}" for name in cond],
               [[seed] + [cond[name][i] for name in cond] for i, seed in enumerate(seeds)])

    artifacts = ["spectrum.csv", "spectrum_raw.csv", "condition.csv"]
    _write_manifest(out, cfg, statuses, artifacts)
    return artifacts + ["manifest.json"]


def cmd_heat(cfg: ExperimentConfig) -> list:
    """Steady-state heat diffusion pipeline (Fig. 4 data).

    The tridiagonal pattern admits no fill, so the incomplete factorization
    is the exact one and the preconditioned arm starts at (numerically) the
    solution state.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    A, b = poisson_1d(cfg.n, cfg.heat_rate, cfg.rod_length)
    factors = ilu0(A)
    seed = cfg.seeds[0]
    status = SeedStatus(requested=seed, used=seed, skipped_zero_pivot=[])
    x_exact, arms = solve_instance(A, b, factors, cfg, seed)

    dh = cfg.rod_length / (cfg.n + 1)
    rows = []
    for i in range(cfg.n):
        x_pos = (i + 1) * dh
        u = cfg.heat_rate * x_pos * (cfg.rod_length - x_pos) / 2.0
        rows.append([i, float(x_pos), float(u)])
    _write_csv(out / "parabola.csv", ["index", "position", "u_exact"], rows)

    return _emit_solve_outputs(out, cfg, A, x_exact, arms, [status],
                               extra_artifacts=["parabola.csv"])


COMMANDS = {
    "solve": cmd_solve,
    "sweep_depth": cmd_sweep_depth,
    "spectrum": cmd_spectrum,
    "heat": cmd_heat,
}


def run(cfg: ExperimentConfig) -> list:
    return COMMANDS[cfg.kind](cfg)
