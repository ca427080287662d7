"""Experiment harness: the four result-set pipelines behind the CLI.

Each command regenerates one result set as plot-ready CSV plus a JSON
manifest recording the config snapshot, per-seed status (including zero
pivot skips and their replacement lineage) and the emitted files. Outputs
are deterministic per config; files are written atomically.

The seed x depth x arm grid runs on a small task pool capped by the
VQLS_THREADS environment variable (default 1, i.e. serial).
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import StateVector, prepare_state
from .dense import condition_number, lu_solve, singular_values
from .embedding import build_system, extract_solution
from .ilu import IluFactors, ZeroPivotError, ilu0, preconditioned_system
from .sparse import CsrMatrix, poisson_1d, random_rhs, random_sparse, save_matrix_market
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
        if not self.seeds:
            raise ValueError("at least one seed is required")

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
# single-instance solve pipeline (shared by the solve and heat commands)


@dataclass
class ArmResult:
    result: TrainResult
    x_final: np.ndarray   # unit norm
    x_best: np.ndarray    # unit norm, minimum-cost iterate


@dataclass
class SolveOutcome:
    x_exact: np.ndarray
    plain: ArmResult
    precond: ArmResult | None


def _run_arm(A_dense: np.ndarray, b: np.ndarray, vqls_cfg: VqlsConfig,
             original_n: int) -> ArmResult:
    sys = build_system(A_dense, b, vqls_cfg.mode)
    result = train(sys, vqls_cfg)
    x_final = prepare_state(result.params, StateVector(sys.n_qubits, sys.rhs_state.copy()))
    x_best = prepare_state(result.best_params, StateVector(sys.n_qubits, sys.rhs_state.copy()))
    return ArmResult(result=result,
                     x_final=extract_solution(x_final.amps, sys, original_n),
                     x_best=extract_solution(x_best.amps, sys, original_n))


def solve_instance(A: CsrMatrix, b: np.ndarray, factors: IluFactors,
                   cfg: ExperimentConfig, seed: int,
                   depth: int | None = None) -> SolveOutcome:
    """Train the plain and preconditioned arms on one instance."""
    vqls_cfg = replace(cfg.vqls, seed=seed,
                       **({"depth": depth} if depth is not None else {}))
    A_dense = A.to_dense()
    x_exact = lu_solve(A_dense, b)
    plain = _run_arm(A_dense, b, replace(vqls_cfg, preconditioned=False), A.n)
    precond = None
    if not cfg.no_precond:
        A_tilde, b_tilde = preconditioned_system(A, b, factors)
        precond = _run_arm(A_tilde, b_tilde, replace(vqls_cfg, preconditioned=True), A.n)
    return SolveOutcome(x_exact=x_exact, plain=plain, precond=precond)


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


def _task_pool_size() -> int:
    try:
        return max(1, int(os.environ.get("VQLS_THREADS", "1")))
    except ValueError:
        return 1


def _run_grid(keys, fn):
    """Evaluate fn over the keys, optionally on a thread pool; order-stable."""
    workers = _task_pool_size()
    if workers == 1:
        return {key: fn(key) for key in keys}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        values = list(pool.map(fn, keys))
    return dict(zip(keys, values))


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: ExperimentConfig) -> list:
    """One instance, both arms: traces, solutions and residuals (Fig. 2 data)."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    A, b, factors, status = generate_instance(cfg, cfg.seeds[0])
    outcome = solve_instance(A, b, factors, cfg, status.used)
    return _emit_solve_outputs(out, cfg, A, outcome, [status])


def _emit_solve_outputs(out: Path, cfg: ExperimentConfig, A: CsrMatrix,
                        outcome: SolveOutcome, statuses: list,
                        extra_artifacts: list | None = None) -> list:
    artifacts = list(extra_artifacts or [])
    write_trace_csv(outcome.plain.result.trace, out / "trace_plain.csv")
    artifacts.append("trace_plain.csv")
    arms = [("plain", outcome.plain)]
    if outcome.precond is not None:
        write_trace_csv(outcome.precond.result.trace, out / "trace_precond.csv")
        artifacts.append("trace_precond.csv")
        arms.append(("precond", outcome.precond))

    x_exact = outcome.x_exact
    for fname, pick in (("solution.csv", lambda a: a.x_final),
                        ("solution_best.csv", lambda a: a.x_best)):
        header = ["index", "x_exact"] + [f"x_vqls_{name}" for name, _ in arms]
        cols = [_aligned(pick(arm), x_exact) for _, arm in arms]
        rows = [[i, float(x_exact[i])] + [float(c[i]) for c in cols]
                for i in range(A.n)]
        _write_csv(out / fname, header, rows)
        artifacts.append(fname)

    header = ["index"] + [f"residual_{name}" for name, _ in arms]
    res = [residuals(arm.x_final, x_exact) for _, arm in arms]
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
    if len(cfg.seeds) < 2:
        raise ValueError("the depth sweep needs at least 2 seeds")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    instances = {}
    statuses = []
    for seed in cfg.seeds:
        A, b, factors, status = generate_instance(cfg, seed)
        pre = None if cfg.no_precond else preconditioned_system(A, b, factors)
        instances[seed] = (A.to_dense(), b, pre)
        statuses.append(status)

    def run_cell(key):
        seed, depth = key
        A_dense, b, pre = instances[seed]
        status = next(s for s in statuses if s.requested == seed)
        vqls_cfg = replace(cfg.vqls, seed=status.used, depth=depth)
        cell = {}
        sys_plain = build_system(A_dense, b, vqls_cfg.mode)
        cell["plain"] = train(sys_plain, replace(vqls_cfg, preconditioned=False)).final_cost
        if pre is not None:
            sys_pre = build_system(pre[0], pre[1], vqls_cfg.mode)
            cell["precond"] = train(sys_pre, replace(vqls_cfg, preconditioned=True)).final_cost
        return cell

    keys = [(seed, depth) for depth in cfg.depths for seed in cfg.seeds]
    cells = _run_grid(keys, run_cell)

    raw_header = ["depth", "seed", "final_cost_plain"]
    if not cfg.no_precond:
        raw_header.append("final_cost_precond")
    raw_rows = []
    for depth in cfg.depths:
        for seed in cfg.seeds:
            cell = cells[(seed, depth)]
            row = [depth, seed, cell["plain"]]
            if not cfg.no_precond:
                row.append(cell["precond"])
            raw_rows.append(row)
    _write_csv(out / "sweep_raw.csv", raw_header, raw_rows)

    header = ["depth", "mean_cost_plain", "sem_plain"]
    if not cfg.no_precond:
        header += ["mean_cost_precond", "sem_precond"]
    header += ["n_seeds", "median_cost_plain"]
    if not cfg.no_precond:
        header.append("median_cost_precond")
    rows = []
    for depth in cfg.depths:
        plain_costs = [cells[(seed, depth)]["plain"] for seed in cfg.seeds]
        mean_p, sem_p = mean_sem(plain_costs)
        row = [depth, mean_p, sem_p]
        if not cfg.no_precond:
            pre_costs = [cells[(seed, depth)]["precond"] for seed in cfg.seeds]
            mean_q, sem_q = mean_sem(pre_costs)
            row += [mean_q, sem_q]
        row += [len(cfg.seeds), statistics.median(plain_costs)]
        if not cfg.no_precond:
            row.append(statistics.median(pre_costs))
        rows.append(row)
    _write_csv(out / "sweep.csv", header, rows)

    artifacts = ["sweep.csv", "sweep_raw.csv"]
    _write_manifest(out, cfg, statuses, artifacts)
    return artifacts + ["manifest.json"]


def cmd_spectrum(cfg: ExperimentConfig) -> list:
    """Singular-value spectra and condition numbers, before/after (Fig. 3(b) data)."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    statuses = []
    sigma_plain, sigma_pre, cond_rows = [], [], []
    for seed in cfg.seeds:
        A, b, factors, status = generate_instance(cfg, seed)
        statuses.append(status)
        A_dense = A.to_dense()
        A_tilde, _ = preconditioned_system(A, b, factors)
        sp = singular_values(A_dense)
        sq = singular_values(A_tilde)
        sigma_plain.append(sp)
        sigma_pre.append(sq)
        cond_rows.append([status.used, condition_number(A_dense), condition_number(A_tilde)])

    raw_rows = []
    for status, sp, sq in zip(statuses, sigma_plain, sigma_pre):
        for rank in range(cfg.n):
            raw_rows.append([status.used, rank, float(sp[rank]), float(sq[rank])])
    _write_csv(out / "spectrum_raw.csv",
               ["seed", "rank", "sigma_plain", "sigma_precond"], raw_rows)

    # Raw and sigma_i / sigma_max spectra, averaged rank-by-rank across seeds.
    norm_plain = [sp / sp[0] for sp in sigma_plain]
    norm_pre = [sq / sq[0] for sq in sigma_pre]
    rows = []
    for rank in range(cfg.n):
        row = [rank]
        for group in (sigma_plain, sigma_pre, norm_plain, norm_pre):
            mean, sem = mean_sem([float(s[rank]) for s in group])
            row += [mean, sem]
        rows.append(row)
    _write_csv(out / "spectrum.csv",
               ["rank",
                "mean_sigma_plain", "sem_sigma_plain",
                "mean_sigma_precond", "sem_sigma_precond",
                "mean_sigma_norm_plain", "sem_sigma_norm_plain",
                "mean_sigma_norm_precond", "sem_sigma_norm_precond"],
               rows)

    _write_csv(out / "condition.csv", ["seed", "cond_plain", "cond_precond"],
               [[s, float(cp), float(cq)] for s, cp, cq in cond_rows])

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
    outcome = solve_instance(A, b, factors, cfg, seed)

    dh = cfg.rod_length / (cfg.n + 1)
    rows = []
    for i in range(cfg.n):
        x_pos = (i + 1) * dh
        u = cfg.heat_rate * x_pos * (cfg.rod_length - x_pos) / 2.0
        rows.append([i, float(x_pos), float(u)])
    _write_csv(out / "parabola.csv", ["index", "position", "u_exact"], rows)

    return _emit_solve_outputs(out, cfg, A, outcome, [status],
                               extra_artifacts=["parabola.csv"])


COMMANDS = {
    "solve": cmd_solve,
    "sweep_depth": cmd_sweep_depth,
    "spectrum": cmd_spectrum,
    "heat": cmd_heat,
}


def run(cfg: ExperimentConfig) -> list:
    return COMMANDS[cfg.kind](cfg)
