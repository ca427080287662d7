"""Experiment harness: the four result-set pipelines behind the CLI.

Each command regenerates one result set as plot-ready CSV in the output
directory that ``run`` makes, and returns its per-seed status (including
zero pivot skips and their replacement lineage) and the files it wrote;
``run`` then writes the JSON manifest of the config snapshot, the statuses
and the emitted files. This is the one module that writes files, every one
through ``_write_atomic``. Outputs are deterministic per config.

Every command compares the same named arms of each instance: ``plain``
(A, b) and ``precond`` (M^-1 A, M^-1 b). ``_arms`` builds that list once
per instance, and every command iterates it to train, to take spectra and
to lay out its CSV columns; ``--no-precond`` drops the ``precond`` arm
there. Training is lockstep (``vqls.train``): ``sweep-depth`` embeds every
(seed, arm) system once and trains all of them together at each depth, in
config order; ``solve`` and ``heat`` train their arms together.

``load_config`` merges a run's config from dict layers: a ``PROFILES``
entry, ``HEAT_LAYER`` for heat runs, then the caller's layers (the CLI's
config file, then its flags).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import prepare_state
from .dense import condition_number, lu_solve, singular_values
from .embedding import build_system, extract_solution, is_normal_float
from .ilu import IluFactors, ZeroPivotError, ilu0, preconditioned_system
from .sparse import (CsrMatrix, check_random_sparse, format_matrix_market, poisson_1d,
                     random_rhs, random_sparse)
from .vqls import TrainResult, VqlsConfig, aligned, check_field_types, residuals, train

DEFAULT_SEEDS = list(range(1, 11))   # the 10 committed paper-scale seeds

MAX_SKIP_ATTEMPTS = 100

# Largest system size a config may ask for. Every arm is held as dense n x n
# arrays, factored, solved and SVD'd densely (O(n^3)), and embedded in a dense
# operator of up to (4n)^2 entries: at 4096 one hermitized operator is already
# 8192^2 doubles, 512 MB. The bound also keeps n * n and rod_length / (n + 1)
# inside the floats.
MAX_N = 4096


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
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))
    depths: list[int] = field(default_factory=lambda: list(range(1, 21)))
    vqls: VqlsConfig = field(default_factory=VqlsConfig)
    output_dir: str = "results"
    heat_rate: float = 1.0        # uniform source strength f (heat runs)
    rod_length: float = 1.0       # rod length L (heat runs)
    no_precond: bool = False
    dump_matrix: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in COMMANDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"need 1 <= n <= {MAX_N}, got n {self.n}")
        if min(self.seeds, default=-1) < 0 or min(self.depths, default=-1) < 0:
            raise ValueError(f"need non-empty seeds and depths >= 0, got seeds {self.seeds}, "
                             f"depths {self.depths}")
        for name, values in (("seeds", self.seeds), ("depths", self.depths)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        if self.kind == "sweep_depth" and len(self.seeds) < 2:
            raise ValueError("the depth sweep needs at least 2 seeds")
        if self.kind != "heat":
            check_random_sparse(self.n, self.density)
            return
        if self.rod_length <= 0:
            raise ValueError(f"rod_length must be positive, got {self.rod_length}")
        # The plain arm's right-hand side is n copies of b = f h^2, the preconditioned one
        # the solution b i (n+1-i) / 2, so every entry lies in [b/2, b (n+1)^2 / 4]. The
        # embedding squares them to normalize: both squared norms must be normal floats.
        h = self.rod_length / (self.n + 1)
        low = abs(self.heat_rate) * h * h / 2
        high = low * (self.n + 1) * (self.n + 1) / 2
        if not (is_normal_float(self.n * low * low) and is_normal_float(self.n * high * high)):
            raise ValueError(f"heat_rate {self.heat_rate} and rod_length {self.rod_length} give "
                             f"a right-hand side that cannot be normalized at n {self.n}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        vqls = data.get("vqls")
        for owner, keys in ((cls, data), (VqlsConfig, vqls if isinstance(vqls, dict) else {})):
            unknown = set(keys) - {f.name for f in dataclasses.fields(owner)}
            if unknown:
                raise ValueError(f"unknown {owner.__name__} keys: {sorted(unknown)}")
        return cls(**({**data, "vqls": VqlsConfig(**vqls)} if isinstance(vqls, dict) else data))


# Base layers: ``paper`` is the full protocol (the defaults), ``ci`` a minutes-scale run.
PROFILES = {"paper": {}, "ci": {"seeds": [1, 2, 3], "depths": [2, 6, 10],
                                "vqls": {"depth": 6, "iterations": 2000}}}

# The heat system is symmetric and its preconditioned right-hand side is
# already proportional to the solution, so it runs without the ancilla
# block, and a single rotation layer (depth 0, no entangler block)
# suffices: any entangler at zero angles would scramble the warm start.
HEAT_LAYER = {"vqls": {"mode": "direct", "depth": 0, "iterations": 2000}}


def load_config(kind: str, profile: str = "paper", *layers) -> ExperimentConfig:
    """The profile, ``HEAT_LAYER`` (heat runs only), then ``layers``, merged in order.

    A layer's keys replace fields and its ``vqls`` dict replaces solver fields key by key.
    """
    merged = {"kind": kind, "vqls": {}}
    for layer in (PROFILES[profile], HEAT_LAYER if kind == "heat" else {}, *layers):
        if not isinstance(layer, dict) or not isinstance(layer.get("vqls", {}), dict):
            raise ValueError(f"a config layer and its 'vqls' must be objects, got {layer!r}")
        merged.update({**layer, "vqls": {**merged["vqls"], **layer.get("vqls", {})}})
    if merged["kind"] != kind:
        raise ValueError(f"config kind {merged['kind']!r} does not match {kind!r}")
    return ExperimentConfig.from_dict(copy.deepcopy(merged))


# ---------------------------------------------------------------------------
# instance generation with zero-pivot skip logic


class NoFactorableInstanceError(RuntimeError):
    """Every draw within MAX_SKIP_ATTEMPTS seeds hit a zero pivot."""


class OutputDirError(OSError):
    """The output directory could not be created; nothing was written."""


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
        A = random_sparse(cfg.n, cfg.density, s)
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


def _embedded_arms(A: CsrMatrix, b: np.ndarray, factors: IluFactors,
                   cfg: ExperimentConfig) -> dict:
    """{arm name: QuantumSystem}: ``_arms`` embedded per cfg.vqls.mode.

    The dense arm copies are dropped once embedded.
    """
    return {name: build_system(*system, cfg.vqls.mode)
            for name, system in _arms(A, b, factors, cfg).items()}


@dataclass
class ArmResult:
    result: TrainResult
    x_final: np.ndarray   # unit norm
    x_best: np.ndarray    # unit norm, minimum-cost iterate


def solve_instance(A: CsrMatrix, b: np.ndarray, factors: IluFactors,
                   cfg: ExperimentConfig, seed: int) -> tuple:
    """Train every arm on one instance; returns (x_exact, {arm name: ArmResult})."""
    x_exact = lu_solve(A.to_dense(), b)
    systems = _embedded_arms(A, b, factors, cfg)
    trained = train(list(systems.values()), cfg.vqls, [seed] * len(systems),
                    [f"seed {seed}, arm {name}" for name in systems])
    return x_exact, {name: ArmResult(result=result,
                                     x_final=_unit_solution(sys, result.params, A.n),
                                     x_best=_unit_solution(sys, result.best_params, A.n))
                     for (name, sys), result in zip(systems.items(), trained)}


def _unit_solution(sys, params, original_n: int) -> np.ndarray:
    return extract_solution(prepare_state(params, sys.rhs_state), sys, original_n)


# ---------------------------------------------------------------------------
# output helpers


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then move it over ``path``.

    An existing file is never left half-written, and a failed write or
    replace removes the temporary file before the error propagates.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def write_trace_csv(result: TrainResult, path: Path) -> None:
    """Trace export with the canonical header iteration,cost,grad_norm,elapsed_s."""
    lines = ["iteration,cost,grad_norm,elapsed_s"]
    rows = zip(result.costs.tolist(), result.grad_norms.tolist(), result.elapsed.tolist())
    lines += [f"{it},{cost!r},{norm!r},{t:.6f}" for it, (cost, norm, t) in enumerate(rows)]
    _write_atomic(path, "\n".join(lines) + "\n")


def mean_sem(values) -> tuple:
    """(mean, standard error of the mean); SEM is 0 for a single value."""
    values = list(values)
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, statistics.stdev(values) / len(values) ** 0.5


def _write_manifest(out: Path, cfg: ExperimentConfig, statuses: list,
                    artifacts: list) -> None:
    manifest = {
        "tool_version": __version__,
        "config": dataclasses.asdict(cfg),
        "seeds": [dataclasses.asdict(s) for s in statuses],
        "artifacts": sorted(artifacts),
    }
    _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: ExperimentConfig, out: Path) -> tuple:
    """One instance, every arm: traces, solutions and residuals (Fig. 2 data)."""
    A, b, factors, status = generate_instance(cfg, cfg.seeds[0])
    x_exact, arms = solve_instance(A, b, factors, cfg, status.used)
    return [status], _emit_solve_outputs(out, cfg, A, x_exact, arms)


def _emit_solve_outputs(out: Path, cfg: ExperimentConfig, A: CsrMatrix,
                        x_exact: np.ndarray, arms: dict) -> list:
    artifacts = []
    for name, arm in arms.items():
        write_trace_csv(arm.result, out / f"trace_{name}.csv")
        artifacts.append(f"trace_{name}.csv")

    for fname, pick in (("solution.csv", lambda a: a.x_final),
                        ("solution_best.csv", lambda a: a.x_best)):
        header = ["index", "x_exact"] + [f"x_vqls_{name}" for name in arms]
        cols = [aligned(pick(arm), x_exact) for arm in arms.values()]
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
        _write_atomic(out / "instance.mtx", format_matrix_market(A))
        artifacts.append("instance.mtx")
    return artifacts


def cmd_sweep_depth(cfg: ExperimentConfig, out: Path) -> tuple:
    """Final cost vs depth, averaged over seeds (Fig. 3(a) data)."""
    statuses, instances = [], []     # instances: {arm name: QuantumSystem} per seed
    for seed in cfg.seeds:
        A, b, factors, status = generate_instance(cfg, seed)
        statuses.append(status)
        instances.append(_embedded_arms(A, b, factors, cfg))
    names = list(instances[0])
    # One lockstep column per (seed, arm), seed-major.
    systems = [sys for arms in instances for sys in arms.values()]
    seeds = [status.used for status in statuses for _ in names]
    labels = [f"seed {status.used}, arm {name}" for status in statuses for name in names]

    # One row per (depth, seed) cell, depth-major: the rows of one depth are
    # consecutive, which the aggregates below rely on.
    raw_rows = []
    for depth in cfg.depths:
        trained = train(systems, replace(cfg.vqls, depth=depth), seeds, labels)
        costs = [result.final_cost for result in trained]
        k = len(names)
        raw_rows += [[depth, status.requested] + costs[i * k:(i + 1) * k]
                     for i, status in enumerate(statuses)]
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
    return statuses, ["sweep.csv", "sweep_raw.csv"]


def cmd_spectrum(cfg: ExperimentConfig, out: Path) -> tuple:
    """Singular-value spectra and condition numbers, per arm (Fig. 3(b) data)."""
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
    return statuses, ["spectrum.csv", "spectrum_raw.csv", "condition.csv"]


def cmd_heat(cfg: ExperimentConfig, out: Path) -> tuple:
    """Steady-state heat diffusion pipeline (Fig. 4 data).

    The tridiagonal pattern admits no fill, so the incomplete factorization
    is the exact one and the preconditioned arm starts at (numerically) the
    solution state.
    """
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

    return [status], ["parabola.csv"] + _emit_solve_outputs(out, cfg, A, x_exact, arms)


COMMANDS = {
    "solve": cmd_solve,
    "sweep_depth": cmd_sweep_depth,
    "spectrum": cmd_spectrum,
    "heat": cmd_heat,
}


def run(cfg: ExperimentConfig) -> list:
    """Run cfg's command into cfg.output_dir; returns the files written, manifest last.

    The command writes its outputs into the directory and returns
    (seed statuses, file names); the manifest then records both. Raises
    OutputDirError if the directory cannot be created.
    """
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirError(f"cannot create output directory {out}: {exc.strerror}") from exc
    statuses, artifacts = COMMANDS[cfg.kind](cfg, out)
    _write_manifest(out, cfg, statuses, artifacts)
    return artifacts + ["manifest.json"]
