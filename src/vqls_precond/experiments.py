"""Experiment harness: the four result-set pipelines behind the CLI.

Each command regenerates one result set as plot-ready CSV in the output
directory that ``run`` makes, and returns its per-seed status (including
zero pivot skips and their replacement lineage) and the names its writers
returned; ``run`` then writes the JSON manifest of the config snapshot, the
statuses and those names. This is the one module that writes files, all
through one atomic writer (``_write_chunks``: a temporary file moved over
the target), and every writer returns the name of the file it wrote. Each
CSV is one ``{header: values}`` table of sized columns (``_write_csv``);
tables and traces stream to disk ``_CHUNK_ROWS`` rows at a time, so writing
holds one chunk of text, never a whole file. The manifest and
``instance.mtx`` are written whole (``_write_atomic``). Outputs are
deterministic per config.

Every command draws its instances from ``generate_instance`` (the heat
rod for ``heat``, random sparse systems otherwise) and compares the same
named arms of each: ``plain`` (A, b) and ``precond`` (M^-1 A, M^-1 b).
``_arms`` builds that list once per instance, and every command iterates
it to train, to take spectra and to lay out its CSV columns;
``--no-precond`` drops the ``precond`` arm there. ``_train_arms`` is the one
lockstep trainer (``vqls.train``): ``solve`` and ``heat`` train the arms of
the first seed's instance with it, and ``sweep-depth`` every (seed, arm)
column together at each depth, in config order.

Seed summaries reduce axis 0 of each ``(seeds, ...)`` array: ``mean_sem``
(within 1e-14 of exact arithmetic) and the sweep's median, the mean of the
middle pair of sorted costs as ``statistics.median`` takes it. Seeds stop at
2**63 - MAX_SKIP_ATTEMPTS, so every seed drawn, redraws included, fits int64.

``load_config`` merges a run's config from dict layers: a ``PROFILES``
entry, ``HEAT_LAYER`` for heat runs, then the caller's layers (the CLI's
config file, then its flags).
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import os
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
from .vqls import MAX_DEPTH, TrainResult, VqlsConfig, aligned, check_field_types, residuals, train

DEFAULT_SEEDS = list(range(1, 11))   # the 10 committed paper-scale seeds

MAX_SKIP_ATTEMPTS = 100

# Largest system size a config may ask for. Every arm is held as dense n x n
# arrays, factored, solved and SVD'd densely (O(n^3)), and embedded as its
# padded m x m block, m < 2n, in either mode: at 4096 one arm's block is
# already 4096^2 doubles, 128 MB. The bound also keeps n * n and
# rod_length / (n + 1) inside the floats.
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
        if max(self.depths) > MAX_DEPTH:
            raise ValueError(f"need depths <= {MAX_DEPTH}, got {max(self.depths)}")
        if max(self.seeds) > 2**63 - MAX_SKIP_ATTEMPTS:     # every redraw fits int64
            raise ValueError(f"need seeds <= 2**63 - {MAX_SKIP_ATTEMPTS}, got {max(self.seeds)}")
        for name, values in (("seeds", self.seeds), ("depths", self.depths)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        if self.kind == "sweep_depth" and len(self.seeds) < 2:
            raise ValueError("the depth sweep needs at least 2 seeds")
        if self.dump_matrix and self.kind not in ("solve", "heat"):
            raise ValueError(f"dump_matrix applies to solve and heat, not {self.kind}")
        if self.kind != "heat":
            check_random_sparse(self.n, self.density)
            return
        if self.rod_length <= 0:
            raise ValueError(f"rod_length must be positive, got {self.rod_length}")
        if self.n == 1 and self.vqls.mode == "direct":
            raise ValueError("the direct embedding of a 1-node rod has no qubits; need n >= 2")
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


# Base layers: ``paper`` is the full protocol (the defaults), ``ci`` a seconds-scale run.
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


@dataclass
class SeedStatus:
    requested: int
    used: int
    skipped_zero_pivot: list


def generate_instance(cfg: ExperimentConfig, seed: int):
    """Draw (A, b) and factor A, advancing the seed past zero-pivot draws.

    A heat config draws the rod, which is the same for every seed and always
    factors. Returns (A, b, factors, status); a skipped seed never enters
    any averaged statistic, and the manifest keeps the replacement lineage.
    """
    skipped = []
    s = seed
    for _ in range(MAX_SKIP_ATTEMPTS):
        if cfg.kind == "heat":
            A, b = poisson_1d(cfg.n, cfg.heat_rate, cfg.rod_length)
        else:
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


def _embedded_instance(cfg: ExperimentConfig, seed: int):
    """(A, b, {arm name: QuantumSystem}, status): ``generate_instance``'s arms embedded.

    The factors and the dense arm copies are dropped before this returns, so
    training never holds the dense n x n arrays.
    """
    A, b, factors, status = generate_instance(cfg, seed)
    systems = {name: build_system(*system, cfg.vqls.mode)
               for name, system in _arms(A, b, factors, cfg).items()}
    return A, b, systems, status


def _train_arms(cfg: ExperimentConfig, depth: int, instances: list) -> list:
    """[{arm name: TrainResult}] of [(status, {arm name: QuantumSystem})], trained in lockstep.

    The columns are seed-major. Each starts from its instance's used seed and
    is named "seed S, arm NAME" in a numerical failure.
    """
    columns = [(status.used, name, system)
               for status, systems in instances for name, system in systems.items()]
    trained = iter(train([system for _, _, system in columns], replace(cfg.vqls, depth=depth),
                         [seed for seed, _, _ in columns],
                         [f"seed {seed}, arm {name}" for seed, name, _ in columns]))
    return [{name: next(trained) for name in systems} for _, systems in instances]


# ---------------------------------------------------------------------------
# output helpers


# Rows a table or trace formats and writes at a time: writing holds one chunk
# of text, not the whole file.
_CHUNK_ROWS = 2048


def _write_chunks(path: Path, chunks) -> str:
    """Write the texts of ``chunks`` in order to a sibling temporary file, then move it
    over ``path``; returns the file's name.

    This is the one atomic writer. An existing file is never left half-written, and a failed write or
    replace removes the temporary file before the error propagates.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path.name


def _write_atomic(path: Path, text: str) -> str:
    """Write one whole ``text`` through ``_write_chunks``; returns the file's name.

    The manifest and ``instance.mtx`` take this path; tables and traces
    stream their rows through ``_write_rows`` instead.
    """
    return _write_chunks(path, [text])


def _write_rows(path: Path, header: str, n_rows: int, format_rows) -> str:
    """Write ``header``, then ``format_rows(start, stop)`` for each chunk of rows.

    ``format_rows`` returns the text of rows start..stop-1, each ending in a
    newline; one chunk of it is held at a time.
    """
    chunks = (format_rows(start, min(start + _CHUNK_ROWS, n_rows))
              for start in range(0, n_rows, _CHUNK_ROWS))
    return _write_chunks(path, itertools.chain([header + "\n"], chunks))


def _write_csv(path: Path, columns: dict) -> str:
    """Write the table ``{header: values}``, one row per index; returns the file's name.

    Every column is a sized, sliceable sequence (list, tuple, range or
    array) of one kind of number: each slice goes through ``np.asarray``,
    so a list mixing ints and floats is written as floats. A column whose
    length differs from the others raises ``ValueError`` before anything is
    written. The rows are formatted and written ``_CHUNK_ROWS`` at a time,
    column slice by column slice, so memory is bounded by one chunk, not by
    the table.
    """
    lengths = {header: len(values) for header, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")

    def format_rows(start, stop):
        # Python scalars of each column slice: the str of a float is its shortest repr.
        cells = [map(str, np.asarray(values[start:stop]).tolist()) for values in columns.values()]
        return "\n".join(map(",".join, zip(*cells))) + "\n"

    return _write_rows(path, ",".join(columns), max(lengths.values(), default=0), format_rows)


def write_trace_csv(result: TrainResult, path: Path) -> str:
    """Trace export with the canonical header iteration,cost,grad_norm,elapsed_s.

    Like ``_write_csv``, it writes ``_CHUNK_ROWS`` steps at a time.
    """
    def format_rows(start, stop):
        rows = zip(range(start, stop), result.costs[start:stop].tolist(),
                   result.grad_norms[start:stop].tolist(), result.elapsed[start:stop].tolist())
        return "".join(f"{it},{cost!r},{norm!r},{t:.6f}\n" for it, cost, norm, t in rows)

    return _write_rows(path, "iteration,cost,grad_norm,elapsed_s", len(result.costs),
                       format_rows)


def mean_sem(samples) -> tuple:
    """(mean, standard error of the mean) arrays over axis 0 of a ``(samples, ...)`` array.

    Both reduce the deviations from the first sample, so identical samples
    give that value and an SEM of exactly 0; the SEM is 0 for one sample.
    """
    samples = np.asarray(samples, dtype=float)
    k = len(samples)
    deviations = samples - samples[0]
    shift = deviations.mean(axis=0)
    squares = np.square(deviations - shift).sum(axis=0)
    return samples[0] + shift, np.sqrt(squares / max(k - 1, 1)) / k ** 0.5


def _write_manifest(out: Path, cfg: ExperimentConfig, statuses: list, artifacts: list) -> str:
    manifest = {
        "tool_version": __version__,
        "config": dataclasses.asdict(cfg),
        "seeds": [dataclasses.asdict(s) for s in statuses],
        "artifacts": sorted(artifacts),
    }
    return _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: ExperimentConfig, out: Path) -> tuple:
    """The first seed's instance, every arm: traces, solutions and residuals (Fig. 2 data)."""
    A, b, systems, status = _embedded_instance(cfg, cfg.seeds[0])
    x_exact = lu_solve(A.to_dense(), b)
    [results] = _train_arms(cfg, cfg.vqls.depth, [(status, systems)])
    # Every solution is extracted before the first write: a failure leaves no CSV.
    solutions = {}     # arm name -> [final, best] unit-norm solution
    for name, result in results.items():
        system = systems[name]
        solutions[name] = [extract_solution(prepare_state(params, system.rhs_state), system, A.n)
                           for params in (result.params, result.best_params)]

    artifacts = [write_trace_csv(result, out / f"trace_{name}.csv")
                 for name, result in results.items()]
    for fname, pick in (("solution.csv", 0), ("solution_best.csv", 1)):
        columns = {"index": range(A.n), "x_exact": x_exact}
        for name, x in solutions.items():
            columns[f"x_vqls_{name}"] = aligned(x[pick], x_exact)
        artifacts.append(_write_csv(out / fname, columns))
    columns = {"index": range(A.n)}
    for name, x in solutions.items():
        columns[f"residual_{name}"] = residuals(x[0], x_exact)
    artifacts.append(_write_csv(out / "residuals.csv", columns))
    if cfg.dump_matrix:
        artifacts.append(_write_atomic(out / "instance.mtx", format_matrix_market(A)))
    return [status], artifacts


def cmd_sweep_depth(cfg: ExperimentConfig, out: Path) -> tuple:
    """Final cost vs depth, averaged over seeds (Fig. 3(a) data)."""
    instances = []     # (status, {arm name: QuantumSystem}) per seed
    for seed in cfg.seeds:
        _, _, systems, status = _embedded_instance(cfg, seed)
        instances.append((status, systems))
    # arm name -> (seeds, depths) final costs
    costs = {name: np.empty((len(cfg.seeds), len(cfg.depths))) for name in instances[0][1]}
    for d, depth in enumerate(cfg.depths):
        trained = _train_arms(cfg, depth, instances)
        for name, arm_costs in costs.items():
            arm_costs[:, d] = [results[name].final_cost for results in trained]

    raw = {"depth": np.repeat(cfg.depths, len(cfg.seeds)),
           "seed": np.tile(cfg.seeds, len(cfg.depths)),
           **{f"final_cost_{name}": arm_costs.T.ravel() for name, arm_costs in costs.items()}}
    table = {"depth": cfg.depths}
    for name, arm_costs in costs.items():
        table[f"mean_cost_{name}"], table[f"sem_{name}"] = mean_sem(arm_costs)
    table["n_seeds"] = [len(cfg.seeds)] * len(cfg.depths)
    middle = [(len(cfg.seeds) - 1) // 2, len(cfg.seeds) // 2]   # np.median imports numpy.ma
    table.update({f"median_cost_{name}": np.sort(arm_costs, axis=0)[middle].mean(axis=0)
                  for name, arm_costs in costs.items()})
    artifacts = [_write_csv(out / "sweep_raw.csv", raw), _write_csv(out / "sweep.csv", table)]
    return [status for status, _ in instances], artifacts


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

    sigma = {name: np.array(spectra) for name, spectra in sigma.items()}    # (seeds, n) each
    raw = {"seed": np.repeat(seeds, cfg.n), "rank": np.tile(np.arange(cfg.n), len(seeds)),
           **{f"sigma_{name}": spectra.ravel() for name, spectra in sigma.items()}}
    # Raw and sigma_i / sigma_max spectra, averaged rank-by-rank across seeds.
    groups = {f"sigma_{name}": spectra for name, spectra in sigma.items()}
    groups.update({f"sigma_norm_{name}": spectra / spectra[:, :1]
                   for name, spectra in sigma.items()})
    table = {"rank": range(cfg.n)}
    for group, spectra in groups.items():
        table[f"mean_{group}"], table[f"sem_{group}"] = mean_sem(spectra)
    condition = {"seed": seeds, **{f"cond_{name}": values for name, values in cond.items()}}
    return statuses, [_write_csv(out / "spectrum_raw.csv", raw),
                      _write_csv(out / "spectrum.csv", table),
                      _write_csv(out / "condition.csv", condition)]


def cmd_heat(cfg: ExperimentConfig, out: Path) -> tuple:
    """``cmd_solve`` on the heated rod, plus its analytic parabola (Fig. 4 data).

    The tridiagonal pattern admits no fill, so the incomplete factorization
    is the exact one and the preconditioned arm starts at (numerically) the
    solution state.
    """
    statuses, artifacts = cmd_solve(cfg, out)
    dh = cfg.rod_length / (cfg.n + 1)
    position = [(i + 1) * dh for i in range(cfg.n)]
    u_exact = [cfg.heat_rate * x * (cfg.rod_length - x) / 2.0 for x in position]
    table = {"index": range(cfg.n), "position": position, "u_exact": u_exact}
    return statuses, artifacts + [_write_csv(out / "parabola.csv", table)]


COMMANDS = {
    "solve": cmd_solve,
    "sweep_depth": cmd_sweep_depth,
    "spectrum": cmd_spectrum,
    "heat": cmd_heat,
}


def run(cfg: ExperimentConfig) -> list:
    """Run cfg's command into cfg.output_dir; returns the names written, manifest last.

    The command returns (seed statuses, the names its writers returned), and
    the manifest records both. An ``OSError`` from the directory or any write
    propagates; the files written before it stay, and no manifest is written.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    statuses, artifacts = COMMANDS[cfg.kind](cfg, out)
    return artifacts + [_write_manifest(out, cfg, statuses, artifacts)]
