"""Benchmark of the vqls-precond workbench: one workload, one seed, one run.

    python3 perfbench/run.py --workload deep|heat|spectrum --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The run repeats whole rounds of the
workload for about S seconds. A round is a fresh Python process that calls
``vqls_precond.cli.main`` on the generated config with OpenBLAS and OpenMP
pinned to one thread and ``VQLS_THREADS`` unset. The outputs of the first
round are checked against the reference arithmetic in ``checks.py``, and
every later round must write the same bytes. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end medians over the rounds, and
with ``--trace 1`` the per-layer medians over the traced rounds (traced and
untraced rounds alternate, and ``tracing.overhead_s`` is the difference of
their median wall times). See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_config, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / "perfbench_out"
ROUND_TIMEOUT_S = 150
# One BLAS thread: with two, wall time on a 2-core box swings with whatever
# else runs there, while the CPU time stays put.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Counts that must repeat exactly from round to round.
EXACT_COUNTS = ("vqls.steps", "ansatz.gate_columns", "ilu.ilu0_calls",
                "dense.svd_calls", "sparse.csr_inits")


def declared_metrics(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class RoundFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("VQLS_THREADS", None)
    return env


def run_round(command: str, config_path: Path, out: Path, traced: bool) -> dict:
    """One workload round in a fresh process; returns the worker's figures."""
    result_path = out.with_suffix(".json")
    argv = [sys.executable, str(HERE / "worker.py"), command, str(config_path), str(out),
            str(result_path)]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv + [repr(t_spawn)] + (["--trace"] if traced else []),
                          env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def output_digest(out: Path) -> str:
    """Hash of a round's CSVs, without the wall-clock elapsed_s column of traces."""
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        lines = path.read_text().splitlines()
        if path.name.startswith("trace_"):
            lines = [line.rsplit(",", 1)[0] for line in lines]
        h.update(path.name.encode() + b"\0" + "\n".join(lines).encode() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "VQLS_THREADS")},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, rundir: Path) -> dict:
    """Run whole rounds for about ``seconds``, check them, and summarise."""
    import checks   # loads numpy, so only after main() has pinned the threads

    command, config = make_config(workload, seed)
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))

    rounds, errors, failed_rounds = [], [], 0
    first_out, first_digest = None, None
    durations = []
    t_begin = time.monotonic()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        out = rundir / f"round{k}"
        t0 = time.monotonic()
        try:
            rec = run_round(command, config_path, out, traced)
        except (RoundFailed, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: round {k} failed: {exc}", file=sys.stderr)
            failed_rounds += 1
        else:
            rec["traced"] = traced
            rounds.append(rec)
            digest = output_digest(out)
            if first_out is None:
                first_out, first_digest = out, digest
            else:
                if digest != first_digest:
                    errors.append(f"round {k} wrote different outputs from round 0")
                shutil.rmtree(out)
        durations.append(time.monotonic() - t0)
        k += 1
        elapsed = time.monotonic() - t_begin
        if k >= (2 if trace else 1) and elapsed + statistics.fmean(durations) > seconds:
            break

    if first_out is None:
        errors.append("no round succeeded")
    else:
        errors += checks.check(first_out, config, seed)

    if trace:
        metrics = layer_metrics(rounds, errors)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                   for name, unit in declared_metrics("end_to_end").items()} if rounds else {}
    return {
        "correct": not errors,
        "attempted": k * operations(config),
        "failed": failed_rounds * operations(config),
        "metrics": metrics,
        "errors": errors,
        "rounds": rounds,
    }


def layer_metrics(rounds: list[dict], errors: list[str]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    if not traced or not plain:
        errors.append("the traced run needs one traced and one untraced round")
        return {}
    layers = [r["layers"] for r in traced]
    for name in EXACT_COUNTS:
        if len({lay[name] for lay in layers}) != 1:
            errors.append(f"{name} differs between rounds: {[lay[name] for lay in layers]}")
    values = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    values["tracing.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                    - statistics.median(r["wall_s"] for r in plain))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared_metrics("per_layer").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "vqls_precond" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Before numpy loads: the checks in this process run pinned as well.
    os.environ.update(THREAD_ENV)
    os.environ.pop("VQLS_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    rundir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, **result}
    (rundir / "run.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"env": env}))
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}")
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:9s} rounds {len(result['rounds'])}, operations attempted "
          f"{result['attempted']}, failed {result['failed']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
