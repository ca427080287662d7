"""Smoke tests of the benchmark: every workload at toy size through its checks.

Each toy round runs traced in a fresh process, exactly as a benchmark round
does; the corrupted-output tests show that each workload's checks reject a
wrong number.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from workloads import make_config

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def toy_rounds(tmp_path_factory):
    """Outputs, config and worker figures of one traced toy round per workload."""
    rounds = {}
    for workload in ("deep", "heat", "spectrum"):
        base = tmp_path_factory.mktemp(workload)
        command, config = make_config(workload, seed=1, toy=True)
        config_path = base / "config.json"
        config_path.write_text(json.dumps(config))
        record = run.run_round(command, config_path, base / "round0", traced=True)
        rounds[workload] = (base / "round0", config, record)
    return rounds


@pytest.mark.parametrize("workload", ["deep", "heat", "spectrum"])
def test_toy_round_passes_checks(toy_rounds, workload):
    out, config, record = toy_rounds[workload]
    assert checks.check(out, config, bench_seed=1) == []
    assert record["wall_s"] > 0 and record["setup_s"] > 0 and record["peak_rss_mb"] > 0
    layers = record["layers"]
    assert set(layers) | {"tracing.overhead_s"} == set(run.declared_metrics("per_layer"))
    assert set(record) >= set(run.declared_metrics("end_to_end"))
    assert layers["cli.config_s"] > 0 and layers["experiments.bytes_written"] > 0
    if workload == "spectrum":
        assert layers["dense.svd_calls"] == 4 * len(config["seeds"])
        assert layers["ilu.ilu0_calls"] == len(config["seeds"])
    else:
        assert layers["vqls.steps"] > 0 and layers["ansatz.gate_columns"] > 0


def _scale_cell(path: Path, column: str, factor: float, row_index: int = 0):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[1 + row_index][col] = repr(float(rows[1 + row_index][col]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("workload, file, column, row", [
    ("deep", "sweep_raw.csv", "final_cost_precond", 0),
    ("heat", "solution.csv", "x_vqls_precond", 8),      # mid-rod of 16 nodes
    ("spectrum", "condition.csv", "cond_precond", 0),
])
def test_corrupted_output_fails_check(toy_rounds, tmp_path, workload, file, column, row):
    out, config, _ = toy_rounds[workload]
    bad = tmp_path / "round0"
    shutil.copytree(out, bad)
    _scale_cell(bad / file, column, 1.01, row)
    assert checks.check(bad, config, bench_seed=1)


def test_sampled_deep_cell_is_checked_against_the_dense_circuit(toy_rounds, tmp_path):
    out, config, _ = toy_rounds["deep"]
    seed, depth = checks.sampled_cell(config, bench_seed=1)
    bad = tmp_path / "round0"
    shutil.copytree(out, bad)
    with open(bad / "sweep_raw.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    index = next(i for i, r in enumerate(rows) if (int(r["depth"]), int(r["seed"])) == (depth, seed))
    _scale_cell(bad / "sweep_raw.csv", "final_cost_plain", 1 + 1e-9, index)
    errors = checks.check(bad, config, bench_seed=1)
    assert any("dense-circuit" in e for e in errors)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "heat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
