"""tools/compare_outputs.py on three runs' worth of output directories."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from vqls_precond.experiments import ExperimentConfig, run
from vqls_precond.vqls import VqlsConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def compare(parent, change):
    done = subprocess.run([sys.executable, str(TOOL), str(parent), str(change)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def test_compare_outputs_reports_each_file(tmp_path):
    runs = []
    for name in ("parent", "change"):
        cfg = ExperimentConfig(kind="solve", n=4, density=1.0, seeds=[3],
                               output_dir=str(tmp_path / name),
                               vqls=VqlsConfig(depth=1, iterations=50, mode="direct"))
        run(cfg)
        runs.append(tmp_path / name)
    parent, change = runs

    # equal runs: only elapsed_s and output_dir differ, so every file is the same
    code, out = compare(parent, change)
    assert code == 0, out
    assert out.count(": same\n") == len(list(parent.iterdir())), out

    # a difference only in elapsed_s
    trace = change / "trace_plain.csv"
    lines = trace.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["123.5"])
    trace.write_text("\n".join(lines) + "\n")
    code, out = compare(parent, change)
    assert code == 0 and "trace_plain.csv: same" in out, out

    # one scaled cell: that file differs by that factor, and nothing else does
    residuals = change / "residuals.csv"
    lines = residuals.read_text().splitlines()
    cells = lines[2].split(",")
    value = float(cells[1])
    cells[1] = repr(value * (1 + 1e-9))
    lines[2] = ",".join(cells)
    residuals.write_text("\n".join(lines) + "\n")
    code, out = compare(parent, change)
    assert code == 1, out
    [line] = [line for line in out.splitlines() if "differs" in line]
    head, columns = line.split(", columns: ")
    assert head.startswith("residuals.csv: differs: 1 cells, max relative difference ")
    relative, absolute = head.split(", max absolute difference ")
    assert np.isclose(float(relative.rsplit(" ", 1)[1]), 1e-9, rtol=1e-3), line
    assert np.isclose(float(absolute), abs(value) * 1e-9, rtol=1e-3), line
    assert columns == "residual_plain", line

    # cells of two columns, and a renamed header: each name once, in column order
    solution = change / "solution.csv"
    lines = solution.read_text().splitlines()
    lines[0] = lines[0].replace("x_vqls_plain", "x_renamed")
    for r in (1, 3):
        cells = lines[r].split(",")
        cells[1] = cells[3] = "0.5"
        lines[r] = ",".join(cells)
    solution.write_text("\n".join(lines) + "\n")
    manifest = change / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"tool_version": "', '"tool_version": "x'))
    code, out = compare(parent, change)
    assert code == 1, out
    verdicts = dict(line.split(": ", 1) for line in out.splitlines())
    assert verdicts["solution.csv"].startswith("differs: 5 cells, ")
    assert verdicts["solution.csv"].endswith(
        ", columns: x_exact x_vqls_plain x_renamed x_vqls_precond")
    assert verdicts["residuals.csv"].endswith(", columns: residual_plain")
    assert verdicts["manifest.json"].startswith("differs: 1 cells, ")
    assert "columns" not in verdicts["manifest.json"]


def test_compare_outputs_reports_the_absolute_difference_of_cells_near_zero(tmp_path):
    # A sign flip at rounding level reads as relative difference 2; D shows it is 2e-16.
    for name, cost, label in (("parent", "1e-16", "0.5"), ("change", "-1e-16", "0.5"),
                              ("text", "1e-16", "half")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "costs.csv").write_text(f"cost,label\n{cost},{label}\n")
    code, out = compare(tmp_path / "parent", tmp_path / "change")
    assert code == 1
    assert out == ("costs.csv: differs: 1 cells, max relative difference 2, "
                   "max absolute difference 2e-16, columns: cost\n"), out
    # a cell that is not a number differs by inf both ways
    code, out = compare(tmp_path / "parent", tmp_path / "text")
    assert code == 1
    assert out == ("costs.csv: differs: 1 cells, max relative difference inf, "
                   "max absolute difference inf, columns: label\n"), out
