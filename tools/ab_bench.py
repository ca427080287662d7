"""Interleaved A/B runs of the benchmark on two checkouts of the workbench.

    python tools/ab_bench.py PARENT CHANGE --workload W --seed N --pairs K

PARENT and CHANGE are the roots of two checkouts. Each pair runs
the benchmark's command, ``python3 perfbench/run.py``, with ``--workload W
--seed N --seconds S --trace 0`` once in each tree, S being the
``run_seconds`` of PARENT's BENCHMARK.json; the
tree that runs first alternates from pair to pair, PARENT first in pair 1.
After each run the tool reads that tree's
``perfbench_out/W-seedN-trace0/run.json``. At the end it prints, for every
end-to-end metric that BENCHMARK.json declares, each side's median with its
Q1-Q3 range, the ratio of the medians (change / parent), and the pairs the
change won: where it read better than the parent in the same pair, ties
counting for neither side. Exit status: 0, or 1 when any run failed, was not
``correct`` or reported ``failed`` operations, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over (parent run.json, change run.json) pairs.

    Each row holds the metric's ``name`` and ``unit``, each side's
    (Q1, median, Q3) as ``parent`` and ``change``, and ``wins``, the pairs in
    which the change read better in the metric's declared direction.
    """
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        rows.append({"name": name, "unit": metric["unit"],
                     "parent": quartiles(parent), "change": quartiles(change),
                     "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change))})
    return rows


def format_rows(rows: list[dict], n_pairs: int) -> str:
    """The summary table: medians with [Q1, Q3], the ratio of medians and the wins."""
    lines = [f"{'metric':12s} {'parent median [Q1, Q3]':>32s} {'change median [Q1, Q3]':>32s}"
             f" {'ratio':>7s}  wins"]
    for row in rows:
        cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}] {row['unit']}"
                 for q1, med, q3 in (row["parent"], row["change"])]
        base = row["parent"][1]
        ratio = f"{row['change'][1] / base:.3f}" if base else "n/a"
        lines.append(f"{row['name']:12s} {cells[0]:>32s} {cells[1]:>32s} {ratio:>7s}"
                     f"  {row['wins']}/{n_pairs}")
    return "\n".join(lines)


def run_problems(record: dict) -> list[str]:
    """Why a run.json record does not count as a clean run; empty when it does."""
    problems = list(record.get("errors", []))
    if not record.get("correct"):
        problems.append("correct is false")
    if record.get("failed"):
        problems.append(f"{record['failed']} operations failed")
    return problems


def run_once(command: list[str], tree: Path, workload: str, seed: int,
             seconds: float) -> dict | None:
    """One benchmark run in ``tree``; its run.json record, or None if run.py failed."""
    done = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0:
        print(f"{tree}: run.py exited {done.returncode}: {done.stderr.strip()[-500:]}",
              file=sys.stderr)
        return None
    path = tree / "perfbench_out" / f"{workload}-seed{seed}-trace0" / "run.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    if args.seed < 0 or args.pairs < 1:
        parser.error("--seed must be >= 0 and --pairs >= 1")
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())

    pairs, clean = [], True
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        records = [None, None]
        for side in order:
            record = run_once(spec["command"], trees[side], args.workload, args.seed,
                              spec["run_seconds"])
            problems = ["run.py failed"] if record is None else run_problems(record)
            if problems:
                print(f"pair {k + 1} {SIDES[side]}: {'; '.join(problems)}", file=sys.stderr)
            else:
                records[side] = record
        if None in records:
            clean = False
            continue
        pairs.append(tuple(records))
        wall = [r["metrics"]["wall_s"]["value"] for r in records]
        print(f"pair {k + 1}, {SIDES[order[0]]} first: wall_s parent {wall[0]:.4g}, "
              f"change {wall[1]:.4g}", file=sys.stderr)
    if pairs:
        print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs")
        print(format_rows(summarize(pairs, spec["end_to_end"]), len(pairs)))
    return 0 if clean and pairs else 1


if __name__ == "__main__":
    sys.exit(main())
