"""Compare two output directories of the workbench, file by file.

    python tools/compare_outputs.py PARENT CHANGE

Every file under either directory, at any depth, gets one line: ``same``,
``only in DIR``, or ``differs: N cells, max relative difference R, max
absolute difference D``. A CSV compares cell by cell, a JSON file leaf by
leaf and any other file whitespace-separated token by token; R is
|a - b| / max(|a|, |b|) and D is |a - b| over the differing cells, each inf
where a cell is missing or not a number. D judges cells near zero, where a
change in the last bit reads as R near 1. A CSV's
``differs`` line ends with ``, columns: NAME ...``: the header names of
its differing cells in column order, both where the two headers differ. Two
wall-clock fields are left out: the ``elapsed_s`` column of ``trace_*.csv``
and every ``output_dir`` entry of ``manifest.json``. Exit status: 0 when
every file is the same, 1 when any file differs or is missing on one side,
2 on a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _leaves(value, path: tuple, skip: str | None):
    """(path, JSON text) of every leaf of a decoded JSON value, without ``skip`` keys."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != skip:
                yield from _leaves(item, path + (key,), skip)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,), skip)
    else:
        yield path, json.dumps(value)


def _cells(path: Path) -> dict:
    """{position: text} of the comparable cells of one output file."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        skip = "elapsed_s" if path.name.startswith("trace_") and rows else None
        keep = [i for i, name in enumerate(rows[0] if rows else []) if name != skip]
        return {(r, i): row[i] for r, row in enumerate(rows) for i in keep if i < len(row)}
    if path.suffix == ".json":
        skip = "output_dir" if path.name == "manifest.json" else None
        return dict(_leaves(json.loads(text), (), skip))
    return dict(enumerate(text.split()))


def _difference(a: str | None, b: str | None) -> tuple[float, float]:
    """(relative, absolute) difference of two cells; inf for either when one is not a number."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf, math.inf
    if x == y:
        return 0.0, 0.0
    diff = abs(x - y)
    relative = diff / max(abs(x), abs(y))
    return (relative, diff) if math.isfinite(relative) else (math.inf, math.inf)


def compare(a: Path, b: Path) -> str:
    """``same`` or ``differs: ...`` for two versions of one output file."""
    if a.read_bytes() == b.read_bytes():
        return "same"
    cells_a, cells_b = _cells(a), _cells(b)
    differing = [k for k in cells_a.keys() | cells_b.keys() if cells_a.get(k) != cells_b.get(k)]
    if not differing:
        return "same"
    relative, absolute = map(max, zip(*(_difference(cells_a.get(k), cells_b.get(k))
                                        for k in differing)))
    verdict = (f"differs: {len(differing)} cells, max relative difference {relative:.3g}, "
               f"max absolute difference {absolute:.3g}")
    if a.suffix != ".csv":
        return verdict
    names = (cells.get((0, i)) for i in sorted({i for _, i in differing})
             for cells in (cells_a, cells_b))
    return f"{verdict}, columns: {' '.join(dict.fromkeys(n for n in names if n is not None))}"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    roots = [Path(d) for d in argv]
    names = sorted({p.relative_to(root) for root in roots for p in root.rglob("*") if p.is_file()})
    all_same = True
    for name in names:
        a, b = (root / name for root in roots)
        if not (a.is_file() and b.is_file()):
            verdict = f"only in {argv[0] if a.is_file() else argv[1]}"
        else:
            verdict = compare(a, b)
        all_same &= verdict == "same"
        print(f"{name}: {verdict}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
