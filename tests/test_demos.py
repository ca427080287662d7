"""The demos run, the package exports exactly what they, the CLI and the
README import from it, every name ``src/`` defines has a caller outside
the tests, and only ``experiments`` writes files."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vqls_precond

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "vqls_precond").glob("*.py"))


def _readme_blocks() -> list:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _names_from_package(source: str) -> set:
    """Names taken by ``from vqls_precond import ...`` (or ``from . import ...``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 0 and node.module == "vqls_precond")
                or (node.level == 1 and node.module is None)):
            names.update(alias.name for alias in node.names)
    return names


def test_public_api_is_what_the_cli_demos_and_readme_import():
    readme_blocks = _readme_blocks()
    assert readme_blocks
    sources = ([(ROOT / "src" / "vqls_precond" / "cli.py").read_text()]
               + [path.read_text() for path in DEMOS] + readme_blocks)
    used = set().union(*(_names_from_package(source) for source in sources))
    for name in used:
        assert hasattr(vqls_precond, name), name
    assert sorted(vqls_precond.__all__) == sorted(used)


def _references(tree) -> Counter:
    """How often each identifier is read as a name or an attribute in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_name_src_defines_has_a_caller_outside_the_tests():
    # Matching is by identifier, so a field or method of the same name
    # elsewhere counts as a reference: the scan errs towards passing.
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    outside = ([path.read_text() for path in DEMOS + sorted((ROOT / "perfbench").glob("*.py"))]
               + _readme_blocks())
    refs = sum((_references(tree) for tree in trees + [ast.parse(s) for s in outside]),
               Counter())
    unused = [node.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and refs[node.name] == _references(node)[node.name]]
    assert not unused, f"defined in src/ but reached only from the tests: {unused}"


def _file_writes(tree) -> list:
    """Line numbers of the calls in ``tree`` that create, write or move files."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if ((isinstance(f, ast.Name) and f.id == "open")
                or (isinstance(f, ast.Attribute)
                    and (f.attr in ("open", "write_text", "write_bytes", "mkdir")
                         or (f.attr == "replace" and isinstance(f.value, ast.Name)
                             and f.value.id == "os")))):
            lines.append(node.lineno)
    return lines


def test_only_experiments_writes_files():
    writers = {path.name: lines for path in SOURCES
               if (lines := _file_writes(ast.parse(path.read_text())))}
    assert list(writers) == ["experiments.py"], f"file writes by line: {writers}"
