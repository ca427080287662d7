"""The demos run, and the package exports exactly what they, the CLI and the
README import from it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vqls_precond

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
    readme_blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                               re.S)
    assert readme_blocks
    sources = ([(ROOT / "src" / "vqls_precond" / "cli.py").read_text()]
               + [path.read_text() for path in DEMOS] + readme_blocks)
    used = set().union(*(_names_from_package(source) for source in sources))
    for name in used:
        assert hasattr(vqls_precond, name), name
    assert sorted(vqls_precond.__all__) == sorted(used)
