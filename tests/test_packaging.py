"""Every third-party module imported under `tests/` is declared in
`pyproject.toml`, so `pip install -e '.[test]'` is enough to run the suite."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    sources = sorted((ROOT / "tests").rglob("*.py"))
    local = {path.stem for path in sources} | {project["name"]}
    imported = set().union(*map(imported_modules, sources))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "numpy" in third_party and "pytest" in third_party
    assert sorted(third_party - declared) == []
