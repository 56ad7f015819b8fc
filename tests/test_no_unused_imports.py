"""Every name a module imports is read somewhere in that module.

Covers the library, the tests and the demos; `__init__.py` re-exports and
`from __future__` imports are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(
    p
    for pattern in ("src/hyperline/*.py", "tests/*.py", "demos/*.py")
    for p in ROOT.glob(pattern)
    if p.name != "__init__.py"
)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_sources_found():
    assert any(p.parent.name == "demos" for p in SOURCES)
    assert any(p.parent.name == "hyperline" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in read]
    assert not unused, f"{path.name} imports without reading: {', '.join(unused)}"
