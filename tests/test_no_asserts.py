"""`python -O` strips `assert` statements, so the library must not rely on
them: every invariant in `src/hyperline` raises explicitly, and one that
can fail raises `ValueError`, not `AssertionError`."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "hyperline").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"


def raised_assertion_errors(source: str) -> list[int]:
    """Lines of `raise AssertionError` and `raise AssertionError(...)`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_raised_assertion_errors_are_found():
    source = "raise AssertionError\nraise AssertionError('x')\nraise ValueError('y')\n"
    assert raised_assertion_errors(source) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_raised_assertion_errors(path):
    lines = raised_assertion_errors(path.read_text())
    assert not lines, f"{path.name} raises AssertionError at lines {lines}"
