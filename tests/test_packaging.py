"""Every third-party module imported under `tests/` is declared in
`pyproject.toml`, so `pip install -e '.[test]'` is enough to run the suite."""

import ast
import re
import sys
import types
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


PUBLIC_NAMES = [
    "CheckEntry",
    "CheckReport",
    "DEFAULT_TOLERANCE",
    "Hypergraph",
    "HypergraphParseError",
    "RegularityReport",
    "Spectrum",
    "Violation",
    "certificate_minus_r",
    "check_collar_witness",
    "collar_implies_bipartite_check",
    "eigenvalues_symmetric",
    "emit",
    "exact_kernel",
    "exact_rank",
    "find_collar_subhypergraph",
    "from_multigraph",
    "generate_hypergraph",
    "gram_identity_check",
    "incidence_matrix",
    "incidence_product",
    "is_collar",
    "is_connected",
    "is_uniform",
    "is_valid",
    "line_degree_formula",
    "line_edge_count",
    "multigraph_is_connected",
    "parse_path",
    "parse_text",
    "power_hypergraph",
    "power_line_invariance_check",
    "power_spectrum_formula",
    "rank_corank",
    "reduce_core",
    "regularity_report",
    "run_all_checks",
    "signless_laplacian",
    "signless_spectrum",
    "uniformize",
    "validate",
    "zagreb_index",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the package shows in this list's diff
    import hyperline

    exported = sorted(
        name
        for name, value in vars(hyperline).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_one_fraction_free_step():
    # the exact kernel's fallback and the collar search share one step,
    # which the package does not export
    import hyperline.matrices
    import hyperline.structure

    assert hyperline.structure.vanish is hyperline.matrices.vanish
    assert not hasattr(hyperline, "vanish")
