"""Every third-party module imported under `tests/` is declared in
`pyproject.toml`, so `pip install -e '.[test]'` is enough to run the suite."""

import ast
import inspect
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


# str(inspect.signature(...)) of each exported function and of each public
# method of an exported class
PUBLIC_SIGNATURES = {
    "CheckEntry.to_json_dict": "(self) -> 'dict'",
    "CheckReport.summary_lines": "(self) -> 'list[str]'",
    "CheckReport.to_json_dict": "(self) -> 'dict'",
    "Hypergraph.edge_label_sets": "(self) -> 'tuple[tuple[str, ...], ...]'",
    "Hypergraph.from_edges": (
        "(edges: 'Iterable[Iterable[int]]', n: 'int | None' = None) -> 'Hypergraph'"
    ),
    "Spectrum.contains": "(self, value: 'float', tol: 'float | None' = None) -> 'bool'",
    "Spectrum.grouped": "(self) -> 'list[tuple[float, int]]'",
    "Spectrum.to_json_dict": "(self) -> 'dict'",
    "certificate_minus_r": "(h: 'Hypergraph') -> 'tuple[int, ...] | None'",
    "check_collar_witness": "(h: 'Hypergraph', x: 'Sequence[int]') -> 'None'",
    "collar_implies_bipartite_check": "(h: 'Hypergraph', x: 'Sequence[int]') -> 'bool'",
    "eigenvalues_symmetric": (
        "(matrix: 'np.ndarray', tolerance: 'float' = 1e-09) -> 'Spectrum'"
    ),
    "emit": "(h: 'Hypergraph') -> 'str'",
    "exact_kernel": "(matrix: 'np.ndarray') -> 'list[tuple[int, ...]]'",
    "exact_rank": "(matrix: 'np.ndarray') -> 'int'",
    "find_collar_subhypergraph": (
        "(h: 'Hypergraph', max_edges: 'int' = 20) -> 'tuple[int, ...] | None'"
    ),
    "from_multigraph": "(a: 'np.ndarray') -> 'Hypergraph'",
    "generate_hypergraph": (
        "(n: 'int', m: 'int', max_card: 'int', seed: 'int') -> 'Hypergraph'"
    ),
    "gram_identity_check": "(h: 'Hypergraph') -> 'bool'",
    "incidence_matrix": "(h: 'Hypergraph') -> 'np.ndarray'",
    "incidence_product": "(h: 'Hypergraph', vec: 'Sequence[int]') -> 'tuple[int, ...]'",
    "is_collar": "(h: 'Hypergraph') -> 'tuple[int, ...] | None'",
    "is_connected": "(h: 'Hypergraph') -> 'bool'",
    "is_uniform": "(h: 'Hypergraph') -> 'int | None'",
    "line_degree_formula": "(h: 'Hypergraph') -> 'list[int]'",
    "line_edge_count": "(h: 'Hypergraph') -> 'int'",
    "multigraph_is_connected": "(a: 'np.ndarray') -> 'bool'",
    "parse_path": "(path: 'str | os.PathLike') -> 'Hypergraph'",
    "parse_text": "(text: 'str', source: 'str' = '<string>') -> 'Hypergraph'",
    "power_hypergraph": (
        "(base: 'Hypergraph', t: 'int', k: 'int', uniform_pad: 'bool' = False) -> 'Hypergraph'"
    ),
    "power_line_invariance_check": "(base: 'Hypergraph', t: 'int', k: 'int') -> 'bool'",
    "power_spectrum_formula": (
        "(base: 'Hypergraph', t: 'int', k: 'int', tolerance: 'float' = 1e-09) -> 'Spectrum'"
    ),
    "rank_corank": "(h: 'Hypergraph') -> 'tuple[int, int]'",
    "reduce_core": "(h: 'Hypergraph') -> 'Hypergraph'",
    "regularity_report": "(h: 'Hypergraph') -> 'RegularityReport'",
    "run_all_checks": "(h: 'Hypergraph', tolerance: 'float' = 1e-09) -> 'CheckReport'",
    "signless_laplacian": "(h: 'Hypergraph') -> 'np.ndarray'",
    "signless_spectrum": "(h: 'Hypergraph', tolerance: 'float' = 1e-09) -> 'Spectrum'",
    "uniformize": "(h: 'Hypergraph') -> 'Hypergraph'",
    "validate": "(h: 'Hypergraph') -> 'list[Violation]'",
    "zagreb_index": "(h: 'Hypergraph') -> 'int'",
}


def test_public_signatures_are_pinned():
    # an option added to or dropped from the public API shows in this diff
    import hyperline

    signatures = {}
    for name in PUBLIC_NAMES:
        value = getattr(hyperline, name)
        if inspect.isfunction(value):
            signatures[name] = str(inspect.signature(value))
        elif inspect.isclass(value):
            for attr in (a for a in vars(value) if not a.startswith("_")):
                # a classmethod reads as a bound method, without `cls`
                method = getattr(value, attr)
                if inspect.isfunction(method) or inspect.ismethod(method):
                    signatures[f"{name}.{attr}"] = str(inspect.signature(method))
    assert signatures == PUBLIC_SIGNATURES


# the fields of each exported NamedTuple record, with `=default` where one
# is set; a dropped or reordered field shows in no signature above
PUBLIC_RECORDS = {
    "CheckEntry": (
        "name", "passed", "details", "tolerance=None", "applicable=True", "note=''"
    ),
    "CheckReport": ("context", "entries"),
    "Hypergraph": ("labels", "edges"),
    "RegularityReport": (
        "regular", "edge_regular", "skew_edge_regular", "linear", "edge_degree_sums"
    ),
    "Spectrum": ("eigenvalues", "tolerance"),
    "Violation": ("rule", "message", "edges"),
}


def test_public_record_fields_are_pinned():
    import hyperline

    records = {}
    for name in PUBLIC_NAMES:
        value = getattr(hyperline, name)
        if hasattr(value, "_fields"):
            defaults = value._field_defaults
            records[name] = tuple(
                f"{f}={defaults[f]!r}" if f in defaults else f for f in value._fields
            )
    assert records == PUBLIC_RECORDS


def test_one_fraction_free_step():
    # fraction-free elimination is one private routine, the exact kernel's
    # fallback; the collar search eliminates over GF(2)
    import hyperline.matrices
    import hyperline.structure

    assert callable(hyperline.matrices._kernel_fraction_free)
    for module in (hyperline.matrices, hyperline.structure, hyperline):
        assert not hasattr(module, "vanish")
