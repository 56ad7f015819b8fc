import time
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperline.checks
import hyperline.spectra
import hyperline.structure
from hyperline import Hypergraph, emit, generate_hypergraph, run_all_checks
from hyperline.cli import main

import helpers
import strategies
from helpers import adjacency, entry_map
from oracles import dense_incidence

build_line = Hypergraph.line.func


def test_checks_trio(trio):
    report = run_all_checks(trio)
    assert report.passed
    assert report.context == {
        "n": 5,
        "m": 3,
        "rank": 3,
        "corank": 3,
        "connected": True,
        "uniform": 3,
    }
    entries = entry_map(report)
    assert entries["gram-identity"].passed
    assert entries["collar-line-bipartite"].applicable is False
    assert entries["spectral-radius-sandwich"].details["equality"] is True
    # each skipped entry gets a details dict of its own
    skipped = [e.details for e in report.entries if not e.applicable]
    assert len(skipped) == 2 and skipped[0] == {} and skipped[0] is not skipped[1]


def test_checks_certificate_entry_cycle4():
    entry = entry_map(run_all_checks(helpers.cycle(4)))["minus-rank-certificate-iff"]
    assert entry.passed
    assert entry.details == {"certificate": True, "eigenvalue_minus_r": True}


def test_checks_collar3_entries(collar3):
    report = run_all_checks(collar3[0])
    assert report.passed
    entries = entry_map(report)
    assert entries["collar-line-bipartite"].applicable
    assert entries["collar-minus-k-eigenvalue"].details["k"] == 3


def test_checks_skip_minus_k_on_a_non_uniform_collar():
    # 2-regular with a bipartite line graph, but edge sizes 2 and 3
    h = Hypergraph.from_edges([[0, 1], [1, 2, 3], [2, 3, 4], [4, 0]])
    report = run_all_checks(h)
    assert report.passed
    entries = entry_map(report)
    assert entries["collar-line-bipartite"].applicable
    minus_k = entries["collar-minus-k-eigenvalue"]
    assert (minus_k.passed, minus_k.applicable) == (True, False)
    assert minus_k.note == "collar host not uniform"


def test_checks_disconnected_input():
    report = run_all_checks(Hypergraph.from_edges([[0, 1], [2, 3]]))
    assert report.passed
    assert report.context["connected"] is False
    entries = entry_map(report)
    # the correspondence itself still holds on both sides
    assert entries["connectivity-correspondence"].passed
    # equality-iff halves are not asserted without connectivity
    assert "equality" not in entries["spectral-radius-sandwich"].details


def test_checks_isolated_vertex_skips_connectivity():
    h = Hypergraph(["a", "b", "c"], [[0, 1]])
    entries = entry_map(run_all_checks(h))
    assert entries["connectivity-correspondence"].applicable is False


def test_checks_report_serialization(trio):
    report = run_all_checks(trio)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert {"name", "passed", "details"} <= set(data["checks"][0])
    lines = report.summary_lines()
    assert lines[-1] == "overall: pass"
    assert any(line.startswith("pass") for line in lines)


def test_checks_pass_on_full_corpus(corpus):
    start = time.perf_counter()
    for h in corpus:
        report = run_all_checks(h)
        assert report.passed, report.summary_lines()
    assert time.perf_counter() - start < 60


def test_checks_pass_on_families(skew_family, equality_family):
    for h in skew_family + equality_family:
        assert run_all_checks(h).passed


# the strict upper sandwich gap is 1.8e-11, 1.1e-14 and 3.3e-11 here: at or
# below the default tolerance, so the bound reads attained although r != s
@pytest.mark.parametrize("core, length", [(6, 4), (6, 5), (9, 3)])
def test_checks_pass_when_a_strict_gap_is_below_the_tolerance(tmp_path, core, length):
    h = helpers.core_with_tail(core, length)
    report = run_all_checks(h)
    assert report.passed
    sandwich = entry_map(report)["spectral-radius-sandwich"]
    assert sandwich.details["equality"] and not sandwich.details["uniform"]
    path = tmp_path / "tail.hg"
    path.write_text(emit(h))
    assert main(["check", str(path)]) == 0


def test_checks_single_edge():
    assert run_all_checks(helpers.single_edge(2)).passed


def test_checks_build_each_derived_object_once(monkeypatch):
    counts = {}
    for name in ("eigenvalues_symmetric", "signless_spectrum", "regularity_report"):
        original = getattr(hyperline.checks, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        # every module that could call it, so a second caller is counted too
        for module in (hyperline.checks, hyperline.spectra):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    def counted_line(h):
        counts["line"] = counts.get("line", 0) + 1
        return build_line(h)

    line = cached_property(counted_line)
    line.__set_name__(Hypergraph, "line")
    monkeypatch.setattr(Hypergraph, "line", line)
    assert run_all_checks(helpers.circulant(60, 4)).passed
    # the line is built for the base and for its power, nowhere else
    assert counts == {
        "eigenvalues_symmetric": 2,
        "signless_spectrum": 1,
        "regularity_report": 1,
        "line": 2,
    }


def test_checks_recognize_a_collar_once(monkeypatch, collar3):
    calls = []
    original = hyperline.structure.is_collar

    def counted(h):
        calls.append(h)
        return original(h)

    # every module that could call it, so a second caller is counted too
    monkeypatch.setattr(hyperline.structure, "is_collar", counted)
    monkeypatch.setattr(hyperline.checks, "is_collar", counted)
    h, _ = collar3
    entries = entry_map(run_all_checks(h))
    assert entries["collar-line-bipartite"].passed
    assert entries["collar-minus-k-eigenvalue"].passed
    assert len(calls) == 1


def raise_first_multiplicity(h):
    a = build_line(h).copy()
    i, j = np.argwhere(np.triu(a))[0]
    a[i, j] += 1
    a[j, i] += 1
    return a


def skip_pairs(h):
    mults = {}
    for inc in h.incidence:
        for a, i in enumerate(inc):
            for j in inc[a + 2 :]:
                mults[(i, j)] = mults.get((i, j), 0) + 1
    return adjacency(h.m, mults)


LINE_ROUTES = {"gram-identity", "line-degree-formula", "line-edge-count"}


# each check must recompute its side without the line's own incidence lists
@pytest.mark.parametrize(
    "build, h, failing",
    [
        (raise_first_multiplicity, helpers.circulant(20, 4), LINE_ROUTES),
        (
            raise_first_multiplicity,
            helpers.complete_graph(5),
            LINE_ROUTES | {"linearity-gives-simple-line"},
        ),
        (skip_pairs, helpers.circulant(20, 4), {"gram-identity"}),
    ],
    ids=["raised-circulant", "raised-complete-graph", "skipped-pairs"],
)
def test_checks_catch_a_corrupted_line(monkeypatch, build, h, failing):
    monkeypatch.setattr(Hypergraph, "line", property(build))
    failed = {e.name for e in run_all_checks(h).entries if not e.passed}
    assert failing <= failed


def bound_gaps(h):
    """Gaps to the sandwich and degree-sum bounds, from a dense `B` built
    entry by entry and numpy's `eigvalsh`."""
    b = dense_incidence(h)
    sizes = b.sum(axis=0)
    r, s = int(sizes.max()), int(sizes.min())
    rho_q = np.linalg.eigvalsh((b @ b.T).astype(float))[-1]
    rho_line = np.linalg.eigvalsh((b.T @ b - np.diag(sizes)).astype(float))[-1]
    sums = b.T @ b.sum(axis=1)
    lower, upper = int(sums.min()) - (r - s), int(sums.max()) + (r - s)
    return {
        "spectral-radius-sandwich": (
            abs(rho_line - (rho_q - r)),
            abs(rho_line - (rho_q - s)),
        ),
        "degree-sum-bounds": (abs(rho_q - lower), abs(rho_q - upper)),
    }


# no instance here has a bound gap between 1e-9 and 1e-6, so only 0.1 would
# tell the caller's tolerance apart from a fixed threshold in that range
@pytest.mark.parametrize("tol", (1e-9, 1e-6, 0.1))
def test_checks_attainment_follows_the_analysis_rule(corpus, equality_family, tol):
    for h in corpus + equality_family:
        entries = entry_map(run_all_checks(h, tol))
        for name, (lower_gap, upper_gap) in bound_gaps(h).items():
            tight = lower_gap <= tol or upper_gap <= tol
            assert entries[name].details["equality"] == tight


def verdicts(report) -> list:
    """Each entry's name, verdict and boolean details, and the context."""
    return [report.context] + [
        (e.name, e.passed, e.applicable,
         {k: v for k, v in e.details.items() if isinstance(v, bool)})
        for e in report.entries
    ]


def assert_checks_invariant(h, sigma, perm):
    # vertex v becomes sigma[v], keeping its label; new edge i is old edge perm[i]
    labels = [""] * h.n
    for v, label in enumerate(h.labels):
        labels[sigma[v]] = label
    moved = Hypergraph(labels, [[sigma[v] for v in h.edges[i]] for i in perm])
    assert np.array_equal(moved.line, h.line[np.ix_(perm, perm)])
    assert verdicts(run_all_checks(moved)) == verdicts(run_all_checks(h))


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(strategies.hypergraphs(), strategies.uniform_hypergraphs(3)),
    st.data(),
)
def test_checks_are_invariant_under_relabelling_and_edge_permutation(h, data):
    sigma = data.draw(st.permutations(range(h.n)))
    perm = data.draw(st.permutations(range(h.m)))
    assert_checks_invariant(h, sigma, perm)


@pytest.mark.parametrize(
    "h",
    [helpers.collar3()[0], helpers.core_with_tail(6, 3), helpers.circulant(24, 4),
     generate_hypergraph(40, 30, 4, 1), generate_hypergraph(30, 36, 3, 2)],
    ids=["collar3", "core6_tail3", "circulant24_4", "gen40_30", "gen30_36"],
)
def test_checks_of_larger_inputs_are_invariant_under_permutations(h):
    rng = np.random.default_rng(3)
    for _ in range(2):
        assert_checks_invariant(
            h, rng.permutation(h.n).tolist(), rng.permutation(h.m).tolist()
        )


def test_checks_pass_on_every_small_hypergraph(small_simple):
    reports = [run_all_checks(h) for h in small_simple]
    assert all(report.passed for report in reports)
    certified = [
        entry_map(report)["minus-rank-certificate-iff"].details["certificate"]
        for report in reports
    ]
    on_five = [c for h, c in zip(small_simple, certified) if h.n == 5]
    assert (len(on_five), sum(on_five), sum(certified)) == (6893, 1197, 1207)
