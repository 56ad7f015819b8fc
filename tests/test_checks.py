import time

from hyperline import Hypergraph, run_all_checks

import helpers


def entry_map(report):
    return {e.name: e for e in report.entries}


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


def test_checks_certificate_entry_cycle4():
    entry = entry_map(run_all_checks(helpers.cycle(4)))["minus-rank-certificate-iff"]
    assert entry.passed
    assert entry.details == {
        "certificate": True,
        "eigenvalue_minus_r": True,
        "incidence_kernel_exact": True,
    }


def test_checks_collar3_entries(collar3):
    report = run_all_checks(collar3[0])
    assert report.passed
    entries = entry_map(report)
    assert entries["collar-line-bipartite"].applicable
    assert entries["collar-minus-k-eigenvalue"].details["k"] == 3


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


def test_checks_single_edge():
    assert run_all_checks(helpers.single_edge(2)).passed
