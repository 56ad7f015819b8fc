import logging

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np
from hyperline import (
    Hypergraph,
    collar_implies_bipartite_check,
    check_collar_witness,
    exact_kernel,
    find_collar_subhypergraph,
    incidence_matrix,
    is_collar,
    multigraph_is_connected,
    regularity_report,
)

import helpers
import strategies
from oracles import (
    _collar_coloring,
    collar_oracle,
    collar_search_unpruned,
    collar_witness_oracle,
)


def test_regularity_cycle():
    rep = regularity_report(helpers.cycle(4))
    assert rep.regular == 2
    assert rep.edge_regular == 4
    assert rep.skew_edge_regular == 2
    assert rep.linear


def test_regularity_trio(trio):
    rep = regularity_report(trio)
    assert rep.regular is None
    assert rep.skew_edge_regular is None  # per-edge values 2, 3, 3
    assert not rep.linear


def test_regularity_path_not_edge_regular():
    rep = regularity_report(helpers.path(4))
    assert rep.edge_regular is None  # sums 3, 4, 3


def test_skew_iff_examples(trio):
    for h in (helpers.cycle(4), trio):
        skew = regularity_report(h).skew_edge_regular is not None
        assert skew == helpers.line_is_regular(h)
    assert trio.line.sum(axis=1).tolist() == [2, 3, 3]  # both sides false


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_skew_iff_random(h):
    skew = regularity_report(h).skew_edge_regular is not None
    assert skew == helpers.line_is_regular(h)


def test_skew_family_both_sides_true(skew_family):
    assert len(skew_family) == 50
    for h in skew_family:
        rep = regularity_report(h)
        assert rep.skew_edge_regular is not None
        degrees = set(h.line.sum(axis=1).tolist())
        assert len(degrees) == 1
        assert degrees.pop() == rep.skew_edge_regular


def test_is_collar_cycles():
    assert is_collar(helpers.cycle(4)) == (1, -1, 1, -1)
    assert is_collar(helpers.cycle(3)) is None
    assert is_collar(helpers.path(4)) is None  # endpoint degrees are 1


def test_is_collar_none_without_edges():
    assert is_collar(Hypergraph(["a"], [])) is None


def test_is_collar_collar3(collar3):
    h, signs = collar3
    assert is_collar(h) == signs


def test_collar_iff_even_cycle_for_graphs():
    for n in range(3, 9):
        assert (is_collar(helpers.cycle(n)) is not None) == (n % 2 == 0)


def test_collar_bipartite_check(collar3):
    h, _ = collar3
    assert collar_implies_bipartite_check(h, is_collar(h))
    assert (h.line.sum(axis=1) == 3).all()
    for n in (4, 6):
        c = helpers.cycle(n)
        assert collar_implies_bipartite_check(c, is_collar(c))
    # a collar found inside a larger host is not a witness for the host
    host = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]])
    with pytest.raises(ValueError, match="does not cover every edge"):
        collar_implies_bipartite_check(host, find_collar_subhypergraph(host))


def test_collar_bipartite_check_refuses_an_improper_coloring():
    # edges 0 and 1 of the 4-cycle meet and share a sign
    assert not collar_implies_bipartite_check(helpers.cycle(4), (1, 1, -1, -1))


def test_check_collar_witness_errors():
    c4 = helpers.cycle(4)
    k4 = helpers.complete_graph(4)  # vertex 0 lies in edges 0, 1 and 2
    # 2-regular and alternately signed, so the odd cycle clashes at one vertex
    c5 = Hypergraph(list("abcde"), [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])
    refusals = [
        (c4, (1, -1, 1), "3 entries for 4 edges"),
        (c4, (1, -1, 1, -1, 0), "5 entries for 4 edges"),
        (c4, (2, -1, 1, -1), "must lie in"),
        (c4, (0, 0, 0, 0), "empty collar"),
        (c4, (1, -1, 0, 0), "not 2-regular"),  # vertices 0 and 2 in one edge
        (k4, (1, -1, 1, -1, 1, -1), "not 2-regular"),
        (c4, (1, 1, -1, -1), "coloring invalid"),
        (c5, (1, -1, 1, -1, 1), r"through vertex 'a' \(index 0\) share a color"),
        (c5, (-1, 1, -1, 1, 1), r"through vertex 'e' \(index 4\) share a color"),
    ]
    for h, x, message in refusals:
        with pytest.raises(ValueError, match=message):
            check_collar_witness(h, x)
    check_collar_witness(c4, (-1, 1, -1, 1))


def test_find_collar_c4_plus_pendant():
    h = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]])
    w = find_collar_subhypergraph(h)
    assert w == (1, -1, 1, -1, 0)
    check_collar_witness(h, w)  # vertex 4 is left uncovered


def test_find_collar_triangle_none():
    assert find_collar_subhypergraph(helpers.cycle(3)) is None


def test_find_collar_collar3_with_extras(collar3):
    h, _ = collar3
    labels = list(h.labels) + ["_y0", "_y1"]
    edges = list(h.edges) + [(0, h.n), (1, h.n + 1)]
    host = Hypergraph(labels, edges)
    w = find_collar_subhypergraph(host)
    assert w is not None
    assert helpers.support(w) == tuple(range(14))
    check_collar_witness(host, w)  # the two extra vertices are left uncovered


def test_find_collar_cap():
    h = helpers.complete_uniform(6, 3)  # 20 edges
    with pytest.raises(ValueError, match="exceeds search cap"):
        find_collar_subhypergraph(h, max_edges=10)
    assert find_collar_subhypergraph(helpers.cycle(4), max_edges=4) is not None


def test_find_collar_refuses_a_negative_cap():
    # refused before any search: a single edge has no even cover, which
    # would otherwise answer None
    for h in (helpers.cycle(4), helpers.single_edge(3)):
        with pytest.raises(ValueError, match="max_edges must be non-negative, got -1"):
            find_collar_subhypergraph(h, max_edges=-1)


@settings(deadline=None, max_examples=60)
@given(strategies.hypergraphs(max_n=7, max_m=6))
def test_find_collar_matches_oracle(h):
    w = find_collar_subhypergraph(h)
    expected = collar_oracle(h)
    if expected is None:
        assert w is None
    else:
        assert w is not None
        assert helpers.support(w) == expected  # both are lexicographically first
        check_collar_witness(h, w)


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        strategies.uniform_hypergraphs(2, min_m=6),
        strategies.uniform_hypergraphs(3, min_m=6),
        strategies.hypergraphs(max_n=8, max_m=12, max_card=3),
    )
)
@example(helpers.odd_bicycle())
@example(helpers.bowtie())
@example(helpers.interleaved_four_cycles())
@example(helpers.complete_graph(5))  # kernel dimension 5, witness on (0, 1, 5, 7)
@example(helpers.complete_uniform(5, 3))  # kernel dimension 5, no collar
def test_find_collar_matches_unpruned_search(h):
    w = find_collar_subhypergraph(h, max_edges=h.m)
    assert w == collar_search_unpruned(h)
    assert w == collar_witness_oracle(h)
    if w is not None:
        # the CLI's "connected" flag, against the oracle's component count
        s = list(helpers.support(w))
        connected = _collar_coloring(h, tuple(s))[1]
        assert multigraph_is_connected(h.line[np.ix_(s, s)]) == connected


@pytest.mark.parametrize("h", [helpers.odd_bicycle(), helpers.bowtie()])
def test_find_collar_none_despite_kernel(h):
    # the kernel covers every edge, so "none" needs the exhaustive search
    kernel = exact_kernel(incidence_matrix(h))
    assert kernel and all(any(v[i] for v in kernel) for i in range(h.m))
    assert find_collar_subhypergraph(h) is None
    assert collar_oracle(h) is None


def test_find_collar_first_witness_may_be_disconnected():
    # a search split by line-graph component would return (0, 2, 4, 6)
    h = helpers.interleaved_four_cycles()
    w = find_collar_subhypergraph(h)
    assert w == (1, 1, -1, -1, 1, 1, -1, -1)
    assert not multigraph_is_connected(h.line)
    assert helpers.support(w) == collar_oracle(h)


def test_find_collar_has_no_depth_limit():
    # the witness chooses all 1200 edges, one search level each
    h = helpers.cycle(1200)
    w = find_collar_subhypergraph(h, max_edges=1200)
    assert w is not None and w == is_collar(h)


def test_find_collar_cap_counts_kernel_support():
    path = helpers.path(30)  # 29 edges, B of full column rank
    assert find_collar_subhypergraph(path, max_edges=4) is None
    with_c4 = Hypergraph.from_edges(
        list(path.edges) + [(29, 30), (30, 31), (31, 32), (32, 29)], n=33
    )
    w = find_collar_subhypergraph(with_c4, max_edges=4)
    assert w is not None and helpers.support(w) == (29, 30, 31, 32)
    with pytest.raises(ValueError, match="exceeds search cap"):
        find_collar_subhypergraph(with_c4, max_edges=3)


def test_find_collar_cap_counts_even_cover_support():
    # the bridge (2, 3) lies in no even cover, though ker B is non-zero on it
    h = helpers.odd_bicycle()
    assert all(any(v[i] for v in exact_kernel(incidence_matrix(h))) for i in range(7))
    assert find_collar_subhypergraph(h, max_edges=6) is None
    # the triangle is an even cover, but B has full column rank
    triangle = helpers.cycle(3)
    assert not exact_kernel(incidence_matrix(triangle))
    assert find_collar_subhypergraph(triangle, max_edges=2) is None


def test_find_collar_matches_unpruned_search_on_every_small_hypergraph():
    found = 0
    hypergraphs = helpers.small_simple_hypergraphs()
    for h in hypergraphs:
        w = find_collar_subhypergraph(h, max_edges=h.m)
        assert w == collar_search_unpruned(h)
        found += w is not None
    assert (len(hypergraphs), found) == (7015, 1286)


def test_find_collar_logs_why(caplog):
    caplog.set_level(logging.DEBUG, logger="hyperline")
    assert find_collar_subhypergraph(helpers.path(5)) is None
    assert find_collar_subhypergraph(helpers.odd_bicycle()) is None
    assert find_collar_subhypergraph(helpers.cycle(4)) is not None
    assert find_collar_subhypergraph(helpers.cycle(3), max_edges=2) is None
    with pytest.raises(ValueError):
        find_collar_subhypergraph(helpers.complete_uniform(6, 3), max_edges=10)
    assert [r.getMessage() for r in caplog.records] == [
        "collar search: m=4 even_cover_dim=0 support=0: no even cover",
        "collar search: m=7 even_cover_dim=2 support=6: exhaustive over support",
        "collar search: m=4 even_cover_dim=1 support=4: witness found",
        "collar search: m=3 even_cover_dim=1 support=3: full column rank",
        "collar search: m=20 even_cover_dim=14 support=20: support exceeds cap",
    ]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert all(r.name.startswith("hyperline") for r in caplog.records)


def test_library_logger_has_no_handler():
    assert logging.getLogger("hyperline").handlers == []
    assert logging.getLogger("hyperline.structure").handlers == []


@settings(deadline=None, max_examples=60)
@given(strategies.hypergraphs())
def test_is_collar_witness_sound(h):
    w = is_collar(h)
    if w is not None:
        assert all(d == 2 for d in h.degrees)
        assert all(s in (1, -1) for s in w)
        check_collar_witness(h, w)
