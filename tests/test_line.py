import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperline import (
    Hypergraph,
    emit,
    from_multigraph,
    is_connected,
    line_degree_formula,
    line_edge_count,
    multigraph_is_connected,
    parse_text,
    power_hypergraph,
    rank_corank,
    reduce_core,
    uniformize,
    is_uniform,
    validate,
)
from hyperline.structure import regularity_report

import helpers
import strategies
from helpers import adjacency
from oracles import line_oracle, linear_oracle, reduce_core_fixpoint


def test_line_multigraph_trio(trio):
    assert trio.line.tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    assert trio.edge_label_sets() == (("1", "2", "3"), ("1", "4", "5"), ("3", "4", "5"))


def test_line_multigraph_disjoint_edges():
    a = Hypergraph.from_edges([[0, 1], [2, 3]]).line
    assert a.shape == (2, 2) and not a.any()


def test_line_multigraph_path():
    a = helpers.path(4).line
    assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_line_degree_formula_trio(trio):
    assert line_degree_formula(trio) == [2, 3, 3]
    assert line_degree_formula(helpers.single_edge(2)) == [0]


def test_line_edge_count_examples(trio):
    assert line_edge_count(trio) == 4
    assert line_edge_count(helpers.single_edge(2)) == 0
    assert line_edge_count(helpers.cycle(4)) == 4


def test_reduce_core_strips_pendant_vertex(trio):
    # trio with a sixth degree-one vertex inside the first edge; vertex "2"
    # has degree one as well, so both go, and the fixed point coincides
    # with reduce_core(trio)
    padded = Hypergraph(
        ["1", "2", "3", "4", "5", "6"], [[0, 1, 2, 5], [0, 3, 4], [2, 3, 4]]
    )
    assert reduce_core(padded) == reduce_core(trio)
    assert np.array_equal(reduce_core(padded).line, padded.line)
    assert np.array_equal(padded.line, trio.line)


def test_reduce_core_trio_removes_degree_one_vertex(trio):
    reduced = reduce_core(trio)
    assert reduced.labels == ("1", "3", "4", "5")
    assert reduced.edges == ((0, 1), (0, 2, 3), (1, 2, 3))
    assert np.array_equal(reduced.line, trio.line)


def test_reduce_core_noop_on_graphs():
    p4 = helpers.path(4)
    assert reduce_core(p4) == p4


def test_uniformize_pads_short_edges():
    h = helpers.from_label_edges([["1", "2"], ["2", "3", "4"]])
    u = uniformize(h)
    assert u.edge_label_sets() == (("1", "2", "_pad_0_0"), ("2", "3", "4"))
    assert is_uniform(u) == 3


def test_uniformize_skips_padding_labels_in_use():
    # "_pad_0_0" is taken by a vertex of edge 1, so edge 0 pads with "_pad_0_1"
    h = Hypergraph(["a", "b", "c", "_pad_0_0"], [[0, 1], [1, 2, 3]])
    u = uniformize(h)
    assert u.edge_label_sets() == (("a", "b", "_pad_0_1"), ("b", "c", "_pad_0_0"))
    assert len(set(u.labels)) == u.n
    assert np.array_equal(u.line, h.line)
    assert np.array_equal(parse_text(emit(u)).line, h.line)


def test_uniformize_identity_on_uniform(trio):
    assert uniformize(trio) == trio


def test_uniformize_then_reduce_preserves_line():
    h = helpers.from_label_edges([["1", "2"], ["2", "3", "4"]])
    roundtrip = reduce_core(uniformize(h))
    assert np.array_equal(roundtrip.line, h.line)


def test_from_multigraph_triangle_with_doubled_edge():
    g = helpers.triangle_with_doubled_edge()
    h = from_multigraph(g)
    assert sorted(len(e) for e in h.edges) == [2, 3, 3]
    assert np.array_equal(h.line, g)
    assert rank_corank(h)[0] == 3


def test_from_multigraph_c4_self_line():
    g = helpers.cycle(4).line
    h = from_multigraph(g)
    assert np.array_equal(h.line, g)


def test_from_multigraph_line_of_trio(trio):
    g = trio.line
    h = from_multigraph(g)
    assert h.n == 4 and h.m == 3
    assert sorted(len(e) for e in h.edges) == [2, 3, 3]
    assert np.array_equal(h.line, g)


def test_from_multigraph_rejects_low_degree():
    with pytest.raises(ValueError, match="degree < 2"):
        from_multigraph(adjacency(3, {(0, 1): 2, (1, 2): 1}))
    with pytest.raises(ValueError, match="isolated"):
        from_multigraph(adjacency(3, {(0, 1): 2}))


@pytest.mark.parametrize(
    ("a", "rule"),
    [
        (adjacency(2, {(0, 1): 2}), "duplicate-edge"),
        (adjacency(3, {(0, 1): 2, (1, 2): 2}), "nested-edge"),
    ],
)
def test_from_multigraph_can_return_a_non_simple_hypergraph(a, rule):
    # every edge at a vertex ends at one neighbour: its hyperedge lies in
    # that neighbour's, yet the line multigraph is still exact
    h = from_multigraph(a)
    assert np.array_equal(h.line, a)
    assert {v.rule for v in validate(h)} == {rule}
    with pytest.raises(ValueError):
        parse_text(emit(h))


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_line_degree_formula_matches_construction(h):
    assert line_degree_formula(h) == h.line.sum(axis=1).tolist()


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_line_edge_count_matches_construction(h):
    assert line_edge_count(h) == np.triu(h.line).sum()


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_reduce_and_uniformize_preserve_line(h):
    base = h.line
    assert np.array_equal(reduce_core(h).line, base)
    assert np.array_equal(uniformize(h).line, base)


def assert_line_and_linearity_match_all_pairs(h):
    assert np.array_equal(h.line, adjacency(h.m, line_oracle(h)))
    assert regularity_report(h).linear == linear_oracle(h)


@settings(deadline=None)
@given(
    st.one_of(
        strategies.hypergraphs(),
        st.integers(min_value=2, max_value=4).flatmap(strategies.uniform_hypergraphs),
    )
)
def test_line_and_linearity_match_all_pairs_random(h):
    assert_line_and_linearity_match_all_pairs(h)


def test_line_and_linearity_match_all_pairs_circulant():
    assert_line_and_linearity_match_all_pairs(helpers.circulant(200, 4))


@pytest.mark.parametrize(
    "h",
    [
        helpers.circulant(140, 4),
        helpers.complete_uniform(9, 3),
        power_hypergraph(helpers.circulant(30, 3), t=2, k=8),
    ],
    ids=["circulant140_4", "complete9_3", "power_t2_circulant30_3"],
)
def test_line_matches_all_pairs_at_size(h):
    assert np.array_equal(h.line, adjacency(h.m, line_oracle(h)))


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_reduce_core_one_pass_matches_fixpoint(h):
    # padding adds degree-one vertices to every short edge
    for x in (h, uniformize(h)):
        reduced, expected = reduce_core(x), reduce_core_fixpoint(x)
        assert reduced.labels == expected.labels
        assert reduced.edges == expected.edges


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_linear_iff_line_simple(h):
    simple = bool(h.line.max() <= 1)
    assert simple == regularity_report(h).linear


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_connected_iff_line_connected(h):
    # strategy outputs carry no isolated vertices
    assert is_connected(h) == multigraph_is_connected(h.line)


@settings(deadline=None)
@given(strategies.multigraphs(min_order=0))
@example(np.zeros((0, 0), dtype=np.int64))
@example(np.zeros((1, 1), dtype=np.int64))
@example(adjacency(4, {(0, 1): 2, (2, 3): 1}))
def test_multigraph_is_connected_matches_networkx(a):
    graph = nx.from_numpy_array(a)
    expected = len(a) <= 1 or nx.is_connected(graph)
    assert multigraph_is_connected(a) == expected


@settings(deadline=None)
@given(strategies.multigraphs())
def test_from_multigraph_reconstructs(g):
    assume((g.sum(axis=1) >= 2).all())
    assert np.array_equal(from_multigraph(g).line, g)


def test_uniformize_and_reduce_core_keep_the_line_on_every_small_hypergraph(
    small_simple,
):
    for h in small_simple:
        assert np.array_equal(uniformize(h).line, h.line)
        assert np.array_equal(reduce_core(h).line, h.line)


def test_regular_uniform_line_degree_formula():
    # d-regular, k-uniform: every line degree is k(d-1)
    for h, k, d in [
        (helpers.cycle(5), 2, 2),
        (helpers.circulant(7, 3), 3, 3),
        (helpers.complete_uniform(5, 4), 4, 4),
        (helpers.complete_graph(4), 2, 3),
    ]:
        assert (h.line.sum(axis=1) == k * (d - 1)).all()
