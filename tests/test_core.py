import itertools

import pytest
from hypothesis import given, settings

from hyperline import (
    Hypergraph,
    Multigraph,
    degree_profile,
    is_connected,
    is_uniform,
    is_valid,
    multigraph_degree,
    rank_corank,
    validate,
    zagreb_index,
    line_multigraph,
    power_hypergraph,
    PowerParams,
)

import helpers
import strategies
from oracles import connected_oracle


def test_validate_trio_clean(trio):
    assert validate(trio) == []


def test_validate_nested_edge():
    h = Hypergraph.from_edges([[0, 1], [0, 1, 2]])
    rules = [(v.rule, v.edges) for v in validate(h)]
    assert ("nested-edge", (0, 1)) in rules
    assert not is_valid(h)


def test_validate_cardinality_one():
    h = Hypergraph.from_edges([[0]], n=1)
    assert [v.rule for v in validate(h)] == ["cardinality-one"]


def test_validate_duplicate_and_out_of_range():
    h = Hypergraph(["a", "b"], [[0, 1], [1, 0], [0, 5]])
    rules = {v.rule for v in validate(h)}
    assert "duplicate-edge" in rules
    assert "index-out-of-range" in rules


def test_validate_isolated_vertex_is_warning():
    h = Hypergraph(["a", "b", "c"], [[0, 1]])
    violations = validate(h)
    assert [v.severity for v in violations] == ["warning"]
    assert is_valid(h)


def test_degree_profile_trio(trio):
    prof = degree_profile(trio)
    assert prof.degrees == (2, 1, 2, 2, 2)
    assert (prof.max, prof.min) == (2, 1)
    assert prof.average == pytest.approx(9 / 5)


def test_degree_profile_single_edge():
    assert degree_profile(helpers.single_edge(2)).degrees == (1, 1)


def test_degree_profile_cycle_regular():
    assert set(degree_profile(helpers.cycle(4)).degrees) == {2}


def test_rank_corank_trio(trio):
    assert rank_corank(trio) == (3, 3)


def test_rank_corank_mixed():
    h = Hypergraph.from_edges([[0, 1], [1, 2, 3, 4]])
    assert rank_corank(h) == (4, 2)


def test_rank_corank_power_of_path():
    powered = power_hypergraph(helpers.path(4), PowerParams(t=2, k=5))
    assert rank_corank(powered) == (5, 5)


def test_rank_corank_empty_rejected():
    with pytest.raises(ValueError, match="no hyperedges"):
        rank_corank(Hypergraph(["a"], []))


def test_connected_examples(trio):
    assert is_connected(trio)
    assert not is_connected(Hypergraph.from_edges([[0, 1], [2, 3]]))
    assert is_connected(helpers.path(4))


def test_connected_matches_oracle_exhaustive_n5():
    # every simple edge list with up to 4 edges on 5 vertices
    all_edges = [
        frozenset(c)
        for size in (2, 3, 4, 5)
        for c in itertools.combinations(range(5), size)
    ]
    count = 0
    for m in (1, 2, 3, 4):
        for combo in itertools.combinations(all_edges, m):
            if any(
                a != b and a <= b for a in combo for b in combo
            ):
                continue
            h = Hypergraph.from_edges([sorted(e) for e in combo], n=5)
            assert is_connected(h) == connected_oracle(h)
            count += 1
    assert count > 2500


@settings(deadline=None)
@given(strategies.hypergraphs(max_n=6, max_m=4))
def test_connected_matches_oracle_random(h):
    assert is_connected(h) == connected_oracle(h)


def test_uniform(trio):
    assert is_uniform(trio) == 3
    assert is_uniform(Hypergraph.from_edges([[0, 1], [1, 2, 3]])) is None
    assert is_uniform(helpers.complete_graph(5)) == 2


def test_zagreb(trio):
    assert zagreb_index(trio) == 17
    assert zagreb_index(helpers.single_edge(2)) == 2
    assert zagreb_index(helpers.cycle(4)) == 16


def test_multigraph_degree_line_of_trio(trio):
    g = line_multigraph(trio).graph
    assert multigraph_degree(g, 1) == 3
    assert multigraph_degree(g, 0) == 2


def test_multigraph_degree_isolated_and_range():
    g = Multigraph(3, {(0, 1): 2})
    assert multigraph_degree(g, 2) == 0
    with pytest.raises(IndexError):
        multigraph_degree(g, 3)


def test_multigraph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Multigraph(2, {(1, 1): 1})


@settings(deadline=None)
@given(strategies.multigraphs())
def test_multigraph_degree_and_neighbors_match_pair_scan(g):
    for v in range(g.order):
        pairs = [(i, j, m) for (i, j), m in g.multiplicities.items() if v in (i, j)]
        assert g.degree(v) == sum(m for _, _, m in pairs)
        assert g.neighbors(v) == sorted(j if i == v else i for i, j, _ in pairs)
    assert g.neighbors(g.order) == []


@settings(deadline=None)
@given(strategies.multigraphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.order)) == 2 * g.total_multiplicity()


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_degree_sum_equals_cardinality_sum(h):
    assert sum(degree_profile(h).degrees) == sum(len(e) for e in h.edges)
