import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperline import (
    Hypergraph,
    from_multigraph,
    is_connected,
    is_uniform,
    rank_corank,
    Violation,
    validate,
    zagreb_index,
    power_hypergraph,
)

import helpers
import strategies
from oracles import connected_oracle, line_oracle, nested_pairs_oracle


def test_validate_trio_clean(trio):
    assert validate(trio) == []


def test_validate_nested_edge():
    h = Hypergraph.from_edges([[0, 1], [0, 1, 2]])
    rules = [(v.rule, v.edges) for v in validate(h)]
    assert ("nested-edge", (0, 1)) in rules


def test_validate_cardinality_one():
    h = Hypergraph.from_edges([[0]], n=1)
    assert [v.rule for v in validate(h)] == ["cardinality-one"]


def test_validate_duplicate_edge():
    h = Hypergraph(["a", "b"], [[0, 1], [1, 0]])
    assert [(v.rule, v.edges) for v in validate(h)] == [("duplicate-edge", (0, 1))]


def test_validate_ignores_isolated_vertices():
    # an isolated vertex breaks no simple-hypergraph rule; h.degrees shows it
    h = Hypergraph(["a", "b", "c"], [[0, 1]])
    assert validate(h) == []
    assert h.degrees == (1, 1, 0)


@pytest.mark.parametrize("stray", [-1, 3])
def test_constructor_rejects_stray_indices(stray):
    # readers that skip h.incidence once took -1 as vertex "c": the power
    # (t=1, k=2) came back with edges (0, 2), (1, 2) and edge_label_sets
    # with ('c', 'a'); 3 made power_hypergraph raise a bare IndexError
    with pytest.raises(ValueError, match=f"edge 0 references unknown vertex index {stray}$"):
        power_hypergraph(Hypergraph(["a", "b", "c"], [[stray, 0], [1, 2]]), 1, 2)


def test_validate_empty_edge_is_nested_in_every_nonempty_edge():
    h = Hypergraph(["a", "b", "c"], [[0, 1], [], [1, 2], []])
    nested = [v for v in validate(h) if v.rule == "nested-edge"]
    assert [v.edges for v in nested] == [(1, 0), (1, 2), (3, 0), (3, 2)]


def test_validate_reports_duplicated_largest_edges_and_the_edges_they_nest():
    # edges of the largest size nest nothing, yet their duplicates and the
    # smaller edges they hold are still reported, in order
    h = Hypergraph.from_edges(
        [[0, 1, 2], [0, 1], [0, 1, 2], [1, 2], [3, 4, 5], [2], [3, 4, 5], [4, 5]]
    )
    assert [(v.rule, v.edges) for v in validate(h)] == [
        ("cardinality-one", (5,)),
        ("duplicate-edge", (0, 2)),
        ("duplicate-edge", (4, 6)),
        ("nested-edge", (1, 0)),
        ("nested-edge", (1, 2)),
        ("nested-edge", (3, 0)),
        ("nested-edge", (3, 2)),
        ("nested-edge", (5, 0)),
        ("nested-edge", (5, 2)),
        ("nested-edge", (5, 3)),
        ("nested-edge", (7, 4)),
        ("nested-edge", (7, 6)),
    ]


def test_validate_uniform_duplicates_build_no_incidence_index():
    h = Hypergraph.from_edges([[0, 1], [1, 2], [0, 1], [1, 2], [0, 1]])
    assert [(v.rule, v.edges) for v in validate(h)] == [
        ("duplicate-edge", (0, 2)),
        ("duplicate-edge", (1, 3)),
        ("duplicate-edge", (0, 4)),
    ]
    assert "incidence" not in vars(h)


_BEFORE_NESTED = ("cardinality-one", "duplicate-edge")


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=max(n - 1, 0)),
                    max_size=4 if n else 0,
                ),
                max_size=7,
            ),
        )
    )
)
@example((3, [[0, 1], [], [0], [0, 1], [0, 1, 2]]))
# a set of these edge indices iterates as 8, 1, 2: the pairs must be sorted
@example((22, [[10, 11], [0, 1], [0, 1, 2], [12, 13], [14, 15], [16, 17],
               [18, 19], [20, 21], [0, 1, 3]]))
def test_validate_nested_pairs_match_all_pairs_oracle(case):
    n, edges = case
    h = Hypergraph([str(v) for v in range(n)], edges)
    got = validate(h)
    # the oracle's pairs, in order, form one block after the per-edge and
    # duplicate violations
    before = [v for v in got if v.rule in _BEFORE_NESTED]
    nested = [
        Violation("nested-edge", f"edge {i} ⊆ edge {j}", (i, j))
        for i, j in nested_pairs_oracle(h)
    ]
    assert got == before + nested


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(min_value=-2, max_value=n + 1), max_size=4),
                max_size=7,
            ),
        )
    )
)
@example((3, [[0, 1], [], [0], [0, 1], [0, 1, 2], [-1, 0], [1, 4]]))
# the first stray entry of the first edge holding one, not the edge's last
@example((3, [[0, 1], [5, 0, 4], [-1, 2]]))
def test_constructor_raises_exactly_on_stray_indices(case):
    n, edges = case
    stray = [
        (i, v) for i, e in enumerate(edges) for v in sorted(set(e)) if not 0 <= v < n
    ]
    if not stray:
        assert Hypergraph.from_edges(edges, n=n).n == n
        return
    i, v = stray[0]
    with pytest.raises(ValueError) as err:
        Hypergraph.from_edges(edges, n=n)
    assert str(err.value) == f"edge {i} references unknown vertex index {v}"


def test_degrees_trio(trio):
    assert trio.degrees == (2, 1, 2, 2, 2)


def test_degrees_single_edge():
    assert helpers.single_edge(2).degrees == (1, 1)


def test_degrees_cycle_regular():
    assert set(helpers.cycle(4).degrees) == {2}


def test_rank_corank_trio(trio):
    assert rank_corank(trio) == (3, 3)


def test_rank_corank_mixed():
    h = Hypergraph.from_edges([[0, 1], [1, 2, 3, 4]])
    assert rank_corank(h) == (4, 2)


def test_rank_corank_power_of_path():
    powered = power_hypergraph(helpers.path(4), t=2, k=5)
    assert rank_corank(powered) == (5, 5)


def test_rank_corank_empty_rejected():
    with pytest.raises(ValueError, match="no hyperedges"):
        rank_corank(Hypergraph(["a"], []))


def test_line_refuses_no_edges():
    with pytest.raises(ValueError, match="no hyperedges"):
        Hypergraph(["a"], []).line


def test_connected_examples(trio):
    assert is_connected(trio)
    assert not is_connected(Hypergraph.from_edges([[0, 1], [2, 3]]))
    assert is_connected(helpers.path(4))


@pytest.mark.parametrize("labels", [[], ["a"]])
def test_connected_on_at_most_one_vertex(labels):
    assert is_connected(Hypergraph(labels, []))


@pytest.mark.parametrize(
    "edges, n, connected",
    [
        # an empty edge meets nothing, and joins or splits nothing
        ([[0, 1], []], None, True),
        ([[], [0, 1]], None, True),
        ([[0, 1], []], 3, False),
        ([], 2, False),
    ],
)
def test_connected_skips_empty_edges(edges, n, connected):
    assert is_connected(Hypergraph.from_edges(edges, n=n)) is connected


def test_connected_matches_networkx_on_every_small_hypergraph(small_simple):
    for h in small_simple:
        assert is_connected(h) == nx.is_connected(helpers.incidence_graph(h))


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
    assert trio.line.sum(axis=1).tolist() == [2, 3, 3]


def test_line_is_a_read_only_int64_matrix(trio):
    a = trio.line
    assert a.dtype == np.int64 and a.shape == (3, 3)
    with pytest.raises(ValueError, match="read-only"):
        a[0, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        a += 1
    assert trio.line[0, 1] == 1


def test_hypergraph_is_an_immutable_value():
    h = Hypergraph(["a", "b", "c"], [[1, 0, 1], [2, 1]])
    same = Hypergraph(("a", "b", "c"), [(0, 1), (1, 2)])
    assert h == same and hash(h) == hash(same)
    assert repr(h) == "Hypergraph(labels=('a', 'b', 'c'), edges=((0, 1), (1, 2)))"
    with pytest.raises(AttributeError):
        h.labels = ("x", "y", "z")
    with pytest.raises(AttributeError):
        h.degrees = (0, 0, 0)  # a cached property is not overwritten either
    assert h.degrees == (1, 2, 1)
    assert pickle.loads(pickle.dumps(h)) == h
    assert h.line is h.line


def test_multigraph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        from_multigraph(np.array([[0, 2], [2, 1]]))


def test_multigraph_rejects_non_integer_multiplicity():
    with pytest.raises(ValueError, match="non-integer multiplicities of dtype float64"):
        from_multigraph(np.array([[0, 1.5], [1.5, 0]]))
    with pytest.raises(ValueError, match=r"negative multiplicity at \(0, 1\)"):
        from_multigraph(np.array([[0, -2], [-2, 0]]))
    h = from_multigraph(np.array([[0, 2], [2, 0]], dtype=np.int64))
    assert h.labels == ("0-1:0", "0-1:1")
    assert h.line.tolist() == [[0, 2], [2, 0]]


def test_multigraph_rejects_asymmetric_and_non_square():
    with pytest.raises(ValueError, match=r"asymmetric multiplicities at \(0, 2\)"):
        from_multigraph(np.array([[0, 2, 1], [2, 0, 2], [2, 2, 0]]))
    for shape in [(2, 3), (4,), (2, 2, 2)]:
        with pytest.raises(ValueError, match="must be square"):
            from_multigraph(np.zeros(shape, dtype=np.int64))


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_multigraph_degree_and_neighbors_match_pair_scan(h):
    a, pairs = h.line, line_oracle(h)
    for v in range(h.m):
        incident = [(i, j, mult) for (i, j), mult in pairs.items() if v in (i, j)]
        assert a[v].sum() == sum(mult for _, _, mult in incident)
        assert np.flatnonzero(a[v]).tolist() == sorted(
            j if i == v else i for i, j, _ in incident
        )


@settings(deadline=None)
@given(strategies.multigraphs())
def test_handshake(a):
    assert a.sum(axis=1).sum() == 2 * np.triu(a).sum()


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_degree_sum_equals_cardinality_sum(h):
    assert sum(h.degrees) == sum(len(e) for e in h.edges)
