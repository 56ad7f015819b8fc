import hashlib
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperline import (
    Hypergraph,
    generate_hypergraph,
    is_connected,
    validate,
)
from hyperline import core, generate

from helpers import BENCHMARK_SIZES, adjacency
from oracles import connected_edges_by_nesting, line_oracle


def test_deterministic_per_seed():
    a = generate_hypergraph(6, 4, 4, seed=1)
    b = generate_hypergraph(6, 4, 4, seed=1)
    assert a == b
    assert not validate(a) and is_connected(a)


def test_seeds_vary():
    outputs = {generate_hypergraph(6, 3, 4, seed=s) for s in range(10)}
    assert len(outputs) > 1


def test_single_edge_case():
    h = generate_hypergraph(2, 1, 4, seed=0)
    assert h.labels == ("1", "2")
    assert h.edges == ((0, 1),)


def test_infeasible_raises(monkeypatch):
    monkeypatch.setattr(generate, "MAX_ATTEMPTS", 200)
    # above the antichain bound: refused before any draw
    with pytest.raises(ValueError, match=r"antichain .* m <= max C\(n, k\) = 3"):
        generate_hypergraph(3, 7, 3, seed=0)
    # within it (every triple of 8 vertices, 56 edges, is simple), yet past
    # what the sampler completes: it gives up after MAX_ATTEMPTS draws
    with pytest.raises(ValueError, match="after 200 attempts"):
        generate_hypergraph(8, 40, 3, seed=0)


@pytest.mark.parametrize(
    "n, m, max_card, widest",
    [(6, 30, 3, 20), (5, 11, 3, 10), (4, 7, 4, 6), (3, 4, 2, 3)],
)
def test_sizes_beyond_the_antichain_bound_are_refused_at_once(
    monkeypatch, n, m, max_card, widest
):
    def no_draw(*args):
        raise AssertionError("drew a size beyond the antichain bound")

    monkeypatch.setattr(generate, "_sizes", no_draw)
    with pytest.raises(ValueError, match=rf"m <= max C\(n, k\) = {widest}$"):
        generate_hypergraph(n, m, max_card, seed=0)


def test_antichain_bound_is_the_largest_binomial():
    for n in range(2, 61):
        for max_card in range(2, n + 2):
            widest = max(math.comb(n, k) for k in range(2, min(max_card, n) + 1))
            with pytest.raises(ValueError, match=rf"m <= max C\(n, k\) = {widest}$"):
                generate_hypergraph(n, widest + 1, max_card, seed=0)


def test_antichain_refusal_computes_one_binomial(monkeypatch):
    calls = []

    def counted_comb(n, k):
        calls.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(generate, "comb", counted_comb)
    with pytest.raises(ValueError, match="antichain"):
        generate_hypergraph(4000, 10**1300, 4000, seed=0)
    assert calls == [(4000, 2000)]


@pytest.mark.parametrize("n, m, max_card", [(4, 6, 2), (5, 10, 3), (4, 6, 4)])
def test_sizes_at_the_antichain_bound_generate(n, m, max_card):
    h = generate_hypergraph(n, m, max_card, seed=0)
    assert h.m == m and not validate(h) and is_connected(h)


def test_sizes_that_cannot_connect_are_refused_at_once():
    # connected, 10 edges of at most 4 vertices cover at most 1 + 10 * 3 < 60
    with pytest.raises(ValueError, match=r"m \* \(min\(max_card, n\) - 1\) = 30 < n - 1 = 59"):
        generate_hypergraph(60, 10, 4, seed=0)
    with pytest.raises(ValueError, match=r"= 3 < n - 1 = 4"):
        generate_hypergraph(5, 1, 4, seed=0)
    # at the bound itself a connected hypergraph exists: two triples sharing a vertex
    h = generate_hypergraph(5, 2, 3, seed=0)
    assert sorted(map(len, h.edges)) == [3, 3] and is_connected(h)


# sizes at which the rejection sampler, or sizes drawn without regard to
# covering n, gave up after 5000 attempts
MISSED = (
    [(80, 60, 4, 1), (60, 45, 4, 2), (60, 44, 4, 8), (60, 40, 4, 8)]
    + [(60, 42, 4, s) for s in (1, 2, 4, 5, 6)]
    + [(300, 150, 3, 1), (60, 30, 3, 1), (100, 40, 4, 1)]
)


# ids "n-m-seed", with max_card before the seed where it is not the CLI's 4
@pytest.mark.parametrize(
    "n, m, max_card, seed",
    MISSED,
    ids=[f"{n}-{m}-{s}" if c == 4 else f"{n}-{m}-{c}-{s}" for n, m, c, s in MISSED],
)
def test_sizes_the_rejection_sampler_missed(n, m, max_card, seed):
    h = generate_hypergraph(n, m, max_card, seed)
    assert h.m == m and not validate(h) and is_connected(h)
    assert all(2 <= len(e) <= max_card for e in h.edges)


def test_edge_sampler_matches_the_nesting_rule_draw_for_draw():
    # dense sizes, up to the antichain bound, so that edges are redrawn and
    # whole draws abandoned; each state is followed over several draws
    outcomes = set()
    for n in range(4, 11):
        for max_card in (2, 3, 4, 5):
            top = min(max_card, n)
            widest = math.comb(n, max(2, min(top, n // 2)))
            for m in {widest, widest - 1, 3 * widest // 4, widest // 2}:
                if m > 40 or m * (top - 1) < n - 1:
                    continue
                for seed in range(3):
                    fast, slow = random.Random(seed), random.Random(seed)
                    for _ in range(4):
                        drawn = generate._connected_edges(
                            fast, n, generate._sizes(fast, n, m, top)
                        )
                        assert drawn == connected_edges_by_nesting(
                            slow, n, generate._sizes(slow, n, m, top), generate.EDGE_TRIES
                        )
                        assert fast.getstate() == slow.getstate()
                        outcomes.add(drawn is None)
    assert outcomes == {True, False}


@st.composite
def feasible_sizes(draw, max_card=st.integers(2, 6)):
    """(n, m, max_card, seed) with (n - 1) / (min(max_card, n) - 1) <= m <= n:
    from the refusal bound, below which no connected hypergraph exists, up
    to n edges, which fit simply on n >= 3 vertices."""
    n = draw(st.integers(2, 300))
    card = draw(max_card)
    lo = math.ceil((n - 1) / (min(card, n) - 1))
    m = draw(st.integers(lo, n if n >= 3 else 1))
    return n, m, card, draw(st.integers(0, 2**32))


def incidence_graph(h: Hypergraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(("v", v) for v in range(h.n))
    g.add_edges_from((("v", v), ("e", i)) for i, e in enumerate(h.edges) for v in e)
    return g


@settings(deadline=None, max_examples=60)
@given(feasible_sizes())
def test_outputs_are_simple_connected_and_seeded(sizes):
    n, m, max_card, seed = sizes
    h = generate_hypergraph(n, m, max_card, seed)
    assert h.n == n and h.m == m
    assert all(2 <= len(e) <= max_card for e in h.edges)
    assert validate(h) == []
    assert nx.is_connected(incidence_graph(h))
    assert np.array_equal(h.line, adjacency(m, line_oracle(h)))
    assert generate_hypergraph(n, m, max_card, seed) == h


@settings(deadline=None, max_examples=30)
@given(feasible_sizes(max_card=st.just(2)))
def test_graph_outputs_have_the_line_graph_as_line(sizes):
    h = generate_hypergraph(*sizes)
    line = nx.line_graph(nx.Graph(h.edges))
    index = {frozenset(e): i for i, e in enumerate(h.edges)}
    expected = {tuple(sorted((index[frozenset(a)], index[frozenset(b)]))) for a, b in line.edges}
    assert {(i, j) for i, j in np.argwhere(np.triu(h.line)).tolist()} == expected
    assert h.line.max() <= 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_hypergraph(1, 1, 3, seed=0)
    with pytest.raises(ValueError):
        generate_hypergraph(4, 0, 3, seed=0)
    with pytest.raises(ValueError):
        generate_hypergraph(4, 1, 1, seed=0)


def test_outputs_validate_and_mutations_are_rejected():
    for seed in range(30):
        h = generate_hypergraph(7, 4, 4, seed=seed)
        assert validate(h) == []
        # seeded mutations must be caught
        singleton = Hypergraph(h.labels, list(h.edges) + [(0,)])
        assert any(v.rule == "cardinality-one" for v in validate(singleton))
        nested = Hypergraph(h.labels, list(h.edges) + [h.edges[0][:2]])
        rules = {v.rule for v in validate(nested)}
        assert "nested-edge" in rules or "duplicate-edge" in rules


def test_draws_are_simple_by_construction_without_validate(monkeypatch):
    def refuse(h):
        raise RuntimeError("the generator called validate")

    monkeypatch.setattr(core, "validate", refuse)
    outputs = [generate_hypergraph(n, m, 4, s) for n, m, s in BENCHMARK_SIZES]
    monkeypatch.undo()
    assert all(not validate(h) and is_connected(h) for h in outputs)


def _digest(hypergraphs) -> str:
    return hashlib.sha256(
        repr([(h.labels, h.edges) for h in hypergraphs]).encode()
    ).hexdigest()


# The corpus feeds the acceptance tests, so a change to what the generator
# draws or accepts must change these digests on purpose.
def test_corpus_output_is_pinned(corpus):
    assert _digest(corpus) == (
        "c55a5338ed0c3b003b7b95e6527a052f74974037c676210ed4b34ecbb245ff6a"
    )


def test_benchmark_sized_output_is_pinned():
    outputs = [generate_hypergraph(40, 30, 4, 1), generate_hypergraph(60, 44, 4, 2)]
    assert _digest(outputs) == (
        "1373f6c854803bfe2cc1e14b6430e75ac1b13b332aa282070c8db74e23ed9dbb"
    )
