"""Hypothesis strategies for small hypergraphs and multigraphs."""

from __future__ import annotations

import itertools

from hypothesis import assume, strategies as st

from hyperline import Hypergraph

import helpers


def _relabel_covered(edges) -> Hypergraph:
    """The hypergraph on the covered vertices, numbered in ascending order."""
    covered = sorted({v for e in edges for v in e})
    remap = {v: i for i, v in enumerate(covered)}
    return Hypergraph.from_edges(
        [sorted(remap[v] for v in e) for e in edges], n=len(covered)
    )


@st.composite
def hypergraphs(draw, max_n: int = 7, max_m: int = 5, max_card: int = 5):
    """Simple hypergraphs without isolated vertices (not necessarily connected)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edge = st.frozensets(
        st.integers(min_value=0, max_value=n - 1),
        min_size=2,
        max_size=min(max_card, n),
    )
    edges = draw(st.lists(edge, min_size=1, max_size=max_m, unique=True))
    assume(
        all(
            not (edges[i] <= edges[j])
            for i in range(len(edges))
            for j in range(len(edges))
            if i != j
        )
    )
    return _relabel_covered(edges)


@st.composite
def uniform_hypergraphs(
    draw, k: int, max_n: int = 9, min_m: int = 1, max_m: int = 12
):
    """Simple k-uniform hypergraphs without isolated vertices (equal sizes
    rule out nested edges, so nothing is filtered)."""
    n = draw(st.integers(min_value=k + 1, max_value=max_n))
    edge = st.frozensets(
        st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k
    )
    edges = draw(st.lists(edge, min_size=min_m, max_size=max_m, unique=True))
    return _relabel_covered(edges)


@st.composite
def multigraphs(draw, min_order: int = 2, max_order: int = 6, max_mult: int = 3):
    """Adjacency matrices of multigraphs on min_order..max_order vertices."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    pairs = list(itertools.combinations(range(order), 2))
    mults = {}
    if pairs:
        mults = draw(
            st.dictionaries(
                st.sampled_from(pairs),
                st.integers(min_value=1, max_value=max_mult),
                max_size=len(pairs),
            )
        )
    return helpers.adjacency(order, mults)


@st.composite
def symmetric_int_matrices(draw, max_order: int = 6, max_abs: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_order))
    vals = draw(
        st.lists(
            st.integers(min_value=-max_abs, max_value=max_abs),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    rows = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            x = next(it)
            rows[i][j] = x
            rows[j][i] = x
    return rows
