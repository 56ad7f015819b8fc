"""Shared instance builders for the test suite."""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from hyperline import Hypergraph

TRIO_TEXT = "1 2 3\n1 4 5\n3 4 5\n"

# (n, m, seed) of the generate benchmark workload, at --max-card 4
BENCHMARK_SIZES = (
    (40, 30, 1), (40, 30, 3), (46, 34, 2), (46, 34, 5), (50, 36, 2), (50, 36, 6),
    (56, 40, 5), (56, 40, 6), (60, 42, 3), (60, 44, 1), (60, 44, 2),
)


def entry_map(report) -> dict:
    """The report's check entries by name."""
    return {e.name: e for e in report.entries}


def from_label_edges(edge_lists) -> Hypergraph:
    labels: list[str] = []
    index: dict[str, int] = {}
    edges = []
    for e in edge_lists:
        row = []
        for lab in e:
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
            row.append(index[lab])
        edges.append(row)
    return Hypergraph(labels, edges)


def trio() -> Hypergraph:
    """Three 3-edges on five vertices; e2 and e3 share two vertices."""
    return from_label_edges([["1", "2", "3"], ["1", "4", "5"], ["3", "4", "5"]])


# A 3-uniform collar on 21 vertices: 7 "blue" and 7 "gray" edges, every
# vertex in exactly one of each.
COLLAR3_BLUE = [
    ["1", "2", "3"],
    ["11", "111", "112"],
    ["12", "121", "122"],
    ["21", "211", "212"],
    ["22", "221", "222"],
    ["31", "311", "312"],
    ["32", "321", "322"],
]
COLLAR3_GRAY = [
    ["1", "11", "12"],
    ["2", "21", "22"],
    ["3", "31", "32"],
    ["111", "211", "311"],
    ["112", "212", "312"],
    ["121", "221", "321"],
    ["122", "222", "322"],
]
# construction order: the top blue bar, the three gray triangles, the six blue
# stems, the four gray rails
COLLAR3_ORDER = [
    ("blue", 0),
    ("gray", 0),
    ("gray", 1),
    ("gray", 2),
    ("blue", 1),
    ("blue", 2),
    ("blue", 3),
    ("blue", 4),
    ("blue", 5),
    ("blue", 6),
    ("gray", 3),
    ("gray", 4),
    ("gray", 5),
    ("gray", 6),
]


def collar3() -> tuple[Hypergraph, tuple[int, ...]]:
    """The 3-uniform collar plus its signed indicator: +1 on the blue
    edges, -1 on the gray ones."""
    edges = [
        COLLAR3_BLUE[k] if color == "blue" else COLLAR3_GRAY[k]
        for color, k in COLLAR3_ORDER
    ]
    signs = tuple(1 if color == "blue" else -1 for color, _ in COLLAR3_ORDER)
    return from_label_edges(edges), signs


def support(x) -> tuple[int, ...]:
    """The edges of a collar witness: the indices of its non-zero entries."""
    return tuple(i for i, s in enumerate(x) if s)


def is_normalised(h: Hypergraph) -> bool:
    """Whether `h`, built with `Hypergraph._make`, is what the public
    constructor makes of its labels and edges, as tuples throughout."""
    return (
        h == Hypergraph(h.labels, h.edges)
        and type(h.labels) is tuple
        and type(h.edges) is tuple
        and all(type(e) is tuple for e in h.edges)
    )


def small_simple_hypergraphs(max_n: int = 5) -> list[Hypergraph]:
    """Every simple hypergraph with at least one edge on 2..max_n labelled
    vertices, isolated vertices allowed: one per non-empty antichain of
    vertex subsets of size at least 2, its edges in size order and then
    lexicographic order. There are 7015 up to 5 vertices."""
    out = []
    for n in range(2, max_n + 1):
        subsets = [
            frozenset(s) for k in range(2, n + 1)
            for s in itertools.combinations(range(n), k)
        ]

        def grow(start: int, chosen: list) -> None:
            for i in range(start, len(subsets)):
                # in size order, so only a chosen subset can nest in this one
                if any(c <= subsets[i] for c in chosen):
                    continue
                chosen.append(subsets[i])
                out.append(Hypergraph.from_edges([sorted(c) for c in chosen], n=n))
                grow(i + 1, chosen)
                chosen.pop()

        grow(0, [])
    return out


def incidence_graph(h: Hypergraph) -> nx.Graph:
    """The bipartite vertex-edge incidence graph; an empty edge is no node."""
    g = nx.Graph()
    g.add_nodes_from(("v", v) for v in range(h.n))
    g.add_edges_from((("v", v), ("e", i)) for i, e in enumerate(h.edges) for v in e)
    return g


def cycle(n: int) -> Hypergraph:
    return Hypergraph.from_edges([(i, (i + 1) % n) for i in range(n)], n=n)


def path(n: int) -> Hypergraph:
    return Hypergraph.from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def odd_bicycle() -> Hypergraph:
    """Two triangles joined by an edge: ker B is non-zero on every edge,
    yet no collar exists."""
    return Hypergraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)], n=6
    )


def bowtie() -> Hypergraph:
    """Two triangles sharing a vertex: a non-zero kernel and no collar."""
    return Hypergraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], n=5)


def interleaved_four_cycles() -> Hypergraph:
    """Two disjoint 4-cycles a and b, edges in the order a0a1 b0b1 a1a2 b1b2
    a2a3 b2b3 a3a0 b3b0; vertices a_i = 2i, b_i = 2i + 1."""
    edges = []
    for i in range(4):
        j = (i + 1) % 4
        edges += [(2 * i, 2 * j), (2 * i + 1, 2 * j + 1)]
    return Hypergraph.from_edges(edges, n=8)


def complete_graph(n: int) -> Hypergraph:
    return Hypergraph.from_edges(itertools.combinations(range(n), 2), n=n)


def circulant(n: int, k: int) -> Hypergraph:
    """k consecutive vertices mod n per edge: k-uniform and k-regular."""
    assert 2 <= k < n
    return Hypergraph.from_edges(
        [tuple((i + d) % n for d in range(k)) for i in range(n)], n=n
    )


def complete_uniform(n: int, k: int) -> Hypergraph:
    return Hypergraph.from_edges(itertools.combinations(range(n), k), n=n)


def fano_plane() -> Hypergraph:
    """The seven lines of the Fano plane: its incidence matrix has
    determinant -24 and rank 4 mod 2."""
    return Hypergraph.from_edges(
        [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    )


def core_with_tail(core: int, length: int) -> Hypergraph:
    """Every triple of `core` vertices, with a path of `length` fresh
    triples hung off vertex 0, each meeting the one before it in one
    vertex, and one more fresh vertex in the last: connected, simple, rank
    4 and corank 3. The Perron vector decays along the tail, so the strict
    gap to the upper spectral-radius bound shrinks exponentially in
    `length` (about 1e-11 at length 4 on a 6-vertex core)."""
    edges = [list(t) for t in itertools.combinations(range(core), 3)]
    joint, fresh = 0, core
    for _ in range(length):
        edges.append([joint, fresh, fresh + 1])
        joint, fresh = fresh + 1, fresh + 2
    edges[-1].append(fresh)
    return Hypergraph.from_edges(edges)


def pad_edges(h: Hypergraph, pads: dict[int, int]) -> Hypergraph:
    """Add degree-one vertices to the given edges (index -> count)."""
    labels = list(h.labels)
    edges = [list(e) for e in h.edges]
    for i, count in pads.items():
        for c in range(count):
            edges[i].append(len(labels))
            labels.append(f"_x_{i}_{c}")
    return Hypergraph(labels, edges)


def single_edge(card: int = 2) -> Hypergraph:
    return Hypergraph.from_edges([range(card)], n=card)


def skew_edge_regular_family() -> list[Hypergraph]:
    """50 deliberately skew-edge-regular hypergraphs.

    Regular uniform bases (cycles, complete graphs, circulants, complete
    k-uniform) plus degree-one padded variants; padding keeps the skew
    constant because added vertices contribute d - 1 = 0.
    """
    bases: list[Hypergraph] = []
    bases += [cycle(n) for n in (3, 4, 5, 6, 7, 8, 10, 12)]
    bases += [complete_graph(n) for n in (4, 5)]
    bases += [circulant(n, 3) for n in range(5, 11)]
    bases += [circulant(n, 4) for n in range(6, 11)]
    bases += [circulant(n, 5) for n in range(7, 11)]
    bases += [complete_uniform(4, 3), complete_uniform(5, 3), complete_uniform(5, 4), complete_uniform(6, 3)]
    out = list(bases)
    pad_schemes = [{0: 1}, {0: 2}, {0: 1, 1: 1}, {0: 2, 1: 1, 2: 1}]
    for base in bases:
        for scheme in pad_schemes:
            if len(out) >= 50:
                return out
            out.append(pad_edges(base, scheme))
    return out


def uniform_edge_regular_family() -> list[Hypergraph]:
    """20 hand-built cases where both spectral-radius bounds are attained."""
    out = [cycle(n) for n in range(3, 9)]
    out += [complete_graph(4), complete_graph(5)]
    out += [circulant(n, 3) for n in (5, 6, 7, 8)]
    out += [circulant(n, 4) for n in (6, 7, 8)]
    out += [complete_uniform(4, 3), complete_uniform(5, 3), complete_uniform(5, 4)]
    out += [collar3()[0], single_edge(3)]
    assert len(out) == 20
    return out


def line_is_regular(h: Hypergraph) -> bool:
    """Whether every vertex of the line multigraph has the same degree."""
    return len(set(h.line.sum(axis=1).tolist())) <= 1


def adjacency(order: int, mults: dict[tuple[int, int], int]) -> np.ndarray:
    """The `int64` adjacency matrix with multiplicity mults[(i, j)] at
    (i, j) and (j, i), zero elsewhere."""
    a = np.zeros((order, order), dtype=np.int64)
    for (i, j), mult in mults.items():
        a[i, j] = a[j, i] = mult
    return a


def triangle_with_doubled_edge() -> np.ndarray:
    return adjacency(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
