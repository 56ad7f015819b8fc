"""Line multigraphs and the transformations that preserve them.

The line multigraph of a hypergraph has one vertex per hyperedge; two
vertices are joined by as many parallel edges as the corresponding
hyperedges share vertices. Padding an edge with fresh degree-one vertices,
or stripping a degree-one vertex out of an edge of size >= 3, never changes
any pairwise intersection, which is what makes `reduce_core` / `uniformize`
line-preserving and makes every multigraph realizable as a line multigraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hypergraph, Multigraph, degree_profile, rank_corank, zagreb_index


@dataclass(frozen=True)
class LineMultigraph:
    """Line multigraph plus, per multigraph vertex, the source edge's labels."""

    graph: Multigraph
    edge_labels: tuple[tuple[str, ...], ...] | None = None


def line_multigraph(h: Hypergraph) -> LineMultigraph:
    """Pairwise intersection cardinalities as edge multiplicities."""
    if h.m == 0:
        raise ValueError("no hyperedges")
    mults: dict[tuple[int, int], int] = {}
    sets = [set(e) for e in h.edges]
    for i in range(h.m):
        for j in range(i + 1, h.m):
            c = len(sets[i] & sets[j])
            if c:
                mults[(i, j)] = c
    return LineMultigraph(Multigraph(h.m, mults), h.edge_label_sets())


def line_degree_formula(h: Hypergraph, i: int) -> int:
    """Degree of line vertex i from hypergraph degrees: sum_{v in e_i} d(v) - |e_i|."""
    if not 0 <= i < h.m:
        raise IndexError(f"edge index {i} out of range")
    e = h.edges[i]
    return sum(h.degrees[v] for v in e) - len(e)


def line_edge_count(h: Hypergraph) -> int:
    """Total line multiplicity, computed exactly from degrees alone."""
    degs = degree_profile(h).degrees
    twice = zagreb_index(h) - sum(degs)
    # sum d(d-1) over vertices is always even
    if twice % 2:
        raise AssertionError(f"odd degree sum {twice} for the line edge count")
    return twice // 2


def scale_multigraph(g: Multigraph, t: int) -> Multigraph:
    """Multiply every multiplicity by t >= 1; vertex set unchanged."""
    if t < 1:
        raise ValueError(f"scale factor must be >= 1, got {t}")
    return Multigraph(g.order, {key: t * m for key, m in g.multiplicities.items()})


def reduce_core(h: Hypergraph) -> Hypergraph:
    """Strip degree-one vertices out of edges of size >= 3 until none remain.

    Vertices are scanned in ascending index order, so the result is
    deterministic. The line multigraph is unchanged. Note the literal rule
    can leave two edges equal as sets (e.g. two triples sharing two
    vertices, each with a private third vertex); the edge list keeps both
    entries, so intersections and the line multigraph are still intact,
    while validate() will report the pair.
    """
    edges = [set(e) for e in h.edges]
    alive = [True] * h.n
    changed = True
    while changed:
        changed = False
        for v in range(h.n):
            if not alive[v]:
                continue
            incident = [j for j, e in enumerate(edges) if v in e]
            if len(incident) == 1 and len(edges[incident[0]]) >= 3:
                edges[incident[0]].discard(v)
                alive[v] = False
                changed = True
    remap = {}
    labels = []
    for v in range(h.n):
        if alive[v]:
            remap[v] = len(labels)
            labels.append(h.labels[v])
    return Hypergraph(labels, [sorted(remap[v] for v in e) for e in edges])


def uniformize(h: Hypergraph) -> Hypergraph:
    """Pad every short edge with fresh degree-one vertices up to the rank.

    Padding labels are "_pad_<edge index>_<counter>" so they cannot collide
    with user labels; the line multigraph is unchanged and the result is
    rank-uniform.
    """
    r, _ = rank_corank(h)
    labels = list(h.labels)
    edges = []
    for i, e in enumerate(h.edges):
        e = list(e)
        for c in range(r - len(e)):
            e.append(len(labels))
            labels.append(f"_pad_{i}_{c}")
        edges.append(e)
    return Hypergraph(labels, edges)


def from_multigraph(g: Multigraph) -> Hypergraph:
    """A hypergraph whose line multigraph is g, with rank = max degree of g.

    Hypergraph vertices are g's edge instances; the hyperedge for vertex u
    collects the instances incident to u, so two hyperedges meet in exactly
    the parallel edges joining their endpoints. Vertices of degree < 2 are
    rejected: degree 0 leaves an uncoverable hyperedge slot and degree 1
    yields a cardinality-one hyperedge.
    """
    for v in range(g.order):
        d = g.degree(v)
        if d == 0:
            raise ValueError(f"isolated vertex {v}")
        if d < 2:
            raise ValueError(f"vertex {v} of degree < 2 yields non-simple hypergraph")
    labels = []
    incident: list[list[int]] = [[] for _ in range(g.order)]
    for i, j, mult in g.pairs():
        for c in range(mult):
            idx = len(labels)
            labels.append(f"{i}-{j}:{c}")
            incident[i].append(idx)
            incident[j].append(idx)
    return Hypergraph(labels, [sorted(e) for e in incident])
