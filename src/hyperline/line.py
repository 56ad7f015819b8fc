"""Line multigraphs and the transformations that preserve them.

The line multigraph of a hypergraph has one vertex per hyperedge; two
vertices are joined by as many parallel edges as the corresponding
hyperedges share vertices. It is held as its adjacency matrix `h.line`,
`BᵀB` less its diagonal. Padding an edge with fresh degree-one vertices,
or stripping a degree-one vertex out of an edge of size >= 3, never changes
any pairwise intersection, which is what makes `reduce_core` / `uniformize`
line-preserving and makes every multigraph realizable as a line multigraph.
"""

from __future__ import annotations

from . import _numpy as np
from .core import Hypergraph, rank_corank, zagreb_index


def line_degree_formula(h: Hypergraph) -> list[int]:
    """Every line-vertex degree from hypergraph degrees alone, in edge order:
    edge e's is sum_{v in e} (d(v) - 1), its skew degree sum."""
    degs = h.degrees
    return [sum(degs[v] for v in e) - len(e) for e in h.edges]


def line_edge_count(h: Hypergraph) -> int:
    """Total line multiplicity, computed exactly from degrees alone."""
    # sum d(d-1) over vertices is always even
    return (zagreb_index(h) - sum(h.degrees)) // 2


def reduce_core(h: Hypergraph) -> Hypergraph:
    """Strip degree-one vertices out of edges of size >= 3 until none remain.

    Vertices are scanned in ascending index order, so the result is
    deterministic; the survivors keep their order, so each edge stays sorted
    and the value is built with `Hypergraph._make`. The line multigraph is
    unchanged. The literal rule can leave two edges equal as sets (e.g. two
    triples sharing two vertices, each with a private third vertex); the
    edge list keeps both entries, so intersections and the line multigraph
    are still intact, while validate() will report the pair.
    """
    sizes = [len(e) for e in h.edges]
    alive = [True] * h.n
    # stripping v changes no other degree and only shrinks edges, so a vertex
    # skipped here never becomes strippable: one pass reaches the fixpoint
    for v, incident in enumerate(h.incidence):
        if len(incident) == 1 and sizes[incident[0]] >= 3:
            sizes[incident[0]] -= 1
            alive[v] = False
    kept = [v for v in range(h.n) if alive[v]]
    remap = {v: i for i, v in enumerate(kept)}
    edges = tuple(tuple(remap[v] for v in e if alive[v]) for e in h.edges)
    return Hypergraph._make((tuple(h.labels[v] for v in kept), edges))


def uniformize(h: Hypergraph) -> Hypergraph:
    """Pad every short edge with fresh degree-one vertices up to the rank.

    Padding labels are "_pad_<edge index>_<counter>", each with the next
    counter whose label is not in use yet, so they cannot collide with user
    labels; the line multigraph is unchanged and the result is rank-uniform.
    Pad indices rise past the original's, so edges stay sorted for `_make`.
    """
    r, _ = rank_corank(h)
    labels = list(h.labels)
    used = set(labels)
    edges = []
    for i, e in enumerate(h.edges):
        c = 0
        for _ in range(r - len(e)):
            while f"_pad_{i}_{c}" in used:
                c += 1
            e += (len(labels),)
            labels.append(f"_pad_{i}_{c}")
            used.add(labels[-1])
        edges.append(e)
    return Hypergraph._make((tuple(labels), tuple(edges)))


def from_multigraph(a: np.ndarray) -> Hypergraph:
    """A hypergraph whose line multigraph is `a`, with rank = max degree.

    `a` is an adjacency matrix: square, symmetric, of integer dtype,
    non-negative and with a zero diagonal; anything else raises
    `ValueError`. Hypergraph vertices are the edge instances of `a`; the
    hyperedge for vertex u collects the instances incident to u, so two
    hyperedges meet in exactly the parallel edges joining their endpoints.
    Instances are numbered as they are collected, so each hyperedge is
    sorted as built, and the value is made with `Hypergraph._make`.
    Vertices of degree < 2 are rejected: degree 0 leaves an uncoverable
    hyperedge slot and degree 1 yields a cardinality-one hyperedge.

    The result is not always simple. The hyperedge for u lies inside the
    one for w exactly when every edge at u ends at w: `[[0, 2], [2, 0]]`
    gives two equal hyperedges, and `[[0, 2, 0], [2, 0, 2], [0, 2, 0]]`
    two hyperedges nested in the middle one. `validate` reports such pairs
    and `parse_text` refuses them, while the line multigraph is still `a`.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency matrix must be square, not of shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"non-integer multiplicities of dtype {a.dtype}")
    if (a < 0).any():
        i, j = np.argwhere(a < 0)[0].tolist()
        raise ValueError(f"negative multiplicity at {(i, j)}")
    loops = np.flatnonzero(a.diagonal())
    if loops.size:
        raise ValueError(f"self-loop at vertex {loops[0]}")
    if not np.array_equal(a, a.T):
        i, j = np.argwhere(a != a.T)[0].tolist()
        raise ValueError(f"asymmetric multiplicities at {(i, j)} and {(j, i)}")
    for v, d in enumerate(a.sum(axis=1).tolist()):
        if d == 0:
            raise ValueError(f"isolated vertex {v}")
        if d < 2:
            raise ValueError(f"vertex {v} of degree < 2 yields non-simple hypergraph")
    labels = []
    incident: list[list[int]] = [[] for _ in range(len(a))]
    rows, cols = np.nonzero(np.triu(a))
    for i, j, mult in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
        for c in range(mult):
            incident[i].append(len(labels))
            incident[j].append(len(labels))
            labels.append(f"{i}-{j}:{c}")
    return Hypergraph._make((tuple(labels), tuple(map(tuple, incident))))
