"""Data model for simple general hypergraphs and their line multigraphs.

Vertices carry opaque string labels and are indexed 0..n-1 in label order;
hyperedges are stored as sorted index tuples in input order. Edge order is
significant: it fixes the row/column order of every derived matrix and the
vertex order of line multigraphs. A multigraph is its adjacency matrix: a
square, symmetric, non-negative integer array with a zero diagonal, whose
entry (i, j) is the number of parallel edges joining i and j.

Construction refuses only an edge that names a vertex outside 0..n-1,
which has no line multigraph. Other structural problems (singleton edges,
nested edges, duplicates) are reported as data by :func:`validate` instead
of being raised, so that malformed inputs can be inspected. The value
types are immutable `typing.NamedTuple` records, so they unpack, have a
length and equal a plain tuple of their fields.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

from . import _numpy as np


class _Fields(NamedTuple):
    labels: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]


class Hypergraph(_Fields):
    """A general hypergraph: labelled vertices plus an ordered edge list.

    The incidence index, the degrees and the line multigraph are derived
    from the edges once, on first use, and cached on the value; every
    reader of how edges meet reads them from here. The line multigraph is
    read off `incidence_matrix`, which is filled from the edges, so it
    builds no incidence index. `_replace` and `_make`
    build the tuple directly, skipping the normalisation and the index
    check below.
    """

    def __new__(cls, labels: Iterable[str], edges: Iterable[Iterable[int]]):
        labels = tuple(str(x) for x in labels)
        edges = tuple(tuple(sorted(set(e))) for e in edges)
        n = len(labels)
        for i, e in enumerate(edges):
            # sorted, so only its ends can fall outside 0..n-1
            if e and (e[0] < 0 or e[-1] >= n):
                v = next(v for v in e if not 0 <= v < n)
                raise ValueError(f"edge {i} references unknown vertex index {v}")
        return super().__new__(cls, labels, edges)

    def __setattr__(self, name, value):  # the cached properties write __dict__
        raise AttributeError(f"cannot assign to {name!r}: a Hypergraph is immutable")

    @classmethod
    def from_edges(
        cls, edges: Iterable[Iterable[int]], n: int | None = None
    ) -> Hypergraph:
        """Build from index edges, labelled "0".."n-1"; `n` defaults to one
        past the largest index. The constructor normalises the edges."""
        edges = [list(e) for e in edges]
        if n is None:
            n = 1 + max((v for e in edges for v in e), default=-1)
        return cls((str(i) for i in range(n)), edges)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_label_sets(self) -> tuple[tuple[str, ...], ...]:
        """Each edge as the tuple of its vertex labels (index order)."""
        return tuple(tuple(self.labels[v] for v in e) for e in self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the ascending indices of the edges through it."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(map(tuple, inc))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Per-vertex edge-membership counts."""
        return tuple(map(len, self.incidence))

    @cached_property
    def line(self) -> np.ndarray:
        """The line multigraph as its read-only `int64` m x m adjacency
        matrix: entry (i, j) is |e_i ∩ e_j| off the diagonal, 0 on it.

        One float product `BᵀB` of the 0/1 incidence matrix, exact because
        every entry is a count of at most n.
        """
        if self.m == 0:
            raise ValueError("no hyperedges")
        bf = incidence_matrix(self).astype(float)
        a = (bf.T @ bf).astype(np.int64)
        np.fill_diagonal(a, 0)
        a.flags.writeable = False
        return a


def incidence_matrix(h: Hypergraph) -> np.ndarray:
    """0/1 vertex-by-edge membership matrix (n x m), edges in input order,
    filled from `h.edges`, so it builds no incidence index."""
    b = np.zeros((h.n, h.m), dtype=np.int64)
    cols = np.repeat(np.arange(h.m), [len(e) for e in h.edges])
    b[list(chain.from_iterable(h.edges)), cols] = 1
    return b


class Violation(NamedTuple):
    """One broken simple-hypergraph rule and the edges that break it."""

    rule: str
    message: str
    edges: tuple[int, ...]

    def __str__(self) -> str:
        return self.message


def validate(h: Hypergraph) -> list[Violation]:
    """Check the simple-hypergraph invariants, returning violations as data:
    `h` is simple exactly when the list is empty.

    Violations: cardinality-one edges, duplicate edges, nested edges. This
    is the one definition of "simple"; the generator does not call it,
    since its draws are simple by construction, and its tests check them
    against it. Nested pairs (i, j), e_i a proper subset of e_j, come in
    ascending order from the `h.incidence` list of e_i's vertex of least
    degree, in O(Σ_e |e| min_{v∈e} d(v)) rather than over all edge pairs,
    and a uniform `h` builds no incidence index at all; an empty edge is
    nested in every non-empty one. An isolated vertex breaks no rule;
    `h.degrees` shows it.
    """
    edges = h.edges
    out = [
        Violation("cardinality-one", f"cardinality-one hyperedge (edge {i})", (i,))
        for i, e in enumerate(edges)
        if len(e) == 1
    ]
    seen: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(edges):
        if e in seen:
            out.append(
                Violation(
                    "duplicate-edge", f"edge {seen[e]} duplicates edge {i}", (seen[e], i)
                )
            )
        else:
            seen[e] = i
    top = max(map(len, edges), default=0)
    for i, e in enumerate(edges):
        # only a larger edge nests e, and it passes through every vertex of
        # e; no edge is larger than one of the largest size
        if len(e) == top:
            continue
        holders = h.incidence[min(e, key=h.degrees.__getitem__)] if e else range(h.m)
        members = set(e)
        for j in holders:
            if len(edges[j]) > len(e) and members.issubset(edges[j]):
                out.append(Violation("nested-edge", f"edge {i} ⊆ edge {j}", (i, j)))
    return out


def rank_corank(h: Hypergraph) -> tuple[int, int]:
    """(largest, smallest) edge cardinality."""
    if h.m == 0:
        raise ValueError("no hyperedges")
    sizes = [len(e) for e in h.edges]
    return max(sizes), min(sizes)


def is_uniform(h: Hypergraph) -> int | None:
    """The common edge cardinality k, or None for non-uniform inputs."""
    r, s = rank_corank(h)
    return r if r == s else None


def is_connected(h: Hypergraph) -> bool:
    """Connectivity of the vertex-edge incidence structure: true with at
    most one vertex, and otherwise when no vertex is isolated (one would be
    a component of its own) and the non-empty edges form one component; an
    empty edge meets nothing and joins nothing."""
    if h.n <= 1:
        return True
    return all(h.degrees) and _edges_connected(h, [i for i, e in enumerate(h.edges) if e])


def _edges_connected(h: Hypergraph, chosen: list[int]) -> bool:
    """Whether the non-empty `chosen` edges form one component, two edges
    meeting when they share a vertex, by a breadth-first search that reads
    each vertex's `h.incidence` list once; it builds no `h.line`."""
    rest = set(chosen[1:])
    queue = chosen[:1]
    seen_v = [False] * h.n
    for i in queue:
        for v in h.edges[i]:
            if not seen_v[v]:
                seen_v[v] = True
                for j in h.incidence[v]:
                    if j in rest:
                        rest.remove(j)
                        queue.append(j)
    return not rest


def multigraph_is_connected(a: np.ndarray) -> bool:
    """Connectivity of the multigraph with adjacency matrix `a`, by a
    breadth-first search that expands the whole frontier one row block at
    a time."""
    seen = np.zeros(len(a), dtype=bool)
    if not seen.size:
        return True
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = a[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def zagreb_index(h: Hypergraph) -> int:
    """Sum of squared vertex degrees."""
    return sum(d * d for d in h.degrees)
