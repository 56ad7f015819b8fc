"""Data model for simple general hypergraphs and multigraphs.

Vertices carry opaque string labels and are indexed 0..n-1 in label order;
hyperedges are stored as sorted index tuples in input order. Edge order is
significant: it fixes the row/column order of every derived matrix and the
vertex order of line multigraphs.

Construction is deliberately permissive. Structural problems (singleton
edges, nested edges, duplicates, stray indices) are reported as data by
:func:`validate` instead of being raised, so that malformed inputs can be
inspected. All types are immutable values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Hypergraph:
    """A general hypergraph: labelled vertices plus an ordered edge list."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, labels: Iterable[str], edges: Iterable[Iterable[int]]):
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(set(e))) for e in edges)
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Iterable[int]],
        n: int | None = None,
        labels: Iterable[str] | None = None,
    ) -> "Hypergraph":
        """Build from index edges; labels default to "0".."n-1"."""
        edge_tuples = [tuple(sorted(set(e))) for e in edges]
        if labels is not None:
            return cls(labels, edge_tuples)
        if n is None:
            n = 1 + max((v for e in edge_tuples for v in e), default=-1)
        return cls((str(i) for i in range(n)), edge_tuples)

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
    def degrees(self) -> tuple[int, ...]:
        """Per-vertex edge-membership counts, counted once on first use."""
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(degs)


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: vertex count plus positive multiplicities.

    Only pairs (i, j) with i < j are stored; symmetry is structural and
    self-loops are rejected outright. Degrees and neighbour lists are built
    together, in one pass, on first use.
    """

    order: int
    multiplicities: Mapping[tuple[int, int], int]

    def __init__(self, order: int, multiplicities: Mapping[tuple[int, int], int]):
        norm: dict[tuple[int, int], int] = {}
        for (i, j), mult in multiplicities.items():
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not 0 <= i < order or not 0 <= j < order:
                raise ValueError(f"vertex pair {(i, j)} out of range for order {order}")
            if mult < 0:
                raise ValueError(f"negative multiplicity at {(i, j)}")
            if mult == 0:
                continue
            key = (i, j) if i < j else (j, i)
            norm[key] = norm.get(key, 0) + mult
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "multiplicities", norm)

    def multiplicity(self, u: int, v: int) -> int:
        if u == v:
            return 0
        key = (u, v) if u < v else (v, u)
        return self.multiplicities.get(key, 0)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.order:
            raise IndexError(f"vertex {v} out of range for order {self.order}")
        return self._incidence[0][v]

    def total_multiplicity(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(self.multiplicities.values())

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, multiplicity) sorted by (i, j)."""
        for (i, j) in sorted(self.multiplicities):
            yield i, j, self.multiplicities[(i, j)]

    def neighbors(self, v: int) -> list[int]:
        """Sorted distinct neighbours; empty for a vertex outside the graph."""
        if not 0 <= v < self.order:
            return []
        return list(self._incidence[1][v])

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(degree per vertex, sorted neighbours per vertex)."""
        degrees = [0] * self.order
        neighbors: list[list[int]] = [[] for _ in range(self.order)]
        for (i, j), mult in self.multiplicities.items():
            degrees[i] += mult
            degrees[j] += mult
            neighbors[i].append(j)
            neighbors[j].append(i)
        return tuple(degrees), tuple(tuple(sorted(ns)) for ns in neighbors)


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    max: int
    min: int
    average: float


@dataclass(frozen=True)
class Violation:
    """One failed structural rule; warnings do not invalidate the hypergraph."""

    rule: str
    message: str
    edges: tuple[int, ...] = ()
    severity: str = "error"

    def __str__(self) -> str:
        return self.message


def validate(h: Hypergraph) -> list[Violation]:
    """Check the simple-hypergraph invariants, returning violations as data.

    Errors: cardinality-one edges, nested edges, duplicate edges, vertex
    indices outside 0..n-1. Isolated vertices are reported as a warning
    only, since they are representable but excluded by most structural
    results on connectivity.
    """
    out: list[Violation] = []
    for i, e in enumerate(h.edges):
        bad = [v for v in e if not 0 <= v < h.n]
        if bad:
            out.append(
                Violation(
                    "index-out-of-range",
                    f"edge {i} references unknown vertex index {bad[0]}",
                    (i,),
                )
            )
        if len(e) == 1:
            out.append(
                Violation("cardinality-one", f"cardinality-one hyperedge (edge {i})", (i,))
            )
    seen: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(h.edges):
        if e in seen:
            out.append(
                Violation(
                    "duplicate-edge", f"edge {seen[e]} duplicates edge {i}", (seen[e], i)
                )
            )
        else:
            seen[e] = i
    sets = [set(e) for e in h.edges]
    for i, ei in enumerate(h.edges):
        for j, ej in enumerate(h.edges):
            if i != j and ei != ej and sets[i] <= sets[j]:
                out.append(
                    Violation("nested-edge", f"edge {i} ⊆ edge {j}", (i, j))
                )
    covered = {v for e in h.edges for v in e}
    for v in range(h.n):
        if v not in covered:
            out.append(
                Violation(
                    "isolated-vertex",
                    f"vertex {h.labels[v]!r} (index {v}) lies in no edge",
                    (),
                    severity="warning",
                )
            )
    return out


def is_valid(h: Hypergraph) -> bool:
    """True when no error-severity violation is present."""
    return all(v.severity != "error" for v in validate(h))


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Per-vertex edge-membership counts with max/min/average statistics."""
    if h.n == 0:
        raise ValueError("hypergraph has no vertices")
    degs = h.degrees
    return DegreeProfile(degs, max(degs), min(degs), sum(degs) / h.n)


def rank_corank(h: Hypergraph) -> tuple[int, int]:
    """(largest, smallest) edge cardinality."""
    if h.m == 0:
        raise ValueError("no hyperedges")
    sizes = [len(e) for e in h.edges]
    return max(sizes), min(sizes)


def is_uniform(h: Hypergraph) -> int | None:
    """The common edge cardinality k, or None for non-uniform inputs."""
    if h.m == 0:
        raise ValueError("no hyperedges")
    sizes = {len(e) for e in h.edges}
    return sizes.pop() if len(sizes) == 1 else None


def is_connected(h: Hypergraph) -> bool:
    """Connectivity of the vertex-edge incidence structure.

    An isolated vertex forms its own component, so a hypergraph with one
    is disconnected (unless it is the only vertex).
    """
    if h.n <= 1:
        return True
    incidence: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            incidence[v].append(i)
    seen_v = {0}
    seen_e: set[int] = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i in incidence[v]:
            if i in seen_e:
                continue
            seen_e.add(i)
            for u in h.edges[i]:
                if u not in seen_v:
                    seen_v.add(u)
                    queue.append(u)
    return len(seen_v) == h.n


def multigraph_is_connected(g: Multigraph) -> bool:
    if g.order <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.order


def zagreb_index(h: Hypergraph) -> int:
    """Sum of squared vertex degrees."""
    return sum(d * d for d in degree_profile(h).degrees)
