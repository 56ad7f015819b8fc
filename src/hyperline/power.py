"""General power hypergraphs: vertex expansion plus hyperedge padding.

Every base vertex is replaced by t clones sharing its incidences, then
every edge receives q = k - rt fresh degree-one vertices. The line
multigraph of the result is exactly the base's scaled by t, since clones
multiply intersections and padding never intersects anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, rank_corank


@dataclass(frozen=True)
class PowerParams:
    """Expansion factor t >= 1 and target rank k; q = k - rt is derived
    against the base's rank and must be non-negative."""

    t: int
    k: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"expansion factor must be >= 1, got {self.t}")

    def padding(self, rank: int) -> int:
        q = self.k - rank * self.t
        if q < 0:
            raise ValueError(f"k < rt: k={self.k}, r*t={rank * self.t}")
        return q


def power_hypergraph(
    base: Hypergraph, params: PowerParams, uniform_pad: bool = False
) -> Hypergraph:
    """Construct the general power of `base`.

    Clones are labeled "<label>#1".."<label>#t" and padding vertices
    "_pow_<edge>_<j>". By default each edge gains the same count q = k - rt,
    so edge e ends with t|e| + q vertices and the result is k-uniform only
    for rank-uniform bases. With uniform_pad=True each edge is padded to
    exactly k vertices instead, which forces k-uniformity while leaving the
    line multigraph identical.
    """
    r, _ = rank_corank(base)
    q = params.padding(r)
    t = params.t
    labels: list[str] = []
    clone: list[list[int]] = []
    for v in range(base.n):
        ids = []
        for i in range(1, t + 1):
            ids.append(len(labels))
            labels.append(f"{base.labels[v]}#{i}")
        clone.append(ids)
    edges = []
    for j, e in enumerate(base.edges):
        members = [c for v in e for c in clone[v]]
        pad = params.k - len(members) if uniform_pad else q
        for c in range(pad):
            members.append(len(labels))
            labels.append(f"_pow_{j}_{c}")
        edges.append(members)
    return Hypergraph(labels, edges)


def power_line_invariance_check(base: Hypergraph, params: PowerParams) -> bool:
    """True iff the power's line multigraph equals the base's scaled by t.

    Holds by construction; a False return signals an implementation bug.
    """
    return np.array_equal(power_hypergraph(base, params).line, params.t * base.line)
