"""General power hypergraphs: vertex expansion plus hyperedge padding.

The power H^(t,k) of a base H of rank r is fixed by two integers: every
base vertex is replaced by t >= 1 clones sharing its incidences, then
every edge receives q = k - rt >= 0 fresh degree-one vertices. The line
multigraph of the result is exactly the base's scaled by t, since clones
multiply intersections and padding never intersects anything.
"""

from __future__ import annotations

from . import _numpy as np
from .core import Hypergraph, rank_corank


def padding(base: Hypergraph, t: int, k: int) -> int:
    """q = k - rt for the power of `base`; refuses t < 1, then k < rt."""
    if t < 1:
        raise ValueError(f"expansion factor must be >= 1, got {t}")
    r, _ = rank_corank(base)
    if k < r * t:
        raise ValueError(f"k < rt: k={k}, r*t={r * t}")
    return k - r * t


def power_hypergraph(
    base: Hypergraph, t: int, k: int, uniform_pad: bool = False
) -> Hypergraph:
    """Construct the general power of `base`.

    Clones are labeled "<label>#1".."<label>#t" and padding vertices
    "_pow_<edge>_<j>". By default each edge gains the same count q = k - rt,
    so edge e ends with t|e| + q vertices and the result is k-uniform only
    for rank-uniform bases. With uniform_pad=True each edge is padded to
    exactly k vertices instead, which forces k-uniformity while leaving the
    line multigraph identical.

    The edges are built sorted, distinct and in range (clone ids ascend
    with the base vertex, and padding ids come after them), so the value
    is made with `Hypergraph._make`, skipping the constructor's
    normalisation.
    """
    q = padding(base, t, k)
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
        pad = k - len(members) if uniform_pad else q
        for c in range(pad):
            members.append(len(labels))
            labels.append(f"_pow_{j}_{c}")
        edges.append(tuple(members))
    return Hypergraph._make((tuple(labels), tuple(edges)))


def power_line_invariance_check(base: Hypergraph, t: int, k: int) -> bool:
    """True iff the power's line multigraph equals the base's scaled by t.

    Holds by construction; a False return signals an implementation bug.
    """
    return np.array_equal(power_hypergraph(base, t, k).line, t * base.line)
