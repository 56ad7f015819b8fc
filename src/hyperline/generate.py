"""Seeded random generation of simple connected hypergraphs.

Each draw is connected by construction. It draws m cardinalities in
2..max_card, each at least as large as the later ones need to cover n
vertices, and visits the vertices in a random order: the first edge takes
only uncovered vertices, and every later edge takes at least one covered
vertex plus enough uncovered ones that all n end up covered. An edge that
would equal or nest in an earlier one is redrawn: `_nests` counts, in a
plain dict, how many of the edge's covered vertices each placed edge holds
(its fresh vertices lie in none), and stops at the first placed edge that
holds all of the new edge or all of its own vertices. A draw whose edge finds
no simple placement in `EDGE_TRIES` redraws costs one attempt. A finished
draw is simple by construction (sizes at least 2, distinct vertices, no
edge equal to or nested in another), so it is returned without a call to
`core.validate`. After `MAX_ATTEMPTS` draws it gives up with `ValueError`.
Deterministic for a fixed seed.

Sizes that admit no connected simple hypergraph are refused before any
draw: fewer edges than can cover n vertices, or more than an antichain of
sets of size 2..min(max_card, n) can hold, which by the LYM inequality is
at most the largest binomial coefficient C(n, k) in that range. Binomials
are unimodal in k, so that is the one C(n, k) with k nearest n // 2.
"""

from __future__ import annotations

import random
from math import comb

from .core import Hypergraph

# redraws of one edge before its draw is abandoned; bounds the time spent
# on sizes that admit no simple hypergraph
EDGE_TRIES = 10
# draws before a size that admits a simple hypergraph is given up on
MAX_ATTEMPTS = 5000


def _sizes(rng: random.Random, n: int, m: int, top: int) -> list[int]:
    """m sizes in 2..top whose edges can cover n vertices: each is drawn large
    enough that the later ones, at `top`, still can."""
    # n - 1, less what the sizes so far add beyond a first vertex and the
    # most the later sizes can add
    need = n - 1 - (m - 1) * (top - 1)
    sizes = []
    for _ in range(m):
        s = rng.randint(max(2, need + 1), top)
        need += top - s
        sizes.append(s)
    return sizes


def _nests(old: list[int], s: int, through: list[list[int]], edges: list[list[int]]) -> bool:
    """Whether an edge of size s with covered vertices `old` (its fresh ones
    lie in no placed edge) shares s vertices, or all its own, with a placed edge."""
    shared: dict[int, int] = {}
    for v in old:
        for j in through[v]:
            c = shared.get(j, 0) + 1
            if c == s or c == len(edges[j]):
                return True
            shared[j] = c
    return False


def _connected_edges(
    rng: random.Random, n: int, sizes: list[int]
) -> list[list[int]] | None:
    """Edges of the given sizes covering all n vertices, each after the first
    meeting the covered ones and none equal to or nested in an earlier one;
    None when an edge exhausts its redraws."""
    room = sum(s - 1 for s in sizes)  # vertices the edges can still add
    uncovered = rng.sample(range(n), n)
    covered: list[int] = []
    through: list[list[int]] = [[] for _ in range(n)]
    edges: list[list[int]] = []
    for s in sizes:
        room -= s - 1
        # enough fresh vertices that the later edges can cover the rest,
        # and at least one covered vertex once there is one
        lo = max(len(uncovered) - room, s - len(covered), 0)
        hi = min(s - 1 if covered else s, len(uncovered))
        for _ in range(EDGE_TRIES):
            fresh = rng.randint(lo, hi)
            old = rng.sample(covered, s - fresh)
            if not _nests(old, s, through, edges):
                break
        else:
            return None
        e = uncovered[:fresh] + old
        for v in e:
            through[v].append(len(edges))
        edges.append(e)
        covered += uncovered[:fresh]
        del uncovered[:fresh]
    return edges


def generate_hypergraph(n: int, m: int, max_card: int, seed: int) -> Hypergraph:
    """A simple connected hypergraph on vertices "1".."n" with m edges of
    2..max_card vertices, the same for the same arguments. `ValueError` before
    any draw for sizes that cannot be connected or cannot be simple (and for
    n < 2, m < 1, max_card < 2), and after `MAX_ATTEMPTS` abandoned draws."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if m < 1:
        raise ValueError("need at least 1 edge")
    if max_card < 2:
        raise ValueError("max cardinality must be >= 2")
    top = min(max_card, n)
    if m * (top - 1) < n - 1:
        raise ValueError(
            f"no connected hypergraph with n={n}, m={m}, max_card={max_card}: "
            f"m * (min(max_card, n) - 1) = {m * (top - 1)} < n - 1 = {n - 1}"
        )
    # C(n, k) rises up to k = n // 2 and falls after it
    widest = comb(n, max(2, min(top, n // 2)))
    if m > widest:
        raise ValueError(
            f"no simple hypergraph with n={n}, m={m}, max_card={max_card}: "
            f"its edges form an antichain of sets of size 2..{top}, so "
            f"m <= max C(n, k) = {widest}"
        )
    rng = random.Random(seed)
    labels = [str(i + 1) for i in range(n)]
    for _ in range(MAX_ATTEMPTS):
        edges = _connected_edges(rng, n, _sizes(rng, n, m, top))
        if edges is not None:
            return Hypergraph(labels, edges)
    raise ValueError(
        f"could not generate a simple connected hypergraph with "
        f"n={n}, m={m}, max_card={max_card} after {MAX_ATTEMPTS} attempts"
    )
