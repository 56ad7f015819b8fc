"""Structural predicates: regularity flavors, linearity, and collars.

A collar is a hypergraph in which every vertex lies in exactly two edges
and intersecting edges can be 2-colored with distinct colors; it plays the
role an even cycle plays among graphs. Collars are recognized directly and
searched for as sub-hypergraphs.

A collar's witness is its signed ±1 indicator, a plain `tuple[int, ...]`
with one entry per edge: +1 on one color, -1 on the other and 0 off the
collar. It lies in the kernel of the incidence matrix `B`, and on a
`k`-uniform host it is the exact certificate that `-k` is an eigenvalue of
the line multigraph. Mod 2 it is an even cover, an edge set meeting every
vertex an even number of times: the search runs over the support of a
GF(2) basis of the even covers, held as bitmasks over the edges, and
`max_edges` caps that support, not the edge count. Past the cap, a zero
`ker B` over the rationals still proves that no collar exists.
The library logs through the stdlib `logging` logger
`hyperline.structure`, a child of `hyperline`, with no handler attached.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from . import _numpy as np
from .core import Hypergraph, incidence_matrix, is_uniform
from .line import line_degree_formula
from .matrices import exact_kernel, incidence_product


class RegularityReport(NamedTuple):
    regular: int | None
    edge_regular: int | None
    skew_edge_regular: int | None
    linear: bool
    edge_degree_sums: tuple[int, ...]


def regularity_report(h: Hypergraph) -> RegularityReport:
    """All four structure predicates in one pass.

    regular: the common vertex degree d, if any. edge_regular: the common
    value of sum_{v in e} d(v). skew_edge_regular: the common value of
    sum_{v in e} (d(v) - 1), which discounts degree-one padding: the line
    degree, from `line_degree_formula`. linear: no two edges share more
    than one vertex. edge_degree_sums: each edge's sum_{v in e} d(v), in
    edge order.
    """
    degs = h.degrees
    regular = degs[0] if len(set(degs)) == 1 else None
    skews = line_degree_formula(h)
    sums = tuple(s + len(e) for s, e in zip(skews, h.edges))
    edge_regular = sums[0] if sums and len(set(sums)) == 1 else None
    skew = skews[0] if skews and len(set(skews)) == 1 else None
    # off the diagonal of Q = B B^T: no vertex pair lies in two edges
    pairs = [p for e in h.edges for p in combinations(e, 2)]
    linear = len(pairs) == len(set(pairs))
    return RegularityReport(regular, edge_regular, skew, linear, sums)


def _two_color(h: Hypergraph, chosen: Iterable[int]) -> tuple[int, ...] | None:
    """BFS 2-coloring of the line graph on the `chosen` edges, as the signed
    indicator: component roots get +1 in ascending index order, and None
    marks an odd cycle. Each edge reaches the other chosen edges through its
    vertices' incidence lists."""
    members = set(chosen)
    x = [0] * h.m
    for root in sorted(members):
        if x[root]:
            continue
        x[root] = 1
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for v in h.edges[i]:
                for j in h.incidence[v]:
                    if j == i or j not in members:
                        continue
                    if not x[j]:
                        x[j] = -x[i]
                        queue.append(j)
                    elif x[j] == x[i]:
                        return None
    return tuple(x)


def is_collar(h: Hypergraph) -> tuple[int, ...] | None:
    """Recognize a collar: 2-regular with a 2-colorable line graph.

    Returns the signed indicator over all edges, or None. Multiplicities
    are irrelevant to proper coloring, so bipartiteness of the underlying
    simple line graph is what is checked.
    """
    if h.m == 0 or h.n == 0:
        return None
    if any(d != 2 for d in h.degrees):
        return None
    return _two_color(h, range(h.m))


def check_collar_witness(h: Hypergraph, x: Sequence[int]) -> None:
    """Verify that `x` is the signed indicator of a collar in `h`.

    `x` needs one entry in {-1, 0, 1} per edge, not all zero. Its support
    must cover each of its vertices exactly twice (`B|x|` is 0 or 2), and
    then the signs are a proper coloring exactly when `B x = 0`. Each
    failure raises `ValueError`; a bad coloring names the first vertex
    whose two edges share a sign.
    """
    if len(x) != h.m:
        raise ValueError(f"collar witness has {len(x)} entries for {h.m} edges")
    if any(s not in (-1, 0, 1) for s in x):
        raise ValueError("collar witness entries must lie in {-1, 0, 1}")
    if not any(x):
        raise ValueError("empty collar")
    if any(c not in (0, 2) for c in incidence_product(h, [abs(s) for s in x])):
        raise ValueError("not 2-regular on collar vertices")
    bad = next((v for v, y in enumerate(incidence_product(h, x)) if y), None)
    if bad is not None:
        raise ValueError(
            f"coloring invalid: the collar edges through vertex {h.labels[bad]!r} "
            f"(index {bad}) share a color"
        )


def collar_implies_bipartite_check(h: Hypergraph, x: Sequence[int]) -> bool:
    """For a collar and its witness `is_collar(h)`, assert the line
    multigraph is bipartite (and, for a k-uniform collar, k-regular)."""
    if len(x) != h.m or not all(x):
        raise ValueError("witness does not cover every edge")
    signs = np.array(x)
    if h.line[np.equal.outer(signs, signs)].any():
        return False
    k = is_uniform(h)
    return k is None or bool((h.line.sum(axis=1) == k).all())


def find_collar_subhypergraph(
    h: Hypergraph, max_edges: int = 20
) -> tuple[int, ...] | None:
    """Lexicographic search for a collar among edge subsets, within the
    even covers, the edge sets that meet every vertex an even number of times.

    A subset qualifies when every vertex it covers lies in exactly two of
    its edges and its line graph is bipartite, so it is an even cover: a
    vector of `ker B` over GF(2). One XOR elimination of the edges' vertex
    bitmasks gives a basis of the even covers as bitmasks over the edges;
    none proves that no collar exists. Otherwise subsets of their support
    are grown in ascending index order, and the signed indicator of the
    lexicographically first collar is returned as the witness; that collar
    is the first among all edge subsets, since every collar and each of
    its prefixes lie in the support. A support larger than `max_edges` is
    refused rather than searched, unless the exact `ker B` over the
    rationals, which holds every collar's signed indicator, is zero. A
    negative `max_edges` is refused with `ValueError`.

    A branch is cut as soon as a vertex would exceed two incidences. The
    even covers cut the rest: a collar below a branch leaves out every edge
    the branch skips, so each skip XORs the first basis vector holding it
    into the others that do and drops it; an edge outside the restricted
    basis's support is skipped without branching, and a branch ends when
    one of its chosen edges leaves that support. This also ends a branch
    with a deficient vertex, one covered once and met by no later support
    edge: once the last other support edge through it is skipped, its row
    of `B x = 0` mod 2 forces the chosen edge through it out. Only branches
    that hold no collar are cut, so the witness is unchanged.

    Each call logs one debug record with `m`, the even-cover dimension,
    the support size and the outcome: "no even cover", "witness found",
    "exhaustive over support", "full column rank" (the referee found a
    zero `ker B`) or "support exceeds cap".
    """
    if max_edges < 0:
        raise ValueError(f"max_edges must be non-negative, got {max_edges}")
    basis: list[int] = []  # the even covers, bit i for edge i
    pivots: dict[int, int] = {}  # by their top bit
    top = 1 << h.m  # the vertices lie at and above bit m, the edges below it
    for i, e in enumerate(h.edges):
        x = sum(top << v for v in e) | 1 << i
        while x >= top and x.bit_length() in pivots:
            x ^= pivots[x.bit_length()]
        if x >= top:
            pivots[x.bit_length()] = x
        else:
            basis.append(x)
    live = reduce(or_, basis, 0)  # the edges the restricted basis holds
    dim, support = len(basis), [i for i in range(h.m) if live >> i & 1]

    def log(outcome: str) -> None:
        # imported here: `logging` would add about 20% to `import hyperline.cli`
        # (5-8 ms of 23-40 ms under `python -X importtime`)
        import logging

        logging.getLogger(__name__).debug(
            "collar search: m=%d even_cover_dim=%d support=%d: %s",
            h.m, dim, len(support), outcome,
        )

    if not basis:
        log("no even cover")
        return None
    if len(support) > max_edges:
        if not exact_kernel(incidence_matrix(h)):
            log("full column rank")
            return None
        log("support exceeds cap")
        raise ValueError(f"instance exceeds search cap ({max_edges} edges)")
    sets = [h.edges[i] for i in support]
    bits = [1 << i for i in support]
    count: dict[int, int] = {}
    dead = False  # the current branch is known to hold no collar
    stack: list[tuple[int, list[int], int]] = []  # chosen edges, each with basis, live
    j = 0
    while True:
        if dead or j == len(support):
            # no collar here, or past the last edge: back up
            if not stack:
                witness = None
                break
            j, basis, live = stack.pop()  # drop the last chosen edge and skip it
            dead = False
            for v in sets[j]:
                count[v] -= 1
        elif live & bits[j] and all(count.get(v, 0) < 2 for v in sets[j]):
            for v in sets[j]:
                count[v] = count.get(v, 0) + 1
            stack.append((j, basis, live))
            if not all(c == 2 for c in count.values() if c):
                j += 1
                continue
            witness = _two_color(h, [support[i] for i, _, _ in stack])
            if witness is not None:
                break
            # any valid superset adds only disjoint edges; the odd cycle stays
            dead = True
            continue
        # edge j is skipped, so every collar below this branch leaves it out;
        # an edge outside the support of `basis` is skipped with no change
        if live & bits[j]:
            pivot = next(vec for vec in basis if vec & bits[j])
            basis = [vec ^ pivot if vec & bits[j] else vec for vec in basis if vec != pivot]
            live = reduce(or_, basis, 0)
            # a collar holds each chosen edge
            dead = not basis or any(not live & bits[c] for c, _, _ in stack)
        j += 1

    log("exhaustive over support" if witness is None else "witness found")
    return witness
