"""Structural predicates: regularity flavors, linearity, and collars.

A collar is a hypergraph in which every vertex lies in exactly two edges
and intersecting edges can be 2-colored with distinct colors; it plays the
role an even cycle plays among graphs. Collars are recognized directly and
searched for as sub-hypergraphs.

The search rests on the paper's kernel argument: a collar's signed ±1
indicator lies in the kernel of the incidence matrix `B`. So an exact
kernel computation comes first. A zero kernel (`B` of full column rank)
proves that no collar exists, with no search at all; otherwise only the
edges in the kernel's support are searched, exhaustively, and
`max_edges` caps the size of that support, not the edge count. The
library logs through the stdlib `logging` logger `hyperline.structure`, a
child of `hyperline`, with no handler attached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .core import Hypergraph, is_uniform
from .matrices import exact_kernel, incidence_matrix, incidence_product


@dataclass(frozen=True)
class CollarWitness:
    """Edge subset forming a collar, with its proper 2-coloring.

    `connected` records whether the chosen edges form a single component;
    disconnected collars are accepted but flagged.
    """

    edge_indices: tuple[int, ...]
    coloring: Mapping[int, int]
    connected: bool = True

    def signed_entry(self, i: int) -> int:
        """+1 for color 1, -1 for color 2, 0 outside the collar."""
        c = self.coloring.get(i)
        return 0 if c is None else (1 if c == 1 else -1)


@dataclass(frozen=True)
class RegularityReport:
    regular: int | None
    edge_regular: int | None
    skew_edge_regular: int | None
    linear: bool
    edge_degree_sums: tuple[int, ...]


def regularity_report(h: Hypergraph) -> RegularityReport:
    """All four structure predicates in one pass.

    regular: the common vertex degree d, if any. edge_regular: the common
    value of sum_{v in e} d(v). skew_edge_regular: the common value of
    sum_{v in e} (d(v) - 1), which discounts degree-one padding. linear:
    no two edges share more than one vertex. edge_degree_sums: each edge's
    sum_{v in e} d(v), in edge order.
    """
    degs = h.degrees
    regular = degs[0] if len(set(degs)) == 1 else None
    sums = tuple(sum(degs[v] for v in e) for e in h.edges)
    skews = [s - len(e) for s, e in zip(sums, h.edges)]
    edge_regular = sums[0] if sums and len(set(sums)) == 1 else None
    skew = skews[0] if skews and len(set(skews)) == 1 else None
    # off the diagonal of Q = B B^T: no vertex pair lies in two edges
    pairs = [p for e in h.edges for p in combinations(e, 2)]
    linear = len(pairs) == len(set(pairs))
    return RegularityReport(regular, edge_regular, skew, linear, sums)


def _two_color(
    h: Hypergraph, chosen: list[int]
) -> tuple[dict[int, int] | None, bool]:
    """BFS 2-coloring of the line graph on the `chosen` edges, component
    roots colored 1 in ascending index order. Each edge reaches the other
    chosen edges through its vertices' incidence lists.

    Returns (coloring or None on an odd cycle, single-component flag).
    """
    members = set(chosen)
    coloring: dict[int, int] = {}
    components = 0
    for root in sorted(chosen):
        if root in coloring:
            continue
        components += 1
        coloring[root] = 1
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for v in h.edges[i]:
                for j in h.incidence[v]:
                    if j == i or j not in members:
                        continue
                    if j not in coloring:
                        coloring[j] = 3 - coloring[i]
                        queue.append(j)
                    elif coloring[j] == coloring[i]:
                        return None, components == 1
    return coloring, components <= 1


def is_collar(h: Hypergraph) -> CollarWitness | None:
    """Recognize a collar: 2-regular with a 2-colorable line graph.

    Multiplicities are irrelevant to proper coloring, so bipartiteness of
    the underlying simple line graph is what is checked.
    """
    if h.m == 0 or h.n == 0:
        return None
    if any(d != 2 for d in h.degrees):
        return None
    chosen = list(range(h.m))
    coloring, connected = _two_color(h, chosen)
    if coloring is None:
        return None
    return CollarWitness(tuple(chosen), coloring, connected)


def check_collar_witness(h: Hypergraph, witness: CollarWitness) -> tuple[int, ...]:
    """The witness's signed indicator, once it is verified to be a collar.

    Every covered vertex must lie in exactly two chosen edges. Each then
    sees the signs of its two edges, so the coloring is proper exactly when
    the signed indicator `x` has `B x = 0`, which one incidence product
    checks; `ValueError` names the first vertex where it fails.
    """
    chosen = sorted(set(witness.edge_indices))
    if not chosen:
        raise ValueError("empty collar")
    if chosen[0] < 0 or chosen[-1] >= h.m:
        raise IndexError("collar edge index out of range")
    coloring = witness.coloring
    if set(coloring) != set(chosen) or not all(c in (1, 2) for c in coloring.values()):
        raise ValueError("coloring invalid: must map exactly the collar edges to {1, 2}")
    count: dict[int, int] = {}
    for i in chosen:
        for v in h.edges[i]:
            count[v] = count.get(v, 0) + 1
    if any(c != 2 for c in count.values()):
        raise ValueError("not 2-regular on collar vertices")
    vec = tuple(witness.signed_entry(i) for i in range(h.m))
    bad = next((v for v, x in enumerate(incidence_product(h, vec)) if x), None)
    if bad is not None:
        raise ValueError(
            f"coloring invalid: the collar edges through vertex {h.labels[bad]!r} "
            f"(index {bad}) share a color"
        )
    return vec


def collar_implies_bipartite_check(h: Hypergraph, witness: CollarWitness) -> bool:
    """For a collar and its witness `is_collar(h)`, assert the line
    multigraph is bipartite (and, for a k-uniform collar, k-regular)."""
    if witness.edge_indices != tuple(range(h.m)):
        raise ValueError("witness does not cover every edge")
    a = h.line
    colors = np.array([witness.coloring[i] for i in range(h.m)])
    if a[np.equal.outer(colors, colors)].any():
        return False
    k = is_uniform(h)
    return k is None or bool((a.sum(axis=1) == k).all())


def find_collar_subhypergraph(
    h: Hypergraph, max_edges: int = 20
) -> CollarWitness | None:
    """Lexicographic search for a collar among edge subsets, within ker B.

    A subset qualifies when every vertex it covers lies in exactly two of
    its edges and its line graph is bipartite. Its signed indicator (+1 on
    one color, -1 on the other) is then a kernel vector of the incidence
    matrix `B`, so a collar uses only edges on which some kernel vector is
    non-zero. The search first computes `ker B` exactly: a zero kernel
    proves that no collar exists. Otherwise subsets of the kernel support
    are grown in ascending index order, pruned as soon as a vertex would
    exceed two incidences or a deficient vertex can no longer be
    completed, and the lexicographically first witness is returned; it is
    the first among all edge subsets, since every witness and each of its
    prefixes lie in the support. Supports larger than `max_edges` are
    refused rather than searched.

    Each call logs one debug record with `m`, the kernel dimension, the
    support size and the outcome: "zero kernel", "witness found",
    "exhaustive over support" or "support exceeds cap".
    """
    kernel = exact_kernel(incidence_matrix(h))
    support = [i for i in range(h.m) if any(vec[i] for vec in kernel)]

    def log(outcome: str) -> None:
        # imported here: `logging` would add about 4% to `import hyperline.cli`
        import logging

        logging.getLogger(__name__).debug(
            "collar search: m=%d kernel_dim=%d support=%d: %s",
            h.m, len(kernel), len(support), outcome,
        )

    if not kernel:
        log("zero kernel")
        return None
    if len(support) > max_edges:
        log("support exceeds cap")
        raise ValueError(f"instance exceeds search cap ({max_edges} edges)")
    sets = [set(h.edges[i]) for i in support]
    last_idx: dict[int, int] = {}  # position in `support`
    for j, e in enumerate(sets):
        for v in e:
            last_idx[v] = j
    count: dict[int, int] = {}
    chosen: list[int] = []

    def complete() -> bool:
        return bool(chosen) and all(c == 2 for c in count.values() if c)

    def attempt(start: int) -> CollarWitness | None:
        for j in range(start, len(support)):
            if any(c == 1 and last_idx[v] < j for v, c in count.items()):
                return None  # some covered vertex can never reach two edges
            if any(count.get(v, 0) >= 2 for v in sets[j]):
                continue
            for v in sets[j]:
                count[v] = count.get(v, 0) + 1
            chosen.append(support[j])
            if complete():
                coloring, connected = _two_color(h, chosen)
                if coloring is not None:
                    return CollarWitness(tuple(chosen), coloring, connected)
                # any valid superset adds only disjoint edges; the odd cycle stays
            else:
                found = attempt(j + 1)
                if found is not None:
                    return found
            chosen.pop()
            for v in sets[j]:
                count[v] -= 1
        return None

    witness = attempt(0)
    log("exhaustive over support" if witness is None else "witness found")
    return witness
