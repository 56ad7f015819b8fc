"""Independent brute-force oracles the library is tested against.

Nothing here calls the code paths under test: connectivity is decided by
relation closure, line multiplicities, linearity and nested edges by
testing every pair of edges, the generator's edge sampler by testing each
candidate edge against every placed one as frozensets, `reduce_core` by
rescanning to a fixpoint, collars by full subset enumeration (and by the
search over all edges that the kernel-pruned search replaced), the
incidence matrix entry by entry from the edge lists, characteristic
polynomials by sympy, eigenvalues by isolating the real roots of that
polynomial symbolically, and rank and kernel by a reduced row echelon form
over `Fraction`s.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import sympy

from hyperline import Hypergraph


def connected_oracle(h: Hypergraph) -> bool:
    """Reachability by repeated squaring of the share-an-edge relation."""
    n = h.n
    if n <= 1:
        return True
    reach = [[i == j for j in range(n)] for i in range(n)]
    for e in h.edges:
        for u in e:
            for v in e:
                reach[u][v] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(
                    reach[i][k] and reach[k][j] for k in range(n)
                ):
                    reach[i][j] = True
                    changed = True
    return all(all(row) for row in reach)


def line_oracle(h: Hypergraph) -> dict[tuple[int, int], int]:
    """Non-zero line multiplicities by intersecting every pair of edges."""
    sets = [set(e) for e in h.edges]
    mults = {}
    for i in range(h.m):
        for j in range(i + 1, h.m):
            c = len(sets[i] & sets[j])
            if c:
                mults[(i, j)] = c
    return mults


def linear_oracle(h: Hypergraph) -> bool:
    """No two edges share more than one vertex, over every pair of edges."""
    sets = [set(e) for e in h.edges]
    return all(
        len(sets[i] & sets[j]) <= 1 for i in range(h.m) for j in range(i + 1, h.m)
    )


def nested_pairs_oracle(h: Hypergraph) -> list[tuple[int, int]]:
    """Every (i, j) with e_i a proper subset of e_j, by testing all ordered
    pairs of edges, in ascending order."""
    sets = [set(e) for e in h.edges]
    return [
        (i, j)
        for i, ei in enumerate(h.edges)
        for j, ej in enumerate(h.edges)
        if i != j and ei != ej and sets[i] <= sets[j]
    ]


def connected_edges_by_nesting(
    rng: random.Random, n: int, sizes: list[int], tries: int
) -> list[list[int]] | None:
    """`generate._connected_edges` with its clash test stated as set nesting:
    a candidate edge is redrawn when it equals or nests with any placed edge,
    tested pairwise as frozensets. It makes the same random calls in the same
    order, so from one state it must give the same edges, or None."""
    room = sum(s - 1 for s in sizes)
    uncovered = rng.sample(range(n), n)
    covered: list[int] = []
    edges: list[list[int]] = []
    for s in sizes:
        room -= s - 1
        lo = max(len(uncovered) - room, s - len(covered), 0)
        hi = min(s - 1 if covered else s, len(uncovered))
        for _ in range(tries):
            fresh = rng.randint(lo, hi)
            e = uncovered[:fresh] + rng.sample(covered, s - fresh)
            new = frozenset(e)
            if not any(new <= f or f <= new for f in map(frozenset, edges)):
                break
        else:
            return None
        edges.append(e)
        covered += uncovered[:fresh]
        del uncovered[:fresh]
    return edges


def reduce_core_fixpoint(h: Hypergraph) -> Hypergraph:
    """`reduce_core` by rescanning all vertices until a pass strips none."""
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


def _collar_coloring(
    h: Hypergraph, subset: tuple[int, ...]
) -> tuple[tuple[int, ...], bool] | None:
    """The collar coloring of an edge subset as its signed indicator, with
    the least edge of each component signed +1, and whether the subset is
    one component; None unless the subset is a collar."""
    count: dict[int, int] = {}
    for i in subset:
        for v in h.edges[i]:
            count[v] = count.get(v, 0) + 1
    if any(c != 2 for c in count.values()):
        return None
    sets = {i: set(h.edges[i]) for i in subset}
    adj = {i: [j for j in subset if j != i and sets[i] & sets[j]] for i in subset}
    sign: dict[int, int] = {}
    components = 0
    for root in subset:
        if root in sign:
            continue
        components += 1
        sign[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in sign:
                    sign[j] = -sign[i]
                    stack.append(j)
                elif sign[j] == sign[i]:
                    return None
    return tuple(sign.get(i, 0) for i in range(h.m)), components == 1


def collar_oracle(h: Hypergraph) -> tuple[int, ...] | None:
    """Lexicographically first collar edge subset by full enumeration."""
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(h.m), size) for size in range(1, h.m + 1)
        )
    )
    for subset in subsets:
        if _collar_coloring(h, subset) is not None:
            return subset
    return None


def collar_witness_oracle(h: Hypergraph) -> tuple[int, ...] | None:
    """The signed indicator of `collar_oracle`'s subset."""
    subset = collar_oracle(h)
    if subset is None:
        return None
    return _collar_coloring(h, subset)[0]


def collar_search_unpruned(h: Hypergraph) -> tuple[int, ...] | None:
    """Lexicographic depth-first search over all m edges, not only the
    support of ker B: the route the kernel-pruned search replaced.

    Subsets grow in ascending index order and are cut as soon as a vertex
    would lie in three edges or a vertex in one edge can no longer gain a
    second; the signed indicator of the first subset that is a collar is
    returned.
    """
    sets = [set(e) for e in h.edges]
    last_idx: dict[int, int] = {}
    for i, e in enumerate(h.edges):
        for v in e:
            last_idx[v] = i
    count: dict[int, int] = {}
    chosen: list[int] = []

    def attempt(start: int) -> tuple[int, ...] | None:
        for j in range(start, h.m):
            if any(c == 1 and last_idx[v] < j for v, c in count.items()):
                return None
            if any(count.get(v, 0) >= 2 for v in sets[j]):
                continue
            for v in sets[j]:
                count[v] = count.get(v, 0) + 1
            chosen.append(j)
            if all(c == 2 for c in count.values() if c):
                found = _collar_coloring(h, tuple(chosen))
                if found is not None:
                    return found[0]
            else:
                found = attempt(j + 1)
                if found is not None:
                    return found
            chosen.pop()
            for v in sets[j]:
                count[v] -= 1
        return None

    return attempt(0)


def dense_incidence(h: Hypergraph) -> np.ndarray:
    """The 0/1 vertex-by-edge matrix, one entry per member of each edge."""
    b = np.zeros((h.n, h.m), dtype=np.int64)
    for j, e in enumerate(h.edges):
        for v in e:
            b[v, j] = 1
    return b


@lru_cache(maxsize=None)
def _charpoly_cached(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    x = sympy.Symbol("x")
    return tuple(int(c) for c in sympy.Matrix(rows).charpoly(x).all_coeffs())


def charpoly_coefficients(rows) -> tuple[int, ...]:
    """Monic characteristic polynomial of a square integer matrix given as
    rows, coefficients descending."""
    return _charpoly_cached(tuple(tuple(int(x) for x in row) for row in rows))


@lru_cache(maxsize=None)
def _real_roots_cached(coefficients: tuple[int, ...]) -> tuple[float, ...]:
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(coefficients), x)
    roots = sympy.real_roots(poly)
    vals = sorted((float(r.evalf(25)) for r in roots), reverse=True)
    return tuple(vals)


def charpoly_real_roots(coefficients) -> tuple[float, ...]:
    """Descending real roots (with multiplicity) of an exact integer poly."""
    return _real_roots_cached(tuple(int(c) for c in coefficients))


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank_oracle(rows: list[list[int]]) -> int:
    """Rank of an integer matrix given as rows, over the rationals."""
    return len(_rref([[Fraction(x) for x in row] for row in rows])[1])


def _normalize(vec: list[Fraction]) -> list[int]:
    # scale to integers with content 1, first non-zero entry positive
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def kernel_oracle(
    rows: list[list[int]], n_cols: int, fixed_zero_columns=()
) -> list[list[int]]:
    """Null-space basis zero on the fixed columns, one vector per free column
    of the RREF over the remaining columns, each scaled to content-1
    integers with a positive leading entry."""
    fixed = set(fixed_zero_columns)
    active = [c for c in range(n_cols) if c not in fixed]
    if not active:
        return []
    rref, pivots = _rref([[Fraction(row[c]) for c in active] for row in rows])
    basis = []
    for f in range(len(active)):
        if f in pivots:
            continue
        wide = [Fraction(0)] * n_cols
        wide[active[f]] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            wide[active[p]] = -rref[r_idx][f]
        basis.append(_normalize(wide))
    return basis
