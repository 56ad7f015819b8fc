"""Exact integer matrices: incidence, line adjacency, signless Laplacian,
and exact kernel/rank computation.

A matrix is a 2-D numpy integer array: `int64` from the builders, whose
entries are counts of at most m, or `object` for entries beyond int64.
Every routine here is exact. Rank and kernel read `matrix.tolist()` and
run fraction-free Gauss-Jordan elimination (Bareiss) on Python integers,
forming no `Fraction`; vectors, kernel vectors included, are plain
`tuple[int, ...]`. Floating point appears only downstream, in the
eigensolver.

- `Q = B Bᵀ` is one float product of the 0/1 incidence matrix, exact
  because every entry is a count of at most m; an `int64` product would
  run without BLAS.
- `Bᵀ B = C + A_L` is checked in `gram_identity_check` without forming
  either side: each pair the line multigraph lists must have its edges'
  intersection as its multiplicity, and the total multiplicity must equal
  the count `line_edge_count` takes from degrees alone, which leaves no
  unlisted pair room to meet.
- `B x` is `incidence_product`, summed from the incidence lists.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .core import Hypergraph, Multigraph
from .line import line_edge_count


def incidence_matrix(h: Hypergraph) -> np.ndarray:
    """0/1 vertex-by-edge membership matrix (n x m), edges in input order.

    Filled from `h.incidence`, so a stray vertex index raises `ValueError`.
    """
    b = np.zeros((h.n, h.m), dtype=np.int64)
    rows = np.repeat(np.arange(h.n), h.degrees)
    b[rows, list(chain.from_iterable(h.incidence))] = 1
    return b


def adjacency_matrix(g: Multigraph) -> np.ndarray:
    """Symmetric multiplicity matrix with zero diagonal."""
    a = np.zeros((g.order, g.order), dtype=np.int64)
    pairs = list(g.pairs())
    if pairs:
        i, j, mult = zip(*pairs)
        a[i, j] = a[j, i] = mult
    return a


def signless_laplacian(h: Hypergraph) -> np.ndarray:
    """B B^T: degrees on the diagonal, co-membership counts off it."""
    bf = incidence_matrix(h).astype(float)
    return (bf @ bf.T).astype(np.int64)


def gram_identity_check(h: Hypergraph) -> bool:
    """Exact test of B^T B = C + A_L, off the diagonal (both diagonals are |e_i|).

    Always true for a correct implementation; exposed as a loud self-test.
    Every pair the line multigraph lists must carry the size of its edges'
    intersection. The total multiplicity must equal the sum over vertices
    of d(v)(d(v) - 1)/2, which counts every pair's intersection from degrees
    alone, so every pair left unlisted meets in no vertex.
    """
    g = h.line
    sets = [set(e) for e in h.edges]
    listed = all(
        mult == len(sets[i] & sets[j]) for (i, j), mult in g.multiplicities.items()
    )
    return listed and g.total_multiplicity() == line_edge_count(h)


def _row_reduce(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss), in place.

    Returns the pivot columns, chosen as the first non-zero entry of each
    column, as in the rational reduced row echelon form. Every division is
    exact. On return the rows are that reduced form scaled by the last
    pivot `d`: pivot row r holds `d` at column pivots[r] and 0 at every
    other pivot column.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(n_rows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def exact_rank(matrix: np.ndarray) -> int:
    return len(_row_reduce(matrix.tolist()))


def _normalize_integer(ints: list[int]) -> tuple[int, ...]:
    # content 1, first non-zero entry positive
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def exact_kernel(
    matrix: np.ndarray, fixed_zero_columns: Iterable[int] = ()
) -> list[tuple[int, ...]]:
    """Integer basis of the null space, zero on the fixed columns.

    The kernel is taken over the columns outside `fixed_zero_columns` and
    re-embedded with zeros there. Basis vectors are normalized to content-1
    integer vectors with positive leading entry, ordered by free column,
    so output is reproducible.
    """
    n_cols = matrix.shape[1]
    fixed = set(fixed_zero_columns)
    active = [c for c in range(n_cols) if c not in fixed]
    if not active:
        return []
    rows = matrix[:, active].tolist()
    pivots = _row_reduce(rows)
    # every pivot row holds the same pivot value d, so d times the rational
    # basis vector for free column f is integral
    d = rows[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    basis: list[tuple[int, ...]] = []
    for f in range(len(active)):
        if f in pivot_set:
            continue
        wide = [0] * n_cols
        wide[active[f]] = d
        for r_idx, p in enumerate(pivots):
            wide[active[p]] = -rows[r_idx][f]
        basis.append(_normalize_integer(wide))
    return basis


def incidence_product(h: Hypergraph, vec: Sequence[int]) -> tuple[int, ...]:
    """`B x` from the incidence lists, without the dense `B`: each vertex
    sums the entries of the edges through it."""
    if h.m != len(vec):
        raise ValueError("dimension mismatch")
    return tuple(sum(vec[i] for i in inc) for inc in h.incidence)
