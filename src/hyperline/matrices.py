"""Exact integer matrices: incidence, signless Laplacian, the Gram
identity, and exact kernel/rank computation.

A matrix is a 2-D numpy `int64` array; the builders' entries are counts
of at most m. Every routine here is exact, and the exact routines refuse
a dtype that does not cast to `int64` and an entry of absolute value
2**31 or more: an entry of the kernel's core is a signed sum of at most
one entry from each column, so it stays within `int64`. Vectors, kernel
vectors included, are plain `tuple[int, ...]`. Floating point appears
only downstream, in the eigensolver.

- `exact_kernel` first reduces the matrix exactly to its core, by two
  rules applied until neither applies. The peel: a row with one non-zero
  among the live columns forces that column to 0. The tie: a row
  `u x_lo + w x_hi = 0` with `|u| == |w|` gives `x_lo = -(u/w) x_hi`, so
  that multiple of the smaller column is added into the larger, which
  then stands for both. Neither rule removes a free column of the
  canonical basis: a peeled column is 0 on the whole kernel, and a
  kernel vector that is zero past a tied column is zero at it too. So
  the core has the same free columns, and each basis vector is its core
  vector read back through the ties. On the core it runs Gauss-Jordan
  elimination modulo the prime p = 2147483629 on an `int64` array, reads
  each kernel vector back as integers or, by rational reconstruction, as
  fractions with numerator and denominator within `isqrt(p // 2)`, and
  checks `B X = 0` with one exact product. A vector that passes proves
  its free column free over the rationals as well, so the basis is the
  one exact elimination gives. When the check cannot pass (an unlucky
  prime, or an entry past that bound), `_kernel_fraction_free` computes
  the core's kernel on Python integers instead.
  `exact_rank` is the column count less the kernel dimension.

- `Q = B Bᵀ` is one float product of the 0/1 incidence matrix, exact
  because every entry is a count of at most m; an `int64` product would
  run without BLAS. Q's spectrum is not solved on it when m < n:
  `spectra.signless_spectrum` solves `Bᵀ B = C + A_L` at size
  min(n, m) and adds the |n - m| zeros exactly. This dense `Q` stays the
  reference route the tests compare against.
- `Bᵀ B = C + A_L` is checked in `gram_identity_check` without forming
  `Bᵀ B` again: each non-zero pair above the diagonal of `A_L` must have
  its edges' intersection as its multiplicity, and the total multiplicity
  must equal the count `line_edge_count` takes from degrees alone, which
  leaves no zero pair room to meet.
- `B x` is `incidence_product`, summed from the incidence lists.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Sequence

from . import _numpy as np
from .core import Hypergraph, incidence_matrix
from .line import line_edge_count

# a prime below 2**31: a product of two residues, (p - 1)**2, fits in int64
_PRIME = 2147483629


def signless_laplacian(h: Hypergraph) -> np.ndarray:
    """B B^T: degrees on the diagonal, co-membership counts off it."""
    bf = incidence_matrix(h).astype(float)
    return (bf @ bf.T).astype(np.int64)


def gram_identity_check(h: Hypergraph) -> bool:
    """Exact test of B^T B = C + A_L, off the diagonal (both diagonals are |e_i|).

    Always true for a correct implementation; exposed as a loud self-test.
    Every non-zero pair above the diagonal of `h.line` must carry the size
    of its edges' intersection. Their total must equal the sum over
    vertices of d(v)(d(v) - 1)/2, which counts every pair's intersection
    from degrees alone, so every zero pair meets in no vertex.
    """
    a = h.line
    sets = [set(e) for e in h.edges]
    rows, cols = np.nonzero(np.triu(a))
    mults = a[rows, cols].tolist()
    listed = all(
        mult == len(sets[i] & sets[j])
        for i, j, mult in zip(rows.tolist(), cols.tolist(), mults)
    )
    return listed and sum(mults) == line_edge_count(h)


def _kernel_fraction_free(a: np.ndarray) -> list[list[int]]:
    """Integer kernel basis of `a` by fraction-free elimination on Python
    integers, one vector per free column.

    Column c of `[a; I]` starts as the vector `(a e_c, e_c)`. Each row
    coordinate j vanishes in turn: the first vector non-zero at j is the
    pivot and leaves the basis, and every later one non-zero at j becomes
    `pivot[j] * vec - vec[j] * pivot`, divided by its content. The `I` part
    of what is left is the kernel. A vector combines only with pivots from
    earlier columns, so each is the rational basis vector of its free
    column, up to scale.
    """
    n_rows, n_cols = a.shape
    basis = np.vstack([a, np.eye(n_cols, dtype=np.int64)]).T.tolist()
    for j in range(n_rows):
        p = next((i for i, vec in enumerate(basis) if vec[j]), None)
        if p is None:
            continue
        pivot = basis.pop(p)
        for i in range(p, len(basis)):
            if basis[i][j]:
                vec = [pivot[j] * x - basis[i][j] * y for x, y in zip(basis[i], pivot)]
                g = gcd(*vec)
                basis[i] = [x // g for x in vec]
    return [vec[n_rows:] for vec in basis]


class _Uncertified(Exception):
    """The mod-p kernel failed its certificate; the message says why."""


def _exact_entries(matrix: np.ndarray) -> np.ndarray:
    """`matrix` as `int64`, or `ValueError` when it is not 2-D, when its
    dtype does not cast to `int64` (a float cast would change the matrix),
    or when an entry has absolute value 2**31 or more."""
    if matrix.ndim != 2:
        raise ValueError(f"exact routines need a 2-D matrix, not shape {matrix.shape}")
    if not np.can_cast(matrix.dtype, np.int64):
        raise ValueError(f"exact routines need integer entries, not {matrix.dtype}")
    a = matrix.astype(np.int64, copy=False)
    if a.size and not -(2**31) < a.min() <= a.max() < 2**31:
        raise ValueError("exact routines need entries of absolute value below 2**31")
    return a


def _gauss_jordan_mod_p(a: np.ndarray) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of `a` modulo `_PRIME`, in place.

    `a` holds residues in [0, p). Rows are not swapped: returns the pivot
    columns and the row that holds each pivot. That row ends with 1 at its
    pivot, 0 at every other pivot column and before its pivot.
    """
    p = _PRIME
    n_rows, n_cols = a.shape
    unused = np.ones(n_rows, dtype=bool)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    for c in range(n_cols):
        if len(pivots) == n_rows:
            break
        nz = a[:, c].nonzero()[0]
        candidates = nz[unused[nz]]
        if not candidates.size:
            continue
        r = candidates[0]
        row = a[r, c:]
        v = int(row[0])
        if v != 1:
            row *= pow(v, -1, p)
            row %= p
        # every row is zero before column c once it is reduced, and (p-1)**2
        # fits in int64
        others = nz[nz != r]
        if others.size:
            block = a[others, c:]
            block -= block[:, :1] * row
            block %= p
            a[others, c:] = block
        unused[r] = False
        pivots.append(c)
        pivot_rows.append(int(r))
    return pivots, pivot_rows


def _rational(u: int, bound: int) -> tuple[int, int]:
    """`n / d` congruent to `u` modulo `_PRIME`, `|n|, |d| <= bound`, `d > 0`,
    by the extended Euclidean algorithm (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = _PRIME, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        raise _Uncertified("reconstruction bound")
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_mod_p(a: np.ndarray) -> list[list[int]]:
    """Integer kernel basis of `a` from elimination modulo `_PRIME`, one
    vector per free column, certified by an exact product.

    The vector of free column f is 1 at f and 0 at the other free columns.
    Each one that passes `a x = 0` shows column f lies in the span of the
    pivot columns before it, over the rationals too, so f is free there as
    well; rank mod p never exceeds the rational rank, so the two pivot sets
    agree and each vector is the unique one with those free coordinates,
    the one the fraction-free fallback gives. Raises `_Uncertified` when an
    entry does not reconstruct within `isqrt(p // 2)`, or when a vector
    fails the product.
    """
    p = _PRIME
    bound = isqrt(p // 2)
    n_rows, n_cols = a.shape
    reduced = a % p
    pivots, pivot_rows = _gauss_jordan_mod_p(reduced)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    if not free:
        return []
    x = np.zeros((n_cols, len(free)), dtype=np.int64)
    x[pivots] = -reduced[np.ix_(pivot_rows, free)] % p
    x[free, range(len(free))] = 1
    x[x > p // 2] -= p  # symmetric residues
    widest = int(np.abs(x).max())
    reconstructed = widest > bound
    if not reconstructed:
        vectors = x.T.tolist()
    else:
        vectors = []
        for col in x.T.tolist():
            fractions = [
                (u, 1) if abs(u) <= bound else _rational(u % p, bound) for u in col
            ]
            scale = lcm(*(d for _, d in fractions))
            vectors.append([n * (scale // d) for n, d in fractions])
        widest = max(abs(v) for vec in vectors for v in vec)
    if n_rows:
        entry = max(int(a.max()), -int(a.min()))
        dtype = np.int64 if entry * widest * n_cols < 2**62 else object
        if (a.astype(dtype, copy=False) @ np.array(vectors, dtype=dtype).T).any():
            # a prime that divides a pivot drops the rank; a vector read
            # back by reconstruction may also be wrong past the bound
            raise _Uncertified(
                "reconstruction bound" if reconstructed else "rank dropped mod p"
            )
    return vectors


def _core(a: np.ndarray) -> tuple[np.ndarray, list[int], list[tuple[int, int, int]]]:
    """`a` reduced by the peel and the tie until neither applies.

    Returns the core, the column of `a` that each core column stands for,
    and the ties `(lo, sign, hi)`, meaning `x_lo = sign * x_hi`, in the
    order they were made. A matrix with no row of one or two non-zeros is
    its own core, and so is one that nothing reduces.
    """
    n_rows, n_cols = a.shape
    counts = np.count_nonzero(a, axis=1)
    low = (counts == 1) | (counts == 2)
    if not low.any():
        return a, list(range(n_cols)), []
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    cols: list[dict[int, int] | None] = [{} for _ in range(n_cols)]
    nz_rows, nz_cols = a.nonzero()
    for r, c, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows[r][c] = cols[c][r] = v
    ties: list[tuple[int, int, int]] = []
    stack = np.flatnonzero(low).tolist()
    while stack:
        row = rows[stack.pop()]
        if len(row) == 1:
            # x_c = 0: column c leaves every row it meets
            (c,) = row
            for r in cols[c]:
                del rows[r][c]
                stack.append(r)
            cols[c] = None
        elif len(row) == 2:
            (lo, u), (hi, w) = sorted(row.items())
            if abs(u) != abs(w):
                continue
            # u x_lo + w x_hi = 0 gives x_lo = sign * x_hi, so column hi
            # takes sign times column lo
            sign = -1 if (u > 0) == (w > 0) else 1
            col_hi = cols[hi]
            for r, v in cols[lo].items():
                del rows[r][lo]
                t = col_hi.get(r, 0) + sign * v
                if t:
                    rows[r][hi] = col_hi[r] = t
                else:
                    del rows[r][hi], col_hi[r]
                stack.append(r)
            cols[lo] = None
            ties.append((lo, sign, hi))
    live = [c for c in range(n_cols) if cols[c] is not None]
    if len(live) == n_cols:
        return a, live, []
    kept = [r for r in range(n_rows) if rows[r]]
    at = {c: j for j, c in enumerate(live)}
    ii, jj, values = [], [], []
    for i, r in enumerate(kept):
        for c, v in rows[r].items():
            ii.append(i)
            jj.append(at[c])
            values.append(v)
    core = np.zeros((len(kept), len(live)), dtype=np.int64)
    core[ii, jj] = values
    return core, live, ties


def exact_rank(matrix: np.ndarray) -> int:
    """Rank over the rationals: the column count less the kernel dimension."""
    nullity = len(exact_kernel(matrix))  # first: it refuses a matrix that is not 2-D
    return matrix.shape[1] - nullity


def _normalize_integer(ints: list[int]) -> tuple[int, ...]:
    # content 1, first non-zero entry positive
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def exact_kernel(matrix: np.ndarray) -> list[tuple[int, ...]]:
    """Integer basis of the null space.

    A matrix that is not 2-D, whose dtype does not cast to `int64`, or
    with an entry of absolute value 2**31 or more raises `ValueError`.
    Basis vectors are normalized to content-1 integer vectors with positive
    leading entry, ordered by free column, so output is reproducible.

    The matrix is first reduced exactly to its core: a row with one
    non-zero among the live columns forces that column to 0, and a row
    with two of equal size ties the smaller column to the larger, which
    takes the smaller one's column times the tie's sign and stands for
    both. Neither rule reaches a free column: a forced column is 0 on the
    whole kernel, and a kernel vector that is zero past a tied column is
    zero there too. So the free columns, and each basis vector read back
    through the ties, are those of the whole matrix.

    The core's basis comes from elimination modulo a prime, certified by
    an exact product; when the certificate fails, fraction-free elimination
    on Python integers computes it instead, and a debug record on the
    `hyperline.matrices` logger gives the shapes of the matrix and its
    core, and the reason.
    """
    exact = _exact_entries(matrix)
    core, live, ties = _core(exact)
    try:
        vectors = _kernel_mod_p(core)
    except _Uncertified as reason:
        # imported here: `logging` would add about 20% to `import hyperline.cli`
        # (5-8 ms of 23-40 ms under `python -X importtime`)
        import logging

        logging.getLogger(__name__).debug(
            "exact kernel: %dx%d matrix, %dx%d core, fraction-free fallback: %s",
            *exact.shape, *core.shape, reason,
        )
        vectors = _kernel_fraction_free(core)
    if len(live) < exact.shape[1]:
        # 0 on a peeled column; a tied one follows the column it was tied to,
        # which was tied, if at all, only later
        read_back = []
        for vec in vectors:
            x = [0] * exact.shape[1]
            for c, v in zip(live, vec):
                x[c] = v
            for lo, sign, hi in reversed(ties):
                x[lo] = sign * x[hi]
            read_back.append(x)
        vectors = read_back
    return [_normalize_integer(vec) for vec in vectors]


def incidence_product(h: Hypergraph, vec: Sequence[int]) -> tuple[int, ...]:
    """`B x` from the incidence lists, without the dense `B`: each vertex
    sums the entries of the edges through it."""
    if h.m != len(vec):
        raise ValueError("dimension mismatch")
    return tuple(sum(vec[i] for i in inc) for inc in h.incidence)
