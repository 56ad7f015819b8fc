"""Exact integer matrices: incidence, cardinality, line adjacency, signless
Laplacian, and exact kernel/rank computation.

Everything here is exact: matrix entries are Python integers of any size,
and vectors, kernel vectors included, are plain `tuple[int, ...]`; floating
point appears only downstream in the eigensolver. An `IntMatrix` is
immutable and stored row-major, but no hot path forms a dense product:

- `Q = B Bᵀ` is filled straight from the edge lists: each ordered pair of
  vertices of an edge adds 1, which is `O(Σ|e|²)` work plus the `n²` output.
- `Bᵀ B = C + A_L` is checked in `gram_identity_check` without forming
  either side: each pair the line multigraph lists must have its edges'
  intersection as its multiplicity, and the total multiplicity must equal
  the count `line_edge_count` takes from degrees alone, which leaves no
  unlisted pair room to meet.
- Rank and kernel come from fraction-free Gauss-Jordan elimination
  (Bareiss) on integer rows; the elimination forms no `Fraction`.

`IntMatrix.__matmul__` is the plain dense product. It is the reference
route the tests check the constructions above against, and it serves the
small products of `spectra.char_poly_exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .core import Hypergraph, Multigraph
from .line import line_edge_count


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def diagonal(cls, values: Iterable[int]) -> "IntMatrix":
        vals = list(values)
        n = len(vals)
        ent = [0] * (n * n)
        for i, v in enumerate(vals):
            ent[i * n + i] = int(v)
        return cls(n, n, tuple(ent))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal([1] * n)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(x for j in range(self.cols) for x in self.column(j)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Dense product, the reference route for the sparse constructions."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(
                sum(map(mul, self.row(i), col))
                for i in range(self.rows)
                for col in cols
            ),
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def scaled(self, t: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(t * x for x in self.entries))

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum(self.entries[:: self.cols + 1])

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.row(i) == self.column(i) for i in range(self.rows)
        )

    def to_text(self) -> str:
        """Plain-text dump: "rows cols" then one space-separated line per row."""
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(str(x) for x in self.row(i)) for i in range(self.rows)]
        return "\n".join(lines) + "\n"


def incidence_matrix(h: Hypergraph) -> IntMatrix:
    """0/1 vertex-by-edge membership matrix (n x m), edges in input order."""
    ent = [0] * (h.n * h.m)
    for j, e in enumerate(h.edges):
        for v in e:
            ent[v * h.m + j] = 1
    return IntMatrix(h.n, h.m, tuple(ent))


def cardinality_matrix(h: Hypergraph) -> IntMatrix:
    """Diagonal m x m matrix of edge cardinalities."""
    return IntMatrix.diagonal(len(e) for e in h.edges)


def adjacency_matrix(g: Multigraph) -> IntMatrix:
    """Symmetric multiplicity matrix with zero diagonal."""
    n = g.order
    ent = [0] * (n * n)
    for i, j, mult in g.pairs():
        ent[i * n + j] = mult
        ent[j * n + i] = mult
    return IntMatrix(n, n, tuple(ent))


def signless_laplacian(h: Hypergraph) -> IntMatrix:
    """B B^T: degrees on the diagonal, co-membership counts off it."""
    n = h.n
    ent = [0] * (n * n)
    for e in h.edges:
        for a in e:
            base = a * n
            for b in e:
                ent[base + b] += 1
    return IntMatrix(n, n, tuple(ent))


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


def exact_rank(matrix: IntMatrix) -> int:
    return len(_row_reduce([list(matrix.row(i)) for i in range(matrix.rows)]))


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
    matrix: IntMatrix, fixed_zero_columns: Iterable[int] = ()
) -> list[tuple[int, ...]]:
    """Integer basis of the null space, zero on the fixed columns.

    The kernel is taken over the columns outside `fixed_zero_columns` and
    re-embedded with zeros there. Basis vectors are normalized to content-1
    integer vectors with positive leading entry, ordered by free column,
    so output is reproducible.
    """
    fixed = set(fixed_zero_columns)
    active = [c for c in range(matrix.cols) if c not in fixed]
    if not active:
        return []
    rows = [[row[c] for c in active] for row in map(matrix.row, range(matrix.rows))]
    pivots = _row_reduce(rows)
    # every pivot row holds the same pivot value d, so d times the rational
    # basis vector for free column f is integral
    d = rows[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    basis: list[tuple[int, ...]] = []
    for f in range(len(active)):
        if f in pivot_set:
            continue
        wide = [0] * matrix.cols
        wide[active[f]] = d
        for r_idx, p in enumerate(pivots):
            wide[active[p]] = -rows[r_idx][f]
        basis.append(_normalize_integer(wide))
    return basis


def matrix_vector(matrix: IntMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Dense `A x`; the reference route `incidence_product` is checked against."""
    if matrix.cols != len(vec):
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, matrix.row(i), vec)) for i in range(matrix.rows))


def incidence_product(h: Hypergraph, vec: Sequence[int]) -> tuple[int, ...]:
    """`B x` from the incidence lists, without the dense `B`: each vertex
    sums the entries of the edges through it."""
    if h.m != len(vec):
        raise ValueError("dimension mismatch")
    return tuple(sum(vec[i] for i in inc) for inc in h.incidence)
