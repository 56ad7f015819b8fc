"""Spectra of the exact matrices: floating eigenvalues and exact
certificates.

The eigensolver is the only floating-point component; everything feeding it
and every certificate is exact. `Q = B Bᵀ` (n x n) and `Bᵀ B = C + A_L`
(m x m) share their non-zero eigenvalues, so `signless_spectrum` solves Q's
spectrum at size min(n, m): when m < n it solves `h.line` plus the edge
sizes on its diagonal, and adds the other n - m eigenvalues as exact zeros.

Kernel certificates prove that -r (r the rank) is an eigenvalue of the line
adjacency matrix without any tolerance: a non-zero integer vector in the
incidence kernel, supported on the largest-cardinality edges, is such a
proof, and conversely none exists when -r is not an eigenvalue.

The power H^(t,k) has a closed-form spectrum from the base's and the two
integers t and k alone (`power_spectrum_formula`).
"""

from __future__ import annotations

from typing import NamedTuple

from . import _numpy as np
from .core import Hypergraph, incidence_matrix, rank_corank
from .matrices import exact_kernel, exact_rank, signless_laplacian
from .power import padding

DEFAULT_TOLERANCE = 1e-9
# eigenvalues closer than this multiple of the tolerance get grouped
GROUPING_FACTOR = 100


class Spectrum(NamedTuple):
    """Eigenvalues in descending order plus the tolerance they were computed at."""

    eigenvalues: tuple[float, ...]
    tolerance: float

    @property
    def spectral_radius(self) -> float:
        return self.eigenvalues[0]

    @property
    def smallest(self) -> float:
        return self.eigenvalues[-1]

    def contains(self, value: float, tol: float | None = None) -> bool:
        t = self.tolerance if tol is None else tol
        return any(abs(x - value) <= t for x in self.eigenvalues)

    def grouped(self) -> list[tuple[float, int]]:
        """Cluster near-equal eigenvalues into (value, multiplicity) pairs."""
        window = GROUPING_FACTOR * self.tolerance
        groups: list[list[float]] = []
        for x in self.eigenvalues:
            if groups and abs(groups[-1][-1] - x) <= window:
                groups[-1].append(x)
            else:
                groups.append([x])
        return [(sum(g) / len(g), len(g)) for g in groups]

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "eigenvalues": [
                {"value": v, "multiplicity": k} for v, k in self.grouped()
            ],
        }


def eigenvalues_symmetric(
    matrix: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> Spectrum:
    """All eigenvalues of an exactly-symmetric integer matrix, descending.

    Backed by a deterministic dense symmetric eigensolver; results are
    bit-reproducible for a fixed input on one platform and accurate to far
    below any tolerance accepted here.
    """
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    # on the integers: a float comparison would pass unequal entries above 2**53
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix not symmetric")
    vals = np.linalg.eigvalsh(matrix.astype(float))
    return Spectrum(tuple(float(v) for v in vals[::-1]), tolerance)


def signless_spectrum(
    h: Hypergraph, tolerance: float = DEFAULT_TOLERANCE
) -> Spectrum:
    """The spectrum of Q = B Bᵀ, solved on the smaller of Q and Bᵀ B.

    When 0 < m < n the m x m Gram matrix `h.line + diag(|e_i|)` is
    solved and Q's remaining n - m eigenvalues are added as exact zeros;
    otherwise Q itself is solved.
    """
    if not 0 < h.m < h.n:
        return eigenvalues_symmetric(signless_laplacian(h), tolerance)
    gram = h.line + np.diag([len(e) for e in h.edges])
    vals = list(eigenvalues_symmetric(gram, tolerance).eigenvalues)
    vals += [0.0] * (h.n - h.m)
    vals.sort(reverse=True)
    return Spectrum(tuple(vals), tolerance)


def certificate_minus_r(h: Hypergraph) -> tuple[int, ...] | None:
    """Exact kernel certificate for -r, or None when -r is not an eigenvalue.

    `A_L + rI = BᵀB + diag(r - |e_i|)` is a sum of two positive
    semidefinite matrices, so -r is an eigenvalue of the line adjacency
    matrix exactly when `B` has a non-zero kernel vector on the columns of
    the rank-sized edges alone. The returned integer vector, one entry per
    edge, is the first basis vector of `exact_kernel` on those columns,
    which certifies it exactly, with zeros written on the smaller edges.
    With more such columns than the n rows, only the first n + 1 are
    passed: the first free column is then at most n, and its basis vector
    lies on the columns up to it, so the vector is the same.
    """
    r, _ = rank_corank(h)
    big = [i for i, e in enumerate(h.edges) if len(e) == r][: h.n + 1]
    basis = exact_kernel(incidence_matrix(h)[:, big])
    if not basis:
        return None
    entries = dict(zip(big, basis[0]))
    return tuple(entries.get(i, 0) for i in range(h.m))


def power_spectrum_formula(
    base: Hypergraph, t: int, k: int, tolerance: float = DEFAULT_TOLERANCE
) -> Spectrum:
    """Closed-form signless-Laplacian spectrum of the general power.

    With q = k - rt and the p non-zero eigenvalues lambda_1..lambda_p of
    the base Q (p is the exact incidence rank, not a float threshold), the
    power's spectrum is t*lambda_i + q, then q with multiplicity m - p,
    then zeros filling up to t*n + m*q values.
    """
    q = padding(base, t, k)
    n, m = base.n, base.m
    p = exact_rank(incidence_matrix(base))
    base_spec = signless_spectrum(base, tolerance)
    vals = [t * lam + q for lam in base_spec.eigenvalues[:p]]
    if q > 0:
        vals += [float(q)] * (m - p)
        vals += [0.0] * ((q - 1) * m + t * n)
    else:
        # the q-group is itself zero; total zeros are t*n - p
        vals += [0.0] * (t * n - p)
    vals.sort(reverse=True)
    return Spectrum(tuple(vals), tolerance)
