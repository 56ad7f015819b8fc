"""Spectra of the exact matrices: floating eigenvalues, exact characteristic
polynomials, eigenvalue bounds and certificates.

The eigensolver is the only floating-point component; everything feeding it
and every certificate is exact. Kernel certificates prove that -r (r the
rank) is an eigenvalue of the line adjacency matrix without any tolerance:
a non-zero integer vector in the incidence kernel, supported on the
largest-cardinality edges, is such a proof, and conversely none exists when
-r is not an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import Hypergraph, Multigraph, is_uniform, rank_corank
from .line import line_multigraph
from .matrices import (
    IntMatrix,
    RationalVector,
    adjacency_matrix,
    exact_kernel,
    exact_rank,
    incidence_matrix,
    matrix_vector,
    signless_laplacian,
)
from .structure import (
    CollarWitness,
    RegularityReport,
    check_collar_witness,
    regularity_report,
)

DEFAULT_TOLERANCE = 1e-9
# eigenvalues closer than this multiple of the tolerance get grouped
GROUPING_FACTOR = 100


@dataclass(frozen=True)
class Spectrum:
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


@dataclass(frozen=True)
class CertificateMinusR:
    """Exact witness that -r is an eigenvalue of the line adjacency matrix."""

    vector: RationalVector
    r: int


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial with exact integer coefficients,
    stored descending: coefficients[i] multiplies x^(degree - i)."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in self.coefficients:
            acc = acc * x + c
        return acc


def eigenvalues_symmetric(
    matrix: IntMatrix, tolerance: float = DEFAULT_TOLERANCE
) -> Spectrum:
    """All eigenvalues of an exactly-symmetric integer matrix, descending.

    Backed by a deterministic dense symmetric eigensolver; results are
    bit-reproducible for a fixed input on one platform and accurate to far
    below any tolerance accepted here.
    """
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    if not matrix.is_symmetric():
        raise ValueError("matrix not symmetric")
    arr = np.array(matrix.to_rows(), dtype=float).reshape(matrix.rows, matrix.cols)
    vals = np.linalg.eigvalsh(arr)
    return Spectrum(tuple(float(v) for v in vals[::-1]), tolerance)


def char_poly_exact(matrix: IntMatrix) -> CharPoly:
    """Exact monic characteristic polynomial over the integers.

    Faddeev-LeVerrier recurrence with big integers; every division is by
    the step index and is exact.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = matrix.rows
    coeffs = [1]
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = matrix @ m
        q, rem = divmod(-am.trace(), k)
        if rem:
            raise AssertionError(f"Faddeev-LeVerrier step {k} left remainder {rem}")
        coeffs.append(q)
        m = am + IntMatrix.identity(n).scaled(q)
    return CharPoly(tuple(coeffs))


@dataclass(frozen=True)
class LowerBoundReport:
    """Smallest line-adjacency eigenvalue against the -rank floor."""

    lambda_min: float
    rank: int
    bound: float
    passed: bool
    tolerance: float


def certificate_minus_r(h: Hypergraph) -> CertificateMinusR | None:
    """Exact kernel certificate for -r, or None when -r is not an eigenvalue.

    The incidence kernel is restricted to the columns of rank-sized edges;
    a non-trivial element there is exactly equivalent to -r being an
    eigenvalue of the line adjacency matrix. The returned vector has been
    checked to lie in that restricted kernel; `AssertionError` otherwise.
    """
    r, _ = rank_corank(h)
    b = incidence_matrix(h)
    small = {i for i, e in enumerate(h.edges) if len(e) < r}
    basis = exact_kernel(b, small)
    if not basis:
        return None
    vec = basis[0]
    if not matrix_vector(b, vec).is_zero() or any(vec.entries[i] for i in small):
        raise AssertionError("-r certificate failed exact verification")
    return CertificateMinusR(vec, r)


def collar_certificate_vector(
    h: Hypergraph, witness: CollarWitness
) -> CertificateMinusR:
    """Signed collar indicator as an exact -k eigenvalue certificate.

    The witness is validated first; each collar vertex then sees one +1 and
    one -1 edge, so the incidence product vanishes identically. Requires a
    k-uniform host so that the collar edges are rank-sized and the kernel
    element certifies the eigenvalue -k.
    """
    check_collar_witness(h, witness.edge_indices, witness.coloring)
    k = is_uniform(h)
    if k is None:
        raise ValueError("host hypergraph is not uniform")
    vec = RationalVector(witness.signed_entry(i) for i in range(h.m))
    b = incidence_matrix(h)
    product = matrix_vector(b, vec)
    if not product.is_zero():
        raise AssertionError("collar certificate failed exact verification")
    return CertificateMinusR(vec, k)


@dataclass(frozen=True)
class SandwichReport:
    """rho(Q) - r <= rho(A_L) <= rho(Q) - s, with equality exactly when uniform."""

    rho_q: float
    rho_line: float
    rank: int
    corank: int
    uniform: bool
    lower_ok: bool
    upper_ok: bool
    lower_equality: bool
    upper_equality: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


@dataclass(frozen=True)
class DegreeSumReport:
    """Edge degree-sum bounds on rho(Q), tight exactly for uniform
    edge-regular inputs."""

    lower_bound: int
    upper_bound: int
    rho_q: float
    uniform: bool
    edge_regular: bool
    lower_ok: bool
    upper_ok: bool
    lower_equality: bool
    upper_equality: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


class Analysis:
    """The derived objects of one hypergraph that several claims read, each
    built once, on first use.

    `tolerance` is the one float rule: a bound holds when it is met to within
    it, and is attained when the gap to it is at most it. `B`, its kernel
    and the -r certificate have a single reader each, so they stay plain
    calls (`incidence_matrix`, `certificate_minus_r`).
    """

    def __init__(self, h: Hypergraph, tolerance: float = DEFAULT_TOLERANCE):
        self.h = h
        self.tolerance = tolerance
        self.rank, self.corank = rank_corank(h)

    def _attained(self, value: float, bound: float) -> bool:
        return abs(value - bound) <= self.tolerance

    @cached_property
    def line(self) -> Multigraph:
        return line_multigraph(self.h).graph

    @cached_property
    def line_spectrum(self) -> Spectrum:
        return eigenvalues_symmetric(adjacency_matrix(self.line), self.tolerance)

    @cached_property
    def q_spectrum(self) -> Spectrum:
        return eigenvalues_symmetric(signless_laplacian(self.h), self.tolerance)

    @cached_property
    def regularity(self) -> RegularityReport:
        return regularity_report(self.h)

    @cached_property
    def lower_bound(self) -> LowerBoundReport:
        lam, r, tol = self.line_spectrum.smallest, self.rank, self.tolerance
        return LowerBoundReport(lam, r, -float(r), lam >= -r - tol, tol)

    @cached_property
    def sandwich(self) -> SandwichReport:
        r, s, tol = self.rank, self.corank, self.tolerance
        rho_q = self.q_spectrum.spectral_radius
        rho_line = self.line_spectrum.spectral_radius
        return SandwichReport(
            rho_q=rho_q,
            rho_line=rho_line,
            rank=r,
            corank=s,
            uniform=r == s,
            lower_ok=rho_q - r <= rho_line + tol,
            upper_ok=rho_line <= rho_q - s + tol,
            lower_equality=self._attained(rho_line, rho_q - r),
            upper_equality=self._attained(rho_line, rho_q - s),
            tolerance=tol,
        )

    @cached_property
    def degree_sums(self) -> DegreeSumReport:
        r, s, tol = self.rank, self.corank, self.tolerance
        degs = self.h.degrees
        sums = [sum(degs[v] for v in e) for e in self.h.edges]
        lower = min(sums) - (r - s)
        upper = max(sums) + (r - s)
        rho_q = self.q_spectrum.spectral_radius
        return DegreeSumReport(
            lower_bound=lower,
            upper_bound=upper,
            rho_q=rho_q,
            uniform=r == s,
            edge_regular=self.regularity.edge_regular is not None,
            lower_ok=lower - tol <= rho_q,
            upper_ok=rho_q <= upper + tol,
            lower_equality=self._attained(rho_q, lower),
            upper_equality=self._attained(rho_q, upper),
            tolerance=tol,
        )


def power_spectrum_formula(
    base: Hypergraph, t: int, k: int, tolerance: float = DEFAULT_TOLERANCE
) -> Spectrum:
    """Closed-form signless-Laplacian spectrum of the general power.

    With q = k - rt and the p non-zero eigenvalues lambda_1..lambda_p of
    the base Q (p is the exact incidence rank, not a float threshold), the
    power's spectrum is t*lambda_i + q, then q with multiplicity m - p,
    then zeros filling up to t*n + m*q values.
    """
    r, _ = rank_corank(base)
    if t < 1:
        raise ValueError(f"expansion factor must be >= 1, got {t}")
    q = k - r * t
    if q < 0:
        raise ValueError(f"k < rt: k={k}, r*t={r * t}")
    n, m = base.n, base.m
    p = exact_rank(incidence_matrix(base))
    base_spec = eigenvalues_symmetric(signless_laplacian(base), tolerance)
    vals = [t * lam + q for lam in base_spec.eigenvalues[:p]]
    if q > 0:
        vals += [float(q)] * (m - p)
        vals += [0.0] * ((q - 1) * m + t * n)
    else:
        # the q-group is itself zero; total zeros are t*n - p
        vals += [0.0] * (t * n - p)
    vals.sort(reverse=True)
    if len(vals) != t * n + m * q:
        raise AssertionError(
            f"power spectrum has {len(vals)} values, expected {t * n + m * q}"
        )
    return Spectrum(tuple(vals), tolerance)
