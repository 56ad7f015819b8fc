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

import numpy as np

from .core import Hypergraph, degree_profile, is_connected, is_uniform, rank_corank
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
from .structure import CollarWitness, check_collar_witness, regularity_report

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
    connected: bool


def check_lower_bound(
    h: Hypergraph, tolerance: float = DEFAULT_TOLERANCE
) -> LowerBoundReport:
    r, _ = rank_corank(h)
    a = adjacency_matrix(line_multigraph(h).graph)
    lam = eigenvalues_symmetric(a, tolerance).smallest
    return LowerBoundReport(
        lambda_min=lam,
        rank=r,
        bound=-float(r),
        passed=lam >= -r - tolerance,
        tolerance=tolerance,
        connected=is_connected(h),
    )


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
    connected: bool
    lower_ok: bool
    upper_ok: bool
    lower_equality: bool
    upper_equality: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def spectral_radius_sandwich(
    h: Hypergraph, tolerance: float = DEFAULT_TOLERANCE
) -> SandwichReport:
    r, s = rank_corank(h)
    rho_q = eigenvalues_symmetric(signless_laplacian(h), tolerance).spectral_radius
    rho_line = eigenvalues_symmetric(
        adjacency_matrix(line_multigraph(h).graph), tolerance
    ).spectral_radius
    return SandwichReport(
        rho_q=rho_q,
        rho_line=rho_line,
        rank=r,
        corank=s,
        uniform=is_uniform(h) is not None,
        connected=is_connected(h),
        lower_ok=rho_q - r <= rho_line + tolerance,
        upper_ok=rho_line <= rho_q - s + tolerance,
        lower_equality=abs(rho_q - r - rho_line) <= tolerance,
        upper_equality=abs(rho_line - (rho_q - s)) <= tolerance,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class DegreeSumReport:
    """Edge degree-sum bounds on rho(Q), tight exactly for uniform
    edge-regular inputs."""

    lower_bound: int
    upper_bound: int
    rho_q: float
    uniform: bool
    edge_regular: bool
    connected: bool
    lower_ok: bool
    upper_ok: bool
    lower_equality: bool
    upper_equality: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def degree_sum_bounds(
    h: Hypergraph, tolerance: float = DEFAULT_TOLERANCE
) -> DegreeSumReport:
    r, s = rank_corank(h)
    degs = degree_profile(h).degrees
    sums = [sum(degs[v] for v in e) for e in h.edges]
    lower = min(sums) - (r - s)
    upper = max(sums) + (r - s)
    rho_q = eigenvalues_symmetric(signless_laplacian(h), tolerance).spectral_radius
    report = regularity_report(h)
    return DegreeSumReport(
        lower_bound=lower,
        upper_bound=upper,
        rho_q=rho_q,
        uniform=is_uniform(h) is not None,
        edge_regular=report.edge_regular is not None,
        connected=is_connected(h),
        lower_ok=lower - tolerance <= rho_q,
        upper_ok=rho_q <= upper + tolerance,
        lower_equality=abs(rho_q - lower) <= tolerance,
        upper_equality=abs(rho_q - upper) <= tolerance,
        tolerance=tolerance,
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
