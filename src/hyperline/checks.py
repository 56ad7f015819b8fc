"""Run every applicable structural/spectral consistency check on one input.

Each entry pairs an independent recomputation against the library's primary
path (degree formulas vs. constructed multigraphs, exact kernels vs.
floating spectra, closed forms vs. direct constructions), so a failing
entry means a genuine inconsistency rather than a tolerance artifact.

The three float claims (the -rank floor, the spectral-radius sandwich and
the degree-sum window) are decided here and nowhere else, and the caller's
tolerance decides only whether each bound holds. Whether a bound is
attained is read from exact flags: the sandwich is tight exactly when the
input is uniform, and the degree-sum window exactly when it is uniform and
edge-regular. On a connected simple input these flags and the paper's
attainment are equivalent (Perron-Frobenius monotonicity), whereas a float
test cannot tell a strict gap below the tolerance from an exact tie.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .core import (
    Hypergraph,
    is_connected,
    multigraph_is_connected,
    rank_corank,
)
from .line import line_degree_formula, line_edge_count
from .matrices import gram_identity_check
from .power import power_line_invariance_check
from .spectra import (
    DEFAULT_TOLERANCE,
    certificate_minus_r,
    eigenvalues_symmetric,
    signless_spectrum,
)
from .structure import collar_implies_bipartite_check, is_collar, regularity_report


class CheckEntry(NamedTuple):
    name: str
    passed: bool
    details: dict[str, Any]
    tolerance: float | None = None
    applicable: bool = True
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if not self.applicable:
            out["applicable"] = False
        if self.note:
            out["note"] = self.note
        return out


class CheckReport(NamedTuple):
    context: dict[str, Any]
    entries: tuple[CheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "context": self.context,
            "passed": self.passed,
            "checks": [e.to_json_dict() for e in self.entries],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            if not e.applicable:
                status = "skip"
            note = f" ({e.note})" if e.note else ""
            lines.append(f"{status:4s}  {e.name}{note}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return lines


def run_all_checks(
    h: Hypergraph, tolerance: float = DEFAULT_TOLERANCE
) -> CheckReport:
    r, s = rank_corank(h)
    connected = is_connected(h)
    uniform = r if r == s else None
    a = h.line
    line_degrees = a.sum(axis=1).tolist()
    regularity = regularity_report(h)
    spec_line = eigenvalues_symmetric(a, tolerance)
    spec_q = signless_spectrum(h, tolerance)
    entries: list[CheckEntry] = []

    def skipped(name: str, note: str) -> CheckEntry:
        return CheckEntry(name, True, {}, applicable=False, note=note)

    if 0 in h.degrees:
        entries.append(
            skipped(
                "connectivity-correspondence",
                "isolated vertices present; correspondence not asserted",
            )
        )
    else:
        line_conn = multigraph_is_connected(a)
        entries.append(
            CheckEntry(
                "connectivity-correspondence",
                connected == line_conn,
                {"hypergraph_connected": connected, "line_connected": line_conn},
            )
        )

    linear = regularity.linear
    line_simple = bool(a.max() <= 1)
    entries.append(
        CheckEntry(
            "linearity-gives-simple-line",
            linear == line_simple,
            {"linear": linear, "line_is_simple_graph": line_simple},
        )
    )

    formula = line_degree_formula(h)
    entries.append(
        CheckEntry(
            "line-degree-formula",
            formula == line_degrees,
            {"formula": formula, "line_degrees": line_degrees},
        )
    )

    predicted = line_edge_count(h)
    total = int(a.sum()) // 2
    entries.append(
        CheckEntry(
            "line-edge-count",
            predicted == total,
            {"predicted": predicted, "total_multiplicity": total},
        )
    )

    skew = regularity.skew_edge_regular is not None
    line_regular = len(set(line_degrees)) <= 1
    entries.append(CheckEntry("skew-edge-regular-iff-line-regular", skew == line_regular, {}))

    entries.append(CheckEntry("gram-identity", gram_identity_check(h), {}))

    lam = spec_line.smallest
    entries.append(
        CheckEntry(
            "line-eigenvalues-at-least-minus-rank",
            lam >= -r - tolerance,
            {"lambda_min": lam, "rank": r},
            tolerance,
        )
    )

    # exact_kernel certifies the vector certificate_minus_r returns
    cert = certificate_minus_r(h) is not None
    has_eig = spec_line.contains(-float(r), tolerance)
    details: dict[str, Any] = {"certificate": cert, "eigenvalue_minus_r": has_eig}
    entries.append(
        CheckEntry("minus-rank-certificate-iff", cert == has_eig, details, tolerance)
    )

    witness = is_collar(h)
    if witness is None:
        entries.append(skipped("collar-line-bipartite", "not a collar"))
        entries.append(skipped("collar-minus-k-eigenvalue", "not a collar"))
    else:
        bipartite = collar_implies_bipartite_check(h, witness)
        entries.append(CheckEntry("collar-line-bipartite", bipartite, {}))
        if uniform is None:
            entries.append(skipped("collar-minus-k-eigenvalue", "collar host not uniform"))
        else:
            # on a k-uniform host the signed indicator certifies -k exactly,
            # and k = r, so -k is the eigenvalue the -rank entry looked for
            entries.append(
                CheckEntry("collar-minus-k-eigenvalue", has_eig, {"k": uniform}, tolerance)
            )

    # rho(Q) - r <= rho(A_L) <= rho(Q) - s, tight exactly when uniform
    rho_q, rho_line = spec_q.spectral_radius, spec_line.spectral_radius
    ok = rho_q - r <= rho_line + tolerance and rho_line <= rho_q - s + tolerance
    details = {
        "rho_q": rho_q,
        "rho_line": rho_line,
        "rank": r,
        "corank": s,
        "uniform": r == s,
    }
    entries.append(CheckEntry("spectral-radius-sandwich", ok, details, tolerance))

    # edge degree sums bound rho(Q), tight exactly when uniform and edge-regular
    sums = regularity.edge_degree_sums
    lower, upper = min(sums) - (r - s), max(sums) + (r - s)
    homogeneous = r == s and regularity.edge_regular is not None
    ok = lower - tolerance <= rho_q <= upper + tolerance
    details = {
        "lower": lower,
        "upper": upper,
        "rho_q": rho_q,
        "uniform_and_edge_regular": homogeneous,
    }
    entries.append(CheckEntry("degree-sum-bounds", ok, details, tolerance))

    entries.append(
        CheckEntry(
            "power-line-invariance",
            power_line_invariance_check(h, 2, 2 * r),
            {"t": 2, "k": 2 * r},
        )
    )

    context = {
        "n": h.n,
        "m": h.m,
        "rank": r,
        "corank": s,
        "connected": connected,
        "uniform": uniform,
    }
    return CheckReport(context, tuple(entries))
