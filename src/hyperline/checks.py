"""Run every applicable structural/spectral consistency check on one input.

Each entry pairs an independent recomputation against the library's primary
path (degree formulas vs. constructed multigraphs, exact kernels vs.
floating spectra, closed forms vs. direct constructions), so a failing
entry means a genuine inconsistency rather than a tolerance artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import Hypergraph, is_connected, is_uniform, multigraph_is_connected
from .line import line_degree_formula, line_edge_count
from .matrices import gram_identity_check
from .power import PowerParams, power_line_invariance_check
from .spectra import (
    DEFAULT_TOLERANCE,
    Analysis,
    certificate_minus_r,
    collar_certificate_vector,
)
from .structure import collar_implies_bipartite_check, is_collar


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)
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


@dataclass(frozen=True)
class CheckReport:
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
    a = Analysis(h, tolerance)
    r, s = a.rank, a.corank
    connected = is_connected(h)
    uniform = is_uniform(h)
    lm = h.line
    entries: list[CheckEntry] = []

    if 0 in h.degrees:
        entries.append(
            CheckEntry(
                "connectivity-correspondence",
                True,
                applicable=False,
                note="isolated vertices present; correspondence not asserted",
            )
        )
    else:
        line_conn = multigraph_is_connected(lm)
        entries.append(
            CheckEntry(
                "connectivity-correspondence",
                connected == line_conn,
                {"hypergraph_connected": connected, "line_connected": line_conn},
            )
        )

    linear = a.regularity.linear
    line_simple = all(mult <= 1 for _, _, mult in lm.pairs())
    entries.append(
        CheckEntry(
            "linearity-gives-simple-line",
            linear == line_simple,
            {"linear": linear, "line_is_simple_graph": line_simple},
        )
    )

    formula = [line_degree_formula(h, i) for i in range(h.m)]
    actual = [lm.degree(i) for i in range(h.m)]
    entries.append(
        CheckEntry(
            "line-degree-formula",
            formula == actual,
            {"formula": formula, "line_degrees": actual},
        )
    )

    predicted = line_edge_count(h)
    total = lm.total_multiplicity()
    entries.append(
        CheckEntry(
            "line-edge-count",
            predicted == total,
            {"predicted": predicted, "total_multiplicity": total},
        )
    )

    skew = a.regularity.skew_edge_regular is not None
    line_regular = len(set(actual)) <= 1
    entries.append(CheckEntry("skew-edge-regular-iff-line-regular", skew == line_regular))

    entries.append(CheckEntry("gram-identity", gram_identity_check(h)))

    lb = a.lower_bound
    entries.append(
        CheckEntry(
            "line-eigenvalues-at-least-minus-rank",
            lb.passed,
            {"lambda_min": lb.lambda_min, "rank": lb.rank},
            tolerance,
        )
    )

    cert = certificate_minus_r(h)
    spec_line = a.line_spectrum
    has_eig = spec_line.contains(-float(r), tolerance)
    details: dict[str, Any] = {"certificate": cert is not None, "eigenvalue_minus_r": has_eig}
    ok = (cert is not None) == has_eig
    if cert is not None:
        # certificate_minus_r returns only certificates it verified exactly
        details["incidence_kernel_exact"] = True
    entries.append(CheckEntry("minus-rank-certificate-iff", ok, details, tolerance))

    witness = is_collar(h)
    if witness is None:
        entries.append(
            CheckEntry(
                "collar-line-bipartite",
                True,
                applicable=False,
                note="not a collar",
            )
        )
        entries.append(
            CheckEntry(
                "collar-minus-k-eigenvalue",
                True,
                applicable=False,
                note="not a collar",
            )
        )
    else:
        bipartite = collar_implies_bipartite_check(h, witness)
        entries.append(CheckEntry("collar-line-bipartite", bipartite))
        if uniform is None:
            entries.append(
                CheckEntry(
                    "collar-minus-k-eigenvalue",
                    True,
                    applicable=False,
                    note="collar host not uniform",
                )
            )
        else:
            cert_k = collar_certificate_vector(h, witness)
            ok = spec_line.contains(-float(uniform), tolerance)
            entries.append(
                CheckEntry(
                    "collar-minus-k-eigenvalue",
                    ok,
                    {"k": uniform, "certificate_entries": len(cert_k.vector)},
                    tolerance,
                )
            )

    sw = a.sandwich
    ok = sw.passed
    details = {
        "rho_q": sw.rho_q,
        "rho_line": sw.rho_line,
        "rank": r,
        "corank": s,
        "uniform": sw.uniform,
    }
    if connected:
        tight = sw.lower_equality or sw.upper_equality
        details["equality"] = tight
        ok = ok and (tight == sw.uniform)
    entries.append(CheckEntry("spectral-radius-sandwich", ok, details, tolerance))

    ds = a.degree_sums
    ok = ds.passed
    details = {
        "lower": ds.lower_bound,
        "upper": ds.upper_bound,
        "rho_q": ds.rho_q,
        "uniform_and_edge_regular": ds.uniform and ds.edge_regular,
    }
    if connected:
        tight = ds.lower_equality or ds.upper_equality
        details["equality"] = tight
        ok = ok and (tight == (ds.uniform and ds.edge_regular))
    entries.append(CheckEntry("degree-sum-bounds", ok, details, tolerance))

    params = PowerParams(t=2, k=2 * r)
    entries.append(
        CheckEntry(
            "power-line-invariance",
            power_line_invariance_check(h, params),
            {"t": params.t, "k": params.k},
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
