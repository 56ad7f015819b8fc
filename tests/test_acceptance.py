"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; the corpus is the 500-seed session fixture.
"""

import math
import time

import numpy as np
import pytest

from hyperline import (
    certificate_minus_r,
    check_collar_witness,
    collar_implies_bipartite_check,
    eigenvalues_symmetric,
    exact_rank,
    incidence_matrix,
    is_collar,
    is_uniform,
    line_edge_count,
    parse_text,
    power_hypergraph,
    power_spectrum_formula,
    rank_corank,
    reduce_core,
    regularity_report,
    run_all_checks,
    signless_laplacian,
    uniformize,
)
import helpers
from oracles import charpoly_coefficients, charpoly_real_roots

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def finish(num, name, failures, elapsed=None, budget=None):
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {num:>2} [{name}]: {status}{timing}")
    assert not failures, f"criterion {num} [{name}]: {failures[:5]}"


def close_multisets(actual, expected, tol):
    if len(actual) != len(expected):
        return False
    return all(abs(a - b) <= tol for a, b in zip(sorted(actual), sorted(expected)))


@pytest.fixture(scope="module")
def bundles(corpus):
    """Per-instance matrices and spectra, shared across criteria."""
    out = []
    for h in corpus:
        b = incidence_matrix(h)
        a_line = h.line
        q = signless_laplacian(h)
        r, s = rank_corank(h)
        out.append(
            {
                "h": h,
                "b": b,
                "a_line": a_line,
                "q": q,
                "rank": r,
                "corank": s,
                "spec_line": eigenvalues_symmetric(a_line),
                "spec_q": eigenvalues_symmetric(q),
            }
        )
    return out


def test_criterion_01_worked_example_reproduction():
    failures = []
    start = time.perf_counter()
    h = parse_text("1 2 3\n1 4 5\n3 4 5\n")
    a_line = h.line
    if a_line.tolist() != [[0, 1, 1], [1, 0, 2], [1, 2, 0]]:
        failures.append(f"multiplicities {a_line.tolist()}")
    if a_line.sum(axis=1).tolist() != [2, 3, 3]:
        failures.append("line degrees")
    if sum(d * d for d in h.degrees) != 17:
        failures.append("zagreb")
    if line_edge_count(h) != 4:
        failures.append("line edge count")
    if charpoly_coefficients(a_line.tolist()) != (1, 0, -6, -4):
        failures.append("char poly")
    spec_a = eigenvalues_symmetric(a_line).eigenvalues
    if not close_multisets(spec_a, [1 + SQRT3, 1 - SQRT3, -2.0], 1e-8):
        failures.append(f"A_L spectrum {spec_a}")
    spec_q = eigenvalues_symmetric(signless_laplacian(h)).eigenvalues
    if not close_multisets(spec_q, [4 + SQRT3, 4 - SQRT3, 1.0, 0.0, 0.0], 1e-8):
        failures.append(f"Q spectrum {spec_q}")
    finish(1, "worked example reproduction", failures, time.perf_counter() - start, 1.0)


def test_criterion_02_gram_identity(bundles):
    failures = []
    start = time.perf_counter()
    for item in bundles:
        lhs = item["b"].T @ item["b"]
        rhs = np.diag([len(e) for e in item["h"].edges]) + item["a_line"]
        if not np.array_equal(lhs, rhs):
            failures.append(f"gram failed on {item['h']}")
    finish(2, "gram identity on 500 instances", failures,
           time.perf_counter() - start, 10.0)


def test_criterion_03_lower_bound(bundles):
    failures = []
    for item in bundles:
        lam_min = item["spec_line"].smallest
        if lam_min < -item["rank"] - 1e-8:
            failures.append(f"lambda_min {lam_min} < -{item['rank']}")
    finish(3, "line eigenvalues >= -rank", failures)


def test_criterion_04_certificate_iff(bundles):
    failures = []
    for item in bundles:
        h, r = item["h"], item["rank"]
        cert = certificate_minus_r(h)
        present = item["spec_line"].contains(-float(r), 1e-7)
        if (cert is not None) != present:
            failures.append(f"iff mismatch on {h}")
        if cert is not None:
            if (item["b"] @ cert).any():
                failures.append(f"certificate not in kernel on {h}")
            small = [i for i, e in enumerate(h.edges) if len(e) < r]
            if any(cert[i] != 0 for i in small):
                failures.append(f"certificate non-zero on short edge on {h}")
    finish(4, "minus-r certificate iff", failures)


def test_criterion_05_collar_certificates(collar3):
    failures = []
    cases = [
        ("C4", helpers.cycle(4), 2),
        ("C6", helpers.cycle(6), 2),
        ("3-uniform collar", collar3[0], 3),
    ]
    for name, h, k in cases:
        start = time.perf_counter()
        witness = is_collar(h)
        if witness is None:
            failures.append(f"{name}: not recognized as collar")
            continue
        if not collar_implies_bipartite_check(h, witness):
            failures.append(f"{name}: line multigraph not bipartite/k-regular")
        a_line = h.line
        if (a_line.sum(axis=1) != k).any():
            failures.append(f"{name}: line multigraph not {k}-regular")
        check_collar_witness(h, witness)
        if is_uniform(h) != k:
            failures.append(f"{name}: host not {k}-uniform")
        if any(x not in (1, -1) for x in witness):
            failures.append(f"{name}: certificate not a +-1 vector")
        if (incidence_matrix(h) @ witness).any():
            failures.append(f"{name}: certificate not an exact kernel vector")
        spec = eigenvalues_symmetric(a_line)
        if not spec.contains(-float(k), 1e-8):
            failures.append(f"{name}: -{k} not in line spectrum")
        elapsed = time.perf_counter() - start
        if elapsed > 1.0:
            failures.append(f"{name}: runtime {elapsed:.2f}s exceeds 1s")
    finish(5, "collar certificates (C4, C6, 3-uniform collar)", failures)


def test_criterion_06_regularity_equivalence(bundles, skew_family):
    failures = []
    for item in bundles:
        h = item["h"]
        skew = regularity_report(h).skew_edge_regular is not None
        if skew != helpers.line_is_regular(h):
            failures.append(f"equivalence breaks on corpus instance {h}")
    if len(skew_family) != 50:
        failures.append(f"skew family has {len(skew_family)} members")
    for h in skew_family:
        if regularity_report(h).skew_edge_regular is None:
            failures.append("construction not skew edge-regular")
        if not helpers.line_is_regular(h):
            failures.append("skew construction with irregular line multigraph")
    finish(6, "regularity equivalence (corpus + 50 constructions)", failures)


def test_criterion_07_spectral_radius_bounds(bundles, equality_family):
    failures = []
    for item in bundles:
        h = item["h"]
        r, s = item["rank"], item["corank"]
        rho_q = item["spec_q"].spectral_radius
        rho_l = item["spec_line"].spectral_radius
        uniform = is_uniform(h) is not None
        if rho_q - r > rho_l + 1e-8 or rho_l > rho_q - s + 1e-8:
            failures.append(f"sandwich inequality fails on {h}")
        sandwich_eq = (
            abs(rho_q - r - rho_l) <= 1e-6 or abs(rho_l - (rho_q - s)) <= 1e-6
        )
        if sandwich_eq != uniform:
            failures.append(f"sandwich equality iff uniform fails on {h}")
        degs = h.degrees
        sums = [sum(degs[v] for v in e) for e in h.edges]
        lower, upper = min(sums) - (r - s), max(sums) + (r - s)
        if rho_q < lower - 1e-8 or rho_q > upper + 1e-8:
            failures.append(f"degree-sum bounds fail on {h}")
        edge_regular = regularity_report(h).edge_regular is not None
        ds_eq = abs(rho_q - lower) <= 1e-6 or abs(rho_q - upper) <= 1e-6
        if ds_eq != (uniform and edge_regular):
            failures.append(f"degree-sum equality iff fails on {h}")
    if len(equality_family) != 20:
        failures.append(f"equality family has {len(equality_family)} members")
    for h in equality_family:
        entries = helpers.entry_map(run_all_checks(h, 1e-6))
        sw = entries["spectral-radius-sandwich"].details
        ds = entries["degree-sum-bounds"].details
        sw_gaps = (
            sw["rho_line"] - (sw["rho_q"] - sw["rank"]),
            sw["rho_line"] - (sw["rho_q"] - sw["corank"]),
        )
        ds_gaps = (ds["rho_q"] - ds["lower"], ds["rho_q"] - ds["upper"])
        if not all(abs(gap) <= 1e-6 for gap in sw_gaps):
            failures.append("hand-built case misses sandwich equality")
        if not all(abs(gap) <= 1e-6 for gap in ds_gaps):
            failures.append("hand-built case misses degree-sum equality")
    finish(7, "spectral radius sandwich + degree-sum bounds", failures)


POWER_BASES = [
    ("P4", helpers.path(4)),
    ("C4", helpers.cycle(4)),
    ("trio", helpers.trio()),
]


def power_cases():
    for name, base in POWER_BASES:
        r, _ = rank_corank(base)
        for t, k in ((1, r + 1), (2, 2 * r), (2, 2 * r + 1), (3, 3 * r + 2)):
            yield name, base, r, t, k


def test_criterion_08_power_spectrum():
    failures = []
    for name, base, r, t, k in power_cases():
        q = k - r * t
        n, m = base.n, base.m
        p = exact_rank(incidence_matrix(base))
        formula = power_spectrum_formula(base, t, k).eigenvalues
        powered = power_hypergraph(base, t, k)
        direct = eigenvalues_symmetric(signless_laplacian(powered)).eigenvalues
        tag = f"{name} t={t} k={k}"
        if not close_multisets(formula, direct, 1e-7):
            failures.append(f"{tag}: formula/direct mismatch")
        if len(formula) != t * n + m * q or len(direct) != t * n + m * q:
            failures.append(f"{tag}: eigenvalue count")
        zeros = sum(1 for x in formula if abs(x) <= 1e-9)
        expected_zeros = (q - 1) * m + t * n + (m - p if q == 0 else 0)
        if zeros != expected_zeros:
            failures.append(f"{tag}: zero multiplicity {zeros} != {expected_zeros}")
        if q > 0:
            q_count = sum(1 for x in formula if abs(x - q) <= 1e-9)
            if q_count != m - p:
                failures.append(f"{tag}: value-q multiplicity {q_count} != {m - p}")
    spec = power_spectrum_formula(helpers.path(4), 2, 5).eigenvalues
    expected = [5 + 2 * SQRT2, 5.0, 5 - 2 * SQRT2] + [0.0] * 8
    if not close_multisets(spec, expected, 1e-8):
        failures.append("P4 t=2 k=5 closed form")
    finish(8, "power hypergraph spectrum", failures)


def test_criterion_09_line_invariance(bundles):
    failures = []
    for name, base, r, t, k in power_cases():
        powered = power_hypergraph(base, t, k)
        if not np.array_equal(powered.line, t * base.line):
            failures.append(f"{name} t={t} k={k}: line not scaled by t")
    for item in bundles:
        h = item["h"]
        base_line = h.line
        if not np.array_equal(reduce_core(h).line, base_line):
            failures.append(f"reduce_core changes line multigraph on {h}")
        if not np.array_equal(uniformize(h).line, base_line):
            failures.append(f"uniformize changes line multigraph on {h}")
    finish(9, "line multigraph invariance", failures)


def test_criterion_10_oracle_cross_check(bundles):
    failures = []
    checked = 0
    for item in bundles:
        for mat, spec in ((item["a_line"], item["spec_line"]), (item["q"], item["spec_q"])):
            if mat.shape[0] > 6:
                continue
            roots = charpoly_real_roots(charpoly_coefficients(mat.tolist()))
            checked += 1
            if not close_multisets(spec.eigenvalues, roots, 1e-8):
                failures.append(f"eigensolver disagrees with char poly roots on {item['h']}")
    if checked == 0:
        failures.append("no matrices of order <= 6 in corpus")
    finish(10, f"eigensolver vs char-poly roots ({checked} matrices)", failures)
