import math

import numpy as np
import pytest
from hypothesis import given, settings

from hyperline import (
    DEFAULT_TOLERANCE,
    Hypergraph,
    certificate_minus_r,
    check_collar_witness,
    eigenvalues_symmetric,
    exact_kernel,
    incidence_matrix,
    is_collar,
    is_uniform,
    power_hypergraph,
    power_spectrum_formula,
    rank_corank,
    run_all_checks,
    signless_laplacian,
)

import helpers
import strategies
from oracles import charpoly_coefficients, charpoly_real_roots, dense_incidence

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def check_entry(h, name, tolerance=DEFAULT_TOLERANCE):
    return helpers.entry_map(run_all_checks(h, tolerance))[name]


def lower_bound(h, tolerance=DEFAULT_TOLERANCE):
    return check_entry(h, "line-eigenvalues-at-least-minus-rank", tolerance)


def sandwich(h, tolerance=DEFAULT_TOLERANCE):
    """The sandwich entry and whether each of its two bounds is attained."""
    entry = check_entry(h, "spectral-radius-sandwich", tolerance)
    d = entry.details
    lower = abs(d["rho_line"] - (d["rho_q"] - d["rank"])) <= tolerance
    upper = abs(d["rho_line"] - (d["rho_q"] - d["corank"])) <= tolerance
    return entry, lower, upper


def degree_sums(h, tolerance=DEFAULT_TOLERANCE):
    """The degree-sum entry and whether each of its two bounds is attained."""
    entry = check_entry(h, "degree-sum-bounds", tolerance)
    d = entry.details
    lower = abs(d["rho_q"] - d["lower"]) <= tolerance
    upper = abs(d["rho_q"] - d["upper"]) <= tolerance
    return entry, lower, upper


def assert_close_multisets(actual, expected, tol=1e-8):
    assert len(actual) == len(expected)
    for a, b in zip(sorted(actual), sorted(expected)):
        assert abs(a - b) <= tol


def test_eigenvalues_trio_line(trio):
    spec = eigenvalues_symmetric(trio.line)
    # roots of x^3 - 6x - 4: 1 + sqrt3, 1 - sqrt3, -2
    assert_close_multisets(spec.eigenvalues, [1 + SQRT3, 1 - SQRT3, -2.0])
    assert spec.eigenvalues[0] >= spec.eigenvalues[-1]


def test_eigenvalues_diagonal():
    spec = eigenvalues_symmetric(np.diag([3, 3, 3]))
    assert_close_multisets(spec.eigenvalues, [3, 3, 3])


def test_eigenvalues_q_of_path():
    spec = eigenvalues_symmetric(signless_laplacian(helpers.path(4)))
    assert_close_multisets(spec.eigenvalues, [2 + SQRT2, 2, 2 - SQRT2, 0])


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric(np.array([[0, 1, 0], [1, 0, 0]]))


def test_eigenvalues_symmetry_check_is_exact():
    # each pair of entries is equal as floats: only an integer comparison
    # sees the asymmetry
    for big, dtype in ((2**53, np.int64), (2**70, object)):
        mat = np.array([[0, big], [big + 1, 0]], dtype=dtype)
        assert float(mat[0, 1]) == float(mat[1, 0])
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalues_symmetric(mat)


def test_eigenvalues_tolerance_domain():
    m = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError):
        eigenvalues_symmetric(m, tolerance=0.0)
    with pytest.raises(ValueError):
        eigenvalues_symmetric(m, tolerance=1.5)


def test_spectrum_grouping_and_json():
    spec = eigenvalues_symmetric(signless_laplacian(helpers.cycle(4)))
    assert [(round(v, 9), k) for v, k in spec.grouped()] == [
        (4.0, 1),
        (2.0, 2),
        (0.0, 1),
    ]
    data = spec.to_json_dict()
    assert set(data) == {"tolerance", "eigenvalues"}
    assert data["eigenvalues"][0]["multiplicity"] == 1


def test_lower_bound_examples(trio):
    rep = lower_bound(trio)
    assert rep.passed and rep.details["rank"] == 3
    assert rep.details["lambda_min"] == pytest.approx(-2.0, abs=1e-9)

    rep = lower_bound(helpers.cycle(4))
    assert rep.passed
    assert rep.details["lambda_min"] == pytest.approx(-2.0, abs=1e-9)  # attained exactly

    rep = lower_bound(helpers.single_edge(2))
    assert rep.passed and rep.details["lambda_min"] == pytest.approx(0.0)


def test_certificate_examples(trio):
    assert certificate_minus_r(helpers.cycle(4)) == (1, -1, 1, -1)
    assert certificate_minus_r(helpers.cycle(3)) is None
    assert certificate_minus_r(trio) is None


def test_certificate_zero_on_small_edges(collar3):
    # embed the collar in a non-uniform host by adding a pendant 2-edge
    h, _ = collar3
    host = Hypergraph(list(h.labels) + ["x"], list(h.edges) + [(0, h.n)])
    assert rank_corank(host) == (3, 2)
    cert = certificate_minus_r(host)
    assert cert is not None and len(cert) == host.m
    assert cert[host.m - 1] == 0
    assert not (dense_incidence(host) @ cert).any()
    spec = eigenvalues_symmetric(host.line)
    assert spec.contains(-3.0, 1e-7)


def test_collar_certificate_c4_c6():
    for n in (4, 6):
        h = helpers.cycle(n)
        cert = is_collar(h)
        check_collar_witness(h, cert)
        assert cert == tuple(1 if i % 2 == 0 else -1 for i in range(n))
        assert is_uniform(h) == 2


def test_collar_certificate_collar3(collar3):
    h, signs = collar3
    cert = is_collar(h)
    check_collar_witness(h, cert)
    assert is_uniform(h) == 3
    assert cert == signs
    assert all(s in (1, -1) for s in cert)
    assert not (dense_incidence(h) @ cert).any()
    assert eigenvalues_symmetric(h.line).contains(-3.0, 1e-7)


def test_collar_certificate_rejects_bad_witness():
    # bad signs and uncovered vertices: test_check_collar_witness_errors
    h = helpers.cycle(4)
    with pytest.raises(ValueError, match="empty collar"):
        check_collar_witness(h, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="0 entries for 4 edges"):
        check_collar_witness(h, ())


def test_sandwich_trio(trio):
    rep, lower_eq, upper_eq = sandwich(trio)
    assert rep.passed and rep.details["uniform"] is True
    assert rep.details["rho_q"] == pytest.approx(4 + SQRT3, abs=1e-9)
    assert rep.details["rho_line"] == pytest.approx(1 + SQRT3, abs=1e-9)
    assert lower_eq and upper_eq


def test_sandwich_non_uniform_strict():
    h = Hypergraph.from_edges([[0, 1], [1, 2, 3]])
    rep, lower_eq, upper_eq = sandwich(h, tolerance=1e-6)
    assert rep.passed and rep.details["uniform"] is False
    assert not lower_eq and not upper_eq


def test_sandwich_single_edge():
    rep, lower_eq, upper_eq = sandwich(helpers.single_edge(2))
    assert rep.details["rho_q"] == pytest.approx(2.0)
    assert rep.details["rho_line"] == pytest.approx(0.0)
    assert lower_eq and upper_eq


def test_degree_sum_bounds_cycle():
    rep, lower_eq, upper_eq = degree_sums(helpers.cycle(4))
    assert (rep.details["lower"], rep.details["upper"]) == (4, 4)
    assert rep.details["rho_q"] == pytest.approx(4.0)
    assert lower_eq and upper_eq
    assert rep.details["uniform_and_edge_regular"] is True


def test_degree_sum_bounds_trio(trio):
    rep, lower_eq, upper_eq = degree_sums(trio, tolerance=1e-6)
    assert (rep.details["lower"], rep.details["upper"]) == (5, 6)
    assert rep.details["rho_q"] == pytest.approx(4 + SQRT3, abs=1e-9)
    assert rep.passed
    assert not lower_eq and not upper_eq


def test_degree_sum_bounds_path():
    h = helpers.path(4)
    rep, lower_eq, upper_eq = degree_sums(h, tolerance=1e-6)
    assert (rep.details["lower"], rep.details["upper"]) == (3, 4)
    assert rep.details["rho_q"] == pytest.approx(2 + SQRT2, abs=1e-9)
    # 2-uniform, so the combined flag is down because it is not edge-regular
    assert is_uniform(h) == 2
    assert rep.passed and not rep.details["uniform_and_edge_regular"]
    assert not lower_eq and not upper_eq


def test_power_spectrum_p4():
    spec = power_spectrum_formula(helpers.path(4), t=2, k=5)
    expected = [5 + 2 * SQRT2, 5.0, 5 - 2 * SQRT2] + [0.0] * 8
    assert_close_multisets(spec.eigenvalues, expected)


def test_power_spectrum_identity_params(trio):
    spec = power_spectrum_formula(trio, t=1, k=3)
    base = eigenvalues_symmetric(signless_laplacian(trio))
    assert_close_multisets(spec.eigenvalues, base.eigenvalues)


def test_power_spectrum_c4_t1_k3():
    spec = power_spectrum_formula(helpers.cycle(4), t=1, k=3)
    expected = [5.0, 3.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert_close_multisets(spec.eigenvalues, expected)
    # cross-check against the constructed power itself
    powered = power_hypergraph(helpers.cycle(4), 1, 3)
    direct = eigenvalues_symmetric(signless_laplacian(powered))
    assert_close_multisets(spec.eigenvalues, direct.eigenvalues)


def test_power_spectrum_rejects_small_k(trio):
    with pytest.raises(ValueError, match="k < rt"):
        power_spectrum_formula(trio, t=2, k=5)


def test_power_spectrum_rejects_zero_expansion(trio):
    with pytest.raises(ValueError, match="expansion factor must be >= 1"):
        power_spectrum_formula(trio, 0, 3)


@settings(deadline=None, max_examples=40)
@given(strategies.hypergraphs(max_n=7, max_m=5))
def test_power_spectrum_matches_direct(h):
    r, _ = rank_corank(h)
    for t, k in ((1, r + 1), (2, 2 * r), (2, 2 * r + 1)):
        formula = power_spectrum_formula(h, t, k)
        powered = power_hypergraph(h, t, k)
        direct = eigenvalues_symmetric(signless_laplacian(powered))
        assert_close_multisets(formula.eigenvalues, direct.eigenvalues, tol=1e-8)


@settings(deadline=None, max_examples=40)
@given(strategies.hypergraphs(max_n=6, max_m=5))
def test_lower_bound_random(h):
    rep = lower_bound(h)
    assert rep.details["lambda_min"] >= -rep.details["rank"] - 10 * rep.tolerance


@settings(deadline=None, max_examples=40)
@given(strategies.hypergraphs(max_n=6, max_m=5))
def test_certificate_iff_random(h):
    r, _ = rank_corank(h)
    cert = certificate_minus_r(h)
    spec = eigenvalues_symmetric(h.line)
    assert (cert is not None) == spec.contains(-float(r), 1e-7)


@settings(deadline=None, max_examples=30)
@given(strategies.symmetric_int_matrices(max_order=6, max_abs=3))
def test_eigenvalues_match_char_poly_roots(rows):
    spec = eigenvalues_symmetric(np.array(rows))
    roots = charpoly_real_roots(charpoly_coefficients(rows))
    assert_close_multisets(spec.eigenvalues, roots, tol=1e-8)


def test_certificate_reads_the_first_kernel_vector_of_the_rank_sized_edges(
    small_simple,
):
    # certificate_minus_r passes at most n + 1 of those columns
    wide = 0
    for h in small_simple + [helpers.complete_uniform(9, 3)]:
        r, _ = rank_corank(h)
        big = [i for i, e in enumerate(h.edges) if len(e) == r]
        basis = exact_kernel(incidence_matrix(h)[:, big])
        expected = None
        if basis:
            entries = dict(zip(big, basis[0]))
            expected = tuple(entries.get(i, 0) for i in range(h.m))
        assert certificate_minus_r(h) == expected
        wide += len(big) > h.n + 1
    assert wide > 1
