import math

import pytest
from hypothesis import given, settings

from hyperline import (
    Analysis,
    CollarWitness,
    Hypergraph,
    IntMatrix,
    adjacency_matrix,
    certificate_minus_r,
    char_poly_exact,
    collar_certificate_vector,
    eigenvalues_symmetric,
    incidence_matrix,
    is_collar,
    line_multigraph,
    matrix_vector,
    power_hypergraph,
    power_spectrum_formula,
    PowerParams,
    rank_corank,
    signless_laplacian,
)

import helpers
import strategies
from oracles import charpoly_real_roots

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def line_adjacency(h):
    return adjacency_matrix(line_multigraph(h).graph)


def assert_close_multisets(actual, expected, tol=1e-8):
    assert len(actual) == len(expected)
    for a, b in zip(sorted(actual), sorted(expected)):
        assert abs(a - b) <= tol


def test_eigenvalues_trio_line(trio):
    spec = eigenvalues_symmetric(line_adjacency(trio))
    # roots of x^3 - 6x - 4: 1 + sqrt3, 1 - sqrt3, -2
    assert_close_multisets(spec.eigenvalues, [1 + SQRT3, 1 - SQRT3, -2.0])
    assert spec.eigenvalues[0] >= spec.eigenvalues[-1]


def test_eigenvalues_diagonal():
    spec = eigenvalues_symmetric(IntMatrix.diagonal([3, 3, 3]))
    assert_close_multisets(spec.eigenvalues, [3, 3, 3])


def test_eigenvalues_q_of_path():
    spec = eigenvalues_symmetric(signless_laplacian(helpers.path(4)))
    assert_close_multisets(spec.eigenvalues, [2 + SQRT2, 2, 2 - SQRT2, 0])


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_eigenvalues_tolerance_domain():
    m = IntMatrix.identity(2)
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


def test_char_poly_trio(trio):
    assert char_poly_exact(line_adjacency(trio)).coefficients == (1, 0, -6, -4)


def test_char_poly_trivial():
    assert char_poly_exact(IntMatrix.from_rows([[0, 0], [0, 0]])).coefficients == (1, 0, 0)
    assert char_poly_exact(IntMatrix.identity(3)).coefficients == (1, -3, 3, -1)


def test_char_poly_evaluate(trio):
    poly = char_poly_exact(line_adjacency(trio))
    assert poly.evaluate(-2) == 0
    assert poly.evaluate(0) == -4


def test_lower_bound_examples(trio):
    rep = Analysis(trio).lower_bound
    assert rep.passed and rep.rank == 3
    assert rep.lambda_min == pytest.approx(-2.0, abs=1e-9)

    rep = Analysis(helpers.cycle(4)).lower_bound
    assert rep.passed
    assert rep.lambda_min == pytest.approx(-2.0, abs=1e-9)  # attained exactly

    rep = Analysis(helpers.single_edge(2)).lower_bound
    assert rep.passed and rep.lambda_min == pytest.approx(0.0)


def test_certificate_examples(trio):
    cert = certificate_minus_r(helpers.cycle(4))
    assert cert is not None and cert.r == 2
    assert [int(x) for x in cert.vector.entries] == [1, -1, 1, -1]
    assert certificate_minus_r(helpers.cycle(3)) is None
    assert certificate_minus_r(trio) is None


def test_certificate_zero_on_small_edges(collar3):
    # embed the collar in a non-uniform host by adding a pendant 2-edge
    h, _ = collar3
    host = Hypergraph(list(h.labels) + ["x"], list(h.edges) + [(0, h.n)])
    cert = certificate_minus_r(host)
    assert cert is not None and cert.r == 3
    assert cert.vector.entries[host.m - 1] == 0
    assert matrix_vector(incidence_matrix(host), cert.vector).is_zero()
    spec = eigenvalues_symmetric(line_adjacency(host))
    assert spec.contains(-3.0, 1e-7)


def test_certificate_rejects_unverified_vector(monkeypatch):
    # a kernel vector that is not in ker B must be refused, not returned
    import hyperline.spectra as spectra
    from hyperline import RationalVector

    monkeypatch.setattr(
        spectra, "exact_kernel", lambda b, fixed: [RationalVector([1] * b.cols)]
    )
    with pytest.raises(AssertionError, match="exact verification"):
        certificate_minus_r(helpers.cycle(4))


def test_collar_certificate_c4_c6():
    for n in (4, 6):
        h = helpers.cycle(n)
        witness = is_collar(h)
        cert = collar_certificate_vector(h, witness)
        expected = [1 if i % 2 == 0 else -1 for i in range(n)]
        assert [int(x) for x in cert.vector.entries] == expected
        assert cert.r == 2


def test_collar_certificate_collar3(collar3):
    h, coloring = collar3
    witness = is_collar(h)
    cert = collar_certificate_vector(h, witness)
    assert cert.r == 3
    signs = [int(x) for x in cert.vector.entries]
    assert all(s in (1, -1) for s in signs)
    assert signs == [1 if coloring[i] == 1 else -1 for i in range(h.m)]
    assert matrix_vector(incidence_matrix(h), cert.vector).is_zero()
    assert eigenvalues_symmetric(line_adjacency(h)).contains(-3.0, 1e-7)


def test_collar_certificate_rejects_bad_witness():
    h = helpers.cycle(4)
    with pytest.raises(ValueError, match="coloring invalid"):
        collar_certificate_vector(
            h, CollarWitness((0, 1, 2, 3), {0: 1, 1: 1, 2: 2, 3: 2})
        )
    with pytest.raises(ValueError, match="2-regular"):
        collar_certificate_vector(h, CollarWitness((0, 1), {0: 1, 1: 2}))


def test_collar_certificate_requires_uniform_host(collar3):
    h, coloring = collar3
    host = Hypergraph(list(h.labels) + ["x"], list(h.edges) + [(0, h.n)])
    witness = CollarWitness(tuple(range(h.m)), coloring)
    with pytest.raises(ValueError, match="not uniform"):
        collar_certificate_vector(host, witness)


def test_sandwich_trio(trio):
    rep = Analysis(trio).sandwich
    assert rep.passed and rep.uniform
    assert rep.rho_q == pytest.approx(4 + SQRT3, abs=1e-9)
    assert rep.rho_line == pytest.approx(1 + SQRT3, abs=1e-9)
    assert rep.lower_equality and rep.upper_equality


def test_sandwich_non_uniform_strict():
    h = Hypergraph.from_edges([[0, 1], [1, 2, 3]])
    rep = Analysis(h, tolerance=1e-6).sandwich
    assert rep.passed and not rep.uniform
    assert not rep.lower_equality and not rep.upper_equality


def test_sandwich_single_edge():
    rep = Analysis(helpers.single_edge(2)).sandwich
    assert rep.rho_q == pytest.approx(2.0)
    assert rep.rho_line == pytest.approx(0.0)
    assert rep.lower_equality and rep.upper_equality


def test_degree_sum_bounds_cycle():
    rep = Analysis(helpers.cycle(4)).degree_sums
    assert (rep.lower_bound, rep.upper_bound) == (4, 4)
    assert rep.rho_q == pytest.approx(4.0)
    assert rep.uniform and rep.edge_regular
    assert rep.lower_equality and rep.upper_equality


def test_degree_sum_bounds_trio(trio):
    rep = Analysis(trio, tolerance=1e-6).degree_sums
    assert (rep.lower_bound, rep.upper_bound) == (5, 6)
    assert rep.rho_q == pytest.approx(4 + SQRT3, abs=1e-9)
    assert rep.passed
    assert not rep.lower_equality and not rep.upper_equality


def test_degree_sum_bounds_path():
    rep = Analysis(helpers.path(4), tolerance=1e-6).degree_sums
    assert (rep.lower_bound, rep.upper_bound) == (3, 4)
    assert rep.rho_q == pytest.approx(2 + SQRT2, abs=1e-9)
    assert rep.passed and not rep.edge_regular
    assert not rep.lower_equality and not rep.upper_equality


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
    powered = power_hypergraph(helpers.cycle(4), PowerParams(1, 3))
    direct = eigenvalues_symmetric(signless_laplacian(powered))
    assert_close_multisets(spec.eigenvalues, direct.eigenvalues)


def test_power_spectrum_rejects_small_k(trio):
    with pytest.raises(ValueError, match="k < rt"):
        power_spectrum_formula(trio, t=2, k=5)


@settings(deadline=None, max_examples=60)
@given(strategies.symmetric_int_matrices(max_order=5))
def test_char_poly_scaling_law(rows):
    mat = IntMatrix.from_rows(rows)
    base = char_poly_exact(mat).coefficients
    for t in (1, 2, 3):
        scaled = char_poly_exact(mat.scaled(t)).coefficients
        assert scaled == tuple(c * t**i for i, c in enumerate(base))


@settings(deadline=None, max_examples=40)
@given(strategies.hypergraphs(max_n=7, max_m=5))
def test_power_spectrum_matches_direct(h):
    r, _ = rank_corank(h)
    for t, k in ((1, r + 1), (2, 2 * r), (2, 2 * r + 1)):
        formula = power_spectrum_formula(h, t, k)
        powered = power_hypergraph(h, PowerParams(t, k))
        direct = eigenvalues_symmetric(signless_laplacian(powered))
        assert_close_multisets(formula.eigenvalues, direct.eigenvalues, tol=1e-8)


@settings(deadline=None, max_examples=40)
@given(strategies.hypergraphs(max_n=6, max_m=5))
def test_lower_bound_random(h):
    rep = Analysis(h).lower_bound
    assert rep.lambda_min >= -rep.rank - 10 * rep.tolerance


@settings(deadline=None, max_examples=40)
@given(strategies.hypergraphs(max_n=6, max_m=5))
def test_certificate_iff_random(h):
    r, _ = rank_corank(h)
    cert = certificate_minus_r(h)
    spec = eigenvalues_symmetric(line_adjacency(h))
    assert (cert is not None) == spec.contains(-float(r), 1e-7)


@settings(deadline=None, max_examples=30)
@given(strategies.symmetric_int_matrices(max_order=6, max_abs=3))
def test_eigenvalues_match_char_poly_roots(rows):
    mat = IntMatrix.from_rows(rows)
    spec = eigenvalues_symmetric(mat)
    roots = charpoly_real_roots(char_poly_exact(mat).coefficients)
    assert_close_multisets(spec.eigenvalues, roots, tol=1e-8)
