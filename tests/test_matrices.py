import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperline.matrices as matrices
from hyperline import (
    Hypergraph,
    eigenvalues_symmetric,
    exact_kernel,
    exact_rank,
    generate_hypergraph,
    gram_identity_check,
    incidence_matrix,
    incidence_product,
    certificate_minus_r,
    is_collar,
    power_hypergraph,
    rank_corank,
    signless_laplacian,
    signless_spectrum,
)

import helpers
import strategies
from oracles import dense_incidence, kernel_oracle, rank_oracle


def test_incidence_trio(trio):
    b = incidence_matrix(trio)
    assert b.shape == (5, 3) and b.dtype == np.int64
    assert b.sum(axis=0).tolist() == [3, 3, 3]
    assert b.sum(axis=1).tolist() == [2, 1, 2, 2, 2]


def test_incidence_single_edge():
    assert incidence_matrix(helpers.single_edge(2)).tolist() == [[1], [1]]


def test_incidence_path():
    assert incidence_matrix(helpers.path(4)).tolist() == [
        [1, 0, 0],
        [1, 1, 0],
        [0, 1, 1],
        [0, 0, 1],
    ]


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=max(n - 1, 0)),
                    max_size=4 if n else 0,
                ),
                max_size=6,
            ),
        )
    )
)
@example((3, [[], [0, 2]]))  # an empty edge and the isolated vertex 1
def test_incidence_matrix_matches_dense_with_isolated_vertices_and_empty_edges(case):
    n, edges = case
    h = Hypergraph.from_edges(edges, n=n)
    b = incidence_matrix(h)
    assert b.dtype == np.int64 and np.array_equal(b, dense_incidence(h))
    assert "incidence" not in vars(h)


def test_power_gives_b_and_its_line_without_an_incidence_index(trio):
    # the t=2 power of power_line_invariance_check and the power of
    # `power --spectrum direct` are built in code, never parsed
    p = power_hypergraph(trio, 2, 7)
    p.line
    incidence_matrix(p)
    signless_spectrum(p)
    assert "incidence" not in vars(p)


def test_adjacency_trio_line(trio):
    assert trio.line.tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]


def test_adjacency_edgeless():
    assert Hypergraph.from_edges([[0, 1], [2, 3]]).line.tolist() == [[0, 0], [0, 0]]


def test_signless_laplacian_trio(trio):
    q = signless_laplacian(trio)
    assert q.diagonal().tolist() == [2, 1, 2, 2, 2]
    assert q[3, 4] == 2  # the two bottom vertices share two edges
    assert np.array_equal(q, q.T)


def test_signless_laplacian_small_cases():
    assert signless_laplacian(helpers.single_edge(2)).tolist() == [[1, 1], [1, 1]]
    p4 = helpers.path(4)
    q = signless_laplacian(p4)
    # degree diagonal plus graph adjacency for 2-uniform inputs
    assert q.diagonal().tolist() == [1, 2, 2, 1]
    assert q[0, 1] == q[1, 2] == q[2, 3] == 1
    assert q[0, 2] == q[0, 3] == q[1, 3] == 0


def test_gram_identity_examples(trio):
    assert gram_identity_check(trio)
    assert gram_identity_check(helpers.single_edge(4))


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_gram_identity_random(h):
    assert gram_identity_check(h)


def test_exact_kernel_even_cycle():
    basis = exact_kernel(incidence_matrix(helpers.cycle(4)))
    assert len(basis) == 1
    assert list(basis[0]) == [1, -1, 1, -1]


def test_exact_kernel_odd_cycle_empty():
    assert exact_kernel(incidence_matrix(helpers.cycle(3))) == []


def test_exact_kernel_identity_empty():
    assert exact_kernel(np.eye(4, dtype=np.int64)) == []


def test_exact_kernel_fixed_columns():
    # 1x3 zero row with column 1 held at zero: the kernel of the other columns
    mat = np.array([[0, 0, 0]])
    basis = exact_kernel(mat[:, [0, 2]])
    assert [list(v) for v in basis] == [[1, 0], [0, 1]]


def test_exact_kernel_normalization():
    # rational pivots: x0 = -2/3 x2 -> integer vector (2, 0, -3)-ish content 1
    mat = np.array([[3, 0, 2], [0, 1, 0]])
    basis = exact_kernel(mat)
    assert len(basis) == 1
    vec = list(basis[0])
    assert vec[0] > 0
    from math import gcd

    assert gcd(gcd(abs(vec[0]), abs(vec[1])), abs(vec[2])) == 1
    assert not (mat @ basis[0]).any()


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_kernel_vectors_exact(h):
    b = incidence_matrix(h)
    for vec in exact_kernel(b):
        assert not (b @ vec).any()
        assert any(vec)


def test_exact_rank_matches_kernel_dimension(trio):
    b = incidence_matrix(trio)
    assert exact_rank(b) == 3
    assert exact_rank(incidence_matrix(helpers.cycle(4))) == 3
    assert exact_rank(np.eye(5, dtype=np.int64)) == 5


def assert_signless_spectrum_matches_dense_q(h):
    q = signless_laplacian(h)
    dense = eigenvalues_symmetric(q).eigenvalues
    fast = signless_spectrum(h).eigenvalues
    assert len(fast) == len(dense) == h.n
    tol = 1e-9 * max(1.0, np.linalg.norm(q, 2))
    assert all(abs(a - b) <= tol for a, b in zip(fast, dense))


@settings(deadline=None)
@given(strategies.hypergraphs(max_n=6, max_m=4))
@example(helpers.complete_graph(5))  # wide: n < m
@example(helpers.cycle(4))  # square
@example(Hypergraph.from_edges([(0, 1, 2), (2, 3)], n=6))  # tall, isolated vertices
@example(Hypergraph.from_edges(helpers.complete_graph(4).edges, n=5))  # wide, isolated
@example(Hypergraph(["a"], []))  # no edges: Q is the 1 x 1 zero matrix
def test_q_and_gram_share_nonzero_spectrum(h):
    b = incidence_matrix(h)
    q_eigs = [
        x
        for x in eigenvalues_symmetric(signless_laplacian(h)).eigenvalues
        if abs(x) > 1e-8
    ]
    gram = b.T @ b
    g_eigs = [x for x in eigenvalues_symmetric(gram).eigenvalues if abs(x) > 1e-8]
    assert len(q_eigs) == len(g_eigs)
    assert all(abs(a - b2) < 1e-8 for a, b2 in zip(q_eigs, g_eigs))
    # the spectrum solved at size min(n, m) matches the dense n x n route
    assert_signless_spectrum_matches_dense_q(h)
    if h.m:  # an edgeless hypergraph has no rank, so no power
        r, _ = rank_corank(h)
        assert_signless_spectrum_matches_dense_q(
            power_hypergraph(h, 2, 2 * r + 3)
        )


@settings(deadline=None)
@given(strategies.hypergraphs(), st.data())
def test_incidence_product_matches_dense_product(h, data):
    vec = tuple(
        data.draw(st.lists(st.integers(-50, 50), min_size=h.m, max_size=h.m))
    )
    assert incidence_product(h, vec) == tuple((dense_incidence(h) @ vec).tolist())
    with pytest.raises(ValueError, match="dimension mismatch"):
        incidence_product(h, vec + (0,))


def test_exact_vectors_are_integer_tuples(collar3):
    def assert_int_tuple(vec):
        assert type(vec) is tuple
        assert vec and all(type(x) is int for x in vec)

    c4 = helpers.cycle(4)
    rational_pivots = np.array([[3, 0, 2], [0, 1, 0]])
    for mat in (incidence_matrix(c4), rational_pivots):
        basis = exact_kernel(mat)
        assert basis
        for vec in basis:
            assert_int_tuple(vec)
    assert_int_tuple(incidence_product(c4, exact_kernel(incidence_matrix(c4))[0]))
    assert_int_tuple(certificate_minus_r(helpers.cycle(4)))
    h, _ = collar3
    assert_int_tuple(is_collar(h))


# the widest entry the exact routines accept
WIDEST = 2**31 - 1


def matrix_rows(entry, rows: int, cols: int):
    row = st.lists(entry, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def int_matrices(draw, max_rows: int = 6, max_cols: int = 7):
    """Integer matrices with negative entries and entries up to ±WIDEST,
    often rank deficient, plus a set of columns to hold at zero."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    if draw(st.booleans()):
        # a product of rows x k and k x cols factors has rank at most k; a sum
        # of at most 6 products of factors within 2**14 stays below 2**31
        factor = st.integers(min_value=-6, max_value=6) | st.integers(-(2**14), 2**14)
        k = draw(st.integers(min_value=0, max_value=min(rows, cols)))
        left = draw(matrix_rows(factor, rows, k))
        right = draw(matrix_rows(factor, k, cols))
        data = [
            [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)
        ]
    else:
        entry = (
            st.integers(min_value=-6, max_value=6)
            | st.integers(-WIDEST, WIDEST)
            | st.sampled_from((WIDEST, -WIDEST))
        )
        data = draw(matrix_rows(entry, rows, cols))
    fixed = draw(st.frozensets(st.integers(min_value=0, max_value=cols - 1)))
    return data, fixed


@settings(deadline=None, max_examples=300)
@given(int_matrices())
def test_exact_kernel_matches_fraction_rref(case):
    data, fixed = case
    mat = np.array(data, dtype=np.int64)
    assert exact_rank(mat) == rank_oracle(data)
    cols = len(data[0])
    for zero in (frozenset(), fixed):
        active = [c for c in range(cols) if c not in zero]
        basis = exact_kernel(mat[:, active])
        assert all(type(x) is int for v in basis for x in v)
        got = [list(v) for v in basis]
        # the oracle's vectors hold zeros on the fixed columns; dropping them
        # keeps content 1 and the sign of the leading entry
        assert got == [[v[c] for c in active] for v in kernel_oracle(data, cols, zero)]


@st.composite
def sparse_int_matrices(draw, max_rows: int = 8, max_cols: int = 8):
    """Mostly zero integer matrices, so that rows of one non-zero (the peel)
    and of two of equal size (the tie) are common. Entries are ±1 and ±2,
    with ±WIDEST now and then: two columns of WIDEST tied with the same
    sign sum to 2**32 - 2, which the core holds in int64."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    entry = st.sampled_from((0,) * 12 + (1, -1, 2, -2) * 2 + (WIDEST, -WIDEST))
    return draw(matrix_rows(entry, rows, cols))


def as_matrix(data, cols: int) -> np.ndarray:
    return np.array(data, dtype=np.int64).reshape(len(data), cols)


@settings(deadline=None, max_examples=300)
@given(sparse_int_matrices())
@example([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])  # even cycle
@example([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # odd cycle: ties, then a peel
def test_exact_kernel_of_sparse_matrices_matches_fraction_rref(data):
    cols = len(data[0]) if data else 3
    mat = as_matrix(data, cols)
    assert [list(v) for v in exact_kernel(mat)] == kernel_oracle(data, cols)
    assert exact_rank(mat) == rank_oracle(data)


@settings(deadline=None, max_examples=200)
@given(sparse_int_matrices(), st.data())
def test_exact_kernel_ignores_the_row_order(data, draw):
    cols = len(data[0]) if data else 3
    mat = as_matrix(data, cols)
    perm = draw.draw(st.permutations(range(len(data))))
    assert exact_kernel(mat[list(perm)]) == exact_kernel(mat)


def test_exact_kernel_of_generator_draws_ignores_the_row_order():
    rng = np.random.default_rng(7)
    for seed in range(4):
        b = incidence_matrix(generate_hypergraph(80, 70, 4, seed))
        basis = exact_kernel(b)
        for _ in range(3):
            assert exact_kernel(b[rng.permutation(b.shape[0])]) == basis


@pytest.mark.parametrize("w", [WIDEST, -WIDEST], ids=["plus", "minus"])
def test_a_same_sign_tie_of_the_widest_entries_stays_in_int64(w):
    # x0 = x1 ties column 0 into column 1, whose entry becomes w + w
    data = [[1, -1, 0], [w, w, 1]]
    mat = np.array(data, dtype=np.int64)
    core, _, _ = matrices._core(mat)
    assert core.dtype == np.int64 and core.tolist() == [[2 * w, 1]]
    assert [list(v) for v in exact_kernel(mat)] == kernel_oracle(data, 3)
    assert kernel_oracle(data, 3) == [[1, 1, -2 * w]]
    assert exact_rank(mat) == rank_oracle(data) == 2


def test_exact_kernel_matches_fraction_rref_without_rows():
    mat = np.zeros((0, 3), dtype=np.int64)
    assert exact_rank(mat) == 0
    got = [list(v) for v in exact_kernel(mat[:, [0, 2]])]
    assert got == kernel_oracle([], 2) == [[1, 0], [0, 1]]


def fallback_reasons(caplog) -> list[str]:
    return [
        r.getMessage().rsplit(": ", 1)[1]
        for r in caplog.records
        if r.name == "hyperline.matrices"
    ]


def test_kernel_falls_back_to_fraction_free_when_the_prime_drops_the_rank(
    monkeypatch, caplog
):
    monkeypatch.setattr(matrices, "_PRIME", 3)
    # every row has three non-zeros, so the whole matrix is its own core; its
    # determinant is -3, so mod 3 its rank is 3, and the kernel vector read
    # back fails B x = 0 over the integers
    b = incidence_matrix(helpers.complete_uniform(4, 3))
    assert len(matrices._gauss_jordan_mod_p(b % 3)[0]) == 3
    with caplog.at_level(logging.DEBUG, logger="hyperline.matrices"):
        assert exact_kernel(b) == []
        assert exact_rank(b) == 4
    assert fallback_reasons(caplog) == ["rank dropped mod p"] * 2
    assert "4x4 matrix, 4x4 core" in caplog.records[0].getMessage()


@pytest.mark.parametrize(
    "data, dtype, reason",
    [
        # the prime itself is an entry the exact routines accept: mod p the
        # first column vanishes, so the vector (1, 0) fails the product
        ([[matrices._PRIME, 1]], np.int32, "rank dropped mod p"),
        # the kernel vector (10**6, -1) lies past the reconstruction bound
        ([[1, 10**6]], np.int64, "reconstruction bound"),
        ([[40000, 39999, 7]], np.int64, "reconstruction bound"),
    ],
)
def test_wide_entries_fall_back_to_fraction_free(caplog, data, dtype, reason):
    mat = np.array(data, dtype=dtype)
    with caplog.at_level(logging.DEBUG, logger="hyperline.matrices"):
        got = [list(v) for v in exact_kernel(mat)]
        rank = exact_rank(mat)
    assert got == kernel_oracle(data, len(data[0]))
    assert rank == rank_oracle(data)
    assert fallback_reasons(caplog) == [reason] * 2


def test_certified_route_runs_no_fraction_free_step(monkeypatch, caplog):
    def refuse(a):
        raise RuntimeError("fraction-free elimination ran")

    monkeypatch.setattr(matrices, "_kernel_fraction_free", refuse)
    with caplog.at_level(logging.DEBUG, logger="hyperline.matrices"):
        assert exact_kernel(incidence_matrix(helpers.cycle(4))) == [(1, -1, 1, -1)]
        # x0 = -2/3 x2: read back by rational reconstruction
        assert exact_kernel(np.array([[3, 0, 2], [0, 1, 0]])) == [(2, 0, -3)]
        assert exact_rank(incidence_matrix(helpers.circulant(60, 4))) == 57
        assert exact_rank(np.zeros((0, 3), dtype=np.int64)) == 0
    assert not fallback_reasons(caplog)


def test_wide_certificate_product_runs_on_python_ints(monkeypatch):
    # rows d_i e_i + e_6: the kernel vector is (-l/d_1, ..., -l/d_5, l) up to
    # sign, l = lcm(d), so the certifying product passes 2**62 and must run
    # on object entries; mod p it is read back by rational reconstruction
    def refuse(a):
        raise RuntimeError("fraction-free elimination ran")

    monkeypatch.setattr(matrices, "_kernel_fraction_free", refuse)
    d = (30000, 30001, 29999, 29997, 30007)
    rows = [[d[i] if j == i else int(j == 5) for j in range(6)] for i in range(5)]
    (vec,) = exact_kernel(np.array(rows))
    assert vec[-1] == -8101079801998800210000
    assert [list(vec)] == kernel_oracle(rows, 6)


@pytest.mark.parametrize(
    "h, dim",
    [
        (helpers.circulant(60, 4), 3),
        (helpers.circulant(100, 4), 3),
        (helpers.complete_uniform(9, 3), 75),
        (generate_hypergraph(60, 40, 5, 0), 0),
        (generate_hypergraph(20, 26, 3, 1), 6),
        (generate_hypergraph(20, 30, 3, 0), 10),
        (generate_hypergraph(60, 70, 3, 1), 14),
    ],
    ids=["circulant60_4", "circulant100_4", "complete9_3", "gen60_40", "gen20_26",
         "gen20_30", "gen60_70"],
)
def test_kernel_matches_fraction_rref_at_benchmark_scale(monkeypatch, caplog, h, dim):
    def uncertified(a):
        raise matrices._Uncertified("forced")

    b = incidence_matrix(h)
    r = max(len(e) for e in h.edges)
    small = {i for i, e in enumerate(h.edges) if len(e) < r}
    expected = kernel_oracle(b.tolist(), h.m)
    restricted = kernel_oracle(b.tolist(), h.m, small)
    certificate = tuple(restricted[0]) if restricted else None
    # the certified route first, then the fraction-free fallback
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(matrices, "_kernel_mod_p", uncertified)
        with caplog.at_level(logging.DEBUG, logger="hyperline.matrices"):
            assert len(exact_kernel(b)) == dim
            assert exact_rank(b) == h.m - dim
            got = [list(v) for v in exact_kernel(b)]
            assert certificate_minus_r(h) == certificate
        assert got == expected
        assert fallback_reasons(caplog) == ["forced"] * (4 if forced else 0)
        caplog.clear()


def test_fallback_record_gives_the_core_shape(monkeypatch, caplog):
    def uncertified(a):
        raise matrices._Uncertified("forced")

    monkeypatch.setattr(matrices, "_kernel_mod_p", uncertified)
    # every column of this draw is peeled or tied: its core is empty
    b = incidence_matrix(generate_hypergraph(60, 40, 5, 0))
    with caplog.at_level(logging.DEBUG, logger="hyperline.matrices"):
        assert exact_kernel(b) == []
    assert [r.getMessage() for r in caplog.records] == [
        "exact kernel: 60x40 matrix, 0x0 core, fraction-free fallback: forced"
    ]


def test_certified_kernel_of_a_generator_draw_matches_the_fallback(
    monkeypatch, caplog
):
    def uncertified(a):
        raise matrices._Uncertified("forced")

    b = incidence_matrix(generate_hypergraph(400, 300, 4, 1))
    with caplog.at_level(logging.DEBUG, logger="hyperline.matrices"):
        certified = exact_kernel(b)
        assert not fallback_reasons(caplog)
        monkeypatch.setattr(matrices, "_kernel_mod_p", uncertified)
        assert exact_kernel(b) == certified
    assert fallback_reasons(caplog) == ["forced"]
    assert len(certified) == b.shape[1] - np.linalg.matrix_rank(b.astype(float)) > 0
    assert not (b @ np.array(certified, dtype=np.int64).T).any()


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[0.7, 0.1], [0.2, 0.3]]),
        np.array([[1, 0.5]], dtype=object),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
    ],
)
def test_exact_routines_refuse_non_integer_entries(mat):
    with pytest.raises(ValueError, match="integer entries"):
        exact_rank(mat)
    with pytest.raises(ValueError, match="integer entries"):
        exact_kernel(mat)


@pytest.mark.parametrize(
    "mat", [np.array([1, 2]), np.array(3), np.zeros((2, 2, 2), dtype=int)]
)
def test_exact_routines_refuse_non_matrix_shapes(mat):
    message = re.escape(f"need a 2-D matrix, not shape {mat.shape}")
    with pytest.raises(ValueError, match=message):
        exact_rank(mat)
    with pytest.raises(ValueError, match=message):
        exact_kernel(mat)


def test_exact_routines_accept_bool_and_entries_below_2_31():
    assert exact_rank(np.array([[True, False], [True, True]])) == 2
    data = [[WIDEST, -WIDEST, 1], [-WIDEST, 3, WIDEST]]
    for dtype in (np.int64, np.int32):
        mat = np.array(data, dtype=dtype)
        assert [list(v) for v in exact_kernel(mat)] == kernel_oracle(data, 3)
        assert exact_rank(mat) == rank_oracle(data)


@pytest.mark.parametrize(
    "mat, message",
    [
        (np.array([[1, 2], [2, 4]], dtype=object), "integer entries, not object"),
        (np.array([[1, 2]], dtype=np.uint64), "integer entries, not uint64"),
        (np.array([[1, 2**31]], dtype=np.int64), "absolute value below 2**31"),
        (np.array([[-(2**31), 1]], dtype=np.int64), "absolute value below 2**31"),
    ],
    ids=["object", "uint64", "2**31", "-2**31"],
)
def test_exact_routines_refuse_entries_beyond_the_contract(mat, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_rank(mat)
    with pytest.raises(ValueError, match=re.escape(message)):
        exact_kernel(mat)


def assert_sparse_products_match_dense(h):
    # integer products of the reference B, not the float product under test
    b = dense_incidence(h)
    assert np.array_equal(incidence_matrix(h), b)
    assert np.array_equal(signless_laplacian(h), b @ b.T)
    c = np.diag([len(e) for e in h.edges])
    assert np.array_equal(c + h.line, b.T @ b)


@settings(deadline=None)
@given(strategies.hypergraphs())
def test_sparse_products_match_dense_random(h):
    assert_sparse_products_match_dense(h)


def test_sparse_products_match_dense_circulant():
    assert_sparse_products_match_dense(helpers.circulant(200, 4))

