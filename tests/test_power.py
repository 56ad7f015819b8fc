import numpy as np
import pytest
from hypothesis import given, settings

from hyperline import (
    Hypergraph,
    PowerParams,
    is_uniform,
    power_hypergraph,
    power_line_invariance_check,
    rank_corank,
    validate,
)

import helpers
import strategies


def test_power_p4_t2_k5():
    p4 = helpers.path(4)
    powered = power_hypergraph(p4, PowerParams(t=2, k=5))
    assert powered.n == 11  # 2*4 clones + 3 padding vertices
    assert [len(e) for e in powered.edges] == [5, 5, 5]
    assert is_uniform(powered) == 5
    assert validate(powered) == []
    # clones keep their source degree, padding vertices have degree one
    degs = dict(zip(powered.labels, powered.degrees))
    assert degs["0#1"] == degs["0#2"] == 1
    assert degs["1#1"] == degs["1#2"] == 2
    assert degs["_pow_0_0"] == 1


def test_power_identity_params(trio):
    powered = power_hypergraph(trio, PowerParams(t=1, k=3))
    assert powered.n == trio.n and powered.m == trio.m
    assert sorted(len(e) for e in powered.edges) == sorted(len(e) for e in trio.edges)
    assert np.array_equal(powered.line, trio.line)
    assert powered.labels == tuple(f"{lab}#1" for lab in trio.labels)


def test_power_c4_t1_k3_ring():
    powered = power_hypergraph(helpers.cycle(4), PowerParams(t=1, k=3))
    assert [len(e) for e in powered.edges] == [3, 3, 3, 3]
    sets = [set(e) for e in powered.edges]
    for i in range(4):
        assert len(sets[i] & sets[(i + 1) % 4]) == 1
        assert len(sets[i] & sets[(i + 2) % 4]) == 0
    assert np.array_equal(powered.line, helpers.cycle(4).line)


def test_power_vertex_count_formula(trio):
    for base in (helpers.path(4), helpers.cycle(4), trio):
        r, _ = rank_corank(base)
        for t, k in ((1, r + 1), (2, 2 * r), (2, 2 * r + 1), (3, 3 * r + 2)):
            powered = power_hypergraph(base, PowerParams(t, k))
            assert powered.n == t * base.n + base.m * (k - r * t)


def test_power_line_invariance_examples(trio):
    assert power_line_invariance_check(helpers.path(4), PowerParams(2, 5))
    assert power_line_invariance_check(trio, PowerParams(1, 4))
    assert power_line_invariance_check(helpers.cycle(4), PowerParams(3, 6))


def test_power_scaled_line_explicit(trio):
    powered = power_hypergraph(trio, PowerParams(t=2, k=7))
    assert powered.line.tolist() == [[0, 2, 2], [2, 0, 4], [2, 4, 0]]


def test_power_non_uniform_base_literal_padding():
    base = Hypergraph.from_edges([[0, 1], [1, 2, 3]])  # rank 3
    powered = power_hypergraph(base, PowerParams(t=1, k=4))
    # every edge gains q = 1, so cardinalities 3 and 4 (not 4-uniform)
    assert sorted(len(e) for e in powered.edges) == [3, 4]
    assert power_line_invariance_check(base, PowerParams(t=1, k=4))


def test_power_uniform_pad_variant():
    base = Hypergraph.from_edges([[0, 1], [1, 2, 3]])
    powered = power_hypergraph(base, PowerParams(t=1, k=4), uniform_pad=True)
    assert is_uniform(powered) == 4
    assert np.array_equal(powered.line, base.line)


def test_power_params_validation(trio):
    with pytest.raises(ValueError):
        PowerParams(t=0, k=3)
    with pytest.raises(ValueError, match="k < rt"):
        power_hypergraph(trio, PowerParams(t=2, k=5))


@settings(deadline=None, max_examples=50)
@given(strategies.hypergraphs(max_n=6, max_m=4))
def test_power_line_invariance_random(h):
    r, _ = rank_corank(h)
    for t, k in ((1, r), (2, 2 * r + 1), (3, 3 * r)):
        assert power_line_invariance_check(h, PowerParams(t, k))


@settings(deadline=None, max_examples=50)
@given(strategies.hypergraphs(max_n=5, max_m=4))
def test_power_degrees(h):
    r, _ = rank_corank(h)
    degs = h.degrees
    powered = power_hypergraph(h, PowerParams(2, 2 * r + 1))
    pdegs = dict(zip(powered.labels, powered.degrees))
    for v in range(h.n):
        for i in (1, 2):
            assert pdegs[f"{h.labels[v]}#{i}"] == degs[v]
    for label, d in pdegs.items():
        if label.startswith("_pow_"):
            assert d == 1
