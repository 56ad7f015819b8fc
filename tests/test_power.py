import numpy as np
import pytest
from hypothesis import given, settings

from hyperline import (
    Hypergraph,
    emit,
    is_uniform,
    power_hypergraph,
    power_line_invariance_check,
    power_spectrum_formula,
    rank_corank,
    validate,
)
from hyperline.cli import main
from hyperline.power import padding

import helpers
import strategies


def test_power_p4_t2_k5():
    p4 = helpers.path(4)
    powered = power_hypergraph(p4, t=2, k=5)
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
    powered = power_hypergraph(trio, t=1, k=3)
    assert powered.n == trio.n and powered.m == trio.m
    assert sorted(len(e) for e in powered.edges) == sorted(len(e) for e in trio.edges)
    assert np.array_equal(powered.line, trio.line)
    assert powered.labels == tuple(f"{lab}#1" for lab in trio.labels)


def test_power_c4_t1_k3_ring():
    powered = power_hypergraph(helpers.cycle(4), t=1, k=3)
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
            powered = power_hypergraph(base, t, k)
            assert powered.n == t * base.n + base.m * (k - r * t)


def test_power_line_invariance_examples(trio):
    assert power_line_invariance_check(helpers.path(4), 2, 5)
    assert power_line_invariance_check(trio, 1, 4)
    assert power_line_invariance_check(helpers.cycle(4), 3, 6)


def test_power_scaled_line_explicit(trio):
    powered = power_hypergraph(trio, t=2, k=7)
    assert powered.line.tolist() == [[0, 2, 2], [2, 0, 4], [2, 4, 0]]


def test_power_non_uniform_base_literal_padding():
    base = Hypergraph.from_edges([[0, 1], [1, 2, 3]])  # rank 3
    powered = power_hypergraph(base, t=1, k=4)
    # every edge gains q = 1, so cardinalities 3 and 4 (not 4-uniform)
    assert sorted(len(e) for e in powered.edges) == [3, 4]
    assert power_line_invariance_check(base, t=1, k=4)


def test_power_uniform_pad_variant():
    base = Hypergraph.from_edges([[0, 1], [1, 2, 3]])
    powered = power_hypergraph(base, t=1, k=4, uniform_pad=True)
    assert is_uniform(powered) == 4
    assert np.array_equal(powered.line, base.line)


def library_refusal(function):
    def refusal(base, t, k, tmp_path, capsys):
        with pytest.raises(ValueError) as info:
            function(base, t, k)
        return str(info.value)

    return refusal


def cli_refusal(base, t, k, tmp_path, capsys):
    path = tmp_path / "base.hg"
    path.write_text(emit(base))
    assert main(["power", str(path), "-t", str(t), "-k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.removeprefix("error: ").removesuffix("\n")


@pytest.mark.parametrize(
    "refusal",
    [
        library_refusal(power_hypergraph),
        library_refusal(power_line_invariance_check),
        library_refusal(power_spectrum_formula),
        cli_refusal,
    ],
    ids=[
        "power_hypergraph",
        "power_line_invariance_check",
        "power_spectrum_formula",
        "cli",
    ],
)
def test_power_params_validation(refusal, trio, tmp_path, capsys):
    # every entry point applies the one padding rule, with its messages
    t_refused = "expansion factor must be >= 1, got 0"
    assert refusal(trio, 0, 3, tmp_path, capsys) == t_refused
    assert refusal(trio, 2, 5, tmp_path, capsys) == "k < rt: k=5, r*t=6"
    # t is refused before k is compared with rt
    assert refusal(trio, 0, -1, tmp_path, capsys) == t_refused
    assert padding(trio, 2, 6) == 0 and padding(trio, 2, 9) == 3


@settings(deadline=None, max_examples=50)
@given(strategies.hypergraphs(max_n=6, max_m=4))
def test_power_line_invariance_random(h):
    r, _ = rank_corank(h)
    for t, k in ((1, r), (2, 2 * r + 1), (3, 3 * r)):
        assert power_line_invariance_check(h, t, k)


@settings(deadline=None, max_examples=50)
@given(strategies.hypergraphs(max_n=5, max_m=4))
def test_power_degrees(h):
    r, _ = rank_corank(h)
    degs = h.degrees
    powered = power_hypergraph(h, 2, 2 * r + 1)
    pdegs = dict(zip(powered.labels, powered.degrees))
    for v in range(h.n):
        for i in (1, 2):
            assert pdegs[f"{h.labels[v]}#{i}"] == degs[v]
    for label, d in pdegs.items():
        if label.startswith("_pow_"):
            assert d == 1


def test_power_equals_the_normalised_construction_on_every_small_hypergraph(
    small_simple,
):
    # built with `Hypergraph._make`: its edges must already be what the
    # constructor would make of them
    for h in small_simple:
        r, _ = rank_corank(h)
        for t in (1, 2):
            for k in (r * t, r * t + 1):
                for uniform_pad in (False, True):
                    p = power_hypergraph(h, t, k, uniform_pad)
                    assert p == Hypergraph(p.labels, p.edges)
                    assert type(p.labels) is tuple and type(p.edges) is tuple
                    assert all(type(e) is tuple for e in p.edges)
