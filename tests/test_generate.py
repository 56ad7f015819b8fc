import hashlib

import pytest

from hyperline import (
    Hypergraph,
    generate_hypergraph,
    is_connected,
    is_valid,
    validate,
)


def test_deterministic_per_seed():
    a = generate_hypergraph(6, 4, 4, seed=1)
    b = generate_hypergraph(6, 4, 4, seed=1)
    assert a == b
    assert is_valid(a) and is_connected(a)


def test_seeds_vary():
    outputs = {generate_hypergraph(6, 3, 4, seed=s) for s in range(10)}
    assert len(outputs) > 1


def test_single_edge_case():
    h = generate_hypergraph(2, 1, 4, seed=0)
    assert h.labels == ("1", "2")
    assert h.edges == ((0, 1),)


def test_infeasible_raises():
    with pytest.raises(ValueError, match="after"):
        generate_hypergraph(3, 7, 3, seed=0, max_attempts=200)


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_hypergraph(1, 1, 3, seed=0)
    with pytest.raises(ValueError):
        generate_hypergraph(4, 0, 3, seed=0)
    with pytest.raises(ValueError):
        generate_hypergraph(4, 1, 1, seed=0)


def test_outputs_validate_and_mutations_are_rejected():
    for seed in range(30):
        h = generate_hypergraph(7, 4, 4, seed=seed)
        assert validate(h) == []
        # seeded mutations must be caught
        singleton = Hypergraph(h.labels, list(h.edges) + [(0,)])
        assert any(v.rule == "cardinality-one" for v in validate(singleton))
        nested = Hypergraph(h.labels, list(h.edges) + [h.edges[0][:2]])
        rules = {v.rule for v in validate(nested)}
        assert "nested-edge" in rules or "duplicate-edge" in rules


def _digest(hypergraphs) -> str:
    return hashlib.sha256(
        repr([(h.labels, h.edges) for h in hypergraphs]).encode()
    ).hexdigest()


# The corpus feeds the acceptance tests, so a change to what the generator
# draws or accepts must change these digests on purpose.
def test_corpus_output_is_pinned(corpus):
    assert _digest(corpus) == (
        "d0574bfec465b39fc1638c1c46cd878ca609b149716663eab731953a482d6a9c"
    )


def test_benchmark_sized_output_is_pinned():
    outputs = [generate_hypergraph(40, 30, 4, 1), generate_hypergraph(60, 44, 4, 2)]
    assert _digest(outputs) == (
        "561afefca958ee46d4cc9f5d0f3f95d691b5b1dacec601f2d139c3e945af2a7f"
    )
