"""Seeded random generation of simple connected hypergraphs.

Rejection sampling: draw m edges with cardinalities in 2..max_card, retry
until the incidence structure is connected and then the edge set passes
`is_valid` (distinct, non-nested). Deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .core import Hypergraph, is_connected, is_valid


def generate_hypergraph(
    n: int,
    m: int,
    max_card: int,
    seed: int,
    max_attempts: int = 5000,
) -> Hypergraph:
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if m < 1:
        raise ValueError("need at least 1 edge")
    if max_card < 2:
        raise ValueError("max cardinality must be >= 2")
    rng = random.Random(seed)
    top = min(max_card, n)
    labels = [str(i + 1) for i in range(n)]
    for _ in range(max_attempts):
        h = Hypergraph(
            labels, [rng.sample(range(n), rng.randint(2, top)) for _ in range(m)]
        )
        # connectivity rejects most draws, and cheaply; validate builds
        # every violation with its message, so it runs only on survivors
        if is_connected(h) and is_valid(h):
            return h
    raise ValueError(
        f"could not generate a simple connected hypergraph with "
        f"n={n}, m={m}, max_card={max_card} after {max_attempts} attempts"
    )
