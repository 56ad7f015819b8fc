"""Seeded inputs for the four benchmark workloads.

Every instance is built here, from the benchmark's own code; nothing comes
from `hyperline.generate`, so a change to the generator cannot change the
inputs of the other workloads.

An instance is a list of edges, each a list of vertex ids. Every instance,
its edge order and the order of the vertices on each line are fixed by the
tables below; each random instance has its own design seed. The run's
`--seed` only draws the vertex labels (see `render`) and the order of the
calls in a pass. Since `hyperline` numbers vertices by first appearance, the
incidence matrix of every instance, and so the work of every call, is the
same for every run seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI call: a name, the instance it reads (or None) and its argv.

    `{file}` in `argv` is replaced by the path the instance is written to.
    """

    name: str
    edges: tuple[tuple[int, ...], ...] | None
    argv: tuple[str, ...]
    # what the check needs to know about how the instance was made
    meta: dict = field(default_factory=dict)


def circulant(n: int, k: int) -> list[list[int]]:
    """Edges {i, i+1, .., i+k-1} mod n: k-uniform and k-regular."""
    return [[(i + j) % n for j in range(k)] for i in range(n)]


def complete_uniform(n: int, k: int) -> list[list[int]]:
    return [list(c) for c in itertools.combinations(range(n), k)]


def collar3() -> list[list[int]]:
    """A 3-uniform collar on 21 vertices and 14 edges (demos/data/collar3.hg)."""
    rows = """1 2 3|1 11 12|2 21 22|3 31 32|11 111 112|12 121 122|21 211 212
    |22 221 222|31 311 312|32 321 322|111 211 311|112 212 312|121 221 321
    |122 222 322"""
    index: dict[str, int] = {}
    return [
        [index.setdefault(tok, len(index)) for tok in row.split()]
        for row in rows.split("|")
    ]


def power(edges: list[list[int]], t: int, k: int) -> list[list[int]]:
    """The general power H^k_t: t clones per vertex, k - r*t pads per edge."""
    r = max(len(e) for e in edges)
    n = 1 + max(v for e in edges for v in e)
    q = k - r * t
    if q < 0:
        raise ValueError("k < r*t")
    out = []
    fresh = n * t
    for e in edges:
        row = [v * t + c for v in e for c in range(t)]
        row += range(fresh, fresh + q)
        fresh += q
        out.append(row)
    return out


def _simple_with(edges: list[frozenset], e: frozenset) -> bool:
    return all(not (e <= f or f <= e) for f in edges)


def random_connected(rng: random.Random, n: int, sizes: list[int]) -> list[list[int]]:
    """A simple connected hypergraph on n vertices with the given edge sizes.

    Connected by construction: every edge after the first meets the vertices
    already covered, and takes enough uncovered ones that all n get covered.
    A draw that would duplicate or nest an edge is redrawn.
    """
    uncovered = rng.sample(range(n), n)
    covered: list[int] = []
    edges: list[frozenset] = []
    for i, s in enumerate(sizes):
        capacity_after = sum(x - 1 for x in sizes[i + 1:])
        lo = max(len(uncovered) - capacity_after, s - len(covered), 0)
        hi = min(s - 1 if covered else s, len(uncovered))
        if lo > hi:
            raise ValueError(f"sizes too small to cover {n} vertices")
        for _ in range(1000):
            fresh = rng.randint(lo, hi)
            e = frozenset(uncovered[:fresh] + rng.sample(covered, s - fresh))
            if _simple_with(edges, e):
                break
        else:
            raise ValueError("could not draw a simple edge")
        edges.append(e)
        covered += uncovered[:fresh]
        del uncovered[:fresh]
    return [sorted(e) for e in edges]


def cycle_sizes(m: int, lo: int = 2, hi: int = 5) -> list[int]:
    return [lo + i % (hi - lo + 1) for i in range(m)]


def planted_collar(k: int, length: int, offset: int) -> list[list[int]]:
    """A k-uniform collar: an even cycle of 2*length edges in which
    neighbours share alternately 1 and k-1 vertices."""
    edges = []
    v = offset
    shares = []
    for i in range(2 * length):
        a = 1 if i % 2 == 0 else k - 1
        shares.append(list(range(v, v + a)))
        v += a
    for i in range(2 * length):
        edges.append(shares[i - 1] + shares[i])
    return edges


# --- the four workloads ------------------------------------------------------

# (n, m, design seed) of the random non-uniform instances in check-large;
# edge sizes cycle 2..5
CHECK_RANDOM_SHAPES = ((50, 90, 1), (110, 70, 2))
CHECK_CIRCULANTS = (60, 100, 140)


def _check_ops(reduced: bool) -> list[Op]:
    circulants = CHECK_CIRCULANTS[:1] if reduced else CHECK_CIRCULANTS
    shapes = CHECK_RANDOM_SHAPES[:1] if reduced else CHECK_RANDOM_SHAPES
    cases = [(f"circulant{n}_4", circulant(n, 4)) for n in circulants]
    cases += [("complete_uniform9_3", complete_uniform(9, 3)),
              ("collar3_t3_k9", power(collar3(), 3, 9))]
    cases += [(f"random_n{n}_m{m}_s{seed}",
               random_connected(random.Random(seed), n, cycle_sizes(m)))
              for n, m, seed in shapes]
    return [Op(name, _fix(edges), ("check", "{file}", "--json")) for name, edges in cases]


# (base name, t, k) for power-spectrum: k = r*t (no padding) and k > r*t
POWER_CASES = (
    ("collar3", 6, 18), ("collar3", 4, 20), ("circulant40_4", 2, 8),
    ("circulant40_4", 2, 11), ("circulant36_3", 3, 12), ("random_n30_m36", 3, 12),
    ("random_n30_m36", 3, 14),
)


def _power_ops(reduced: bool) -> list[Op]:
    bases = {
        "collar3": collar3(),
        "circulant40_4": circulant(40, 4),
        "circulant36_3": circulant(36, 3),
        "random_n30_m36": random_connected(random.Random(3), 30, cycle_sizes(36, 2, 4)),
    }
    cases = POWER_CASES[:2] if reduced else POWER_CASES
    return [
        Op(f"{name}_t{t}_k{k}", _fix(bases[name]),
           ("power", "{file}", "-t", str(t), "-k", str(k), "--spectrum", "both"),
           {"t": t, "k": k})
        for name, t, k in cases
    ]


# (n, m, k, design seed): random k-uniform instances whose incidence matrix
# has full column rank, so no collar exists and the answer is "none"
COLLAR_NONE = (
    (40, 36, 3, 2), (44, 40, 3, 3), (36, 32, 4, 1), (36, 32, 4, 2),
    (40, 36, 4, 2), (44, 40, 4, 2), (48, 40, 4, 0),
)
# (n, body m, k, half the collar length, design seed): a k-uniform collar of
# 2*length edges closes the edge list, tied into the last third of the body
COLLAR_PLANTED = (
    (36, 32, 4, 2, 0), (36, 32, 4, 2, 2), (40, 36, 3, 2, 1), (40, 36, 3, 2, 2),
    (40, 36, 4, 2, 0), (44, 36, 3, 2, 3),
)


def _collar_ops(reduced: bool) -> list[Op]:
    cases = []
    for n, m, k, seed in COLLAR_NONE[:1] if reduced else COLLAR_NONE:
        edges = random_connected(random.Random(seed), n, [k] * m)
        cases.append((f"none_n{n}_m{m}_k{k}_s{seed}", edges, False))
    for n, m, k, length, seed in COLLAR_PLANTED[:1] if reduced else COLLAR_PLANTED:
        design = random.Random(seed)
        body = random_connected(design, n, [k] * m)
        edges = _join(body, planted_collar(k, length, n), design)
        cases.append((f"planted_n{n}_m{len(edges)}_k{k}_s{seed}", edges, True))
    return [Op(name, _fix(edges), ("collar", "{file}", "--search", "--max-edges", "64"),
               {"planted": planted})
            for name, edges, planted in cases]


def _join(body, collar, rng):
    """Tie the planted collar to the body: one vertex of every other collar
    edge replaces a vertex of a body edge in the last third, so the instance
    stays uniform and the collar is not a separate component."""
    body = [list(e) for e in body]
    tail = range(len(body) - len(body) // 3, len(body))
    for e, j in zip(collar[::2], rng.sample(tail, len(collar) // 2)):
        body[j][rng.randrange(len(body[j]))] = e[0]
    if len({frozenset(e) for e in body}) != len(body):
        raise ValueError("joining the collar made two body edges equal")
    return body + collar


# (n, m, seed) for `hyperline generate --max-card 4`; all feasible
GENERATE_CASES = (
    (40, 30, 1), (40, 30, 3), (46, 34, 2), (46, 34, 5), (50, 36, 2), (50, 36, 6),
    (56, 40, 5), (56, 40, 6), (60, 42, 3), (60, 44, 1), (60, 44, 2),
)


def _generate_ops(reduced: bool) -> list[Op]:
    cases = GENERATE_CASES[:2] if reduced else GENERATE_CASES
    return [
        Op(f"generate_n{n}_m{m}_s{s}", None,
           ("generate", "--n", str(n), "--m", str(m), "--max-card", "4", "--seed", str(s)),
           {"n": n, "m": m, "max_card": 4})
        for n, m, s in cases
    ]


WORKLOADS = {
    "check-large": _check_ops,
    "power-spectrum": _power_ops,
    "collar-search": _collar_ops,
    "generate": _generate_ops,
}


def build_ops(workload: str, seed: int, reduced: bool = False) -> list[Op]:
    """The operations one pass of `workload` runs, in the seed's order."""
    ops = WORKLOADS[workload](reduced)
    random.Random(seed).shuffle(ops)
    return ops


def _fix(edges) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(e) for e in edges)


def render(edges, rng: random.Random) -> str:
    """The instance as hypergraph text, with seeded vertex labels."""
    n = 1 + max(v for e in edges for v in e)
    names = [f"v{x}" for x in rng.sample(range(10 * n), n)]
    return "".join(" ".join(names[v] for v in e) + "\n" for e in edges)
