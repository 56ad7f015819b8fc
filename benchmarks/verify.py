"""Output checks for the benchmark, computed outside `hyperline`.

Each `check_*` function takes one operation and the text it printed, and
raises `CheckFailed` unless the output agrees with what this module computes
from the instance itself, with numpy and networkx. Nothing here imports
`hyperline` or compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np

from inputs import Op, power

# eigenvalues are compared within this share of the matrix's spectral norm;
# grouped spectra get the program's grouping window (100 * 1e-9) on top
EIG_RTOL = 1e-9
GROUP_SLACK = 1e-7


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def incidence(edges) -> np.ndarray:
    """The n x m 0/1 vertex-by-edge matrix, as int64."""
    n = 1 + max(v for e in edges for v in e)
    b = np.zeros((n, len(edges)), dtype=np.int64)
    for j, e in enumerate(edges):
        b[list(e), j] = 1
    return b


def line_adjacency(edges) -> np.ndarray:
    """A_L from set intersections: entry (i, j) is |e_i & e_j| off the diagonal."""
    sets = [set(e) for e in edges]
    m = len(sets)
    a = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            a[i, j] = a[j, i] = len(sets[i] & sets[j])
    return a


def eigvals(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues of a symmetric integer matrix, and the tolerance
    that goes with them (EIG_RTOL times the spectral norm, at least EIG_RTOL)."""
    vals = np.linalg.eigvalsh(matrix.astype(float))
    return vals, EIG_RTOL * max(1.0, float(np.abs(vals).max(initial=0.0)))


def close(x: float, y: float, tol: float) -> bool:
    return abs(float(x) - float(y)) <= tol


def exact_rank(matrix: np.ndarray) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination on
    Python integers."""
    a = np.array(matrix, dtype=object)
    rows, cols = a.shape
    r, prev = 0, 1
    for c in range(cols):
        nz = [i for i in range(r, rows) if a[i, c] != 0]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        piv = a[r, c]
        below = a[r + 1:, c:]
        a[r + 1:, c:] = (below * piv - np.outer(below[:, 0], a[r, c:])) // prev
        prev = piv
        r += 1
        if r == rows:
            break
    return r


def is_connected(edges, vertices) -> bool:
    """Connectivity of the vertex-edge incidence graph, isolated vertices
    counting as components."""
    g = nx.Graph()
    g.add_nodes_from(("v", v) for v in vertices)
    for j, e in enumerate(edges):
        g.add_edges_from((("e", j), ("v", v)) for v in e)
    return nx.is_connected(g)


# --- one check per workload --------------------------------------------------

def check_large(op: Op, text: str) -> None:
    """`hyperline check FILE --json`: every claim against numpy's own figures."""
    report = json.loads(text)
    require(report["passed"] is True, "report did not pass")
    checks = {c["name"]: c for c in report["checks"]}
    edges = op.edges
    sizes = [len(e) for e in edges]
    r, s = max(sizes), min(sizes)
    b = incidence(edges)
    a_line = line_adjacency(edges)
    require(np.array_equal(b.T @ b, np.diag(sizes) + a_line),
            "B^T B != diag(|e|) + A_L for this instance")

    ctx = report["context"]
    vertices = range(b.shape[0])
    expected = {"n": b.shape[0], "m": len(edges), "rank": r, "corank": s,
                "connected": is_connected(edges, vertices),
                "uniform": r if r == s else None}
    require(ctx == expected, f"context {ctx} != {expected}")
    degrees = checks["line-degree-formula"]["details"]["line_degrees"]
    require(degrees == a_line.sum(axis=1).tolist(), "line degrees differ from A_L row sums")

    line_vals, line_tol = eigvals(a_line)
    q_vals, q_tol = eigvals(b @ b.T)
    lam = checks["line-eigenvalues-at-least-minus-rank"]["details"]["lambda_min"]
    require(close(lam, line_vals[0], line_tol), f"lambda_min {lam} != {line_vals[0]}")
    sandwich = checks["spectral-radius-sandwich"]["details"]
    require(close(sandwich["rho_q"], q_vals[-1], q_tol),
            f"rho_q {sandwich['rho_q']} != {q_vals[-1]}")
    require(close(sandwich["rho_line"], line_vals[-1], line_tol),
            f"rho_line {sandwich['rho_line']} != {line_vals[-1]}")
    if op.name.startswith("circulant"):
        # 4-regular and 4-uniform: rho(Q) = 4 * 4, rho(A_L) = 16 - 4
        require(close(sandwich["rho_q"], 16, q_tol) and close(sandwich["rho_line"], 12, line_tol),
                "circulant spectral radii are not 16 and 12")

    # -r is an eigenvalue of A_L iff B has a kernel vector on the rank-sized columns
    big = b[:, [j for j, x in enumerate(sizes) if x == r]]
    attained = exact_rank(big) < big.shape[1]
    cert = checks["minus-rank-certificate-iff"]["details"]
    require(cert["certificate"] is attained and cert["eigenvalue_minus_r"] is attained,
            f"-r flags {cert} but the exact rank test says attained={attained}")


def spectrum_values(groups) -> list[float]:
    """A grouped spectrum expanded to one value per eigenvalue, descending."""
    return sorted((g["value"] for g in groups["eigenvalues"] for _ in range(g["multiplicity"])),
                  reverse=True)


def check_power(op: Op, text: str) -> None:
    """`hyperline power FILE -t T -k K --spectrum both`: both groups against
    numpy's spectrum of Q for a power built here."""
    powered = power([list(e) for e in op.edges], op.meta["t"], op.meta["k"])
    q = incidence(powered)
    q = q @ q.T
    vals, tol = eigvals(q)
    vals = vals[::-1]
    trace = sum(len(e) for e in powered)
    out = json.loads(text)
    for key in ("formula", "direct"):
        got = spectrum_values(out[key])
        require(len(got) == len(vals), f"{key}: {len(got)} eigenvalues, Q has {len(vals)}")
        worst = float(np.abs(np.array(got) - vals).max())
        require(worst <= tol + GROUP_SLACK, f"{key}: an eigenvalue is off by {worst}")
        require(close(sum(got), trace, len(got) * (tol + GROUP_SLACK)),
                f"{key}: eigenvalues sum to {sum(got)}, not {trace}")


def check_collar(op: Op, text: str) -> None:
    """`hyperline collar FILE --search`: a witness is a collar whose signed
    indicator lies in ker B; "none" only where rank B = m is proven."""
    edges = op.edges
    b = incidence(edges)
    if text.strip() == "none":
        require(not op.meta["planted"], "no collar found in an instance with a planted one")
        require(exact_rank(b) == len(edges), "answer none, but B lacks full column rank")
        return
    out = json.loads(text)
    chosen = sorted(out["edges"])
    coloring = {int(k): v for k, v in out["coloring"].items()}
    require(bool(chosen) and set(coloring) == set(chosen), "colouring does not match the edges")
    require(set(coloring.values()) <= {1, 2}, "colours other than 1 and 2")
    covered: dict[int, int] = {}
    for j in chosen:
        for v in edges[j]:
            covered[v] = covered.get(v, 0) + 1
    require(set(covered.values()) == {2}, "a witness vertex is not covered exactly twice")
    line = nx.Graph()
    line.add_nodes_from(chosen)
    line.add_edges_from((i, j) for i in chosen for j in chosen
                        if i < j and set(edges[i]) & set(edges[j]))
    colour_ok = all(coloring[i] != coloring[j] for i, j in line.edges)
    require(nx.is_bipartite(line) and colour_ok, "the witness line graph is not properly 2-coloured")
    signed = np.array([0 if j not in coloring else (1 if coloring[j] == 1 else -1)
                       for j in range(len(edges))], dtype=np.int64)
    require(out["certificate"] == signed.tolist(), "certificate is not the signed indicator")
    require(not (b @ signed).any(), "the signed indicator is not in ker B")


def check_generate(op: Op, text: str) -> None:
    """`hyperline generate`: m distinct, unnested edges of size 2..max_card on
    labels 1..n, connected."""
    info = op.meta
    edges = [frozenset(line.split()) for line in text.splitlines() if line.strip()]
    require(len(edges) == info["m"], f"{len(edges)} edges, asked for {info['m']}")
    require(len(set(edges)) == len(edges), "duplicate edges")
    require(all(2 <= len(e) <= info["max_card"] for e in edges), "an edge size is out of range")
    require(not any(e < f for e in edges for f in edges), "an edge is nested in another")
    labels = {str(i + 1) for i in range(info["n"])}
    require(set().union(*edges) <= labels, "labels outside 1..n")
    require(is_connected(edges, labels), "the generated hypergraph is not connected")


CHECKS = {
    "check-large": check_large,
    "power-spectrum": check_power,
    "collar-search": check_collar,
    "generate": check_generate,
}
