"""Signless-Laplacian spectral radius bounds via the line multigraph.

Two bounds, both tight exactly when the structure is homogeneous enough:
the sandwich rho(Q) - r <= rho(A_L) <= rho(Q) - s (tight iff uniform), and
the degree-sum window (tight iff uniform and edge-regular).
"""

from hyperline import Hypergraph, run_all_checks


def tight(flag):
    return "tight" if flag else "strict"


def show(name, h):
    # each bound's entry carries the exact flag that says whether it is
    # attained on a connected input, as every input here is
    entries = {e.name: e.details for e in run_all_checks(h, 1e-6).entries}
    sw, ds = entries["spectral-radius-sandwich"], entries["degree-sum-bounds"]
    print(f"{name}:")
    print(
        f"  rho(Q) = {sw['rho_q']:.6f}, rho(A_L) = {sw['rho_line']:.6f}, "
        f"rank = {sw['rank']}, corank = {sw['corank']}"
    )
    print(
        f"  sandwich: {sw['rho_q'] - sw['rank']:.6f} <= {sw['rho_line']:.6f} "
        f"<= {sw['rho_q'] - sw['corank']:.6f}"
        f"  (uniform: {sw['uniform']}, so {tight(sw['uniform'])})"
    )
    print(
        f"  degree sums: {ds['lower']} <= rho(Q) <= {ds['upper']}"
        f"  (uniform and edge-regular: {ds['uniform_and_edge_regular']}, "
        f"so {tight(ds['uniform_and_edge_regular'])})"
    )
    print()


# uniform AND edge-regular: both bounds collapse to equalities
show("C4  (2-uniform, 2-regular)", Hypergraph.from_edges([[0, 1], [1, 2], [2, 3], [3, 0]]))

# uniform but not edge-regular: sandwich tight, degree-sum window strict
show(
    "three 3-edges on five vertices",
    Hypergraph.from_edges([[0, 1, 2], [0, 3, 4], [2, 3, 4]]),
)

# neither: both bounds strict
show("a 2-edge glued to a 3-edge", Hypergraph.from_edges([[0, 1], [1, 2, 3]]))
