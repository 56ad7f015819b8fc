"""Signless-Laplacian spectral radius bounds via the line multigraph.

Two bounds, both tight exactly when the structure is homogeneous enough:
the sandwich rho(Q) - r <= rho(A_L) <= rho(Q) - s (tight iff uniform), and
the degree-sum window (tight iff uniform and edge-regular).
"""

from hyperline import Analysis, Hypergraph


def show(name, h):
    a = Analysis(h, 1e-6)
    sw, ds = a.sandwich, a.degree_sums
    print(f"{name}:")
    print(
        f"  rho(Q) = {sw.rho_q:.6f}, rho(A_L) = {sw.rho_line:.6f}, "
        f"rank = {sw.rank}, corank = {sw.corank}"
    )
    print(
        f"  sandwich: {sw.rho_q - sw.rank:.6f} <= {sw.rho_line:.6f} "
        f"<= {sw.rho_q - sw.corank:.6f}"
        f"  (uniform: {sw.uniform}, tight: {sw.lower_equality or sw.upper_equality})"
    )
    print(
        f"  degree sums: {ds.lower_bound} <= rho(Q) <= {ds.upper_bound}"
        f"  (edge-regular: {ds.edge_regular}, "
        f"tight: {ds.lower_equality or ds.upper_equality})"
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
