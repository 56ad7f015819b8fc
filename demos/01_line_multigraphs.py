"""Line multigraphs and the transformations that leave them alone.

Walks through the basic construction on a small worked example: three
3-edges on five vertices, where two edges overlap in two vertices and so
are joined by a double edge in the line multigraph.
"""

from pathlib import Path

import numpy as np

from hyperline import (
    from_multigraph,
    line_degree_formula,
    line_edge_count,
    parse_path,
    rank_corank,
    reduce_core,
    uniformize,
    validate,
    zagreb_index,
)

DATA = Path(__file__).parent / "data"

h = parse_path(DATA / "trio.hg")
print("edges:", h.edge_label_sets())
print("violations:", validate(h))

degs = h.degrees
print("\ndegrees:", degs, " max/min/avg:", max(degs), min(degs), sum(degs) / h.n)
print("rank/corank:", rank_corank(h))
print("zagreb index:", zagreb_index(h))

# One line-multigraph vertex per hyperedge; multiplicity = intersection size.
# The line multigraph is its adjacency matrix, one row and column per edge.
g = h.line
names = h.edge_label_sets()
print("\nline multigraph multiplicities:")
for i, j in np.argwhere(np.triu(g)).tolist():
    print(f"  {names[i]} ~ {names[j]}: {g[i, j]}")

# Line degrees come straight from hypergraph degrees:
# deg(e) = sum of d(v) over v in e, minus |e|.
line_degrees = g.sum(axis=1).tolist()
assert line_degrees == line_degree_formula(h)
print("line degrees:", line_degrees)

# ... and the total multiplicity from the degree sequence alone.
print("line edge count:", line_edge_count(h), "=", g.sum() // 2)

# Vertex 2 lies in a single 3-edge, so removing it cannot change any
# intersection: the reduced core has the same line multigraph.
core = reduce_core(h)
print("\nreduced core edges:", core.edge_label_sets())
assert np.array_equal(core.line, g)

# The opposite move pads short edges with fresh degree-one vertices.
from hyperline import Hypergraph

mixed = Hypergraph(["a", "b", "c", "d"], [[0, 1], [1, 2, 3]])
padded = uniformize(mixed)
print("uniformized edges:", padded.edge_label_sets())
assert np.array_equal(padded.line, mixed.line)

# Every multigraph is some hypergraph's line multigraph: vertices of the
# hypergraph are the multigraph's edge instances.
recovered = from_multigraph(g)
print("\ninverse construction edges:", recovered.edge_label_sets())
assert np.array_equal(recovered.line, g)
print("round trip through from_multigraph: ok")
