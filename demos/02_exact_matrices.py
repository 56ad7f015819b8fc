"""The exact matrix layer: incidence, Gram identity, kernels.

Every matrix is a numpy integer array; no tolerances involved.
"""

from pathlib import Path

import numpy as np

from hyperline import (
    Hypergraph,
    exact_kernel,
    exact_rank,
    gram_identity_check,
    incidence_matrix,
    incidence_product,
    parse_path,
)

DATA = Path(__file__).parent / "data"

h = parse_path(DATA / "trio.hg")
b = incidence_matrix(h)
print("incidence matrix B (vertices x edges):")
print(b)

# B^T B splits into the diagonal of edge sizes plus the line adjacency:
# diagonal entries count |e_i|, off-diagonal entries count |e_i & e_j|.
gram = b.T @ b
print("B^T B:")
print(gram)
print("cardinality diagonal:", gram.diagonal().tolist())
print("line adjacency:")
a_line = h.line
print(a_line)
assert np.array_equal(gram, np.diag([len(e) for e in h.edges]) + a_line)
assert gram_identity_check(h)
print("gram identity: exact")

# Incidence kernels distinguish even from odd cycles: the alternating
# +1/-1 vector around an even cycle sums to zero at every vertex.
c4 = parse_path(DATA / "c4.hg")
basis = exact_kernel(incidence_matrix(c4))
print("\nC4 incidence kernel basis:", [list(v) for v in basis])
for vec in basis:
    assert not any(incidence_product(c4, vec))

c3 = Hypergraph.from_edges([[0, 1], [1, 2], [2, 0]])
print("C3 incidence kernel basis:", exact_kernel(incidence_matrix(c3)))
print("C3 incidence rank:", exact_rank(incidence_matrix(c3)), "(full column rank)")
