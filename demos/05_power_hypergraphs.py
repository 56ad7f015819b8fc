"""General power hypergraphs and their closed-form Q-spectrum.

Cloning every vertex t times and padding each edge with k - rt fresh
degree-one vertices scales the line multigraph by t and shifts the Gram
diagonal by k - rt; the whole signless-Laplacian spectrum of the power
follows from the base spectrum without touching the (much larger)
constructed matrix. A power is fully described by the base and the two
integers t and k. The demo builds the construction anyway and checks.
"""

from pathlib import Path

import numpy as np

from hyperline import (
    eigenvalues_symmetric,
    parse_path,
    power_hypergraph,
    power_line_invariance_check,
    power_spectrum_formula,
    signless_laplacian,
)

DATA = Path(__file__).parent / "data"

p4 = parse_path(DATA / "p4.hg")
powered = power_hypergraph(p4, t=2, k=5)

print("base: path on 4 vertices, rank 2")
print("power (t=2, k=5) edges:")
for labels in powered.edge_label_sets():
    print("  ", " ".join(labels))
print("vertices:", powered.n, "(= t*n + m*(k - r*t) = 8 + 3)")

# the line multigraph is exactly the base's, doubled
assert power_line_invariance_check(p4, t=2, k=5)
assert np.array_equal(powered.line, 2 * p4.line)
print("line multigraph of the power = 2 * line multigraph of the base")

base_q = eigenvalues_symmetric(signless_laplacian(p4))
print("\nbase Q spectrum:        ", [round(x, 6) for x in base_q.eigenvalues])

formula = power_spectrum_formula(p4, t=2, k=5)
direct = eigenvalues_symmetric(signless_laplacian(powered))
print("closed-form Q spectrum: ", [round(x, 6) for x in formula.eigenvalues])
print("direct eigensolve:      ", [round(x, 6) for x in direct.eigenvalues])

pairs = zip(sorted(formula.eigenvalues), sorted(direct.eigenvalues))
print("max deviation:", max(abs(a - b) for a, b in pairs))
