"""Eigenvalues, the -r floor, and exact certificates that it is attained.

Line-adjacency eigenvalues never drop below -r (r = largest edge size).
Whether -r is actually attained is decided exactly: it is an eigenvalue
precisely when the incidence matrix has a kernel vector supported on the
rank-sized edges. Collars supply such vectors in closed form.
"""

from pathlib import Path

from hyperline import (
    Analysis,
    adjacency_matrix,
    certificate_minus_r,
    char_poly_exact,
    collar_certificate_vector,
    eigenvalues_symmetric,
    is_collar,
    line_multigraph,
    parse_path,
)

DATA = Path(__file__).parent / "data"

h = parse_path(DATA / "trio.hg")
a_line = adjacency_matrix(line_multigraph(h).graph)

poly = char_poly_exact(a_line)
print("line adjacency char poly coefficients (monic, descending):", poly.coefficients)
spec = eigenvalues_symmetric(a_line)
print("eigenvalues:", [round(x, 7) for x in spec.eigenvalues])

report = Analysis(h).lower_bound
print(f"lambda_min = {report.lambda_min:.7f} >= -rank = {report.bound}: {report.passed}")

# Here -3 is NOT attained: the kernel of the 5x3 incidence matrix is
# trivial, so no certificate exists.
print("certificate for -3:", certificate_minus_r(h))

# On the four-cycle the alternating vector certifies -2 exactly.
c4 = parse_path(DATA / "c4.hg")
cert = certificate_minus_r(c4)
print("\nC4 certificate for -2:", [int(x) for x in cert.vector.entries])

# A collar is the structural reason: 2-regular, properly 2-colorable edge
# set. Coloring classes give the +-1 kernel vector directly.
collar = parse_path(DATA / "collar3.hg")
witness = is_collar(collar)
print("\n3-uniform collar recognized:", witness is not None)
cert = collar_certificate_vector(collar, witness)
print("collar certificate (+1 on one class, -1 on the other):")
print(" ", [int(x) for x in cert.vector.entries])
spec = eigenvalues_symmetric(adjacency_matrix(line_multigraph(collar).graph))
print("line spectrum contains -3:", spec.contains(-3.0, 1e-9))
print("smallest line eigenvalue:", round(spec.smallest, 9))
