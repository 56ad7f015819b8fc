"""Eigenvalues, the -r floor, and exact certificates that it is attained.

Line-adjacency eigenvalues never drop below -r (r = largest edge size).
Whether -r is actually attained is decided exactly: it is an eigenvalue
precisely when the incidence matrix has a kernel vector supported on the
rank-sized edges. Collars supply such vectors in closed form.
"""

from pathlib import Path

from hyperline import (
    certificate_minus_r,
    check_collar_witness,
    eigenvalues_symmetric,
    is_collar,
    parse_path,
    run_all_checks,
)

DATA = Path(__file__).parent / "data"

h = parse_path(DATA / "trio.hg")
a_line = h.line

spec = eigenvalues_symmetric(a_line)
print("eigenvalues:", [round(x, 7) for x in spec.eigenvalues])

# the check report decides the floor: lambda_min >= -r to within its tolerance
floor = next(
    e for e in run_all_checks(h).entries
    if e.name == "line-eigenvalues-at-least-minus-rank"
)
lam, r = floor.details["lambda_min"], floor.details["rank"]
print(f"lambda_min = {lam:.7f} >= -rank = {-float(r)}: {floor.passed}")

# Here -3 is NOT attained: the kernel of the 5x3 incidence matrix is
# trivial, so no certificate exists.
print("certificate for -3:", certificate_minus_r(h))

# On the four-cycle the alternating vector certifies -2 exactly.
c4 = parse_path(DATA / "c4.hg")
cert = certificate_minus_r(c4)
print("\nC4 certificate for -2:", list(cert))

# A collar is the structural reason: 2-regular, properly 2-colorable edge
# set. Its witness is the +-1 kernel vector itself, one sign per color
# class, and on a 3-uniform collar it is the exact certificate for -3.
collar = parse_path(DATA / "collar3.hg")
cert = is_collar(collar)
print("\n3-uniform collar recognized:", cert is not None)
check_collar_witness(collar, cert)
print("collar certificate (+1 on one class, -1 on the other):")
print(" ", list(cert))
spec = eigenvalues_symmetric(collar.line)
print("line spectrum contains -3:", spec.contains(-3.0, 1e-9))
print("smallest line eigenvalue:", round(spec.smallest, 9))
