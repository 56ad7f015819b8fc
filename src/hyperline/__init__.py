"""hyperline: line multigraphs of general hypergraphs.

Exact incidence algebra (numpy integer matrices, integer kernels by
elimination modulo a prime, certified exactly, with fraction-free
elimination as the fallback), floating spectra from one symmetric
eigensolver, collar recognition and exact eigenvalue certificates, and
general power hypergraphs.

numpy is imported on first use (`_numpy`), so work that builds no matrix
runs without it.
"""

from .core import (
    Hypergraph,
    Violation,
    incidence_matrix,
    is_connected,
    is_uniform,
    multigraph_is_connected,
    rank_corank,
    validate,
    zagreb_index,
)
from .line import (
    from_multigraph,
    line_degree_formula,
    line_edge_count,
    reduce_core,
    uniformize,
)
from .matrices import (
    exact_kernel,
    exact_rank,
    gram_identity_check,
    incidence_product,
    signless_laplacian,
)
from .spectra import (
    DEFAULT_TOLERANCE,
    Spectrum,
    certificate_minus_r,
    eigenvalues_symmetric,
    power_spectrum_formula,
    signless_spectrum,
)
from .structure import (
    RegularityReport,
    check_collar_witness,
    collar_implies_bipartite_check,
    find_collar_subhypergraph,
    is_collar,
    regularity_report,
)
from .power import power_hypergraph, power_line_invariance_check
from .checks import CheckEntry, CheckReport, run_all_checks
from .generate import generate_hypergraph
from .io import HypergraphParseError, emit, parse_path, parse_text

__version__ = "0.1.0"
