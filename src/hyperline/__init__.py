"""hyperline: line multigraphs of general hypergraphs.

Exact incidence algebra (integer matrices, rational kernels), floating
spectra with exact characteristic-polynomial oracles, collar recognition
and eigenvalue certificates, and general power hypergraphs.
"""

from .core import (
    DegreeProfile,
    Hypergraph,
    Multigraph,
    Violation,
    degree_profile,
    is_connected,
    is_uniform,
    is_valid,
    multigraph_is_connected,
    rank_corank,
    validate,
    zagreb_index,
)
from .line import (
    LineMultigraph,
    from_multigraph,
    line_degree_formula,
    line_edge_count,
    line_multigraph,
    reduce_core,
    scale_multigraph,
    uniformize,
)
from .matrices import (
    IntMatrix,
    RationalVector,
    adjacency_matrix,
    cardinality_matrix,
    exact_kernel,
    exact_rank,
    gram_identity_check,
    incidence_matrix,
    matrix_vector,
    signless_laplacian,
)
from .spectra import (
    DEFAULT_TOLERANCE,
    Analysis,
    CertificateMinusR,
    CharPoly,
    Spectrum,
    char_poly_exact,
    certificate_minus_r,
    collar_certificate_vector,
    eigenvalues_symmetric,
    power_spectrum_formula,
)
from .structure import (
    CollarWitness,
    RegularityReport,
    check_collar_witness,
    collar_implies_bipartite_check,
    find_collar_subhypergraph,
    is_collar,
    regularity_report,
    skew_iff_line_regular_check,
)
from .power import PowerParams, power_hypergraph, power_line_invariance_check
from .checks import CheckEntry, CheckReport, run_all_checks
from .generate import generate_hypergraph
from .io import HypergraphParseError, emit, parse_path, parse_text

__version__ = "0.1.0"
