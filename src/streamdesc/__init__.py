"""Single-pass, fixed-memory graph descriptors from edge streams.

Two descriptors are computed against a budget-bounded reservoir sample:
a 17-dimensional normalized frequency vector over all patterns of order
2 to 4, and a 20-dimensional vector of moments over five per-vertex
structural features.  An exact brute-force oracle, Canberra-distance
comparison, descriptor persistence, and an evaluation harness round out
the package.
"""

from .datasets import (
    Dataset,
    gnp_edges,
    load_benchmark_dataset,
    preferential_attachment_edges,
    synthetic_two_class_dataset,
)
from .descriptors import (
    Descriptor,
    canberra,
    canberra_matrix,
    load_descriptors,
    save_descriptors,
    write_descriptors,
)
from .errors import (
    BudgetTooSmallError,
    DataFormatError,
    OracleSizeError,
    StreamDescError,
)
from .gabe import (
    GabeState,
    MIN_GABE_BUDGET,
    closed_form_counts,
    exact_gabe_descriptor,
    gabe_finalize,
    gabe_process_edge,
)
from .graph import (
    Edge,
    EdgeStream,
    Graph,
    build_graph,
    derive_seed,
    preprocess,
    read_edge_list,
)
from .harness import (
    METHODS,
    BudgetSpec,
    ClassificationReport,
    compute_descriptors,
    cross_validate,
    error_vs_budget,
    gabe_descriptor,
    maeve_descriptor,
    replicated,
)
from .maeve import (
    MIN_MAEVE_BUDGET,
    MaeveState,
    VertexFeatures,
    exact_maeve_descriptor,
    features_from_counts,
    maeve_finalize,
    maeve_process_edge,
    moments,
)
from .oracle import (
    ORACLE_LIMIT,
    exact_induced_counts,
    exact_subgraph_counts,
    exact_vertex_features,
    exact_vertex_triangle_path_counts,
    phi_from_induced,
)
from .patterns import (
    N_PATTERNS,
    ORDER_SLICES,
    PatternCounts,
    PatternId,
    STREAM_ESTIMATED,
    classify_degree_sequence,
    induced_to_subgraph,
    overlap_matrix,
    subgraph_to_induced,
)
from .reservoir import (
    ReservoirState,
    detection_probability,
    maybe_sample,
    variance_bound,
)

__version__ = "0.1.0"
