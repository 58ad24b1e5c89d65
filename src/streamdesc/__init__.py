"""Single-pass, fixed-memory graph descriptors from edge streams.

Two descriptors are computed against a budget-bounded reservoir sample:
a 17-dimensional normalized frequency vector over all patterns of order
2 to 4, and a 20-dimensional vector of moments over five per-vertex
structural features.  Exact oracles, Canberra-distance
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
    StreamDescError,
)
from .gabe import (
    GabeState,
    MIN_GABE_BUDGET,
    exact_gabe_descriptor,
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
    maeve_process_edge,
)
from .oracle import (
    edge_centric_induced_counts,
    exact_vertex_features,
    phi_from_induced,
)
from .patterns import (
    N_PATTERNS,
    ORDER_SLICES,
    PatternCounts,
    PatternId,
    STREAM_ESTIMATED,
    overlap_matrix,
    subgraph_to_induced,
)
from .reservoir import (
    maybe_sample,
    variance_bound,
)

__version__ = "0.1.0"
