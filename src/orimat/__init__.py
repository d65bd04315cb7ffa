"""Uniform oriented matroid engine: chirotopes, circuits, tope enumeration,
o-vectors, and neighborly-reorientation counting."""

from .chirotope import (
    Chirotope,
    alternating_chirotope,
    from_points,
    parse_chirotope,
    random_realizable,
)
from .circuits import (
    CircuitSet,
    circuits_from_chirotope,
    cocircuits,
)
from .constructions import (
    ReorientationWitness,
    composite_construction,
    disjoint_cocircuit_construction,
    search_k_neighborly,
)
from .cyclic import (
    CValueTable,
    c_value,
    o_vector_closed,
    o_vector_small,
    tope_count_uniform,
)
from .harness import (
    AuditTriple,
    DatabaseRecord,
    McMullenAggregate,
    RecordBlock,
    ReductionVerdict,
    RoudneffAggregate,
    RowBlock,
    append_checkpoint,
    compute_rows,
    deletion_contraction_audit,
    finite_reduction_check,
    load_checkpoint,
    mcmullen_report,
    parse_database,
    report_rows,
    roudneff_report,
)
from .errors import (
    DimensionError,
    DomainError,
    EmptyCircuitSetError,
    FormatError,
    NonUniformError,
    OrimatError,
)
from .neighborly import (
    OVector,
    enumerate_topes,
    m_value,
    o_vector,
    ort,
    tope_count,
    tope_graph_edges,
)
from .signvec import (
    OrthogonalityDegree,
    SignVector,
    orthogonality_degree,
)

__all__ = [
    # chirotope
    "Chirotope",
    "alternating_chirotope",
    "from_points",
    "parse_chirotope",
    "random_realizable",
    # circuits
    "CircuitSet",
    "circuits_from_chirotope",
    "cocircuits",
    # constructions
    "ReorientationWitness",
    "composite_construction",
    "disjoint_cocircuit_construction",
    "search_k_neighborly",
    # cyclic
    "CValueTable",
    "c_value",
    "o_vector_closed",
    "o_vector_small",
    "tope_count_uniform",
    # harness
    "AuditTriple",
    "DatabaseRecord",
    "McMullenAggregate",
    "RecordBlock",
    "ReductionVerdict",
    "RoudneffAggregate",
    "RowBlock",
    "append_checkpoint",
    "compute_rows",
    "deletion_contraction_audit",
    "finite_reduction_check",
    "load_checkpoint",
    "mcmullen_report",
    "parse_database",
    "report_rows",
    "roudneff_report",
    # errors
    "DimensionError",
    "DomainError",
    "EmptyCircuitSetError",
    "FormatError",
    "NonUniformError",
    "OrimatError",
    # neighborly
    "OVector",
    "enumerate_topes",
    "m_value",
    "o_vector",
    "ort",
    "tope_count",
    "tope_graph_edges",
    # signvec
    "OrthogonalityDegree",
    "SignVector",
    "orthogonality_degree",
]
__version__ = "0.1.0"
