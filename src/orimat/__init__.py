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
    AxiomReport,
    CircuitSet,
    check_circuit_axioms,
    circuits_from_chirotope,
    cocircuits,
    is_face,
)
from .constructions import (
    ReorientationWitness,
    composite_construction,
    disjoint_cocircuit_construction,
    search_k_neighborly,
)
from .cyclic import (
    CValueTable,
    big_O,
    c_value,
    is_cyclic_tope,
    o_vector_closed,
    o_vector_small,
    ort_cyclic,
    tope_count_uniform,
)
from .harness import (
    AuditTriple,
    DatabaseRecord,
    McMullenAggregate,
    ReductionVerdict,
    ReportRow,
    RoudneffAggregate,
    append_checkpoint,
    compute_rows,
    deletion_contraction_audit,
    finite_reduction_check,
    load_checkpoint,
    mcmullen_report,
    parse_database,
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
    ball_k_neighborly,
    enumerate_topes,
    is_tope,
    m_value,
    o_vector,
    ort,
    tope_count,
    tope_graph_edges,
)
from .signvec import (
    BlockProfile,
    OrthogonalityDegree,
    SignVector,
    block_profile,
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
    "AxiomReport",
    "CircuitSet",
    "check_circuit_axioms",
    "circuits_from_chirotope",
    "cocircuits",
    "is_face",
    # constructions
    "ReorientationWitness",
    "composite_construction",
    "disjoint_cocircuit_construction",
    "search_k_neighborly",
    # cyclic
    "CValueTable",
    "big_O",
    "c_value",
    "is_cyclic_tope",
    "o_vector_closed",
    "o_vector_small",
    "ort_cyclic",
    "tope_count_uniform",
    # harness
    "AuditTriple",
    "DatabaseRecord",
    "McMullenAggregate",
    "ReductionVerdict",
    "ReportRow",
    "RoudneffAggregate",
    "append_checkpoint",
    "compute_rows",
    "deletion_contraction_audit",
    "finite_reduction_check",
    "load_checkpoint",
    "mcmullen_report",
    "parse_database",
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
    "ball_k_neighborly",
    "enumerate_topes",
    "is_tope",
    "m_value",
    "o_vector",
    "ort",
    "tope_count",
    "tope_graph_edges",
    # signvec
    "BlockProfile",
    "OrthogonalityDegree",
    "SignVector",
    "block_profile",
    "orthogonality_degree",
]
__version__ = "0.1.0"
