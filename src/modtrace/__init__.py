"""Module traces on module categories over fusion rings.

Decides whether a dimension character (the skeletal data of a pivotal
structure) admits a module trace on a given NIM-rep via the rank-1 criterion
for the inner-hom dimension matrix, extracts the trace dimension vector, and
reports the derived invariants: global dimension, the sphericality detector
``C``, and the Frobenius data of inner-hom algebras.
"""

from .common import (
    DEFAULT_TOL,
    NumericError,
    PreconditionError,
    StructuralError,
    UnsupportedError,
    UsageError,
    ValidationReport,
    Violation,
)
from .fusion import (
    FusionRing,
    fp_dimensions,
    fusion_matrices,
    perron_vector,
    validate_fusion_ring,
)
from .chars import (
    DimChar,
    c_invariant,
    char_sort_key,
    conjugate_char,
    enumerate_characters,
    fp_character,
    global_dimension,
    is_spherical,
    validate_dim_char,
)
from .nimrep import (
    NimRep,
    direct_sum,
    is_indecomposable,
    regular_module,
    validate_nimrep,
)
from .solver import (
    DimensionMatrix,
    MatchedReport,
    ModuleTrace,
    QPropertyReport,
    SphericalReport,
    TraceCertificate,
    dimension_matrix,
    fp_module_trace,
    matched_report,
    object_dimension,
    q_property_report,
    solve_module_trace,
    spherical_certificate,
)
from .frobenius import (
    FrobeniusReport,
    MoritaRescaleReport,
    frobenius_report,
    inner_hom_multiplicities,
    morita_rescale_check,
)
from .groups import (
    GroupTable,
    cyclic_table,
    direct_product,
    group_characters,
    group_ring,
    matched_vectg_oracle,
    span,
    subgroups,
    vect_g_module,
)
from .catalog import builtin, builtin_group

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DimChar",
    "DimensionMatrix",
    "FrobeniusReport",
    "FusionRing",
    "GroupTable",
    "MatchedReport",
    "ModuleTrace",
    "MoritaRescaleReport",
    "NimRep",
    "NumericError",
    "PreconditionError",
    "QPropertyReport",
    "SphericalReport",
    "StructuralError",
    "TraceCertificate",
    "UnsupportedError",
    "UsageError",
    "ValidationReport",
    "Violation",
    "builtin",
    "builtin_group",
    "c_invariant",
    "char_sort_key",
    "conjugate_char",
    "cyclic_table",
    "dimension_matrix",
    "direct_product",
    "direct_sum",
    "enumerate_characters",
    "fp_character",
    "fp_dimensions",
    "fp_module_trace",
    "frobenius_report",
    "fusion_matrices",
    "global_dimension",
    "group_characters",
    "group_ring",
    "inner_hom_multiplicities",
    "is_indecomposable",
    "is_spherical",
    "matched_report",
    "matched_vectg_oracle",
    "morita_rescale_check",
    "object_dimension",
    "perron_vector",
    "q_property_report",
    "regular_module",
    "solve_module_trace",
    "span",
    "spherical_certificate",
    "subgroups",
    "validate_dim_char",
    "validate_fusion_ring",
    "validate_nimrep",
    "vect_g_module",
]
