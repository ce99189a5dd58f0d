"""Module traces on module categories over fusion rings.

Decides whether a dimension character (the skeletal data of a pivotal
structure) admits a module trace on a given NIM-rep via the rank-1 criterion
for the inner-hom dimension matrix, extracts the trace dimension vector, and
reports the derived invariants: global dimension, the sphericality detector
``C``, and the Frobenius data of inner-hom algebras.

The namespace is lazy: ``import modtrace`` loads no layer module (and not
numpy); a layer is imported when one of its names is first read.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the layer module that defines it.
_LAYER_OF = {
    name: layer
    for layer, names in {
        "common": "DEFAULT_TOL NumericError PreconditionError StructuralError UnsupportedError"
        " UsageError ValidationReport Violation",
        "fusion": "FusionRing fp_dimensions fusion_matrices perron_vector validate_fusion_ring",
        "chars": "DimChar c_invariant conjugate_char enumerate_characters"
        " fp_character global_dimension is_spherical validate_dim_char",
        "nimrep": "NimRep direct_sum is_indecomposable regular_module validate_nimrep",
        "solver": "MatchedReport ModuleTrace TraceCertificate dimension_matrix matched_report"
        " solve_module_trace",
        "frobenius": "FrobeniusReport MoritaRescaleReport frobenius_report"
        " inner_hom_multiplicities morita_rescale_check",
        "groups": "GroupTable cyclic_table direct_product group_characters group_ring"
        " matched_vectg_oracle subgroups vect_g_module",
        "catalog": "builtin builtin_group",
    }.items()
    for name in names.split()
}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    """Import the layer that defines ``name`` and keep the value as a module global."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
