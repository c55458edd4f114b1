"""Specht module restrictions to elementary abelian subgroups over GF(p).

Construct S^mu and M^mu over GF(p), restrict them to the subgroup
generated by n disjoint p-cycles, and compute Jordan types at points,
generic Jordan types, freeness loci over extension fields, and the
classification of the resulting varieties.
"""

__version__ = "0.1.0"

from .jordan import (GenericTypeReport, JordanType, RankVector,
                     are_free_at, complementary_check, generic_type,
                     generically_free, is_free_at, jordan_at_point,
                     rank_vector_at, rank_vectors_at, stable_type)
from .partitions import (conjugate, contained_p, dim_specht, format_partition,
                         p_core_weight, parse_partition, partitions_of,
                         syt_count)
from .phimap import (classify_hypothesis, find_ab, phi_chain, phi_limit,
                     phi_step, predict)
from .spechtmod import (perm_module_actions, restricted_actions,
                        tabloid_count)
from .variety import (CATALOGUE_P3_9, classify, classify_stable,
                      enumerate_locus, estimate_dimension, interpolate_forms,
                      sweep_rank_vectors, template_check)
from .youngdec import (perm_generic_type_formula, verify_cor_multiple,
                       verify_cor_psquare, young_summands)

__all__ = [
    "__version__",
    "CATALOGUE_P3_9",
    "GenericTypeReport",
    "JordanType",
    "RankVector",
    "are_free_at",
    "classify",
    "classify_hypothesis",
    "classify_stable",
    "complementary_check",
    "conjugate",
    "contained_p",
    "dim_specht",
    "enumerate_locus",
    "estimate_dimension",
    "find_ab",
    "format_partition",
    "generic_type",
    "generically_free",
    "interpolate_forms",
    "is_free_at",
    "jordan_at_point",
    "p_core_weight",
    "parse_partition",
    "partitions_of",
    "perm_generic_type_formula",
    "perm_module_actions",
    "phi_chain",
    "phi_limit",
    "phi_step",
    "predict",
    "rank_vector_at",
    "rank_vectors_at",
    "restricted_actions",
    "stable_type",
    "sweep_rank_vectors",
    "syt_count",
    "tabloid_count",
    "template_check",
    "verify_cor_multiple",
    "verify_cor_psquare",
    "young_summands",
]
