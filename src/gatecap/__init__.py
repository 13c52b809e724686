"""Entangling capacity and distinguishability analysis of two-qubit unitaries.

Cartan canonical decomposition, closed-form entangling capacities,
minimum-overlap distinguishability via the spectral convex hull, the
capacity-distinguishability identity, and brute-force oracles that verify
the closed forms independently.
"""

from .linalg import (
    DecompositionError,
    DimensionMismatchError,
    NotUnitaryError,
    check_state,
    check_unitary,
    eig_unitary,
    haar_random_unitary,
    unitarity_defect,
)
from .canonical import (
    CanonicalForm,
    canonical_unitary,
    cartan_decompose,
    eigenphase_vector,
    eigenphases,
    in_weyl_region,
)
from .entanglement import (
    CapacityReport,
    binary_entropy,
    capacities_closed_form,
    concurrence,
    concurrence_conjugate_form,
    entropy_of_entanglement,
    is_perfect_entangler,
)
from .distinguishability import (
    TheoremResidual,
    d_min_canonical,
    d_min_geometric,
    hull_min_distance,
    hull_optimal_weights,
    verify_theorem,
    verify_theorem_quartic,
)
from .capacities import (
    CapacityRelationReport,
    c1_two_pure,
    c_inf_two_pure,
    ensemble_entropy_two_pure,
    verify_relation1,
    verify_relation2,
)
from .oracle import (
    SearchConfig,
    SearchResult,
    max_concurrence_product,
    max_concurrence_unrestricted,
    max_delta_concurrence,
    min_probe_overlap,
)
from .serialization import (
    MalformedInputError,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CapacityRelationReport",
    "CapacityReport",
    "DecompositionError",
    "DimensionMismatchError",
    "MalformedInputError",
    "NotUnitaryError",
    "SearchConfig",
    "SearchResult",
    "TheoremResidual",
    "binary_entropy",
    "c1_two_pure",
    "c_inf_two_pure",
    "canonical_unitary",
    "capacities_closed_form",
    "cartan_decompose",
    "check_state",
    "check_unitary",
    "concurrence",
    "concurrence_conjugate_form",
    "d_min_canonical",
    "d_min_geometric",
    "eig_unitary",
    "eigenphase_vector",
    "eigenphases",
    "ensemble_entropy_two_pure",
    "entropy_of_entanglement",
    "haar_random_unitary",
    "hull_min_distance",
    "hull_optimal_weights",
    "in_weyl_region",
    "is_perfect_entangler",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "max_concurrence_product",
    "max_concurrence_unrestricted",
    "max_delta_concurrence",
    "min_probe_overlap",
    "unitarity_defect",
    "verify_relation1",
    "verify_relation2",
    "verify_theorem",
    "verify_theorem_quartic",
]
