"""Exact toolkit for symmetry-invariant bipartite POVMs.

Represents invariant POVMs as rational coefficient vectors on commutant
projector bases, decides positivity/PPT feasibility, enumerates extremal
feasible POVMs, synthesises and verifies the local protocols attaining
them, certifies the no-go result for product-form oo protocols, and
computes optimal local-vs-global state-discrimination values, all in
exact rational arithmetic.
"""

from .discrimination import (
    DiscriminationProblem,
    StateCoeffs,
    global_optimal,
    mutual_information_bits,
    optimal_local_bayes,
    optimal_local_info,
    outcome_distribution,
)
from .extremal import (
    BasicVectorSet,
    EmptyPolytopeError,
    ExtremalityReport,
    VertexSet,
    basic_vectors,
    brute_force_vertices,
    catalog_classes,
    catalog_extrema,
    check_lemma_properties,
    enumerate_vertices,
    extremal_classes,
    is_extremal,
    oo_three_outcome_elements,
    oo_two_outcome_elements,
)
from .feasible import (
    LinearProgram,
    LpResult,
    Polytope,
    SymPovm,
    UnboundedLpError,
    build_feasible_polytope,
    convex_decompose,
    is_feasible,
    lp_solve,
    povm_from_coords,
)
from .nogo import (
    NoGoCertificate,
    isotropic_sanity_search,
    naive_transform_search,
    recovered_protocol_map,
    verify_L_requirements,
)
from .operators import (
    BipartiteOperator,
    CRat,
    KrausPair,
    ScaledFactor,
    is_psd,
    kraus_from_separable_form,
    maximally_entangled_projector,
    partial_transpose,
    swap_operator,
    tensor,
)
from .protocols import (
    InfeasibleTargetError,
    LocalProtocol,
    ProductTerm,
    PureState,
    PureStateSet,
    bell_protocol,
    build_pure_state_set,
    isotropic_protocol,
    oo_protocol,
    protocol_for_vertex,
    verify_protocol,
    werner_protocol,
)
from .symmetry import (
    CoeffVector,
    CommutantBasis,
    Family,
    PTMap,
    SymmetryKind,
    bell_group_average,
    coeff_to_operator,
    commutant_basis,
    kind,
    pt_coefficient_map,
    twirl_coefficients,
)

__version__ = "0.1.0"
