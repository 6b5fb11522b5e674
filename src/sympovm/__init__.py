"""Exact toolkit for symmetry-invariant bipartite POVMs.

Represents invariant POVMs as rational coefficient vectors on commutant
projector bases, decides positivity/PPT feasibility, enumerates extremal
feasible POVMs, synthesises and verifies the local protocols attaining
them, certifies the no-go result for product-form oo protocols, and
computes optimal local-vs-global state-discrimination values, all in
exact rational arithmetic.

The names below are loaded on first use (PEP 562), so that ``import
sympovm`` imports no submodule and a command loads only what it reaches.
"""

import importlib

_EXPORTS = {
    "discrimination": "DiscriminationProblem StateCoeffs global_optimal mutual_information_bits "
                      "optimal_local_bayes optimal_local_info outcome_distribution",
    "extremal": "BasicVectorSet EmptyPolytopeError ExtremalityReport VertexSet basic_vectors "
                "brute_force_vertices catalog_classes catalog_extrema check_lemma_properties "
                "enumerate_vertices extremal_classes is_extremal oo_three_outcome_elements "
                "oo_two_outcome_elements",
    "feasible": "LinearProgram LpResult Polytope SymPovm UnboundedLpError "
                "build_feasible_polytope convex_decompose is_feasible lp_solve povm_from_coords",
    "nogo": "NoGoCertificate isotropic_sanity_search naive_transform_search "
            "recovered_protocol_map verify_L_requirements",
    "operators": "BipartiteOperator CRat KrausPair ScaledFactor is_psd "
                 "kraus_from_separable_form maximally_entangled_projector partial_transpose "
                 "swap_operator tensor",
    "protocols": "InfeasibleTargetError LocalProtocol ProductTerm PureState PureStateSet "
                 "bell_protocol build_pure_state_set isotropic_protocol oo_protocol "
                 "protocol_for_vertex verify_protocol werner_protocol",
    "symmetry": "CoeffVector CommutantBasis Family PTMap SymmetryKind bell_group_average "
                "coeff_to_operator commutant_basis kind pt_coefficient_map twirl_coefficients",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
