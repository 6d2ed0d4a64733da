"""Sheffer groupoids and directed relational systems with involution.

Finite-model toolkit: check the defining axioms and the law catalog,
convert between operations and relational systems in both directions,
build twist-products and their admissible-pair subsystems, transfer
operations along homomorphisms, and enumerate small models.
"""

from .bridge import (
    AssignmentSpace,
    ChoicePolicy,
    all_assignments,
    assign,
    assignment_space,
    coincidence_pairs,
    induce_system,
    is_assigned,
    lattice_sheffer,
    verify_roundtrip,
)
from .morphisms import (
    EquivalenceRelation,
    HypothesisError,
    bounded_top_assignment,
    find_homomorphisms,
    induced_image_operation,
    is_congruence,
    is_groupoid_homomorphism,
    is_rel_homomorphism,
    kernel,
    verify_bounded_hom,
    verify_hom_transfer,
)
from .relcore import (
    BinaryRelation,
    Carrier,
    DrsiReport,
    ElementMap,
    PropertyReport,
    RelationalSystem,
    Verdict,
    check_bounded,
    check_complemented,
    check_involution,
    is_directed,
    lower_cone,
    relation_properties,
    set_related,
    upper_cone,
    validate_drsi,
)
from .search import (
    CanonicalForm,
    EnumerationResult,
    EnumerationSpec,
    canonical_form,
    count_models,
    enumerate_drsi,
    find_model,
    run_enumeration,
)
from .sheffer import (
    CATALOG,
    Groupoid,
    antisymmetry_quasi_check,
    check_named,
    derived_involution,
    get_law,
    is_sheffer,
    majority_check,
    majority_term_value,
)
from .terms import (
    Apply,
    Law,
    LawVerdict,
    NamedConstant,
    ParseError,
    Variable,
    check_law,
    eval_term,
    format_law,
    format_term,
    parse_law,
    parse_term,
    term_variables,
)
from .twistkleene import (
    KleeneReport,
    PairIndexing,
    embed_base,
    is_kleene,
    kleene_subsystem,
    p_a_subset,
    twist_product,
    twist_sheffer,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # relcore
    "Carrier", "BinaryRelation", "ElementMap", "RelationalSystem",
    "Verdict", "PropertyReport", "DrsiReport", "upper_cone", "lower_cone",
    "relation_properties", "is_directed", "check_involution", "validate_drsi",
    "check_bounded", "check_complemented", "set_related",
    # terms
    "Variable", "Apply", "NamedConstant", "Law", "LawVerdict", "ParseError",
    "parse_term", "parse_law", "format_term", "format_law", "term_variables",
    "eval_term", "check_law",
    # sheffer
    "Groupoid", "CATALOG", "get_law", "is_sheffer", "derived_involution",
    "check_named", "majority_term_value", "majority_check", "antisymmetry_quasi_check",
    # bridge
    "ChoicePolicy", "AssignmentSpace", "induce_system", "assignment_space",
    "assign", "all_assignments", "is_assigned", "verify_roundtrip",
    "coincidence_pairs", "lattice_sheffer",
    # morphisms
    "HypothesisError", "EquivalenceRelation", "is_rel_homomorphism", "is_groupoid_homomorphism",
    "verify_hom_transfer", "find_homomorphisms", "kernel", "is_congruence",
    "induced_image_operation", "bounded_top_assignment", "verify_bounded_hom",
    # twistkleene
    "PairIndexing", "twist_product", "twist_sheffer", "embed_base", "is_kleene",
    "p_a_subset", "KleeneReport", "kleene_subsystem",
    # search
    "EnumerationSpec", "EnumerationResult", "CanonicalForm", "run_enumeration",
    "count_models", "find_model", "enumerate_drsi",
    "canonical_form",
]
