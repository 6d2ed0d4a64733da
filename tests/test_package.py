"""The package namespace: each library module's ``__all__``, exported once."""

import importlib

import shefferkit

LIBRARY_MODULES = ("relcore", "terms", "sheffer", "bridge", "morphisms", "twistkleene", "search")

# the names the package exported before it took the modules' lists; none may go
EARLIER_NAMES = [
    "__version__", "Carrier", "BinaryRelation", "ElementMap", "RelationalSystem", "Verdict",
    "PropertyReport", "DrsiReport", "upper_cone", "lower_cone", "relation_properties",
    "is_directed", "check_involution", "validate_drsi", "check_bounded", "check_complemented",
    "set_related", "Variable", "Apply", "NamedConstant", "Law", "LawVerdict", "ParseError",
    "parse_term", "parse_law", "format_term", "format_law", "term_variables", "eval_term",
    "check_law", "Groupoid", "CATALOG", "get_law", "is_sheffer", "derived_involution",
    "check_named", "majority_term_value", "majority_check", "antisymmetry_quasi_check",
    "ChoicePolicy", "AssignmentSpace", "induce_system", "assignment_space", "assign",
    "all_assignments", "is_assigned", "verify_roundtrip", "coincidence_pairs",
    "lattice_sheffer", "HypothesisError", "EquivalenceRelation", "is_rel_homomorphism",
    "is_groupoid_homomorphism", "verify_hom_transfer", "find_homomorphisms", "kernel",
    "is_congruence", "induced_image_operation", "bounded_top_assignment",
    "verify_bounded_hom", "PairIndexing", "twist_product", "twist_sheffer", "embed_base",
    "is_kleene", "p_a_subset", "KleeneReport", "kleene_subsystem", "EnumerationSpec",
    "EnumerationResult", "CanonicalForm", "run_enumeration", "count_models", "find_model",
    "enumerate_drsi", "canonical_form",
]


def modules():
    return [importlib.import_module(f"shefferkit.{name}") for name in LIBRARY_MODULES]


def test_all_is_version_plus_the_module_lists():
    expected = ["__version__"] + [name for module in modules() for name in module.__all__]
    assert shefferkit.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_the_module_object():
    for module in modules():
        for name in module.__all__:
            assert getattr(shefferkit, name) is getattr(module, name), (module.__name__, name)


def test_no_earlier_name_is_lost():
    assert len(EARLIER_NAMES) == 76
    assert set(EARLIER_NAMES) <= set(shefferkit.__all__)
    for name in ("bits_of", "Term", "MAX_ENUM_SIZE", "MAX_DRSI_SIZE", "MAX_LAW_VARIABLES"):
        assert name in shefferkit.__all__


def test_cli_stays_out_of_the_namespace():
    from shefferkit import cli
    assert not set(cli.__all__) & set(shefferkit.__all__)
