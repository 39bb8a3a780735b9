"""The public API of the package, pinned: a name leaves or joins it only
by an edit here."""

import invseq

PUBLIC_NAMES = [
    "PolyRelation",
    "TruncatedSeries",
    "avoids",
    "contains",
    "count_avoiders",
    "count_sequence",
    "count_via_rules",
    "emit_diagram",
    "f_coefficients",
    "get_system",
    "is_inversion_sequence",
    "is_valid_pattern",
    "iterate_fe",
    "list_avoiders",
    "parse_word",
    "phi",
    "relation_residual",
    "render_word",
    "rule_counting_sequence",
    "standardize",
    "state_profile",
    "step",
    "structure_check_201_210",
    "validate_pattern",
]


def test_public_api_is_pinned():
    assert sorted(invseq.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(invseq, name) is not None, name
