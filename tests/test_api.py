"""The public API of the package, pinned: a name leaves or joins it only
by an edit here."""

import importlib

import pytest

import invseq
from invseq import series

PUBLIC_NAMES = [
    "PolyRelation",
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


def test_the_package_root_binds_each_name_to_its_defining_object():
    """Each public name, the four of ``invseq.series`` among them, which
    resolve on first access, is the very object of the module that
    defines it; ``from invseq import *`` binds all of them, and an
    unknown name is still an AttributeError."""
    for name in invseq.__all__:
        obj = getattr(invseq, name)
        assert obj.__module__ != "invseq", name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    for name in ("f_coefficients", "iterate_fe", "PolyRelation",
                 "relation_residual"):
        assert getattr(invseq, name) is getattr(series, name), name
    namespace = {}
    exec("from invseq import *", namespace)
    namespace.pop("__builtins__")
    assert namespace == {name: getattr(invseq, name) for name in PUBLIC_NAMES}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        invseq.no_such_name
    assert not hasattr(invseq, "MINPOLY_F")


def test_the_benchmark_checker_still_reaches_the_cubic_through_the_alias():
    """``series.TruncatedSeries`` is no public name, only an alias of
    ``list`` that the oracle workload's checker of the benchmark still
    calls; its call, replayed here, checks the cubic on a plain list of
    counts and catches a wrong count."""
    assert "TruncatedSeries" not in invseq.__all__
    assert series.TruncatedSeries is list
    counts = invseq.count_sequence(((0, 1, 0), (1, 0, 2)), 11)
    assert series.relation_residual(
        series.CUBIC_010_102, series.TruncatedSeries(counts)) is None
    counts[9] += 1
    assert series.relation_residual(
        series.CUBIC_010_102, series.TruncatedSeries(counts)) == 9
