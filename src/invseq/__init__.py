"""Pattern-avoiding inversion sequences.

Four cooperating views of the same counting problems: a brute-force
oracle (``invseq.oracle``), generating-tree rule systems
(``invseq.succession``), the closed form and exact algebraic checks on
the generating series (``invseq.series``), and the word-level machinery
underneath all of them (``invseq.core``).  The named cross-checks
between them live in ``invseq.checks``, every state a route keeps
across the requests of one process in the registry of ``invseq.prefix``,
and the ``invseq`` command line ties them together.

Each public name is listed once, in ``_PUBLIC``, under the module that
defines it, and ``__all__`` is read from that table.  A public name
resolves on its first access (PEP 562, ``__getattr__``), to the very
object of its module, which that access imports; the name is then bound
here, so later reads skip the hook.  So ``import invseq`` imports no
other module of the package: reading ``avoids`` imports ``invseq.core``,
and ``f_coefficients`` imports ``invseq.series`` without the oracle or
the rule systems.
Until a name is read, ``dir(invseq)`` does not list it.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "core": ("avoids", "contains", "is_inversion_sequence", "is_valid_pattern",
             "parse_word", "render_word", "standardize",
             "structure_check_201_210", "validate_pattern"),
    "oracle": ("count_avoiders", "count_sequence", "list_avoiders"),
    "series": ("f_coefficients", "iterate_fe", "PolyRelation",
               "relation_residual"),
    "succession": ("count_via_rules", "emit_diagram", "get_system",
                   "rule_counting_sequence", "state_profile", "step"),
}
_HOME = {name: home for home, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    """The public name, imported from its home module on its first
    access and bound here; any other name is an AttributeError."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value
