"""Pattern-avoiding inversion sequences.

Four cooperating views of the same counting problems: a brute-force
oracle (``invseq.oracle``), generating-tree rule systems
(``invseq.succession``), the closed form and exact algebraic checks on
the generating series (``invseq.series``), and the word-level machinery
underneath all of them (``invseq.core``).  The named cross-checks
between them live in ``invseq.checks``, every state a route keeps
across the requests of one process in the registry of ``invseq.prefix``,
and the ``invseq`` command line ties them together.

The five names of ``invseq.series`` in ``__all__`` resolve on first
access (PEP 562, ``__getattr__``), to the very objects of that module.
So ``import invseq`` and the command line's import compile no series
code: the first access to one of those names, the first ``--method gf``
request or the first verify check that reads series algebra loads it.
"""

from .core import (
    avoids,
    contains,
    is_inversion_sequence,
    is_valid_pattern,
    parse_word,
    render_word,
    standardize,
    structure_check_201_210,
    validate_pattern,
)
from .oracle import count_avoiders, count_sequence, list_avoiders
from .succession import (
    count_via_rules,
    emit_diagram,
    get_system,
    rule_counting_sequence,
    state_profile,
    step,
)

__version__ = "0.1.0"


def __getattr__(name):
    """A name of ``__all__`` not bound above, which is one of
    ``invseq.series``: imported on its first access and bound here, so
    that later ones never reach this hook."""
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import series
    value = globals()[name] = getattr(series, name)
    return value


__all__ = [
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
    "PolyRelation",
    "relation_residual",
    "render_word",
    "rule_counting_sequence",
    "standardize",
    "state_profile",
    "step",
    "structure_check_201_210",
    "TruncatedSeries",
    "validate_pattern",
]
