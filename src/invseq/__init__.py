"""Pattern-avoiding inversion sequences.

Four cooperating views of the same counting problems: a brute-force
oracle (``invseq.oracle``), generating-tree rule systems
(``invseq.succession``), the closed form and exact algebraic checks on
the generating series (``invseq.series``), and the word-level machinery
underneath all of them (``invseq.core``).  The named cross-checks
between them live in ``invseq.checks``, every state a route keeps
across the requests of one process in the registry of ``invseq.prefix``,
and the ``invseq`` command line ties them together.
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
from .series import (
    f_coefficients,
    iterate_fe,
    phi,
    PolyRelation,
    relation_residual,
    TruncatedSeries,
)
from .succession import (
    count_via_rules,
    emit_diagram,
    get_system,
    rule_counting_sequence,
    state_profile,
    step,
)

__version__ = "0.1.0"

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
    "phi",
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
