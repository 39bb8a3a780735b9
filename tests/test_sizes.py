"""Every public entry point that takes a size rejects a negative one with
ValueError, whatever layer it lives in."""

import pytest

from invseq.checks import CHECKS, run_check
from invseq.oracle import (
    count_avoiders,
    count_sequence,
    list_avoiders,
    listing_text,
)
from invseq.series import (
    f_coefficients,
    iterate_fe,
)
from invseq.succession import (
    count_via_rules,
    emit_diagram,
    get_system,
    profile_text,
    rule_counting_sequence,
    state_profile,
)

B_201_210 = ((2, 0, 1), (2, 1, 0))


def _check(name):
    """The named verify check as an entry point that must pass."""
    def call(n):
        ok, lines = run_check(name, n)
        assert ok, lines
    return call


ENTRY_POINTS = {
    "count_sequence": lambda n: count_sequence(B_201_210, n),
    "count_avoiders": lambda n: count_avoiders(B_201_210, n),
    "list_avoiders": lambda n: list_avoiders(B_201_210, n),
    "listing_text": lambda n: listing_text(B_201_210, n),
    "rule_counting_sequence": lambda n: rule_counting_sequence("011-201", n),
    "count_via_rules": lambda n: count_via_rules("201-210", n),
    "state_profile": lambda n: state_profile("010-100-120-210", n),
    "profile_text": lambda n: profile_text("011-201", n),
    "Prefix.level": lambda n: get_system("201-210").memo.level(n),
    "emit_diagram": lambda n: emit_diagram("201-210", n),
    "f_coefficients": f_coefficients,
    "iterate_fe": lambda n: iterate_fe("011-201", n),
    **{"run_check:" + name: _check(name) for name in CHECKS},
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_negative_size_is_value_error(name):
    call = ENTRY_POINTS[name]
    with pytest.raises(ValueError):
        call(-1)
    call(0)
