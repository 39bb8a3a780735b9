"""Shared fixtures."""

import pytest

from invseq.prefix import _STATES


@pytest.fixture
def fresh_states():
    """Empty the registry of ``invseq.prefix``, every per-process state,
    for one test, and restore it as it was afterwards.  The fixture's
    value empties it again, for a test that needs a cold process more
    than once."""
    saved = dict(_STATES)
    _STATES.clear()
    yield _STATES.clear
    _STATES.clear()
    _STATES.update(saved)
