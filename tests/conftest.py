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


def _stored_levels(prefix):
    """The checkpoints of a published prefix L deep as [(depth, level)],
    the first its route's start, once they are checked against the
    policy of ``invseq.prefix``: one at each depth 0, s, 2s, ... up to L,
    s the least power of two with L <= _KEEP * s, so at most _KEEP + 1."""
    counts, _, checkpoints = prefix._memo
    depth, spacing = len(counts), 1
    while depth > prefix._KEEP * spacing:
        spacing *= 2
    assert sorted(checkpoints) == list(range(0, depth + 1, spacing))
    assert len(checkpoints) <= prefix._KEEP + 1
    assert checkpoints[0] is prefix.route[0]
    return sorted(checkpoints.items())


@pytest.fixture
def stored_levels():
    """A function of a prefix: its checkpoints with their depths (see
    _stored_levels)."""
    return _stored_levels
