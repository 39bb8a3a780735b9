"""Shared fixtures."""

import pytest

from invseq import cli
from invseq.prefix import _STATES


@pytest.fixture
def fresh_states():
    """Empty every per-process state for one test: the registry of
    ``invseq.prefix`` and the text memo of ``invseq.cli``, restored as
    they were afterwards.  The fixture's value empties them again, for a
    test that needs a cold process more than once."""
    memos = _STATES, cli._DECIMAL
    saved = [dict(memo) for memo in memos]

    def empty():
        for memo in memos:
            memo.clear()
    empty()
    yield empty
    for memo, kept in zip(memos, saved):
        memo.clear()
        memo.update(kept)
