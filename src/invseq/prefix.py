"""The per-process state of every route, and the one stepping loop.

``_STATES`` is the one registry of per-process state: every route that
keeps state across requests keeps it there, under its own key, and
emptying the dict makes the process cold.  A route that steps levels is
a start level, a step and a count, and keeps a Prefix, which
``shared(key, start, step, count, *args)`` returns: the one stored under
key, made on first use and made afresh, replacing the stored one, when
the stored one has another start, step, count or arguments.  A caller
passes them as it sees them at call time, so a planted step (a fault,
say) is stepped cold.  A helper that a step looks up while it runs is
not part of the key: a fault planted in one after a warm request is not
seen until the registry is emptied.  Every state, prefix or not, is
replaced only by a longer one, so threads need no lock.  The keys are:

  * a system name (``invseq.succession``): the system's rules memo;
  * ``invseq.series``: "f_coefficients", "ff_slice_series",
    "system-201-210" and ("iterate_fe", system), and the relation
    residual states ("relation_residual", name), which are not prefixes:
    they resume from the whole history of their input;
  * "structure-theorem" (``invseq.checks``).

start is the level at depth 0.  step(level, *args) returns the level one
depth deeper and the count of the level it was given, which most steps
get from the work they do anyway; count(level) is that count alone, and
counts only the deepest level of a request.  A "count" is whatever the
route makes of a level: a number, the first nonzero u-degree of each
residual row of the 201-210 system, or the first disagreement so far.
No step or count mutates a level.  An extension steps the stored
deepest level again and drops the count that step returns, so a route
whose count is real work lets each level carry its own count, formed
by the step that forms the level, as the closed form and the system do.

A Prefix keeps the counts at depths 0..L and the level at depth L, for
the deepest L any request in this process has asked for, and a
checkpoint, the level at every multiple of _SPACING (64) up to L:

  * a shallower request reads the counts and steps nothing, and level(n)
    steps from the stored level nearest at or below n, fewer than
    _SPACING steps short of it;
  * a deeper request steps on from depth L, so a process steps each
    depth once, and a single request does the work of a run from the
    start;
  * before an extension steps, the prefix is cut back to its last
    checkpoint, so that the old deepest level is freed once the step
    has gone past it;
  * an extension publishes what it reached also when a step raises: the
    counts of the depths it stepped and the level of the last of them,
    so a failing step never leaves the prefix shallower than it was;
  * what is published replaces the prefix only when it is longer.  No
    lock is needed: the prefix is one attribute read once, an extension
    works on private copies, and nothing stored is mutated.  Two threads
    may race between the length check and the write, so that a shorter
    prefix replaces a longer one; that costs recomputation, never a
    wrong answer.

>>> def double(level):
...     return 2 * level, level
>>> prefix = Prefix(1, double, abs)
>>> prefix.counts(5), prefix.level(3), prefix.level(70)
([1, 2, 4, 8, 16, 32], 8, 1180591620717411303424)
"""

_STATES = {}        # key -> the per-process state kept under it


def shared(key, start, step, count, *args):
    """The Prefix in _STATES under key, made on first use, and made
    afresh, replacing the stored one, when the stored one has another
    start, step, count or arguments."""
    prefix = _STATES.get(key)
    if prefix is None or prefix.route != (start, step, count, args):
        prefix = _STATES[key] = Prefix(start, step, count, *args)
    return prefix


class Prefix:
    """The per-process prefix of one route (see the module docstring)."""

    _SPACING = 64     # depth between two checkpoints

    def __init__(self, start, step, count, *args):
        self.route = start, step, count, args
        self._memo = None

    def counts(self, n):
        """[count at depth 0, ..., count at depth n], a fresh list."""
        return self._reach(n)[0][:n + 1]

    def level(self, n):
        """The level at depth n, stepped from the stored level nearest at
        or below n once the prefix is n deep."""
        counts, level, checkpoints = self._reach(n)
        depth = len(counts) - 1
        if depth != n:
            depth = n // self._SPACING * self._SPACING
            level = checkpoints[n // self._SPACING]
        _, step, _, args = self.route
        for _ in range(n - depth):
            level = step(level, *args)[0]
        return level

    def _reach(self, n):
        """The prefix as (counts, level, checkpoints), at least n deep:
        the counts at depths 0..L, the level at depth L and the levels at
        depths 0, _SPACING, ... up to L.  Callers must not mutate them.

        The loop keeps len(counts) equal to the depth of the level it
        steps, and last, the level of the last count, which is what a
        failing step publishes.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        start, step, count, args = self.route
        memo = self._memo
        if memo is None:
            counts, last, checkpoints = [], None, []
        elif len(memo[0]) > n:
            return memo
        else:
            counts, last, checkpoints = memo
            top = (len(checkpoints) - 1) * self._SPACING
            if top < len(counts) - 1 and self._memo is memo:
                self._memo = (counts[:top + 1], checkpoints[-1], checkpoints)
            counts, checkpoints, memo = list(counts), list(checkpoints), None
        try:
            # a step of the stored level L only yields the level at L + 1:
            # its count is stored already
            level = step(last, *args)[0] if counts else start
            while len(counts) <= n:
                if len(counts) < n:
                    nxt, c = step(level, *args)
                else:
                    nxt, c = None, count(level)
                if len(counts) == len(checkpoints) * self._SPACING:
                    checkpoints.append(level)
                counts.append(c)
                last, level = level, nxt
        finally:
            reached = counts, last, tuple(checkpoints)
            memo = self._memo
            if counts and (memo is None or len(counts) > len(memo[0])):
                self._memo = reached
        return reached
