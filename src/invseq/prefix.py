"""The per-process state of every route, and the prefix of a stepping
route.

``_STATES`` is the one registry of per-process state: every route that
keeps state across requests keeps it there, under its own key, and
emptying the dict makes the process cold.  A route that steps levels
keeps a Prefix, which ``shared(key, route, *args)`` returns: the one
over partial(route, *args) stored under key, made on first use and made
afresh, replacing the stored one, when the stored one reads another
route or other arguments.  A caller passes the route and its arguments
as it sees them at call time, so a planted route (a fault, say) is
stepped cold.  A helper that a route looks up while it steps is not part
of the key: a fault planted in one after a warm request is not seen
until the registry is emptied.  Every state, prefix or not, is replaced
only by a longer one, so threads need no lock.  The keys are:

  * a system name (``invseq.succession``): the system's rules memo;
  * ``invseq.series``: "_f_levels", "ff_slices_201_210",
    "profile_slices_201_210" and ("_fe_slices", system), and the two
    residual states, ("relation_residual", name) and
    "_check_system_violation", which are not prefixes: they resume from
    the whole history of their input;
  * "structure-theorem" (``invseq.checks``).

A route yields (level, count) for the depths 0..n as route(n), from its
axiom, and for the depths d..n as route(n, (d, level)), resuming from a
level it yielded before; it never mutates a level it has yielded.  A
"count" is whatever the route makes of a level: a number, the census
rows of the 201-210 DP, or the first disagreement so far.

A Prefix keeps the counts at depths 0..L and the level at depth L, for
the deepest L any request in this process has asked for, and a
checkpoint, the level at every multiple of _SPACING (64) up to L:

  * a shallower request reads the counts and steps nothing, and the
    stored level nearest at or below a depth is fewer than _SPACING
    steps short of it;
  * a deeper request resumes the route at depth L, so a process steps
    each depth once, and a single request does the work of a run from
    the axiom;
  * before an extension steps, the prefix is cut back to its last
    checkpoint, so that the old deepest level is freed once the route
    has stepped past it;
  * an extension publishes what it reached also when a step raises, so
    a failing step never leaves the prefix shallower than it was;
  * what is published replaces the prefix only when it is longer.  No
    lock is needed: the prefix is one attribute read once, an extension
    works on private copies, and nothing stored is mutated.  Two threads
    may race between the length check and the write, so that a shorter
    prefix replaces a longer one; that costs recomputation, never a
    wrong answer.

>>> def powers_of_two(n, start=(0, 1)):
...     depth, level = start
...     for _ in range(n - depth):
...         yield level, level
...         level *= 2
...     yield level, level
>>> prefix = Prefix(powers_of_two)
>>> prefix.counts(5), prefix.nearest(3), prefix.nearest(5)
([1, 2, 4, 8, 16, 32], (0, 1), (5, 32))
"""

from functools import partial
from itertools import islice

_STATES = {}        # key -> the per-process state kept under it


def shared(key, route, *args):
    """The Prefix in _STATES under key over partial(route, *args), made
    on first use, and made afresh, replacing the stored one, when the
    stored one reads another route or other arguments."""
    prefix = _STATES.get(key)
    if prefix is None or (prefix.route.func, prefix.route.args) != (route, args):
        prefix = _STATES[key] = Prefix(partial(route, *args))
    return prefix


class Prefix:
    """The per-process prefix of one route (see the module docstring)."""

    _SPACING = 64     # depth between two checkpoints

    def __init__(self, route):
        self.route = route
        self._memo = None

    def counts(self, n):
        """[count at depth 0, ..., count at depth n], a fresh list."""
        return self._reach(n)[0][:n + 1]

    def nearest(self, n):
        """(depth, level) for the stored level nearest at or below depth
        n, once the prefix is n deep."""
        counts, level, checkpoints = self._reach(n)
        if len(counts) - 1 == n:
            return n, level
        i = n // self._SPACING
        return i * self._SPACING, checkpoints[i]

    def _reach(self, n):
        """The prefix as (counts, level, checkpoints), at least n deep:
        the counts at depths 0..L, the level at depth L and the levels at
        depths 0, _SPACING, ... up to L.  Callers must not mutate them.

        A resumed route first yields the level at depth L again, which is
        skipped; until the route steps past it, the old prefix is what a
        failing step publishes.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        memo = self._memo
        if memo is None:
            counts, level, checkpoints = [], None, []
            steps = self.route(n)
        elif len(memo[0]) > n:
            return memo
        else:
            counts, level, checkpoints = memo
            top = (len(checkpoints) - 1) * self._SPACING
            if top < len(counts) - 1 and self._memo is memo:
                self._memo = (counts[:top + 1], checkpoints[-1], checkpoints)
            steps = islice(self.route(n, (len(counts) - 1, level)), 1, None)
            counts, checkpoints, memo = list(counts), list(checkpoints), None
        try:
            for level, count in steps:
                if len(counts) == len(checkpoints) * self._SPACING:
                    checkpoints.append(level)
                counts.append(count)
        finally:
            reached = counts, level, tuple(checkpoints)
            memo = self._memo
            if counts and (memo is None or len(counts) > len(memo[0])):
                self._memo = reached
        return reached
