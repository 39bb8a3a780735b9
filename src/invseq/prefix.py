"""Per-process prefixes of a stepping route.

A route yields (level, count) for the depths 0..n as route(n), from its
axiom, and for the depths d..n as route(n, (d, level)), resuming from a
level it yielded before; it never mutates a level it has yielded.  A
"count" is whatever the route makes of a level: a number, or for the
census of the 201-210 DP its rows.  Each rule system of
``invseq.succession`` is a Prefix over its own levels (the rules memo),
and ``invseq.series`` keeps one over the closed form's recurrences, one
over the (k,F,F) slice of the 201-210 DP, one over its census slices and
one per functional-equation system.

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

from itertools import islice


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
            if level is not None and (memo is None
                                      or len(counts) > len(memo[0])):
                self._memo = reached
        return reached
