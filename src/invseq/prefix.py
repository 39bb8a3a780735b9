"""The per-process state of every route, and the one stepping loop.

``_STATES`` is the one registry of per-process state: every route that
keeps state across requests keeps it there, under its own key, and
emptying the dict makes every route, and so the process, cold.  A
route that steps levels is a start level and a step, and keeps a
Prefix, which ``shared(key, start, step, *args)`` returns: the one
stored under key, made on first use and made afresh, replacing the
stored one, when the stored one has another start, step or arguments.  A caller passes them
as it sees them at call time, so a planted step (a fault, say) is
stepped cold.  A helper that a step looks up while it runs is not part
of the key: a fault planted in one after a warm request is not seen
until the registry is emptied.  An argument may be the bound ``count``
of another prefix, so that a route that reads other routes is keyed on
the very prefixes it reads, and is stepped cold once one of them is made
afresh.  Every state is a Prefix.  The registry is read and written
under one module lock, so that two threads that find a key empty get
the same Prefix.  The keys are:

  * a system name (``invseq.succession``): the system's rules memo;
  * ``invseq.series``: "f_coefficients", "ff_slice_series" (the
    (k,F,F) slice of ``_ff_slice_prefix``), "system-201-210",
    ("iterate_fe", system) and ("relation", name), the residual of a
    relation on the prefixes it reads, checked through the linear ODE
    of the relation, which its first step derives;
  * "structure-theorem" (``invseq.checks``);
  * ``invseq.cli``: ("text", source), the line of each count of a source
    the command line prints, keyed on the bound ``count`` of the source's
    prefix, a system's rules memo (source: the system's name) or the
    closed form ("f_coefficients"), and ("index", sep), d and the
    separator of a csv (",") or bfile (" ") line.

start is the level at depth 0.  step(level, *args) takes the level at
depth d to the level at d + 1 and the count at d, which it forms from
the work it does anyway.  A "count" is whatever the route makes of a
depth: a number, the first failure so far of the equations of the
201-210 system, the first nonzero residual order or disagreement so
far, or a line of text.  No step mutates a level.

A Prefix keeps the counts at depths 0..L-1 and the level at depth L,
the level it steps next, for the deepest L any request in this process
has reached, and a checkpoint, the level at every multiple of _SPACING
(64) up to L:

  * counts(n) steps depths L..n, and nothing when L > n, and so does
    count(n), which reads the count at n without copying; level(n) first
    reaches depth n - 1, then returns the stored level if it is at depth
    n, and otherwise steps from the checkpoint at or below n, fewer than
    _SPACING steps, outside the lock;
  * an extension holds the prefix's lock while it steps, and publishes
    the counts, the level and the checkpoints after every step, so the
    old level is freed as soon as its step returns, and a step that
    raises at depth d leaves the counts at depths 0..d-1 and the level
    at d; an empty prefix whose first step raises stays empty;
  * a thread that asks while another extends waits for it, so a
    process steps each depth once, across threads too, and a single
    request does the work of a run from the start;
  * counts(n) and count(n) read a published prefix at least n + 1 deep
    without the lock: its counts list is only ever appended to, so its
    first n + 1 entries are final; level(n) holds the lock, because an
    extension appends to the list after it published its level;
  * the lock is reentrant, so a step may request its own prefix: the
    extension stops as soon as what is published is not what it last
    published, and reads the published prefix again;
  * an extension copies the counts it starts from once, so no prefix
    published before it began is mutated.

>>> def double(level):
...     return 2 * level, level
>>> prefix = Prefix(1, double)
>>> prefix.counts(5), prefix.count(4), prefix.level(3), prefix.level(70)
([1, 2, 4, 8, 16, 32], 16, 8, 1180591620717411303424)
"""

import threading

_STATES = {}        # key -> the Prefix kept under it
_STATES_LOCK = threading.Lock()


def shared(key, start, step, *args):
    """The Prefix in _STATES under key, made on first use, and made
    afresh, replacing the stored one, when the stored one has another
    start, step or arguments."""
    with _STATES_LOCK:
        prefix = _STATES.get(key)
        if prefix is None or prefix.route != (start, step, args):
            prefix = _STATES[key] = Prefix(start, step, *args)
    return prefix


class Prefix:
    """The per-process prefix of one route (see the module docstring)."""

    _SPACING = 64     # depth between two checkpoints

    def __init__(self, start, step, *args):
        self.route = start, step, args
        self._memo = None
        self._lock = threading.RLock()

    def counts(self, n):
        """[count at depth 0, ..., count at depth n], a fresh list."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._reach(n + 1)[0][:n + 1]

    def count(self, n):
        """The count at depth n."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._reach(n + 1)[0][n]

    def level(self, n):
        """The level at depth n: the stored level once the prefix is n
        deep, or stepped from the checkpoint at or below n."""
        with self._lock:
            counts, level, checkpoints = self._reach(n)
            if len(counts) == n:
                return level
        _, step, args = self.route
        level = checkpoints[n // self._SPACING]
        for _ in range(n % self._SPACING):
            level = step(level, *args)[0]
        return level

    def _reach(self, n):
        """The prefix as (counts, level, checkpoints), at least n deep:
        the counts at depths 0..L-1, the level at depth L >= n and the
        levels at depths 0, _SPACING, ... up to L.  Callers must not
        mutate them.  A published prefix n deep is returned without the
        lock, and while another thread extends it its counts may run
        past L, so a caller that reads the level holds the lock."""
        if n < 0:
            raise ValueError("n must be non-negative")
        memo = self._memo
        if memo is not None and len(memo[0]) >= n:
            return memo
        start, step, args = self.route
        with self._lock:
            while True:
                memo = self._memo
                counts, level, checkpoints = memo or ([], start, (start,))
                if len(counts) >= n:
                    return counts, level, checkpoints
                counts = list(counts)
                while len(counts) < n:
                    level, count = step(level, *args)
                    if self._memo is not memo:
                        break
                    counts.append(count)
                    if len(counts) % self._SPACING == 0:
                        checkpoints += (level,)
                    self._memo = memo = counts, level, checkpoints
