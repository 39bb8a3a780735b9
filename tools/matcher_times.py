"""Print the time the core matcher, the structure checker and the
structure-theorem check take.

Three tables, each time the least of RUNS runs, in milliseconds, with
the first run beside it:

  * single calls, which run the loops, on every inversion sequence of
    length 8: ``structure_check_201_210``, and ``avoids`` for
    {201, 210}, {010, 102} and the four patterns of 010-100-120-210;
  * the sliced sweep at lengths 6 to 9, per part: the order masks of
    the length (``invseq.core._order_masks``), then the sliced checker
    and the sliced matcher of {201, 210} on those masks, as verify's
    structure-theorem check runs them;
  * ``run_check("structure-theorem", n)`` at n = 5 to 9, which keeps no
    state, so every run is a cold request.

Run in a fresh interpreter, from the root of the repository; standard
library only:

    python3 tools/matcher_times.py
"""

import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from invseq.checks import run_check  # noqa: E402
from invseq.core import (  # noqa: E402
    _order_masks, _sliced_avoider, _sliced_checker, avoids,
    structure_check_201_210)

RUNS = 5
BASES = {
    "201,210": ((2, 0, 1), (2, 1, 0)),
    "010,102": ((0, 1, 0), (1, 0, 2)),
    "010,100,120,210": ((0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0)),
}


def times_ms(run):
    """(first, least) of RUNS timed calls of run(), in milliseconds."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        run()
        times.append(1000 * (time.perf_counter() - start))
    return times[0], min(times)


def row(name, first, least):
    print("%-32s %9.2f ms  (first %.2f ms)" % (name, least, first))


if __name__ == "__main__":
    length_8 = list(itertools.product(*map(range, range(1, 9))))
    row("structure_check_201_210 n=8", *times_ms(
        lambda: [structure_check_201_210(e) for e in length_8]))
    for name, basis in BASES.items():
        row("avoids %s n=8" % name, *times_ms(
            lambda: [avoids(e, basis) for e in length_8]))
    del length_8  # garbage collection would walk its tuples in the rows below
    basis = BASES["201,210"]
    for n in range(6, 10):
        lt = _order_masks(n)
        row("order masks n=%d" % n, *times_ms(lambda: _order_masks(n)))
        row("sliced checker n=%d" % n, *times_ms(
            lambda: _sliced_checker(n, lt)))
        row("sliced matcher 201,210 n=%d" % n, *times_ms(
            lambda: _sliced_avoider(basis, n, lt)))
    del lt
    for n in range(5, 10):
        row("structure-theorem check n=%d" % n, *times_ms(
            lambda: run_check("structure-theorem", n)))
