"""Print the time the core matcher and the structure checker take on
whole sweeps of inversion sequences.

Three tables, each time the least of RUNS runs, in milliseconds, with
the first run beside it:

  * the structure checker alone, generated for the length by
    ``invseq.core._structure_checker`` on each run, on every inversion
    sequence of length 6 to 9;
  * the step of the structure prefix (``invseq.checks._structure_step``)
    at lengths 6 to 9: the checker and the avoidance test of {201, 210},
    each generated once for the length, on every inversion sequence of
    that length, as verify's structure-theorem check runs them;
  * single calls, which run the loops and generate nothing, on every
    inversion sequence of length 8: ``structure_check_201_210``, and
    ``avoids`` for {201, 210}, {010, 102} and the four patterns of
    010-100-120-210.

Run in a fresh interpreter, from the root of the repository; standard
library only:

    python3 tools/matcher_times.py
"""

import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from invseq.checks import _structure_step  # noqa: E402
from invseq.core import (  # noqa: E402
    _avoider, _structure_checker, avoids, structure_check_201_210)

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


def words(n):
    """Every inversion sequence of length n."""
    return list(itertools.product(*map(range, range(1, n + 1))))


if __name__ == "__main__":
    for n in range(6, 10):
        length_n = words(n)
        first, least = times_ms(
            lambda: list(map(_structure_checker(n), length_n)))
        print("structure checker, n=%d   %9.2f ms  (first %.2f ms)"
              % (n, least, first))
    del length_n  # garbage collection would walk its tuples in the rows below
    basis = BASES["201,210"]
    for n in range(6, 10):
        first, least = times_ms(lambda: _structure_step(
            (n, None), _structure_checker, _avoider, basis))
        print("structure step, n=%d      %9.2f ms  (first %.2f ms)"
              % (n, least, first))
    length_8 = words(8)
    first, least = times_ms(
        lambda: [structure_check_201_210(e) for e in length_8])
    print("structure_check_201_210 n=8 %8.2f ms  (first %.2f ms)"
          % (least, first))
    for name, basis in BASES.items():
        first, least = times_ms(lambda: [avoids(e, basis) for e in length_8])
        print("avoids %-17s n=8 %9.2f ms  (first %.2f ms)"
              % (name, least, first))
