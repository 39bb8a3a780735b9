"""Print the time the three dense kernels of ``invseq.succession`` take
per step, and what a cold extension of each system's memo costs.

Two tables, each time the least of RUNS runs, in milliseconds, with
the first run beside it:

  * one step of each system's kernel at fixed depths (201-210 at 300
    and 600, each 2-parameter system at 40, 120 and 200), on the level
    that the kernel's own run from the system's start reaches there,
    and, for a system with an inverse step (201-210), one step back
    from that level beside it;
  * a cold extension of each system's memo to the depth in COLD_DEPTHS
    (201-210 to 700, the deepest count of the bench's transfer
    workload; each 2-parameter system to 120): a fresh
    ``invseq.prefix.Prefix`` over the system's start and kernel, as
    ``RuleSystem.memo`` keeps it, asked for the counts through that
    depth, so that it keeps its checkpoints too.

Run in a fresh interpreter, from the root of the repository; standard
library only:

    python3 tools/kernel_times.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from invseq.prefix import Prefix  # noqa: E402
from invseq.succession import SYSTEMS  # noqa: E402

RUNS = 11
STEP_DEPTHS = {"201-210": (300, 600),
               "011-201": (40, 120, 200),
               "010-100-120-210": (40, 120, 200)}
COLD_DEPTHS = {"201-210": 700, "011-201": 120, "010-100-120-210": 120}


def times_ms(run):
    """(first, least) of RUNS timed calls of run(), in milliseconds."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        run()
        times.append(1000 * (time.perf_counter() - start))
    return times[0], min(times)


def levels(system, depths):
    """{depth: the level the system's kernel reaches there from start}."""
    out, level = {}, system.start
    for depth in range(max(depths) + 1):
        if depth in depths:
            out[depth] = level
        level = system.kernel(level)[0]
    return out


if __name__ == "__main__":
    for system_id, depths in STEP_DEPTHS.items():
        system = SYSTEMS[system_id]
        for depth, level in levels(system, depths).items():
            first, least = times_ms(lambda: system.kernel(level))
            print("%-16s step at depth %3d  %9.3f ms  (first %.3f ms)"
                  % (system_id, depth, least, first))
            if system.back is not None:
                first, least = times_ms(lambda: system.back(level))
                print("%-16s back at depth %3d  %9.3f ms  (first %.3f ms)"
                      % (system_id, depth, least, first))
    for system_id, depth in COLD_DEPTHS.items():
        system = SYSTEMS[system_id]
        first, least = times_ms(
            lambda: Prefix(system.start, system.kernel).counts(depth))
        print("%-16s cold memo to %3d  %9.3f ms  (first %.3f ms)"
              % (system_id, depth, least, first))
