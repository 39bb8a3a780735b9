"""Print what the prefixes of the rules memos keep, and what resuming
from their checkpoints costs, after a fixed mix of requests.

The mix, served in this process: a count through depth 700 on 201-210
and through 110 on 011-201 and on 010-100-120-210, then profiles below
each memo's depth (PROFILES), as ``invseq profile`` serves them.  Each
system's kernel is wrapped before the first request, so that its memo
is keyed on the wrapper from the start, and the wrapper counts the
kernel steps that ``Prefix.level`` takes to resume from a checkpoint;
the system's inverse step, where it has one, is wrapped too, and counts
the steps back from a stored level above the depth.

One line per key of ``invseq.prefix._STATES``: the prefix's depth L,
the largest gap between its checkpoints and their number (depth 0
included), the bytes of the checkpoints past depth 0 and of the level
at depth L (each ``deep_size``: ``sys.getsizeof`` summed over its
lists, tuples and ints, each object once), and the kernel steps that
the profiles took in ``level``, forward and back.  A checkpoint is the live level itself,
so the level at L is counted in the checkpoint bytes too when L is a
checkpoint.  On the last line, tracemalloc's peak and retained bytes
over the whole mix, what its answers and the prefixes it leaves
behind cost in memory.  Standard library only:

    python3 tools/prefix_costs.py
"""

import pathlib
import sys
import tracemalloc
from operator import sub

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from invseq.prefix import _STATES  # noqa: E402
from invseq.succession import SYSTEMS, count_via_rules, profile_text  # noqa: E402

COUNTS = {"201-210": 700, "011-201": 110, "010-100-120-210": 110}
PROFILES = {"201-210": (100, 250, 333, 500, 639, 699),
            "011-201": (30, 57, 64, 83, 100, 109),
            "010-100-120-210": (30, 57, 64, 83, 100, 109)}


def counting(step, calls):
    """step, counting its calls in calls[0]."""
    def counted(level):
        calls[0] += 1
        return step(level)
    return counted


def deep_size(obj, seen=None):
    """sys.getsizeof of obj and of every list, tuple and int inside it,
    each object once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(deep_size(item, seen) for item in obj)
    return size


if __name__ == "__main__":
    calls, backs = {}, {}
    for system_id, system in SYSTEMS.items():
        calls[system_id], backs[system_id] = [0], [0]
        system.kernel = counting(system.kernel, calls[system_id])
        if system.back is not None:
            system.back = counting(system.back, backs[system_id])
    tracemalloc.start()
    for system_id, n in COUNTS.items():
        count_via_rules(system_id, n)
    level_steps = {}
    for system_id, depths in PROFILES.items():
        calls[system_id][0] = backs[system_id][0] = 0
        for n in depths:
            profile_text(system_id, n)
        level_steps[system_id] = calls[system_id][0], backs[system_id][0]
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print("%-18s %6s %4s %12s %17s %11s %13s %10s"
          % ("key", "depth", "gap", "checkpoints", "checkpoint_bytes",
             "live_bytes", "steps_forward", "steps_back"))
    for key, prefix in _STATES.items():
        counts, level, checkpoints = prefix._memo
        depths = sorted(checkpoints)
        seen = set()
        kept = sum(deep_size(checkpoints[d], seen) for d in depths[1:])
        print("%-18s %6d %4d %12d %17d %11d %13d %10d"
              % (key, len(counts), max(map(sub, depths[1:], depths), default=0),
                 len(checkpoints), kept, deep_size(level), *level_steps[key]))
    print("mix (tracemalloc): peak %.2f MB, retained %.2f MB"
          % (peak / 1e6, retained / 1e6))
