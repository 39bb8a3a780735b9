"""A fixed CPython workload that measures how fast this core runs right now.

On a shared host the same interpreter work can run up to 1.8 times
slower for seconds at a time, and the slowdown differs between cores.
The benchmark times this kernel on the serving thread before and after
each request and scales the request's time by REFERENCE_S over the
kernel's time, so that runs taken in slow and fast periods compare.
The kernel uses none of invseq, so a change to the program cannot move it.
"""

from time import perf_counter

# The unit of scaled time: about the kernel's mean time on the 2-core
# x86-64 VM the baseline was taken on (CPython 3.11).
REFERENCE_S = 0.0050
REPEATS = 5


def _recurse(depth, acc):
    return acc if depth == 0 else _recurse(depth - 1, acc + (depth & 7))


def _kernel():
    """Mixes that slow down differently under contention: hashing and
    sorting small tuples, calls and generators, bit twiddling of the kind
    the oracle's walk does, and big-integer arithmetic of the kind the
    counting DPs do."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i % 5)
        table[key] = table.get(key, 0) + i
        acc += len(table)
    acc += sorted(((i * 7919) % 1009, i) for i in range(1000))[0][1]
    x = 3 ** 500
    for _ in range(200):
        x = (((x * x) >> 790) | (1 << 780)) & ((1 << 800) - 1)
    small = tuple(range(50))
    for i in range(120):
        acc += _recurse(60, i)
    for i in range(300):
        acc += sum(v for v in small if v & 1)
    for mask in range(1, 1500):
        rest = mask ^ (mask >> 3)
        while rest:
            bit = rest & -rest
            rest ^= bit
            acc += bit.bit_length()
    row = [3 ** k for k in range(1, 200)]
    for _ in range(60):
        row = [a + b for a, b in zip(row, row[1:])] + [row[-1]]
    return acc + (x & 1) + (row[0] & 1)


def sample():
    """Mean time of a few kernel runs, in seconds."""
    start = perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return (perf_counter() - start) / REPEATS
