"""Regenerate bench/reference.json from the current checkout.

    python3 bench/record.py

Records, for every oracle basis the mixes use, its counting sequence
through the deepest n any request asks for, cross-checked against the
generic walker (``list_avoiders``) and against a plain scan of all
inversion sequences with ``invseq.core.avoids`` at small n.  Then replays
every workload at DEFAULT_SEED and records the sha256 of each reply that
passes its checks, so later runs can hold stdout byte-identical.

Only rerun this when the expected output legitimately changes.
"""

import itertools
import json
import os
import sys

import run
import workloads

DEFAULT_SEED = 0
SCAN_DEPTH = 7
LIST_CHECK_DEPTH = 8


def _scan_counts(basis, n_max):
    from invseq.core import avoids
    return [sum(avoids(e, basis) for e in itertools.product(
        *[range(i + 1) for i in range(n)])) for n in range(n_max + 1)]


def reference_counts():
    from invseq.oracle import count_sequence, list_avoiders
    import checks
    depth = {}
    grids = (workloads.BUSHY_COUNT_GRID + workloads.GENERIC_COUNT_GRID
             + workloads.LIST_GRID)
    for basis, n in grids:
        depth[basis] = max(depth.get(basis, 0), n)
    table = {}
    for basis, n_max in sorted(depth.items()):
        parsed = checks.parse_basis(basis)
        seq = count_sequence(parsed, n_max)
        scan = _scan_counts(parsed, min(n_max, SCAN_DEPTH))
        listed = [len(list_avoiders(parsed, n))
                  for n in range(min(n_max, LIST_CHECK_DEPTH) + 1)]
        if seq[:len(scan)] != scan or seq[:len(listed)] != listed:
            raise SystemExit("oracle routes disagree for %s" % basis)
        table[basis] = seq
    return table


def main():
    sys.path.insert(0, run.SRC)
    import checks
    reference = {"counts": reference_counts(), "digests": {}}
    digests = {}
    for workload in workloads.WORKLOADS:
        requests = workloads.build(workload, DEFAULT_SEED)
        records, _ = run.serve([r["argv"] for r in requests], trace=False)
        checker = checks.Checker(requests, reference)
        for req, rec in zip(requests, records):
            if checker.check(req, rec) is None:
                digests[" ".join(req["argv"])] = checks.digest(rec["out"])
    reference["digests"] = dict(sorted(digests.items()))
    with open(checks.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    print("wrote %s: %d sequences, %d digests"
          % (os.path.relpath(checks.REFERENCE, run.ROOT),
             len(reference["counts"]), len(digests)))


if __name__ == "__main__":
    main()
