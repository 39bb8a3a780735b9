"""Seeded request mixes for the three benchmark workloads.

Each workload is a list of strata.  A stratum contributes a fixed number
of requests to every run; the seed chooses the order of the whole list
and, in the strata whose cost grows polynomially with n, the exact sizes.
Those sizes are drawn one per equal-width bin of the stratum's n-range
(stratified sampling), so every run covers the range the same way and
no size repeats inside a stratum.

Where the oracle's cost grows exponentially with n (about five-fold per
step), a seeded size would make a run's total work depend on the seed.
Those strata are fixed grids of (basis, n); the seed picks their order
and the command form (``count`` or ``series`` in one of three formats),
which changes the output but not the counting work.

No request repeats within a run, so a cache kept across requests would
not be hit by a repeated request.

A request is a dict: ``argv`` is what ``invseq.cli.main`` receives, and
the other keys describe the reply the checks expect.
"""

import random

# The run length the mixes are sized for, in seconds of request time on a
# 2-core x86-64 VM with CPython 3.11.  --seconds scales the seeded
# strata by seconds / NOMINAL_SECONDS; the fixed grids do not scale.
NOMINAL_SECONDS = 10

FORMATS = ("plain", "csv", "bfile")
FORMS = ("count",) + tuple("series-" + f for f in FORMATS)

# Bases of patterns of length <= 3 (the oracle's bitmask path).  The last
# three are the bases the rule systems enumerate or conjecture about.
BUSHY = ("201,210", "011,201", "010,102", "000", "021", "101",
         "010,100,120,210")
# Bases with a length-4 pattern (the oracle's anchored subsequence search).
GENERIC = ("0123", "0012,201", "1012", "0000")
# Bases holding 01 and no all-zero pattern: the only avoider of each
# length is the all-zero word, so the generating tree is one path deep.
# The first two take the bitmask path, the last two the generic one.
THIN_FAST = ("01", "01,10")
THIN_GENERIC = ("01,0123", "01,1012")

SYSTEM_BASES = {
    "201,210": "201-210",
    "011,201": "011-201",
    "010,100,120,210": "010-100-120-210",
}

WORKLOADS = ("transfer", "oracle", "verify")


def stratified_sizes(rng, lo, hi, m):
    """m distinct sizes in [lo, hi], one from each of m contiguous bins of
    near-equal width, shuffled."""
    span = hi - lo + 1
    if m > span:
        raise ValueError("stratum [%d, %d] has fewer than %d sizes" % (lo, hi, m))
    edges = [lo + i * span // m for i in range(m + 1)]
    sizes = [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]
    rng.shuffle(sizes)
    return sizes


def _forms(rng, m, forms=FORMS):
    """m command forms in fixed proportion, in seeded order."""
    out = [forms[i % len(forms)] for i in range(m)]
    rng.shuffle(out)
    return out


def _scaled(count, scale):
    return max(1, round(count * scale))


def _source_request(stratum, form, n, system=None, basis=None, method=None):
    """A count or series request on a system or a basis."""
    source = ["--system", system] if system else ["--basis", basis]
    if method:
        source += ["--method", method]
    if form == "count":
        argv = ["count"] + source + ["--n", str(n)]
    else:
        fmt = form.split("-", 1)[1]
        argv = ["series"] + source + ["--n-max", str(n), "--format", fmt]
    return {"argv": argv, "stratum": stratum, "kind": form.split("-")[0],
            "format": form.split("-", 1)[1] if form != "count" else None,
            "system": system, "basis": basis, "n": n}


# (system, method, lo, hi, requests per run); method None is a profile.
TRANSFER_STRATA = (
    ("201-210", "rules", 100, 700, 28),
    ("201-210", "gf", 100, 700, 28),
    ("201-210", None, 100, 500, 12),
    ("011-201", "rules", 30, 110, 16),
    ("011-201", None, 30, 110, 6),
    ("010-100-120-210", "rules", 30, 110, 16),
    ("010-100-120-210", None, 30, 110, 6),
)


def _transfer(rng, scale):
    reqs = []
    for system, method, lo, hi, m in TRANSFER_STRATA:
        m = _scaled(m, scale)
        sizes = stratified_sizes(rng, lo, hi, m)
        if method is None:
            for n in sizes:
                reqs.append({"argv": ["profile", "--system", system, "--n", str(n)],
                             "stratum": system + "-profile", "kind": "profile",
                             "system": system, "n": n})
            continue
        for n, form in zip(sizes, _forms(rng, m)):
            reqs.append(_source_request(system + "-" + method, form, n,
                                        system=system, method=method))
    return reqs


# (basis, n) grids for the exponential strata.
BUSHY_COUNT_GRID = ([(b, n) for b in BUSHY for n in range(6, 11)]
                    + [(b, 11) for b in ("011,201", "010,102", "000", "021",
                                         "010,100,120,210")])
GENERIC_COUNT_GRID = [(b, n) for b in GENERIC for n in (6, 7, 8)]
LIST_GRID = ([(b, n) for b in BUSHY + GENERIC for n in (5, 6, 7)]
             + [(b, 8) for b in ("201,210", "021", "000", "0012,201",
                                 "010,100,120,210")]
             + [(b, 9) for b in ("010,102", "011,201")])


def _oracle(rng, scale):
    reqs = []
    for stratum, grid in (("bushy", BUSHY_COUNT_GRID),
                          ("generic", GENERIC_COUNT_GRID)):
        for (basis, n), form in zip(grid, _forms(rng, len(grid))):
            reqs.append(_source_request(stratum, form, n, basis=basis))
    for basis, n in LIST_GRID:
        reqs.append({"argv": ["list", "--basis", basis, "--n", str(n)],
                     "stratum": "list", "kind": "list", "basis": basis, "n": n})
    # Deep-thin: one path of depth n.  The walkers recurse once per
    # position, so sizes past CPython's default recursion limit of 1000
    # raise RecursionError at this commit; they stay in the mix and count
    # as failures.
    # Below the limit a request costs O(n^2): 0.1 s at n=200, 0.5 s at
    # n=500.  Succeeding sizes stop at 260 so that these seeded requests
    # stay under the fixed grids' heaviest tenth, which sets the p90.
    deep = (("thin-fast", THIN_FAST, FORMS, 200, 260, 4),
            ("thin-generic", THIN_GENERIC, FORMS, 200, 260, 4),
            ("thin-list", THIN_FAST + THIN_GENERIC, ("list",), 200, 260, 4),
            ("past-limit", THIN_GENERIC, ("count", "list"), 1100, 1400, 4))
    for stratum, bases, forms, lo, hi, m in deep:
        m = _scaled(m, scale)
        sizes = stratified_sizes(rng, lo, hi, m)
        for n, form in zip(sizes, _forms(rng, m, forms)):
            basis = rng.choice(bases)
            if form == "list":
                reqs.append({"argv": ["list", "--basis", basis, "--n", str(n)],
                             "stratum": stratum, "kind": "list",
                             "basis": basis, "n": n})
            else:
                reqs.append(_source_request(stratum, form, n, basis=basis))
    return reqs


# check -> (lo, hi, requests per run); None marks a fixed grid of sizes.
VERIFY_STRATA = {
    "structure-theorem": (5, 8, None),
    "minpoly-A": (100, 400, 12),
    "minpoly-B": (100, 400, 12),
    "minpoly-F": (100, 400, 12),
    "system-201-210": (20, 80, 15),
    "fe-vs-rules": (15, 35, 12),
    "conjecture-010-102": (8, 11, None),
    "oracle-vs-rules": (6, 9, None),
    "gf-vs-rules": (100, 400, 15),
    "wilf-011-201": (40, 120, 15),
}


def _verify(rng, scale):
    reqs = []
    for check, (lo, hi, m) in VERIFY_STRATA.items():
        if m is None:
            sizes = list(range(lo, hi + 1))
        else:
            sizes = stratified_sizes(rng, lo, hi, _scaled(m, scale))
        for n in sizes:
            reqs.append({"argv": ["verify", "--check", check, "--n-max", str(n)],
                         "stratum": check, "kind": "verify", "check": check,
                         "n": n})
    return reqs


_BUILDERS = {"transfer": _transfer, "oracle": _oracle, "verify": _verify}


def build(workload, seed, seconds=NOMINAL_SECONDS):
    """The run's requests for one workload, in the order they are sent."""
    rng = random.Random("%s:%d" % (workload, seed))
    reqs = _BUILDERS[workload](rng, seconds / NOMINAL_SECONDS)
    rng.shuffle(reqs)
    keys = [" ".join(r["argv"]) for r in reqs]
    if len(set(keys)) != len(keys):
        raise AssertionError("a request repeats in %s seed %d" % (workload, seed))
    return reqs
