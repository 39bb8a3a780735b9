"""Brute-force enumeration of pattern-avoiding inversion sequences.

Ground truth for everything else in the package: counts here come from
the tree of inversion-sequence prefixes, with a subtree cut as soon as
its prefix contains a basis pattern.  Cutting is sound because removing
the last entry of an avoider leaves an avoider, so every avoider of
length n sits below an avoider of every smaller length.  Only occurrences
that end at the newly appended entry need checking at each step; older
ones would already have cut the prefix.

Closed-form bans.  For a pattern of length 2 or 3 an occurrence ending at
a later entry w is decided by at most two earlier entries, so appending v
bans a set of values at every later position, computed from v and the set
`seen` of values the prefix holds, never from the prefix itself:

- a length-2 pattern (x, y) bans the values w with cmp(w, v) = cmp(y, x):
  one of the ranges below v, equal to v, above v;
- a length-3 pattern (x, y, z) bans, over the earlier values a with
  cmp(a, v) = cmp(x, y), the values w with cmp(w, a) = cmp(z, x) and
  cmp(w, v) = cmp(z, y).  Those a form one class of `seen`, and the union
  over it of {w : cmp(w, a) = c} is the class itself (c = 0), everything
  below its maximum (c < 0) or everything above its minimum (c > 0).

Each rule is thus a few big-integer operations on bitmasks over the
values, with no loop over the prefix.  A length-1 pattern bans every
value from the start.  The values above every entry compare alike with
the prefix, so a ban covers all of them or none; a ban above a value is
kept as a negative mask, unbounded above, which makes a mask a function
of the set it bans and keeps it small on thin trees.

Pair states.  A length-4 pattern (x, y, z, t) is carried by `pairs`, the
value pairs (a, b) with a placed before b and cmp(a, b) = cmp(x, y).
Appending v bans, for each pair with cmp(a, v) = cmp(x, z) and
cmp(b, v) = cmp(y, z), the values w with cmp(w, a) = cmp(t, x),
cmp(w, b) = cmp(t, y) and cmp(w, v) = cmp(t, z); it also adds (a, v) for
each seen a with cmp(a, v) = cmp(x, y).  This is sound and complete,
and the state (banned, seen, pairs) decides which completions of a
prefix avoid p: an occurrence that ends after the prefix has 0 to 3 of
its entries inside it.  With 0 it lies in the completion; with 3 the
values that finish it were banned when its third entry was appended;
with 2 they form a pair in `pairs`, and its third entry, appended later,
bans them; with 1 the value is in `seen`, and its second entry adds the
pair.  The bans of a pattern of length 2 or 3 read their earlier entries
through `seen` and `banned` the same way.  The pairs live in the bits of
`seen` from n up, bit (b + 1) * n + a for (a, b), and only for the
classes cmp(a, b) that some pattern reads (`_pair_rules`).  A
basis with no length-4 pattern has no pair bits, and a state without
pairs does no pair work, so thin trees stay one small state per level.

State DP.  With patterns of length at most 4 the subtree below a prefix
depends on nothing but its length, its banned mask and its seen mask
with the pairs in it: the children are the unbanned values, and each
child's masks follow from the parent's masks and the appended value.
One transition, `_raw_children`, lists a raw state's children with their
values, and counting and listing both step it: `_count_raw` runs level
by level over a dict {(banned, seen): number of prefixes}, which counts
exactly what the walk would, merging the prefixes that share a state.
`count_sequence` alone picks the engine, by the longest pattern: a
length-4 basis goes to `_count_raw`, a shorter one to `_count_fast` on
the canonical keys below, and n = 0 to neither.
The last position reads only `banned`, so the transition keeps no `seen`
at depth n - 1, and the last level is counted by popcount (on canonical
keys, below, the prefixes of length n - 1 are counted by their
candidates, and their keys are never built).  At n = 8, {0123} has 83
states over its levels against 9,591 avoiders of length 8; at n = 10,
{1012} has 3,846 against 1,694,858, and counts in about 70 ms against
about 800 ms for the walk.

Canonical states.  What a rule (c, ra, rv) of a length-3 pattern reads
of `seen` follows from the rule alone (`_reads`).  With c "above" and
ra < 0 it reads only the maximum of `seen` (the class is not empty
exactly when the maximum is above v, and then the maximum is the
class's); with c "below" and ra > 0 only the minimum; with ra = 0 and
c != rv nothing, since {w : cmp(w, a) = 0} is the class, which lies in
region c and misses region rv; every other rule reads individual
values.  By pattern: 100, 201 and 210 read the maximum, 011, 012 and
021 the minimum, the other seven individual values.  When no rule of
the basis reads individual values, `seen` is cut down to the extremes
its rules read (`_seen_cut`).  That is all the raw transition does,
since the listing's values must stay absolute; `_count_fast` also
demotes seen values (below) and relabels each state by the order of its
values, which keeps the subtree below it (bans are unions of regions
defined by comparisons):
- a banned value not in `seen` is inert: it is never a candidate again
  and no rule reads it, so it is dropped;
- of two values in both `seen` and `banned` with no candidate between
  them, a later candidate v lies on the same side of both, so they fall
  in the same class, and a region they bound differs only in banned
  values: one of them is kept;
- every value from the current length up (the tail) is unseen, and a
  ban on it is a region above some placed value or v, so it covers all
  of it or none: one flag, the top bit of `banned`, stands for it.
A canonical key (banned, seen, width) holds the width placed values
that are kept, and the tail at bit `width`; at each step the tail's
lowest value becomes placed, with the tail's flag.  Keys carry no
depth, so each key's children are computed once per call.  Every basis
whose patterns have length at most 3 is counted on canonical keys; a
basis with a length-4 pattern stays on the raw masks, since its pairs
are formed from individual seen values.  At n = 12, {201, 210} has 214
canonical states over depths 1 to 11, 54 at the peak, against 19,977
and 12,033 on raw masks that keep `seen`; {011, 201} and {010, 100,
120, 210} have 1 + d(d - 1)/2 at depth d, as many as the labels of
their hand-built rule systems, and all three count to n = 30 in about
40 ms.

Demotion.  A seen value matters only through the bans it can still
cause.  Let F be the free values: the placed values that are not
banned, and the tail when its flag is clear.  A rule (c, ra, rv) bans
through a seen value a only once a later entry v has cmp(a, v) = c - 1,
and only values w with cmp(w, a) = ra; both v and w must then be free.
So a stays live for the rule only when F meets both regions, and each
test is one bit operation over all of `seen` (`_demotion`): F meets
the values below a when a > min F, those above a when a < max F, and a
itself when a is in F.  A value live for no rule is cleared from
`seen`.  This keeps the subtree: a demoted value's bans fall outside F,
on values banned already, and F only shrinks, since a new value enters
as the tail, above every placed value, and a banned tail stays banned;
so a test that fails now fails at every later step.  Each step bans,
then demotes, then cuts (for a basis `_seen_cut` applies to), then
compacts; a demoted banned value is then dropped as inert.  {000} has
Fib(d + 1) states at depth d, and {010, 102} has 16,685 at depth 18,
the deepest level that counting to n = 20 builds, and 43,385 over
depths 0 to 18 (relabelling alone had 142,436 over the levels at
n = 20); it counts to n = 20 in about 0.7 s.

Listing.  `listing_text` lists through the same states.  Two prefixes of
one length that share a state have the same set of completions, and
lexicographic order on words is the order of their first entries, then
of what follows; so the sorted completions of a state are, for each
child value v in increasing order, v put in front of every sorted
completion of that child's state.  A forward pass steps the raw
transition of the state DP and numbers each state's children in value
order; a backward pass builds, from the last position up to the root,
one text block per state holding its completions, a child's block
taking its digit with one bytes.replace of every newline.
Python-level work then grows with the transitions of the DP, not with
the number of words, and only the blocks of two adjacent depths are
alive at once.  A value is one character only while it is a digit, that
is for n <= 10; past that, and for a basis with a pattern of length 5 or
more, `listing_text` returns None, and the listing comes from
`list_avoiders`.

Iterative walk.  A pattern p of length k >= 5 needs the prefix itself,
so `count_sequence` counts any basis holding one with `_walk`, depth
first on an explicit stack; the walk also lists past n = 10.  It treats
a length-4 pattern like a longer one, without pairs, which keeps it a
check on the pair states.  Its nodes carry the same banned and seen
masks.  On top of the closed-form bans, each node bans the values that
would finish an occurrence of p whose first k - 1 entries end at the
node's last entry; a matcher anchored at that entry finds them once per
node, not once per child, and stops a branch as soon as every value it
could still ban is banned already.  p[:-1] cannot end at the new entry
when `seen` holds no earlier value below, equal to or above it that
p[:-1] needs, which skips the search on most nodes of thin trees.  The
leaves are the unbanned values at the last position, counted with one
popcount per parent.  The same walk lists avoiders in lexicographic
order.  Nothing recurses, so the depth is bounded by memory, not by the
interpreter's recursion limit.

>>> count_avoiders(((2, 0, 1), (2, 1, 0)), 5)
116
>>> count_sequence(((0, 1, 1), (2, 0, 1)), 5)
[1, 1, 2, 5, 15, 51]
"""

from .core import validate_pattern

# ---------- basis handling ----------


def clean_basis(basis):
    """Validate patterns and drop duplicates, keeping first-seen order."""
    seen = []
    for p in basis:
        p = tuple(p)
        validate_pattern(p)
        if p not in seen:
            seen.append(p)
    return tuple(seen)


def _cmp(a, b):
    return (a > b) - (a < b)


def _region(a, r, full):
    """{w in 0..n-1 : cmp(w, a) == r} as a mask; full covers 0..n-1, or
    every value when it is -1."""
    if r < 0:
        return (1 << a) - 1
    if r == 0:
        return 1 << a
    return full & -(2 << a)


# ---------- closed-form bans: patterns of length <= 3 ----------


def _rule(p):
    """The rule (c, ra, rv) of a length-3 pattern (x, y, z): the earlier
    values a with cmp(a, v) = c - 1 ban the values w with cmp(w, a) = ra
    and cmp(w, v) = rv - 1."""
    x, y, z = p
    return _cmp(x, y) + 1, _cmp(z, x), _cmp(z, y) + 1


def _reads(rule):
    """What a rule (c, ra, rv) reads of `seen`: "max", "min", "values"
    (individual seen values), or None when it never bans anything."""
    c, ra, rv = rule
    if ra == 0:
        return "values" if c == rv else None
    if c == 2 and ra < 0:
        return "max"
    if c == 0 and ra > 0:
        return "min"
    return "values"


def _seen_cut(basis):
    """A function that cuts `seen` down to the extremes the length-3
    rules of basis read, or None when a rule reads individual values."""
    if any(len(p) > 3 for p in basis):
        return None
    reads = {_reads(_rule(p)) for p in basis if len(p) == 3}
    if "values" in reads:
        return None
    if "max" in reads and "min" in reads:
        return lambda seen: (1 << seen.bit_length() >> 1) | (seen & -seen)
    if "max" in reads:
        return lambda seen: 1 << seen.bit_length() >> 1
    if "min" in reads:
        return lambda seen: seen & -seen
    return lambda seen: 0


def _bans(basis):
    """(start, ban) for the patterns of length <= 3 in basis.

    start is the mask of values banned before any entry; ban(v, seen) is
    the mask of values that appending v to a prefix holding the values in
    seen bans at every later position.  A ban above a value has no upper
    bound (a negative mask), so a ban mask is fixed by the values it bans
    below the tail: the values above every entry compare alike.
    """
    start = -1 if (0,) in basis else 0
    # region[c + 1] below is {w : cmp(w, v) == c}
    pairs = sorted({_cmp(y, x) + 1 for x, y in (p for p in basis if len(p) == 2)})
    triples = sorted({_rule(p) for p in basis if len(p) == 3})

    def ban(v, seen):
        at = 1 << v
        below = at - 1
        region = (below, at, -(at << 1))
        delta = 0
        for r in pairs:
            delta |= region[r]
        for c, ra, rv in triples:
            cls = seen & region[c]
            if cls:
                if ra == 0:
                    hit = cls
                elif ra < 0:
                    hit = (1 << (cls.bit_length() - 1)) - 1
                else:
                    hit = -((cls & -cls) << 1)
                delta |= hit & region[rv]
        return delta

    return start, ban


# ---------- pair bans: patterns of length 4 ----------


def _quad_rule(p):
    """The rule (c, ra, rb, wa, wb, wv) of a length-4 pattern (x, y, z, t):
    a placed pair (a, b) with cmp(a, b) = c = cmp(x, y), then v with
    cmp(a, v) = ra = cmp(x, z) and cmp(b, v) = rb = cmp(y, z), bans the w
    with cmp(w, a) = wa, cmp(w, b) = wb and cmp(w, v) = wv, the
    comparisons of t with x, y and z."""
    x, y, z, t = p
    return (_cmp(x, y), _cmp(x, z), _cmp(y, z),
            _cmp(t, x), _cmp(t, y), _cmp(t, z))


def _pair_rules(basis, n):
    """(ban, link, lone) for the length-4 patterns of basis, or
    (None, None, False) when it has none.

    The values are 0..n-1, and the bits of `seen` from n up hold the
    prefix's pairs: bit (b + 1) * n + a for a value a placed before a
    value b, kept for the classes cmp(a, b) that some rule reads.
    ban(v, seen) is the mask of values that appending v bans through the
    pairs, and link(v, seen) the mask of the pairs (a, v) it adds.  A
    prefix whose only value is v has no pairs and adds none but (v, v);
    lone says whether a rule reads that class, and when it does not, both
    calls can be skipped for such a prefix.
    """
    rules = sorted({_quad_rule(p) for p in basis if len(p) == 4})
    if not rules:
        return None, None, False
    full = (1 << n) - 1
    classes = {rule[0] for rule in rules}

    def ban(v, seen):
        pairs = seen >> n
        if not pairs:
            return 0
        delta = 0
        for c, ra, rb, wa, wb, wv in rules:
            # the rows b with cmp(b, v) = rb, row b at bit 0 of rows
            if rb < 0:
                rows, b = pairs & ((1 << v * n) - 1), 0
            elif rb == 0:
                rows, b = pairs >> v * n & full, v
            else:
                rows, b = pairs >> (v + 1) * n, v + 1
            near = _region(v, ra, full)
            while rows:
                skip = ((rows & -rows).bit_length() - 1) // n
                rows >>= skip * n
                b += skip
                cls = rows & near & _region(b, c, full)
                if cls:
                    if wa == 0:
                        hit = cls
                    elif wa < 0:
                        hit = (1 << (cls.bit_length() - 1)) - 1
                    else:
                        hit = -((cls & -cls) << 1)
                    delta |= hit & _region(b, wb, -1) & _region(v, wv, -1)
                rows >>= n
                b += 1
        return delta

    def link(v, seen):
        at = 1 << v
        keep = at - 1 if -1 in classes else 0
        if 0 in classes:
            keep |= at
        if 1 in classes:
            keep |= full & -(at << 1)
        return (seen & keep) << (v + 1) * n

    return ban, link, 0 in classes


# ---------- state DP: every pattern has length <= 4 ----------


def _count_fast(basis, n_max):
    """Level counts [|I_0|, .., |I_n_max|], n_max >= 1, from the state DP
    on canonical keys with demoted seen values, for a basis whose patterns
    have length at most 3 (count_sequence picks this engine)."""
    start, ban = _bans(basis)
    if n_max == 1:
        return [1, ~start & 1]
    counts = []
    for level in _canonical_levels(basis, n_max - 1):
        counts.append(sum(level.values()))
    # the prefixes of length n_max - 1 only pick the last entry, so they
    # are counted by their candidates, without building their keys
    below = last = 0
    for (banned, seen, width), mult in level.items():
        tail = 2 << width
        grown = banned | tail if banned >> width & 1 else banned
        mask = 2 * tail - 1
        rest = ~banned & (tail - 1)
        below += mult * rest.bit_count()
        while rest:
            bit = rest & -rest
            rest ^= bit
            last += mult * (~(grown | ban(bit.bit_length() - 1, seen)) & mask).bit_count()
    return counts + [below, last]


def _raw_children(basis, n):
    """(start, children) of the DP over raw (banned, seen) states, for a
    basis whose patterns have length at most 4 and the values 0..n-1; the
    bits of seen from n up hold the pairs.

    start is the banned mask of the empty prefix, whose seen is 0.
    children(banned, seen, depth) lists, in increasing value, the pair
    (v, key) for each candidate v of the entry after a prefix of length
    depth in that state, key being the child's state.  A child at depth
    n - 1 only picks the last entry, so it keeps no seen; otherwise seen
    is cut down to the extremes the rules read when _seen_cut applies.
    The values stay absolute, as the listing needs."""
    start, ban = _bans(basis)
    pair_ban, link, lone = _pair_rules(basis, n)
    values = (1 << n) - 1
    cut = _seen_cut(basis) or (lambda seen: seen)

    def children(banned, seen, depth):
        keep = depth < n - 2
        # candidates for entry number `depth` are 0..depth, minus banned ones
        rest = ~banned & ((2 << depth) - 1)
        out = []
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            # a prefix whose only value is v has no pairs (see lone)
            if link and (lone or seen != bit):
                key = (banned | ban(v, seen & values) | pair_ban(v, seen),
                       seen | bit | link(v, seen) if keep else 0)
            else:
                key = (banned | ban(v, seen), cut(seen | bit) if keep else 0)
            out.append((v, key))
        return out

    return start, children


def _count_raw(basis, n_max):
    """Level counts, n_max >= 1, from a forward DP over raw (banned,
    seen) states, for a basis with a length-4 pattern (count_sequence
    picks this engine): each level steps _raw_children and sums the
    prefixes per state, and the count at n_max is a popcount per state
    at depth n_max - 1, so the last level builds no keys."""
    start, children = _raw_children(basis, n_max)
    counts = [1]
    level = {(start, 0): 1}
    for depth in range(n_max - 1):
        nxt = {}
        for (banned, seen), mult in level.items():
            for _, key in children(banned, seen, depth):
                nxt[key] = nxt.get(key, 0) + mult
        level = nxt
        counts.append(sum(level.values()))
    values = (1 << n_max) - 1
    counts.append(sum(mult * (~banned & values).bit_count()
                      for (banned, _), mult in level.items()))
    return counts


def _canonical_levels(basis, n):
    """The levels at depths 0..n-1 of the DP over canonical keys, each a
    dict {(banned, seen, width): number of prefixes}, for a basis whose
    patterns have length at most 3; seen is cut by _seen_cut(basis) when
    it applies (see Canonical states above).

    Keys do not hold the depth, so the children of a key are computed
    once, the first time it is reached."""
    start, ban = _bans(basis)
    tests = _demotion(basis)
    cut = _seen_cut(basis)
    level = {(start & 1, 0, 0): 1}
    children = {}
    yield level
    for _ in range(n - 1):
        nxt = {}
        for key, mult in level.items():
            kids = children.get(key)
            if kids is None:
                kids = children[key] = _children(key, ban, tests, cut)
            for kid in kids:
                nxt[kid] = nxt.get(kid, 0) + mult
        level = nxt
        yield level


def _demotion(basis):
    """The pairs (i, j) of tests that keep a seen value a live (see
    Demotion above), one pair per rule, where test 0 is "a is below the
    largest free value", 1 "a is free" and 2 "a is above the smallest
    free value".  A rule (c, ra, rv) bans through a only for a later
    free v with cmp(a, v) = c - 1 (test c) and onto a free w with
    cmp(w, a) = ra (test 1 - ra).  A rule that never bans has no pair."""
    tests = set()
    for p in basis:
        if len(p) == 3:
            rule = c, ra, _ = _rule(p)
            if _reads(rule) is not None:
                tests.add((min(c, 1 - ra), max(c, 1 - ra)))
    return tuple(tests)


def _children(key, ban, tests, cut):
    """The canonical keys of the children of a canonical key, one per
    candidate value: ban, then demote, then cut, then compact."""
    banned, seen, width = key
    # the tail value `width` becomes placed; the new tail is width + 1
    tail = 2 << width
    grown = banned | tail if banned >> width & 1 else banned
    mask = 2 * tail - 1
    rest = ~banned & (tail - 1)
    kids = []
    while rest:
        bit = rest & -rest
        rest ^= bit
        new = (grown | ban(bit.bit_length() - 1, seen)) & mask
        free = ~new & mask
        live = 0
        if free:
            # below the largest free value, free, above the smallest
            region = ((1 << free.bit_length() - 1) - 1, free, -((free & -free) << 1))
            for i, j in tests:
                live |= region[i] & region[j]
        live &= seen | bit
        kids.append(_compact(new, cut(live) if cut else live, width + 1))
    return kids


def _compact(banned, seen, width):
    """The canonical key of the masks over the placed values 0..width-1
    and the tail value `width`: banned values not in seen are dropped, and
    of a run of values in both with no candidate between them only the
    first is kept."""
    placed = (1 << width) - 1
    held = banned & placed
    both = seen & held
    # a value in both is dropped when the values below it, down to the
    # next value in both, are all banned: the carry of held + seeds runs
    # up from each seed through the banned values above it
    seeds = both << 1 & held
    kept = placed & ~held | both & ~(held & ~(held + seeds) | seeds)
    if kept == placed:
        return banned, seen, width
    # pack the kept values one run at a time
    out_banned = out_seen = j = 0
    while kept:
        low = kept & -kept
        run = kept & ~(kept + low)
        shift = low.bit_length() - 1 - j
        out_banned |= (banned & run) >> shift
        out_seen |= (seen & run) >> shift
        j += run.bit_count()
        kept ^= run
    return out_banned | (banned >> width & 1) << j, out_seen, j


# ---------- iterative walk: any basis ----------


def _long_pattern(p):
    """Matcher data for a pattern p of length k >= 4.

    An occurrence of p ending at a later entry w is an occurrence of
    p[:-1] whose last entry plays p[k-2], plus w.  Returns (slots, to_w,
    needs): slots[j], for the k-2 entries picked from the prefix, holds
    cmp(p[j], p[k-2]), the comparisons of p[j] with p[0..j-1], and
    cmp(p[k-1], p[j]); to_w is cmp(p[k-1], p[k-2]); needs says whether
    p[:-1] needs an earlier value below, equal to or above its last one.
    """
    m = len(p) - 2
    slots = tuple((_cmp(x, p[m]), tuple(_cmp(x, y) for y in p[:j]), _cmp(p[-1], x))
                  for j, x in enumerate(p[:m]))
    needs = tuple(any(_cmp(x, p[m]) == c for x in p[:m]) for c in (-1, 0, 1))
    return slots, _cmp(p[-1], p[m]), needs


def _long_ban(prefix, v, slots, to_w, known, full):
    """Values that appending v bans at every later position through the
    occurrences of p[:-1] ending at the new entry, beyond the mask known.

    Picks prefix positions left to right on an explicit stack, comparing
    each new value with v and with the values already picked, which pins
    the standardization without computing it.  Each pick narrows the set
    of values w that would finish the occurrence; a branch stops as soon
    as that set holds nothing not already banned.
    """
    m = len(slots)
    n = len(prefix)
    found = 0
    picks = []
    regions = [_region(v, to_w, full) & ~known]
    i = 0
    while regions[0] & ~found:
        j = len(picks)
        if j == m:
            found |= regions.pop()
            i = picks.pop() + 1
            continue
        to_v, to_picked, w_rel = slots[j]
        region = regions[-1] & ~found
        stop = n - (m - j) + 1
        while i < stop:
            a = prefix[i]
            if (a > v) - (a < v) == to_v and all(
                    (a > prefix[q]) - (a < prefix[q]) == c
                    for q, c in zip(picks, to_picked)):
                narrowed = region & _region(a, w_rel, full)
                if narrowed:
                    break
            i += 1
        if i < stop:
            picks.append(i)
            regions.append(narrowed)
            i += 1
        elif picks:
            regions.pop()
            i = picks.pop() + 1
        else:
            break
    return found


def _walk(basis, n, leaves=None):
    """Level counts through depth n from a depth-first walk of the
    avoider tree; when leaves is a list, every avoider of length n is
    appended to it, in lexicographic order."""
    counts = [0] * (n + 1)
    counts[0] = 1
    if n == 0:
        if leaves is not None:
            leaves.append(())
        return counts
    full = (1 << n) - 1
    start, ban = _bans(basis)
    longs = [_long_pattern(p) for p in basis if len(p) > 3]
    prefix = []
    # one frame per position: [candidates left, banned, seen]
    stack = [[~start & 1, start, 0]]
    while stack:
        top = stack[-1]
        rest = top[0]
        depth = len(prefix)
        if depth == n - 1:
            # the last position: every candidate left is an avoider
            counts[n] += rest.bit_count()
            if leaves is not None:
                word = tuple(prefix)
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    leaves.append(word + (bit.bit_length() - 1,))
            rest = 0
        if not rest:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        bit = rest & -rest
        top[0] = rest ^ bit
        v = bit.bit_length() - 1
        seen = top[2]
        counts[depth + 1] += 1
        banned = top[1] | ban(v, seen)
        for slots, to_w, (below, equal, above) in longs:
            if ((not below or seen & (bit - 1)) and (not equal or seen & bit)
                    and (not above or seen >> (v + 1))):
                banned |= _long_ban(prefix, v, slots, to_w, banned, full)
        prefix.append(v)
        stack.append([~banned & ((4 << depth) - 1), banned, seen | bit])
    return counts


# ---------- public operations ----------


def _request(basis, n):
    """The cleaned basis and the length of its longest pattern (0 for the
    empty basis), after checking that the size n is not negative: the one
    request check of count_sequence, list_avoiders and listing_text."""
    basis = clean_basis(basis)
    if n < 0:
        raise ValueError("n must be non-negative")
    return basis, max(map(len, basis), default=0)


def count_sequence(basis, n_max):
    """[|I_0(basis)|, ..., |I_n_max(basis)|], exact.

    The one place that picks a counting engine, by the longest pattern:
    the walk for length 5 or more, else the raw-mask DP for length 4 and
    the canonical-key DP (_count_fast) below that; n_max = 0 needs no DP.
    """
    basis, longest = _request(basis, n_max)
    if longest > 4:
        return _walk(basis, n_max)
    if n_max == 0:
        return [1]
    return (_count_raw if longest == 4 else _count_fast)(basis, n_max)


def count_avoiders(basis, n):
    """The number of inversion sequences of length n avoiding every basis
    pattern, as an exact integer."""
    return count_sequence(basis, n)[n]


def list_avoiders(basis, n):
    """All members of I_n(basis) in lexicographic order.

    Candidate values are tried in increasing order at every position, so
    the output comes out sorted without a final sort.  Intended for small
    n; the result has count_avoiders(basis, n) members.
    """
    basis = _request(basis, n)[0]
    found = []
    _walk(basis, n, found)
    return found


# a newline followed by one digit, indexed by the digit's value
_NEWLINE_DIGIT = tuple(b"\n%d" % v for v in range(10))


def listing_text(basis, n):
    """The text of the listing of I_n(basis), one word per line, or None
    when a pattern has length 5 or more or n > 10 (see Listing above).

    Equal to core.render_listing(list_avoiders(basis, n)) whenever it is
    not None.

    >>> print(listing_text(((0, 1, 1), (2, 0, 1)), 3), end="")
    000
    001
    002
    010
    012
    >>> listing_text(((0, 1, 2, 3, 4),), 5) is None
    True
    """
    basis, longest = _request(basis, n)
    if n > 10 or longest > 4:
        return None
    if n == 0:
        return "\n"
    start, children = _raw_children(basis, n)
    # forward: tree[d][i] lists the (value, child index) pairs of state i
    # at depth d, in increasing value; states are numbered per depth in
    # the order they are first reached
    level = [(start, 0)]
    tree = []
    for depth in range(n - 1):
        index = {}
        tree.append([[(v, index.setdefault(key, len(index)))
                      for v, key in children(banned, seen, depth)]
                     for banned, seen in level])
        level = list(index)
    # backward: a block holds a newline before each of its lines
    digits = _NEWLINE_DIGIT[:n]
    blocks = [b"".join([d for v, d in enumerate(digits) if not banned >> v & 1])
              for banned, _ in level]
    for children in reversed(tree):
        blocks = [b"".join([blocks[j].replace(b"\n", digits[v]) for v, j in out])
                  for out in children]
    block = blocks.pop()
    if not block:
        return ""
    text = str(memoryview(block)[1:], "ascii")
    del block  # so that the bytes are freed before the last copy
    return text + "\n"
