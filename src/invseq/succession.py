"""Succession-rule systems and exact dynamic programming over their states.

A succession system rewrites state labels: starting from an axiom label,
each state produces a finite multiset of successor states, and the number
of length-n production paths landing in accepting states counts the
objects of size n.  Three systems are built in.  In all three, an
accepting state at depth n stands for inversion sequences e of length n,
and its k is n - max e (0 for the empty sequence).

``201-210``
    States (k, ell, c): ell records whether a little value exists, and c
    whether we are still committed to placing entries at a promised
    little value.  Only states with c = F describe completed sequences,
    so those are the accepting ones, and on them ell says whether e has
    a descent e_i > e_(i+1).  Counts |I_n(201, 210)|.

``011-201`` and ``010-100-120-210``
    States (k, ell), every one accepting.  ell is read off the oracle's
    canonical keys (banned, seen, width), not off e itself: for
    {010, 100, 120, 210} the key (0, 1 << ell, k + ell) is (k, ell) when
    k >= 1; for {011, 201} the key (1 << (ell + 1), 1 << (ell + 1) | 1,
    k + ell + 1) is (k, ell) and (0, 1, k) is (k, 0); each root (0, 0, 0)
    is the axiom (0, 0).  Under these maps the children of a key are the
    successors of its label.  The two systems produce identical counting
    sequences as far as anyone has checked, which is why they share a
    module.

These readings are checked, not proved: tests/test_oracle.py checks the
key maps for every label with k + ell <= 40, and tests/test_succession.py
that through n = 9 the accepting states counted by (k, ell) for 201-210,
and by k for the other two, equal the avoiders counted by
(n - max e, descent) and by n - max e.

At the API a level vector is a plain dict mapping states to positive
integer counts; the depth is whatever number of steps produced it.
step() applies the rules literally and is the reference.  The counting
functions instead step a dense level.  For 201-210 that is three
k-indexed lists (a, T, r), each of length d + 1 at depth d, made from
the slices (a, b, c) of the counts of the states (k,F,F), (k,T,F) and
(k,T,T): T is the suffix sums of a + b, so T[0] is the accepted count,
and r = T - b - c.  Decoding takes v = T - r and the differences t of T,
then b = t - a and c = v - b.  A step leaves r as it was, shifted by one
cell, so on every level stepped from the axiom r is the counting
sequence so far, reversed; a step costs four big-integer passes per k,
two suffix passes and the two additions that form 2T - r, and has an
exact inverse, which halves a difference and checks that it is even (see
_fast_step_201_210 and _back_201_210).  For the 2-parameter systems it
is packed, (W, cols): cols[ell] holds the counts of (k, ell) for every k
as the W-bit lanes of one int, lane k at bit W * k, and m = len(cols)
exceeds k + ell for every state with a count (m is the depth plus one
along the memo's route).  Every sum the two kernels form is then a
whole-word add or a shift by one lane: the suffix sums over ell are the
running sums R[ell] = cols[ell] + cols[ell + 1] + ..., the 011-201
anti-diagonal sums are dg = cols[ell] + (dg >> W), the 010-100-120-210
row sums are R[0] >> (W * ell), and the total T of the level is R[0] %
(2^W - 1), the sum of R[0]'s lanes.  Before a step the level is widened
when W < T.bit_length() + m.bit_length() + 1: repacked, each lane's
bytes padded with zero bytes, to that bound plus 64 bits, rounded up to
a multiple of 8, so that one repacking serves many depths.  Then no lane
ever carries into the next.  A state (k, ell) has k + ell + 1 <= m
children, so the level a step makes totals at most mT; every lane a step
forms is a sum of counts of the input level or of that level, so it is
at most mT < 2^(W - 1), and R[0] % (2^W - 1) reads the next total
exactly.  201-210 stays dense: its cells average about 1170 bits at
depth 700, against about 130 for the 2-parameter systems at depth 120,
so its four passes per k cost their digits, not the int objects, and
packing them would save nothing.

Each RuleSystem carries its dense kernel, which turns the ranged
productions into partial sums so one depth costs time linear in the
number of cells (for the packed levels, linear in the number of
columns, each a whole-word add), its conversions between dense and
dict levels and its renderer of a dense level as text: to_dense,
to_dict and render are the only code that reads or writes lanes, and,
with the census route's decoder (_decode_201_210), the only code that
reads the 201-210 layout.
state_profile() converts once, at the end, and profile_text() renders
the level without a dict.

Each RuleSystem keeps a memo, the per-process prefix of its own DP
(see ``invseq.prefix``), whose route is the dense axiom level and the
kernel: rule_counting_sequence(), count_via_rules(), state_profile()
and profile_text() read it, and extend it when a request is deeper.
state_profile() and profile_text() hand the memo the system's inverse
step, back, so a level below the memo's depth is stepped back from the
stored level above it when that is nearer than the checkpoint below.
The census checks step the dense 201-210 kernel and the (k,F,F) step
through prefixes of their own (``invseq.checks``), never through the
memo.

>>> count_via_rules("201-210", 7)
3720
>>> count_via_rules("011-201", 5)
51
"""

from itertools import accumulate, islice, repeat, zip_longest
from operator import add, and_, rshift, sub

from .prefix import shared

# ---------- the three rule systems ----------


class RuleSystem:
    """A named succession system: axiom, productions, acceptance, and the
    dense form the counting functions step.

    basis is the tuple of patterns whose avoiders the system counts, so
    that other routes (the oracle, pattern matching) can count them too.

    kernel(level) takes a dense level to the next depth and also returns
    the accepted count of the level it was given, which falls out of its
    partial sums; a dense level is three k-indexed lists (a, T, r) for
    201-210 and packed columns (W, cols) for the 2-parameter systems
    (see the module docstring).  back(level), for 201-210, is the exact
    inverse of kernel, the level one depth shallower, and raises
    ArithmeticError on a level no step produces; it is None for the
    2-parameter systems (011-201's kernel is not injective), whose
    levels are only ever stepped forward.  to_dense(level) makes the
    dense level of a dict level, and raises ValueError on a state
    (k,F,T), which the 201-210 rules never reach, and on a negative
    count of a 2-parameter state, which no lane holds; to_dict(level)
    makes the dict back, without zero counts.
    render(level) is the text of a dense level: one "state count" line
    per state with a nonzero count, in sorted state order, each state as
    state_str writes it.

    start is the dense axiom level.  memo is the per-process prefix of
    the system's levels, kept under its name (see ``invseq.prefix``): its
    route starts at start and steps with kernel, as the system holds them
    at call time, so a count through depth n steps level n too.  The
    kernels never mutate a level.
    """

    def __init__(self, name, basis, axiom, successors, accept, state_str,
                 kernel, to_dense, to_dict, render, back=None):
        self.name = name
        self.basis = basis
        self.axiom = axiom
        self.successors = successors
        self.accept = accept
        self.state_str = state_str
        self.kernel = kernel
        self.to_dense = to_dense
        self.to_dict = to_dict
        self.render = render
        self.back = back
        self.start = to_dense({axiom: 1})

    @property
    def memo(self):
        return shared(self.name, self.start, self.kernel)


def _successors_201_210(state):
    """Production multiset for one (k, ell, c) state, as (state, mult) pairs."""
    k, ell, c = state
    if c and not ell:
        raise ValueError("state (%d,F,T) is unreachable: a commitment "
                         "presupposes a little value" % k)
    if not ell:
        # no little value yet: grow k, set it to some i in 1..k,
        # or commit to one of the k - i + 1 admissible little values
        out = [((k + 1, False, False), 1)]
        for i in range(1, k + 1):
            out.append(((i, False, False), 1))
            out.append(((i, True, True), k - i + 1))
    elif not c:
        # little value exists, commitment fulfilled; the doubled first rule
        # covers the two ways of placing a new big entry (at or above the
        # old maximum) that keep the same little value
        out = [((k + 1, True, False), 2)]
        for i in range(1, k + 1):
            out.append(((i, True, False), 1))
            out.append(((i, True, True), k - i + 1))
    else:
        # committed: either keep stalling or place the promised entry now
        out = [((k + 1, True, True), 1), ((k + 1, True, False), 1)]
        for i in range(1, k + 1):
            out.append(((i, True, True), 1))
    return out


def _successors_011_201(state):
    k, ell = state
    out = [((k + 1, 0), 1)]
    out += [((i, ell + k - i), 1) for i in range(1, k + 1)]
    out += [((k + 1, i), 1) for i in range(ell)]
    return out


def _successors_010_100_120_210(state):
    k, ell = state
    out = [((k + 1, ell), 1)]
    out += [((k + 1, i), 1) for i in range(ell)]
    out += [((i, k - i), 1) for i in range(1, k + 1)]
    return out


def _str_3(state):
    k, ell, c = state
    return "(%d,%s,%s)" % (k, "T" if ell else "F", "T" if c else "F")


def _str_2(state):
    return "(%d,%d)" % state


# ---------- literal stepping ----------


def step(system, level):
    """Apply every production once: one depth of the generating tree.

    level maps states to counts; the result does the same, with zero-count
    states omitted.
    """
    nxt = {}
    for state, m in level.items():
        for target, mult in system.successors(state):
            nxt[target] = nxt.get(target, 0) + m * mult
    return {s: c for s, c in nxt.items() if c}


# ---------- dense kernels ----------


def _suffix_sums(xs):
    """S with S[j] = xs[j] + xs[j+1] + ..., as long as xs."""
    out = list(accumulate(reversed(xs)))
    out.reverse()
    return out


def _step_ff(a):
    """Advance the 201-210 slice a[k] of states (k,F,F) one depth, and
    return the slice's sum too.

    The slice is closed: (k,F,F) produces (k+1,F,F) and (i,F,F) for
    1 <= i <= k, and no other state produces (k,F,F), so new_a[j] is the
    suffix sum of a from j - 1, new_a[0] is 0 and the sum of a is
    new_a[1].
    """
    sums = _suffix_sums(a)
    return [0, *sums], sums[0]


def _fast_step_201_210(level):
    """Advance the dense 201-210 level (a, T, r) one depth (see the
    module docstring), and return the accepted count of the input level,
    T[0], too.

    With S the suffix sums, S(x)[k] = x[k] + x[k+1] + ..., and
    y = S(2T - r),

        new_a = [0, *S(a)]
        new_T = [y[0], *y]
        new_r = [y[0], *r]

    so a depth costs two suffix passes and two additions per k, and
    new_r adds nothing: its ints are those of the input level.  new_a is
    the (k,F,F) slice stepped alone (see _step_ff).

    Why: on the slices (a, b, c), with sa, sb and sc their suffix sums
    and v = b + c = T - r, the ranged productions (i, ...) for i = 1..k
    turn into suffix sums over k and the triangular multiplicities
    k - i + 1 into the suffix sums of sa + sb, and folding in the
    productions that raise k leaves, for j >= 1,

        new_a[j] = sa[j-1]
        new_b[j] = b[j-1] + sb[j-1] + c[j-1]
        new_c[j] = sc[j-1] + S(T)[j]

    with new_b[0] = new_c[0] = 0.  Since sa + sb = S(a + b) = T,
    new_a + new_b = [0, *(T + v)], whose suffix sums are [y[0], *y] as
    T + v = 2T - r; and new_v = new_b + new_c has new_v[0] = 0 and
    new_v[k + 1] = v[k] + S(v)[k] + S(T)[k + 1] = v[k] + y[k] - T[k],
    since S(T)[k] = T[k] + S(T)[k + 1].  So new_r[k + 1] =
    new_T[k + 1] - new_v[k + 1] = T[k] - v[k] = r[k], and new_r[0] =
    new_T[0] = y[0].  This holds for every dense level, not only the
    reachable ones.  From the axiom, where r = T = [1], the count of
    each level is new_T[0] = new_r[0], so at depth d r is the counting
    sequence c(d), c(d - 1), ..., c(0); the step still reads only the
    level.
    """
    a, t, r = level
    y = _suffix_sums([*map(sub, map(add, t, t), r)])
    return (_step_ff(a)[0], [y[0], *y], [y[0], *r]), t[0]


def _back_201_210(level):
    """The dense 201-210 level that _fast_step_201_210 steps to level,
    one depth shallower: the exact inverse of the step.

    r is new_r[1:]; 2T - r is the differences of new_T[1:] = y, so 2T
    is those differences plus r, halved; a is the differences of
    new_a[1:] = S(a).  A step leaves new_a[0] = 0 and new_T[0] =
    new_T[1] = new_r[0], and forms 2T even; a level that breaks any of
    these raises ArithmeticError: no step produced it.  The checks are
    complete: the level they pass is stepped to the given one.
    """
    new_a, new_t, new_r = level
    twice = [*map(add, _differences(new_t[1:]), islice(new_r, 1, None))]
    if (new_a[0] or new_t[:2] != [new_r[0]] * 2
            or any(map(and_, twice, repeat(1)))):
        raise ArithmeticError("no 201-210 step produces this level")
    return (_differences(new_a[1:]), [*map(rshift, twice, repeat(1))],
            new_r[1:])


def _differences(sums):
    """xs with sums[j] = xs[j] + xs[j+1] + ..., as long as sums: the
    inverse of _suffix_sums."""
    return [*map(sub, sums, islice(sums, 1, None)), sums[-1]]


_SLACK = 64     # bits a widened lane gets beyond what its next step needs


def _lane_width(total, m):
    """The lane width a packed level of that total over m columns is
    packed or widened to: the least multiple of 8 that is at least
    total.bit_length() + m.bit_length() + 1 + _SLACK (see the module
    docstring)."""
    return -(-(total.bit_length() + m.bit_length() + 1 + _SLACK) // 8) * 8


def _lane_bytes(col, w):
    """The w-bit lanes of a column as little-endian bytes, lane 0 first,
    through its last nonzero lane."""
    n = w // 8
    data = col.to_bytes(-(-col.bit_length() // w) * n, "little")
    return [data[i:i + n] for i in range(0, len(data), n)]


def _lanes(col, w):
    """The w-bit lanes of a column as ints (see _lane_bytes)."""
    return [int.from_bytes(lane, "little") for lane in _lane_bytes(col, w)]


def _prepared(level):
    """(W, cols, R, total) for one step of a packed level: R[ell] =
    cols[ell] + cols[ell + 1] + ..., a fresh list, and total the count
    of the level, which is R[0] % (2^W - 1), the sum of R[0]'s lanes.
    When W < total.bit_length() + len(cols).bit_length() + 1 the level
    is repacked first, at _lane_width(total, len(cols)) bits a lane,
    each lane's bytes padded with zero bytes."""
    w, cols = level
    sums = _suffix_sums(cols)
    total = sums[0] % ((1 << w) - 1)
    m = len(cols)
    if w < total.bit_length() + m.bit_length() + 1:
        wide = _lane_width(total, m)
        pad = bytes((wide - w) // 8)
        cols = [int.from_bytes(pad.join(_lane_bytes(col, w)), "little")
                for col in cols]
        w = wide
        sums = _suffix_sums(cols)
    return w, cols, sums, total


def _fast_step_011_201(level):
    """Advance the packed 011-201 level (W, cols) one depth (see the
    module docstring).

    A state (k, ell) feeds (k + 1, 0), every (k + 1, i) with i < ell, and
    along its anti-diagonal every (i, ell + k - i) with 1 <= i <= k.  With
    R[ell] = cols[ell] + cols[ell + 1] + ..., whose lane k is the suffix
    sum over ell of row k, and the anti-diagonal sums dg[ell] =
    cols[ell] + (dg[ell - 1] >> W), whose lane k sums the counts of
    (k + j, ell - j) for j >= 0,

        new[ell] = (R[ell + 1] + (dg[ell] >> W)) << W   (plus R[0] << W
                                                          when ell = 0)

    where >> W moves lane k + 1 to k and << W lane k to k + 1, which
    leaves lane 0 empty.  Also returns the input level's total.
    """
    w, cols, sums, total = _prepared(level)
    sums.append(0)
    new = []
    diag = 0                       # dg[ell - 1] >> W
    for col, tail in zip(cols, islice(sums, 1, None)):
        diag = (col + diag) >> w
        new.append((tail + diag) << w)
    new[0] += sums[0] << w
    new.append(0)
    return (w, new), total


def _fast_step_010_100_120_210(level):
    """Advance the packed 010-100-120-210 level (W, cols) one depth (see
    the module docstring).

    A state (k, ell) feeds (k + 1, i) for every i <= ell, and (i, k - i)
    for 1 <= i <= k, forgetting ell.  With R[ell] = cols[ell] +
    cols[ell + 1] + ..., whose lane k is the suffix sum over ell of row
    k, so that lane k of R[0] is the sum of row k,

        new[ell] = (R[ell] + (R[0] >> (W * (ell + 1)))) << W

    where << W moves lane k to k + 1, which leaves lane 0 empty.  Also
    returns the input level's total.
    """
    w, cols, sums, total = _prepared(level)
    rows = sums[0]
    new = [(tail + (rows >> (w * shift))) << w
           for shift, tail in enumerate(sums, 1)]
    new.append(0)
    return (w, new), total


# ---------- dense <-> dict conversions ----------


def _encode_201_210(slices):
    """The dense 201-210 level (a, T, r) of the slices (a, b, c): T the
    suffix sums of a + b, and r = T - b - c."""
    a, b, c = slices
    t = _suffix_sums([*map(add, a, b)])
    return a, t, [*map(sub, map(sub, t, b), c)]


def _decode_201_210(level):
    """The slices (a, b, c) of the dense 201-210 level (a, T, r): b the
    differences of T less a, and c = T - r - b."""
    a, t, r = level
    b = [*map(sub, _differences(t), a)]
    return a, b, [*map(sub, map(sub, t, r), b)]


def _dense_201_210(level):
    top = max((s[0] for s in level), default=0)
    a = [0] * (top + 1)
    b = [0] * (top + 1)
    c = [0] * (top + 1)
    for (k, ell, com), m in level.items():
        if com and not ell:
            raise ValueError("state (%d,F,T) is unreachable" % k)
        (c if com else (b if ell else a))[k] = m
    return _encode_201_210((a, b, c))


def _dict_201_210(level):
    out = {}
    for flags, counts in zip(((False, False), (True, False), (True, True)),
                             _decode_201_210(level)):
        for k, m in enumerate(counts):
            if m:
                out[(k,) + flags] = m
    return out


def _columns_from_dict(level):
    size = max((k + ell for k, ell in level), default=0) + 1
    lanes = [[0] * (size - ell) for ell in range(size)]
    for (k, ell), m in level.items():
        if m < 0:
            raise ValueError("state (%d,%d) has a negative count" % (k, ell))
        lanes[ell][k] = m
    w = _lane_width(sum(level.values()), size)
    n = w // 8
    return w, [int.from_bytes(b"".join([m.to_bytes(n, "little") for m in col]),
                              "little") for col in lanes]


def _columns_to_dict(level):
    w, cols = level
    return {(k, ell): m for ell, col in enumerate(cols)
            for k, m in enumerate(_lanes(col, w)) if m}


def _render_201_210(level):
    """Per k, the states (k,F,F), (k,T,F), (k,T,T), the sorted order of
    the reachable states."""
    return "".join(["(%d,%s) %d\n" % (k, flags, m)
                    for k, cells in enumerate(zip(*_decode_201_210(level)))
                    for flags, m in zip(("F,F", "T,F", "T,T"), cells) if m])


def _render_columns(level):
    """Per k, the states (k, ell) with ell ascending: lane k of every
    column."""
    w, cols = level
    rows = zip_longest(*[_lanes(col, w) for col in cols], fillvalue=0)
    return "".join(["(%d,%d) %d\n" % (k, ell, m)
                    for k, row in enumerate(rows)
                    for ell, m in enumerate(row) if m])


def _accept_all(state):
    return True


def _accept_uncommitted(state):
    return not state[2]


SYSTEMS = {
    "201-210": RuleSystem(
        "201-210", ((2, 0, 1), (2, 1, 0)),
        (0, False, False), _successors_201_210,
        _accept_uncommitted, _str_3, _fast_step_201_210,
        _dense_201_210, _dict_201_210, _render_201_210, _back_201_210),
    "011-201": RuleSystem(
        "011-201", ((0, 1, 1), (2, 0, 1)),
        (0, 0), _successors_011_201, _accept_all, _str_2, _fast_step_011_201,
        _columns_from_dict, _columns_to_dict, _render_columns),
    "010-100-120-210": RuleSystem(
        "010-100-120-210", ((0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0)),
        (0, 0), _successors_010_100_120_210,
        _accept_all, _str_2, _fast_step_010_100_120_210,
        _columns_from_dict, _columns_to_dict, _render_columns),
}


def get_system(system_id):
    if system_id not in SYSTEMS:
        raise ValueError("unknown succession system %r (have: %s)"
                         % (system_id, ", ".join(sorted(SYSTEMS))))
    return SYSTEMS[system_id]


# ---------- counting ----------


def rule_counting_sequence(system_id, n_max):
    """[count at depth 0, ..., count at depth n_max] for one system,
    summing accepted states at every level of the DP.

    The list is a fresh copy of the system's memo, extended first if it
    is shorter (see RuleSystem).
    """
    return get_system(system_id).memo.counts(n_max)


def count_via_rules(system_id, n):
    """Number of accepted depth-n states, counted with multiplicity: the
    size of the class the system enumerates."""
    return get_system(system_id).memo.count(n)


def state_profile(system_id, n):
    """The full depth-n level vector, as a dict from state to count,
    always built afresh from the memo's level (see ``invseq.prefix``)."""
    system = get_system(system_id)
    return system.to_dict(system.memo.level(n, system.back))


def profile_text(system_id, n):
    """The depth-n census as text: one "state count" line per state of
    state_profile(system_id, n), in sorted state order, rendered straight
    from the memo's dense level."""
    system = get_system(system_id)
    return system.render(system.memo.level(n, system.back))


# ---------- diagram output ----------


def emit_diagram(system_id, depth):
    """The first `depth` levels of the generating tree in DOT format.

    Nodes are (level, state) pairs carrying the state count at that level;
    edges carry the production multiplicity as a mult attribute when it
    exceeds one.  Meant for eyeballing small depths, not for plotting the
    DP itself.
    """
    system = get_system(system_id)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    levels = [{system.axiom: 1}]
    for _ in range(depth):
        levels.append(step(system, levels[-1]))

    def node_id(d, state):
        return '"L%d %s"' % (d, system.state_str(state))

    lines = ["digraph \"%s\" {" % system.name, "  rankdir=TB;",
             "  node [shape=box];"]
    for d, level in enumerate(levels):
        for state in sorted(level):
            lines.append("  %s [label=\"%s\", count=%d];"
                         % (node_id(d, state), system.state_str(state),
                            level[state]))
    for d, level in enumerate(levels[:-1]):
        for state in sorted(level):
            edges = {}
            for target, mult in system.successors(state):
                edges[target] = edges.get(target, 0) + mult
            for target in sorted(edges):
                mult = edges[target]
                attr = " [mult=%d]" % mult if mult > 1 else ""
                lines.append("  %s -> %s%s;"
                             % (node_id(d, state), node_id(d + 1, target), attr))
    lines.append("}")
    return "\n".join(lines) + "\n"
