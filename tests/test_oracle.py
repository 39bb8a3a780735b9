import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from invseq.core import (
    avoids,
    contains,
    is_valid_pattern,
    render_listing,
    structure_check_201_210,
)
from invseq.oracle import (
    _bans,
    _canonical_levels,
    _children,
    _demotion,
    _reads,
    _rule,
    _seen_cut,
    _walk,
    clean_basis,
    count_avoiders,
    count_sequence,
    list_avoiders,
    listing_text,
)
from invseq.series import CUBIC_010_102, relation_residual
from invseq.succession import SYSTEMS, get_system, rule_counting_sequence

B_201_210 = ((2, 0, 1), (2, 1, 0))

# every valid length-3 pattern; there are 13
PATTERNS_3 = [p for p in itertools.product(range(3), repeat=3)
              if is_valid_pattern(p)]

# every valid pattern of length 1 to 4: 1 + 3 + 13 + 75
PATTERNS_1_4 = [p for k in range(1, 5) for p in itertools.product(range(k), repeat=k)
                if is_valid_pattern(p)]
PATTERNS_1_3 = [p for p in PATTERNS_1_4 if len(p) <= 3]
PATTERNS_4 = [p for p in PATTERNS_1_4 if len(p) == 4]


def all_inversion_sequences(n):
    return itertools.product(*[range(i + 1) for i in range(n)])


def test_patterns_3_census():
    assert len(PATTERNS_3) == 13
    assert len(PATTERNS_1_4) == 92


def test_count_avoiders_pinned():
    assert count_avoiders(B_201_210, 5) == 116
    assert count_avoiders(((0, 1, 1), (2, 0, 1)), 5) == 51
    assert count_avoiders(B_201_210, 0) == 1
    assert count_avoiders(((0, 1, 0),), 0) == 1
    assert count_avoiders((), 4) == 24


def test_count_sequence_pinned():
    assert count_sequence(B_201_210, 7) == [1, 1, 2, 6, 24, 116, 632, 3720]
    assert count_sequence(((0, 1, 0), (1, 0, 2)), 3) == [1, 1, 2, 5]
    assert count_sequence((), 3) == [1, 1, 2, 6]


def test_count_sequence_distinct_entries():
    # avoiding 00 forces e = 012...(n-1), so exactly one avoider per length
    assert count_sequence(((0, 0),), 5) == [1, 1, 1, 1, 1, 1]


def test_list_avoiders_pinned():
    assert list_avoiders(B_201_210, 2) == [(0, 0), (0, 1)]
    assert list_avoiders(B_201_210, 3) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    assert list_avoiders(((0,),), 1) == []
    assert list_avoiders(B_201_210, 0) == [()]


def test_list_avoiders_properties():
    for basis in (B_201_210, ((0, 1, 0),), ((1, 0),)):
        for n in range(6):
            out = list_avoiders(basis, n)
            assert out == sorted(out)
            assert len(set(out)) == len(out)
            assert all(avoids(e, basis) for e in out)
            assert len(out) == count_avoiders(basis, n)


def test_clean_basis():
    assert clean_basis(((1, 0), (1, 0), (0, 1))) == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        clean_basis(((2, 0, 2),))
    with pytest.raises(ValueError):
        clean_basis(((),))


def test_catalan_for_single_descent_pattern():
    assert count_sequence(((1, 0),), 6) == [1, 1, 2, 5, 14, 42, 132]


def test_generic_path_for_length_4_pattern():
    # a length-4 pattern goes through the pair states; check against filtering
    basis = ((0, 1, 0, 2),)
    counts = count_sequence(basis, 6)
    for n in range(7):
        brute = sum(1 for e in all_inversion_sequences(n) if avoids(e, basis))
        assert counts[n] == brute


def test_structure_count_agreement():
    counts = count_sequence(B_201_210, 6)
    for n in range(7):
        assert counts[n] == sum(
            1 for e in all_inversion_sequences(n) if structure_check_201_210(e))


def test_pruning_soundness_exhaustive():
    """Backtracking counts match generate-then-filter for every 1- and
    2-element basis of length-3 patterns, through n = 7."""
    n_max = 7
    # mask of contained patterns per sequence, computed once
    by_length = []
    for n in range(n_max + 1):
        masks = []
        for e in all_inversion_sequences(n):
            m = 0
            for b, p in enumerate(PATTERNS_3):
                if contains(e, p):
                    m |= 1 << b
            masks.append(m)
        by_length.append(masks)

    bases = [(i,) for i in range(13)]
    bases += [(i, j) for i in range(13) for j in range(i + 1, 13)]
    assert len(bases) == 13 + 78
    for ids in bases:
        basis = tuple(PATTERNS_3[i] for i in ids)
        sel = 0
        for i in ids:
            sel |= 1 << i
        expected = [sum(1 for m in masks if not (m & sel))
                    for masks in by_length]
        assert count_sequence(basis, n_max) == expected, basis


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fast_walk_matches_generic_walk(data):
    """The state DP and the walk, with its anchored search for length-4
    patterns, are two implementations of the same count."""
    k = data.draw(st.integers(min_value=1, max_value=3))
    pool = PATTERNS_3 + PATTERNS_4 + [(0, 1), (1, 0), (0, 0)]
    basis = tuple(data.draw(st.permutations(pool))[:k])
    n_max = data.draw(st.integers(min_value=0, max_value=6))
    assert count_sequence(basis, n_max) == _walk(clean_basis(basis), n_max)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(PATTERNS_1_4), max_size=3),
       st.integers(min_value=0, max_value=6))
def test_oracle_matches_generate_and_filter(basis, n):
    """count_sequence and list_avoiders against filtering every inversion
    sequence with core.avoids, which shares no ban logic with the walks."""
    words = [[e for e in all_inversion_sequences(m) if avoids(e, basis)]
             for m in range(n + 1)]
    assert count_sequence(basis, n) == [len(w) for w in words]
    assert list_avoiders(basis, n) == words[n]


def test_cubic_fits_010_102_to_16_conjecture_evidence():
    """Evidence, not a proof: the conjectured cubic for {010, 102} fits
    brute-force counts through n = 16."""
    counts = count_sequence(((0, 1, 0), (1, 0, 2)), 16)
    assert relation_residual(CUBIC_010_102, counts) is None


def test_cubic_fits_010_102_to_20_conjecture_evidence():
    """Evidence, not a proof: the conjectured cubic for {010, 102} fits
    the counts of the canonical route through n = 20."""
    counts = count_sequence(((0, 1, 0), (1, 0, 2)), 20)
    assert relation_residual(CUBIC_010_102, counts) is None


def test_oracle_matches_rules_through_13():
    for system_id in SYSTEMS:
        basis = get_system(system_id).basis
        assert count_sequence(basis, 13) == rule_counting_sequence(system_id, 13), \
            system_id


# ---------- canonical states: the rule table and the projected route ----------

# what the rule of each length-3 pattern reads of `seen` (see _bans)
READS = {
    "000": "values", "001": "values", "010": "values", "011": "min",
    "012": "min", "021": "min", "100": "max", "101": "values",
    "102": "values", "110": "values", "120": "values", "201": "max",
    "210": "max",
}

# patterns whose rules read no individual seen value: every pattern of
# length 1 or 2, and the length-3 patterns that read an extreme
PROJECTABLE = [p for p in PATTERNS_1_3
               if len(p) < 3 or READS["".join(map(str, p))] != "values"]


def test_rule_table():
    assert sorted(READS) == sorted("".join(map(str, p)) for p in PATTERNS_3)
    for word, reads in READS.items():
        assert _reads(_rule(_basis(word)[0])) == reads, word
    # a rule with ra = 0 and c != rv never bans; no pattern has one,
    # since ra = 0 means z = x and then cmp(z, y) = cmp(x, y)
    rules = itertools.product(range(3), (-1, 0, 1), range(3))
    assert {r for r in rules if _reads(r) is None} == {
        (c, 0, rv) for c in range(3) for rv in range(3) if c != rv}
    assert all(_reads(_rule(p)) is not None for p in PATTERNS_3)


@pytest.mark.parametrize("basis, reads", [
    ("201,210", "max"), ("100", "max"), ("012", "min"), ("021", "min"),
    ("011,012", "min"), ("011,201", "both"), ("021,100", "both"),
    ("01", "nothing"), ("0,10", "nothing"),
    ("010,102", "values"), ("000", "values"), ("101", "values"),
    ("010,100,120,210", "values"), ("011,102", "values"),
])
def test_seen_cut_per_basis(basis, reads):
    """What the cut keeps of `seen`: the maximum, the minimum, both or
    nothing; a "values" basis has no cut and keeps what demotion leaves."""
    cut = _seen_cut(_basis(basis))
    if reads == "values":
        assert cut is None
        return
    kept = {"max": 0b100000, "min": 0b10, "both": 0b100010, "nothing": 0}
    assert cut(0b101110) == kept[reads]
    assert cut(0) == 0


@pytest.mark.parametrize("p", PATTERNS_3)
def test_bans_read_only_what_the_table_says(p):
    """Every ban of a pattern that reads an extreme is unchanged when
    `seen` is cut down to it; for a pattern that reads individual values,
    keeping both extremes is not enough."""
    n = 7
    _, ban = _bans((p,))
    both = _seen_cut(((0, 1, 1), (2, 0, 1)))
    cut = _seen_cut((p,)) or both
    same = all(ban(v, seen) == ban(v, cut(seen))
               for v in range(n) for seen in range(1 << n))
    assert same == (READS["".join(map(str, p))] != "values")


@pytest.mark.parametrize("basis", ["012", "021", "011,012"])
def test_min_only_bases_match_the_walk(basis):
    """Bases whose key keeps only the minimum of `seen`, so that no seen
    bit marks the top of the placed values."""
    basis = _basis(basis)
    for n in range(10):
        assert count_sequence(basis, n) == _walk(basis, n), n


def test_canonical_route_exhaustive_pairs():
    """Every basis of one or two projectable patterns against the walk
    through n = 9.  {011, 210} and {012, 100} are the pairs that first
    differ, at n = 8, when banned extremes are merged across an available
    value."""
    bases = [b for k in (1, 2) for b in itertools.combinations(PROJECTABLE, k)]
    assert len(bases) == 10 + 45
    for basis in bases:
        assert count_sequence(basis, 9) == _walk(basis, 9), basis


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(PROJECTABLE), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=10))
def test_canonical_route_matches_the_walk(basis, n):
    assert _seen_cut(basis) is not None
    assert count_sequence(basis, n) == _walk(clean_basis(basis), n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PROJECTABLE), max_size=3),
       st.integers(min_value=0, max_value=7))
def test_canonical_route_matches_generate_and_filter(basis, n):
    assert _seen_cut(basis) is not None
    assert count_sequence(basis, n) == [
        sum(1 for e in all_inversion_sequences(m) if avoids(e, basis))
        for m in range(n + 1)]


@pytest.mark.parametrize("system_id", ["201-210", "011-201", "010-100-120-210"])
def test_canonical_route_reaches_n_30_evidence(system_id):
    """Evidence, not a proof: the oracle's canonical route agrees with
    the rule system through n = 30 (the raw masks took seconds by n = 13
    and the projection alone 12 s at n = 22 on {011, 201})."""
    basis = get_system(system_id).basis
    assert count_sequence(basis, 30) == rule_counting_sequence(system_id, 30)


def test_canonical_levels_of_011_201_evidence():
    """Evidence, not a proof: at every depth d <= 30 the canonical level of
    {011, 201} has 1 + d(d-1)/2 states, as many as the hand-built (k, ell)
    system has labels."""
    basis = _basis("011,201")
    sizes = [len(level) for level in _canonical_levels(basis, 31)]
    assert sizes == [1 + d * (d - 1) // 2 for d in range(31)]


# ---------- demotion: every basis of patterns of length <= 3 ----------


def test_demotion_exhaustive_pairs():
    """Every basis of one or two patterns of length <= 3 (the 13 of
    length 3 and 0, 00, 01, 10), counted on canonical keys with demoted
    seen values, against the walk through n = 9."""
    bases = [b for k in (1, 2) for b in itertools.combinations(PATTERNS_1_3, k)]
    assert len(bases) == 17 + 136
    for basis in bases:
        assert count_sequence(basis, 9) == _walk(basis, 9), basis


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(PATTERNS_1_3), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=10))
def test_demotion_matches_the_walk(basis, n):
    assert count_sequence(basis, n) == _walk(clean_basis(basis), n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PATTERNS_1_3), max_size=3),
       st.integers(min_value=0, max_value=7))
def test_demotion_matches_generate_and_filter(basis, n):
    assert count_sequence(basis, n) == [
        sum(1 for e in all_inversion_sequences(m) if avoids(e, basis))
        for m in range(n + 1)]


def test_short_bases_do_not_use_raw_masks(monkeypatch):
    """The bases whose rules read individual seen values count on
    canonical keys; only a basis with a length-4 pattern reaches the raw
    masks."""
    import invseq.oracle as oracle

    def raw(*args):
        raise AssertionError("raw masks")
    monkeypatch.setattr(oracle, "_count_raw", raw)
    for basis in ("000", "101", "010,102", "010,100,120,210"):
        basis = _basis(basis)
        assert count_sequence(basis, 9) == _walk(basis, 9)
    with pytest.raises(AssertionError, match="raw masks"):
        count_sequence(_basis("0012,201"), 5)


def test_canonical_levels_of_010_100_120_210_evidence():
    """Evidence, not a proof: at every depth d <= 30 the canonical level of
    {010, 100, 120, 210} has 1 + d(d-1)/2 states, as many as its
    hand-built system has labels."""
    basis = _basis("010,100,120,210")
    sizes = [len(level) for level in _canonical_levels(basis, 31)]
    assert sizes == [1 + d * (d - 1) // 2 for d in range(31)]


def _label_010_100_120_210(key):
    """The (k, ell) state of a canonical key of {010, 100, 120, 210}:
    (0, 1 << ell, k + ell) is (k, ell), k >= 1, and the root the axiom."""
    banned, seen, width = key
    if key == (0, 0, 0):
        return 0, 0
    ell = seen.bit_length() - 1
    assert banned == 0 and seen == 1 << ell and width > ell, key
    return width - ell, ell


def _label_011_201(key):
    """The (k, ell) state of a canonical key of {011, 201}: (1 << (ell +
    1), 1 << (ell + 1) | 1, k + ell + 1) is (k, ell), k >= 1, (0, 1, k) is
    (k, 0), and the root the axiom."""
    banned, seen, width = key
    if key == (0, 0, 0):
        return 0, 0
    if (banned, seen) == (0, 1):
        return width, 0
    ell = banned.bit_length() - 2
    assert ell >= 0 and banned == 1 << ell + 1 and seen == banned | 1 \
        and width > ell + 1, key
    return width - ell - 1, ell


# system -> (the label of a canonical key, how many labels have k + ell <= 40)
HAND_LABELS = {"010-100-120-210": (_label_010_100_120_210, 821),
               "011-201": (_label_011_201, 861)}


@pytest.mark.parametrize("system_id", sorted(HAND_LABELS))
def test_the_hand_systems_are_the_canonical_trees_relabelled(system_id):
    """Every canonical key the oracle reaches through depth 41 has one of
    the forms of its label, and for each label with k + ell <= 40 the
    labels of the key's children are the hand-written successors of the
    label, counted with multiplicity."""
    label, labels = HAND_LABELS[system_id]
    system = get_system(system_id)
    keys = set().union(*_canonical_levels(system.basis, 42))
    _, ban = _bans(system.basis)
    tests, cut = _demotion(system.basis), _seen_cut(system.basis)
    assert label((0, 0, 0)) == system.axiom
    checked = 0
    for key in keys:
        k, ell = label(key)
        if k + ell <= 40:
            successors = Counter()
            for target, mult in system.successors((k, ell)):
                successors[target] += mult
            children = _children(key, ban, tests, cut)
            assert Counter(map(label, children)) == successors, key
            checked += 1
    assert checked == labels


def test_canonical_levels_of_000_evidence():
    """Evidence, not a proof: at every depth d <= 20 the canonical level of
    {000} has Fib(d + 1) states."""
    fib = [1, 1]
    while len(fib) < 21:
        fib.append(fib[-2] + fib[-1])
    basis = _basis("000")
    sizes = [len(level) for level in _canonical_levels(basis, 21)]
    assert sizes == fib


# ---------- listing_text: the state-DAG listing ----------

# the bases of the oracle benchmark's bitmask-path strata (BUSHY in
# bench/workloads.py)
BUSHY = ("201,210", "011,201", "010,102", "000", "021", "101",
         "010,100,120,210")
# the bases with a length-4 pattern (GENERIC in bench/workloads.py)
GENERIC = ("0123", "0012,201", "1012", "0000")


def _basis(text):
    return tuple(tuple(map(int, word)) for word in text.split(","))


def _text(words):
    """A listing rendered one word at a time, without core.render_listing."""
    return "".join("".join(map(str, e)) + "\n" for e in words)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(PATTERNS_1_4), max_size=3),
       st.integers(min_value=0, max_value=7))
def test_listing_text_matches_generate_and_filter(basis, n):
    """listing_text against filtering every inversion sequence of length n
    with core.avoids, rendered word by word."""
    expected = _text(e for e in all_inversion_sequences(n) if avoids(e, basis))
    assert listing_text(basis, n) == expected


@pytest.mark.parametrize("basis, n_max", [(b, 9) for b in BUSHY]
                         + [(b, 8) for b in GENERIC], ids=BUSHY + GENERIC)
def test_listing_text_equals_the_walk(basis, n_max):
    basis = _basis(basis)
    for n in range(n_max + 1):
        assert listing_text(basis, n) == render_listing(list_avoiders(basis, n)), n


def test_listing_text_equals_the_walk_at_n_10():
    """The longest listing the route takes, 983,072 lines of {201, 210},
    and 25,365 lines of {0012, 201} read from pair states."""
    for basis in (B_201_210, _basis("0012,201")):
        assert listing_text(basis, 10) == render_listing(list_avoiders(basis, 10))


def test_listing_text_edges():
    assert listing_text(B_201_210, 0) == "\n"
    assert listing_text(((0,),), 0) == "\n"
    assert listing_text(((0,),), 1) == ""
    assert listing_text(((0,), (1, 0)), 5) == ""
    assert listing_text((), 1) == "0\n"
    assert listing_text((), 4) == _text(all_inversion_sequences(4))
    assert listing_text([[1, 0], [1, 0]], 3) == "000\n001\n002\n011\n012\n"
    # no single-digit rendering past n = 10, no state DP with a pattern
    # of length 5 or more
    assert listing_text(((0, 0),), 11) is None
    assert listing_text((), 11) is None
    assert listing_text(((0, 1, 0, 2, 3),), 3) is None
    assert listing_text(((0, 0), (0, 1, 0, 2, 3)), 1) is None
    with pytest.raises(ValueError):
        listing_text(((2, 0, 2),), 3)


@pytest.mark.parametrize("basis", ["201,210", "011,201", "000", "021"])
@pytest.mark.parametrize("n", [8, 9])
def test_listing_text_peak_memory(basis, n):
    """The listing holds the blocks of two adjacent depths, never one
    object per word: its traced peak stays below six times the length of
    the text (the walk and render_listing peak at 12 to 16 times)."""
    basis = _basis(basis)
    listing_text(basis, 2)
    tracemalloc.start()
    try:
        text = listing_text(basis, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text), (peak, len(text))


# ---------- pair states: patterns of length 4 ----------


def test_pair_states_single_patterns():
    """Each of the 75 length-4 patterns alone: the state DP, whose pairs
    carry those patterns, against the walk's anchored search, in counts
    and in the listing text, which has one line per counted word."""
    assert len(PATTERNS_4) == 75
    for p in PATTERNS_4:
        counts = count_sequence((p,), 7)
        assert counts == _walk((p,), 7), p
        text = listing_text((p,), 7)
        assert text == render_listing(list_avoiders((p,), 7)), p
        assert text.count("\n") == counts[7], p


def test_pair_states_with_a_shorter_pattern():
    """Each length-4 pattern together with each pattern of length 1 to 3,
    so that pairs and the closed-form bans act on one state."""
    for p in PATTERNS_4:
        for q in PATTERNS_1_3:
            assert count_sequence((p, q), 6) == _walk((p, q), 6), (p, q)


@pytest.mark.parametrize("basis", ["01,0123", "01,1012"])
def test_pair_states_deep_thin(basis):
    """One state per level, 1400 levels deep, and never a pair."""
    basis = _basis(basis)
    assert count_sequence(basis, 1400) == _walk(basis, 1400)


def test_length_4_bases_do_not_walk(monkeypatch):
    """Counts through n and listings through n = 10 of a basis with a
    length-4 pattern come from the state DP alone."""
    import invseq.oracle as oracle

    def walk(*args):
        raise AssertionError("walked")
    basis = _basis("0012,201")
    counts = count_sequence(basis, 8)
    text = listing_text(basis, 8)
    monkeypatch.setattr(oracle, "_walk", walk)
    assert count_sequence(basis, 8) == counts
    assert listing_text(basis, 8) == text
    with pytest.raises(AssertionError, match="walked"):
        count_sequence(((0, 1, 2, 3, 4),), 5)
