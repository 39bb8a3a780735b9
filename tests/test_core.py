import itertools
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from invseq import core
from invseq.core import (
    avoids,
    contains,
    is_inversion_sequence,
    is_valid_pattern,
    parse_word,
    render_listing,
    render_word,
    standardize,
    structure_check_201_210,
    validate_pattern,
)


def all_inversion_sequences(n):
    """The inversion sequences of length n, in the order in which the
    sliced sweep numbers them."""
    return itertools.product(*[range(i + 1) for i in range(n)])


# -- parsing and rendering --------------------------------------------------

def test_parse_digit_string():
    assert parse_word("201") == (2, 0, 1)
    assert parse_word("0023136638899") == (0, 0, 2, 3, 1, 3, 6, 6, 3, 8, 8, 9, 9)
    assert parse_word("") == ()


def test_parse_comma_form():
    assert parse_word("10,2,0") == (10, 2, 0)
    assert parse_word("0,1") == (0, 1)


def test_parse_garbage_rejected():
    for bad in ("2x1", "1,", ",1", "1, 2,", "-1", "2,-1",
                "\u0660\u0661", "\u00b2", "\u0663,1", "+1,2", "1_0,2"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_render_word():
    assert render_word((2, 0, 1)) == "201"
    assert render_word((10, 2, 0)) == "10,2,0"
    assert render_word((-1, 0)) == "-1,0"
    assert render_word(()) == ""


@settings(max_examples=100)
@given(st.one_of(
    st.lists(st.tuples(), max_size=2),  # [] and [()], n = 0
    st.lists(st.lists(st.integers(min_value=-3, max_value=40), max_size=12)
             .map(tuple), max_size=8),
    st.lists(st.lists(st.integers(min_value=0, max_value=9), max_size=12)
             .map(tuple), max_size=8),
))
@example([(10,)])  # a value equal to the separator byte
@example([(0, 10, 2), (1,)])
def test_render_listing_matches_render_word(words):
    text = "\n".join(map(render_word, words))
    assert render_listing(words) == (text + "\n" if words else text)


def test_parse_render_round_trip():
    for w in ((0, 1, 2), (9,), (0, 11, 3), (0, 1, 10, 2), ()):
        assert parse_word(render_word(w)) == w
    # a lone value >= 10 renders without a comma, so the digit-string
    # reading wins on the way back; that ambiguity is documented behavior
    assert parse_word(render_word((10,))) == (1, 0)


# -- standardization --------------------------------------------------------

def test_standardize_worked_example():
    assert standardize(parse_word("43471993")) == parse_word("21230441")


def test_standardize_trivia():
    assert standardize(()) == ()
    assert standardize((5, 5, 5)) == (0, 0, 0)


words = st.lists(st.integers(min_value=0, max_value=30), max_size=12).map(tuple)


@settings(max_examples=200)
@given(words)
def test_standardize_preserves_order(w):
    s = standardize(w)
    assert len(s) == len(w)
    assert is_valid_pattern(s)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            assert (w[i] < w[j]) == (s[i] < s[j])
            assert (w[i] == w[j]) == (s[i] == s[j])


@settings(max_examples=120)
@given(words)
def test_standardize_idempotent(w):
    assert standardize(standardize(w)) == standardize(w)


# -- validity predicates ----------------------------------------------------

def test_is_inversion_sequence():
    assert is_inversion_sequence(parse_word("0002034"))
    assert is_inversion_sequence(parse_word("0023136638899"))
    assert is_inversion_sequence(())
    assert not is_inversion_sequence((1,))
    assert not is_inversion_sequence((0, 2))


def test_is_valid_pattern():
    assert is_valid_pattern(parse_word("101"))
    assert is_valid_pattern((0,))
    assert not is_valid_pattern(parse_word("202"))
    assert not is_valid_pattern((1, 2))
    assert not is_valid_pattern((-1, 0))


def test_validate_pattern():
    validate_pattern((1, 0, 1))
    with pytest.raises(ValueError):
        validate_pattern((2, 0, 2))
    with pytest.raises(ValueError, match="^-1,0 is not an inversion pattern"):
        validate_pattern((-1, 0))
    # containment of the empty pattern is left undefined on purpose
    with pytest.raises(ValueError):
        validate_pattern(())


# -- containment ------------------------------------------------------------

def test_contains_worked_examples():
    e = parse_word("0002034")
    assert contains(e, (1, 0, 2))      # e(4)e(5)e(7) = 204
    assert not contains(e, (0, 1, 1))


def test_contains_self_standardization():
    for e in ((0,), (0, 1), (0, 0, 2), (0, 1, 0, 3)):
        assert contains(e, standardize(e))


def test_contains_rejects_empty_pattern():
    with pytest.raises(ValueError):
        contains((0, 0), ())


def test_avoids():
    assert avoids((0, 1, 2), ((1, 0),))
    assert not avoids((0, 1, 0), ((0, 1, 0),))
    assert avoids((0, 1, 0), ())


def test_avoids_on_a_tuple_of_lists_agrees_with_tuples():
    """avoids turns each pattern of a basis into a tuple before it
    compiles the basis, so a tuple of lists is compiled, and answers, as
    the same tuples."""
    for e in ((0, 1, 0), (0, 0, 1)):
        assert avoids(e, ([0, 1, 0],)) == avoids(e, ((0, 1, 0),))


def test_contains_rejects_invalid_patterns_on_every_call():
    # valid calls fill the compiled-basis cache first; a bad pattern must
    # still raise each time, never be served from the cache
    for p in ((0, 1, 0), (1, 0), (0, 1, 2, 0)):
        contains((0, 1, 0, 2), p)
        avoids((0, 1, 0, 2), [list(p)])
    for _ in range(3):
        for bad in ((), (0, 2)):
            with pytest.raises(ValueError):
                contains((0, 1, 0, 2), bad)
            with pytest.raises(ValueError):
                avoids((0, 1, 0, 2), ((0, 1), bad))


# every valid pattern of length 1 to 4: 1 + 3 + 13 + 75
PATTERNS_1_4 = [p for k in range(1, 5) for p in itertools.product(range(k), repeat=k)
                if is_valid_pattern(p)]


def occurs(e, p):
    """The definition: some subsequence of e standardizes to p."""
    return any(standardize(sub) == p for sub in itertools.combinations(e, len(p)))


inversion_sequences = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(*[st.integers(min_value=0, max_value=i) for i in range(n)]))


@settings(max_examples=400)
@given(inversion_sequences, st.sampled_from(PATTERNS_1_4))
def test_contains_matches_brute_force(e, p):
    assert contains(e, p) == occurs(e, p)


@settings(max_examples=300)
@given(inversion_sequences,
       st.lists(st.sampled_from(PATTERNS_1_4), max_size=3),
       st.booleans())
def test_avoids_matches_definition(e, patterns, as_lists):
    # duplicates are allowed, and some bases arrive as lists of lists
    basis = [list(p) for p in patterns] if as_lists else tuple(patterns)
    assert avoids(e, basis) == (not any(occurs(e, p) for p in patterns))


# every basis of one or two length-3 patterns: 13 + 78
PATTERNS_3 = [p for p in PATTERNS_1_4 if len(p) == 3]
BASES_3 = [(p,) for p in PATTERNS_3] + list(itertools.combinations(PATTERNS_3, 2))


def decoded(mask, n):
    """The words of length n whose bits are set in mask."""
    return [e for w, e in enumerate(all_inversion_sequences(n))
            if mask >> w & 1]


def test_value_masks_mark_each_entry_in_product_order():
    """Every bit of every at[i][v] through length 7 is set exactly when
    the word it numbers in the product order has e[i] = v, and no mask
    has a bit past the n! words."""
    for n in range(8):
        words = list(all_inversion_sequences(n))
        at = core._value_masks(n)
        assert [len(row) for row in at] == list(range(1, n + 1))
        for i, row in enumerate(at):
            for v, mask in enumerate(row):
                assert mask >> len(words) == 0, (n, i, v)
                assert decoded(mask, n) == [e for e in words if e[i] == v], \
                    (n, i, v)


def test_order_masks_compare_the_entries():
    """lt[a, b] through length 7 holds exactly the words with
    e[a] < e[b], for every two positions a != b."""
    for n in range(8):
        words = list(all_inversion_sequences(n))
        lt = core._order_masks(n)
        assert sorted(lt) == [(a, b) for a in range(n) for b in range(n)
                              if a != b]
        for (a, b), mask in lt.items():
            assert decoded(mask, n) == [e for e in words if e[a] < e[b]], \
                (n, a, b)


def sliced_answers(mask, n):
    """The answer of a sliced side on each word of length n, in order."""
    return [bool(mask >> w & 1) for w in range(factorial(n))]


def test_the_sliced_matcher_equals_the_loop():
    """The sliced matcher agrees, on every inversion sequence of length
    up to 6, with the loop of _middle_match for every basis of length-3
    patterns."""
    assert len(BASES_3) == 91
    masks = [core._order_masks(n) for n in range(7)]
    for basis in BASES_3:
        groups = core._compile(basis)[0]
        for n, lt in enumerate(masks):
            assert (sliced_answers(core._sliced_avoider(basis, n, lt), n)
                    == [not core._middle_match(e, groups)
                        for e in all_inversion_sequences(n)]), basis


@pytest.mark.parametrize("basis", [
    ((2, 0, 1), (2, 1, 0)),
    ((0, 1, 1), (2, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0)),
    ((1, 0, 2),),
], ids=["201-210", "011-201", "010-100-120-210", "102"])
def test_the_sliced_matcher_equals_avoids_through_8(basis):
    """On every inversion sequence of length at most 8, the sliced
    matcher agrees with avoids, for the bases of the three rule systems
    and one single pattern."""
    for n in range(9):
        answers = sliced_answers(
            core._sliced_avoider(basis, n, core._order_masks(n)), n)
        assert answers == [avoids(e, basis)
                           for e in all_inversion_sequences(n)], n


def test_only_length_3_patterns_have_a_sliced_matcher():
    lt = core._order_masks(5)
    for basis in (((0, 1),), ((2, 0, 1), (0, 1, 0, 2))):
        with pytest.raises(ValueError):
            core._sliced_avoider(basis, 5, lt)


def _any_word(n):
    """Words of length n with negative, out-of-range and huge values."""
    return st.lists(st.integers(min_value=-3, max_value=n + 3)
                    | st.sampled_from([-10**30, 10**30]),
                    min_size=n, max_size=n)


@settings(max_examples=100)
@given(st.lists(st.sampled_from([p for p in PATTERNS_1_4 if len(p) > 1]),
                min_size=1, max_size=3),
       st.integers(min_value=0, max_value=14).flatmap(_any_word))
def test_avoids_matches_definition_on_any_integer_word(patterns, e):
    """Bases mixing lengths 2 to 4, on any integer word up to 14
    entries."""
    assert avoids(e, patterns) == (not any(occurs(e, p) for p in patterns))


def test_contains_any_integer_word():
    # words outside inversion-sequence range are matched by value order
    assert contains((-3, 40, 7), (0, 2, 1))
    assert not contains((10**30, -5, 10**30), (0, 1, 0))
    assert contains((5, -1, 5, 2), (1, 0, 1))


@settings(max_examples=120)
@given(st.data())
def test_contains_monotone_under_extension(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    e = tuple(data.draw(st.integers(min_value=0, max_value=i)) for i in range(n))
    p = data.draw(st.sampled_from([(0, 1, 0), (1, 0, 2), (2, 0, 1), (1, 0)]))
    x = data.draw(st.integers(min_value=0, max_value=n))
    if contains(e, p):
        assert contains(e + (x,), p)


# -- structural characterization -------------------------------------------

def test_structure_check_worked_examples():
    assert structure_check_201_210(parse_word("00002204535377896966"))
    assert not structure_check_201_210(parse_word("00201"))
    assert structure_check_201_210(())


def two_smallest_check(e):
    """The structure check by another algorithm: sweep a word of
    non-negative values right to left keeping the two smallest distinct
    values to the right; a left-to-right maximum m (ties included) fails
    when the second-smallest of them is below m."""
    n = len(e)
    is_lr_max = [False] * n
    best = -1
    for i, v in enumerate(e):
        if v >= best:
            is_lr_max[i] = True
            best = v
    lo1 = lo2 = None  # two smallest distinct values strictly to the right
    for i in range(n - 1, -1, -1):
        if is_lr_max[i] and lo2 is not None and lo2 < e[i]:
            return False
        v = e[i]
        if lo1 is None or v < lo1:
            if lo1 is not None and v != lo1:
                lo2 = lo1 if (lo2 is None or lo1 < lo2) else lo2
            lo1 = v
        elif v != lo1 and (lo2 is None or v < lo2):
            lo2 = v
    return True


def test_the_sliced_checker_equals_the_loops():
    """On every inversion sequence of length at most 8, the sliced
    checker agrees with the bitmask loop of structure_check_201_210 and
    with the sweep of the two smallest suffix values."""
    words = [e for n in range(9) for e in all_inversion_sequences(n)]
    assert len(words) == 46234
    checked = [structure_check_201_210(e) for e in words]
    sliced = [answer for n in range(9) for answer in sliced_answers(
        core._sliced_checker(n, core._order_masks(n)), n)]
    assert checked == sliced
    assert checked == [two_smallest_check(e) for e in words]


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=16).flatmap(_any_word))
@example([-2, -10**30, -3])  # 201 once standardized
def test_structure_check_matches_avoidance_on_any_integer_word(e):
    """Any integer word up to 16 entries, with negative, out-of-range and
    huge values and ties: the loop and avoids agree."""
    assert structure_check_201_210(e) == avoids(e, ((2, 0, 1), (2, 1, 0)))


def test_structure_check_matches_avoidance_small():
    # the exhaustive length <= 9 sweep lives in the acceptance tests
    basis = ((2, 0, 1), (2, 1, 0))
    for n in range(7):
        for e in all_inversion_sequences(n):
            assert structure_check_201_210(e) == avoids(e, basis)
